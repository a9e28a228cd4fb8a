"""Synthetic workload generation: patterns, NPB + DOE apps, corpus, ground truth."""

# NOTE: repro.workloads.audit is intentionally not re-exported here; it
# depends on repro.core and importing it at package init would be circular.
from repro.workloads.base import Program, ProgramBuilder
from repro.workloads.doe import DOE_APPS, doe_program, generate_doe
from repro.workloads.npb import NPB_APPS, generate_npb, npb_program
from repro.workloads.patterns import (
    butterfly_exchange,
    grid_dims,
    halo_exchange,
    irregular_exchange,
    neighbor_lists_grid,
    ring_shift,
    sweep_pipeline,
)
from repro.workloads.suite import (
    CORPUS_SIZE,
    RANK_POOL,
    TraceSpec,
    build_corpus,
    build_trace,
    corpus_specs,
)
from repro.workloads.synthesis import (
    DEFECT_KINDS,
    GroundTruthSynthesizer,
    inject_defect,
    synthesize_ground_truth,
)

__all__ = [
    "Program",
    "ProgramBuilder",
    "NPB_APPS",
    "DOE_APPS",
    "generate_npb",
    "generate_doe",
    "npb_program",
    "doe_program",
    "grid_dims",
    "halo_exchange",
    "sweep_pipeline",
    "butterfly_exchange",
    "irregular_exchange",
    "ring_shift",
    "neighbor_lists_grid",
    "TraceSpec",
    "corpus_specs",
    "build_trace",
    "build_corpus",
    "CORPUS_SIZE",
    "RANK_POOL",
    "GroundTruthSynthesizer",
    "synthesize_ground_truth",
    "DEFECT_KINDS",
    "inject_defect",
]
