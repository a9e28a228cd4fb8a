"""repro — reproduction of "Performance and Accuracy Trade-offs of HPC
Application Modeling and Simulation" (IPPS 2018).

The package provides:

* :mod:`repro.mfact` — MFACT-style trace-driven modeling (logical
  clocks, Hockney p2p, Thakur–Gropp collectives, multi-configuration
  replay, application classification);
* :mod:`repro.sim` — SST/Macro-style discrete-event simulation with
  packet, flow and packet-flow network models over torus / dragonfly /
  fat-tree topologies;
* :mod:`repro.workloads` — synthetic NPB + DOE trace generators, the
  235-trace study corpus, and ground-truth timestamp synthesis;
* :mod:`repro.core` — DIFFtotal, the study pipeline and the enhanced
  MFACT need-for-simulation predictor;
* :mod:`repro.analysis` — ``tracelint`` static trace analysis (no
  simulation needed) and ``repro-lint``, the determinism linter over
  the repo's own sources;
* :mod:`repro.experiments` — one module per paper table/figure.

Quickstart::

    from repro import CIELITO, generate_npb, model_trace, simulate_trace
    trace = generate_npb("CG", 64, CIELITO, seed=1, compute_per_iter=0.01)
    report = model_trace(trace, CIELITO)          # MFACT modeling
    result = simulate_trace(trace, CIELITO)       # packet-flow simulation
    print(report.baseline_total_time, result.total_time)
"""

from repro.analysis import Diagnostic, LintReport, Severity, lint_trace
from repro.core import (
    DIFF_THRESHOLD,
    EnhancedMFACT,
    StudyRecord,
    diff_total,
    measure_trace,
    naive_heuristic_success,
    requires_simulation,
)
from repro.machines import CIELITO, EDISON, HOPPER, MachineConfig, get_machine
from repro.mfact import AppClass, ConfigGrid, MFACTReport, model_trace
from repro.sim import SimResult, simulate_trace
from repro.trace import Op, OpKind, TraceSet, read_trace, write_trace
from repro.workloads import (
    ProgramBuilder,
    build_corpus,
    build_trace,
    corpus_specs,
    generate_doe,
    generate_npb,
    synthesize_ground_truth,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "DIFF_THRESHOLD",
    "EnhancedMFACT",
    "StudyRecord",
    "diff_total",
    "requires_simulation",
    "measure_trace",
    "naive_heuristic_success",
    "MachineConfig",
    "CIELITO",
    "EDISON",
    "HOPPER",
    "get_machine",
    "AppClass",
    "ConfigGrid",
    "MFACTReport",
    "model_trace",
    "SimResult",
    "simulate_trace",
    "Op",
    "OpKind",
    "TraceSet",
    "read_trace",
    "write_trace",
    "ProgramBuilder",
    "build_corpus",
    "build_trace",
    "corpus_specs",
    "generate_npb",
    "generate_doe",
    "synthesize_ground_truth",
    "Diagnostic",
    "LintReport",
    "Severity",
    "lint_trace",
]
