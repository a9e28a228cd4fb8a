"""Programmatic ablation sweeps for the design choices DESIGN.md calls out.

Each function returns plain data (lists of dict rows) so the benchmark
modules, the CLI and notebooks can share one implementation:

* :func:`sweep_chunk_size` — packet-flow coarse-packet size vs cost and
  predicted time (SST's 1-8 KiB guidance);
* :func:`sweep_ripple` — flow-model ripple updates on/off;
* :func:`sweep_stepwise_cap` — stepwise variable cap vs cross-validated
  misclassification;
* :func:`sweep_diff_threshold` — the 2% DIFFtotal label threshold vs
  positive share and model success;
* :func:`sweep_vectorization` — MFACT's sweep priced off one recorded
  replay's tape vs one replay per configuration;
* :func:`sweep_sensitivity_features` — the need-for-simulation model
  with vs without the zero-replay sensitivity features
  (``lat_tolerance``, ``bw_sensitivity``, ``critical_path_frac``).
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.enhanced_mfact import CANDIDATE_NAMES, design_matrix
from repro.core.pipeline import StudyRecord
from repro.machines.config import MachineConfig
from repro.mfact.hockney import ConfigGrid
from repro.mfact.logical_clock import LogicalClockReplay
from repro.sensitivity.analysis import price_grid
from repro.sim.mpi_replay import SimReplay
from repro.stats.mccv import monte_carlo_cv
from repro.trace.features import SENSITIVITY_FEATURE_NAMES
from repro.trace.trace import TraceSet
from repro.util.units import KIB

__all__ = [
    "sweep_chunk_size",
    "sweep_ripple",
    "sweep_stepwise_cap",
    "sweep_diff_threshold",
    "sweep_vectorization",
    "sweep_sensitivity_features",
]


def sweep_chunk_size(
    trace: TraceSet,
    machine: MachineConfig,
    sizes: Sequence[int] = (1 * KIB, 2 * KIB, 4 * KIB, 8 * KIB),
) -> List[Dict[str, float]]:
    """Packet-flow chunk-size sweep: cost vs accuracy."""
    rows = []
    for chunk in sizes:
        replay = SimReplay(trace, machine, "packet-flow", chunk_size=int(chunk))
        result = replay.run()
        rows.append(
            {
                "chunk_bytes": float(chunk),
                "predicted_total": result.total_time,
                "walltime": result.walltime,
                "packets": float(replay.model.packets_sent),
                "events": float(result.events),
            }
        )
    return rows


def sweep_ripple(trace: TraceSet, machine: MachineConfig) -> List[Dict[str, float]]:
    """Flow model with full ripple updates vs frozen admission rates."""
    rows = []
    for ripple in (True, False):
        replay = SimReplay(trace, machine, "flow", ripple=ripple)
        result = replay.run()
        rows.append(
            {
                "ripple": float(ripple),
                "predicted_total": result.total_time,
                "walltime": result.walltime,
                "ripple_updates": float(replay.model.ripple_updates),
            }
        )
    return rows


def sweep_stepwise_cap(
    records: Sequence[StudyRecord],
    caps: Sequence[int] = (1, 2, 3, 5, 8),
    runs: int = 25,
    seed: int = 11,
) -> List[Dict[str, float]]:
    """Stepwise variable-cap sweep: cap vs trimmed misclassification."""
    X = design_matrix(records)
    y = np.array([int(r.requires_simulation()) for r in records])
    rows = []
    for cap in caps:
        cv = monte_carlo_cv(X, y, CANDIDATE_NAMES, runs=runs, max_vars=int(cap), seed=seed)
        rows.append(
            {
                "max_vars": float(cap),
                "trimmed_mr": cv.trimmed_mr,
                "trimmed_fn": cv.trimmed_fn,
                "trimmed_fp": cv.trimmed_fp,
            }
        )
    return rows


def sweep_diff_threshold(
    records: Sequence[StudyRecord],
    thresholds: Sequence[float] = (0.01, 0.02, 0.05, 0.10),
    runs: int = 25,
    seed: int = 5,
) -> List[Dict[str, float]]:
    """Label-threshold sweep: positive share and model success per cut."""
    X = design_matrix(records)
    diffs = np.array([r.diff_total() for r in records], dtype=float)
    rows = []
    for threshold in thresholds:
        y = (diffs > threshold).astype(int)
        row = {"threshold": float(threshold), "positive_share": float(y.mean())}
        if 0 < y.sum() < y.size:
            cv = monte_carlo_cv(X, y, CANDIDATE_NAMES, runs=runs, seed=seed)
            row["success_rate"] = cv.success_rate
        else:
            row["success_rate"] = float("nan")
        rows.append(row)
    return rows


def sweep_vectorization(
    trace: TraceSet, machine: MachineConfig, grid: Optional[ConfigGrid] = None
) -> Dict[str, float]:
    """MFACT's one-replay-many-configs design vs per-config replays.

    The one-replay side is MFACT's own
    (:func:`~repro.sensitivity.analysis.price_grid`); ``grid``'s
    baseline must be the machine's own configuration.
    """
    grid = grid if grid is not None else ConfigGrid.sweep(machine)
    t0 = time.perf_counter()
    vector = price_grid(trace, machine, grid)[2].total_time
    t_vector = time.perf_counter() - t0
    t0 = time.perf_counter()
    scalar = []
    for i in range(len(grid)):
        point = replace(
            machine,
            latency=float(grid.latency[i]),
            bandwidth=float(grid.bandwidth[i]),
            compute_scale=float(grid.compute_scale[i]),
        )
        scalar.append(LogicalClockReplay(trace, point).run().baseline_total_time)
    t_scalar = time.perf_counter() - t0
    return {
        "configs": float(len(grid)),
        "vectorized_walltime": t_vector,
        "per_config_walltime": t_scalar,
        "speedup": t_scalar / max(t_vector, 1e-9),
        "max_prediction_gap": float(np.max(np.abs(vector - np.array(scalar)))),
    }


def sweep_sensitivity_features(
    records: Sequence[StudyRecord],
    runs: int = 25,
    seed: int = 7,
) -> List[Dict[str, float]]:
    """Ablate the zero-replay sensitivity features from the predictor.

    Cross-validates the need-for-simulation model twice on the same
    records and partitions (same seed): once over the full candidate
    set and once with the :data:`SENSITIVITY_FEATURE_NAMES` columns
    removed, so the rows isolate what the recorded dependency graph
    buys on top of the Table III features.
    """
    X = design_matrix(records)
    y = np.array([int(r.requires_simulation()) for r in records])
    keep = [i for i, n in enumerate(CANDIDATE_NAMES)
            if n not in SENSITIVITY_FEATURE_NAMES]
    variants = [
        ("with_sensitivity", X, list(CANDIDATE_NAMES)),
        ("tableIII_only", X[:, keep], [CANDIDATE_NAMES[i] for i in keep]),
    ]
    rows = []
    for label, Xv, names in variants:
        cv = monte_carlo_cv(Xv, y, names, runs=runs, seed=seed)
        rows.append(
            {
                "variant": label,
                "n_features": float(len(names)),
                "success_rate": cv.success_rate,
                "trimmed_mr": cv.trimmed_mr,
                "trimmed_fn": cv.trimmed_fn,
                "trimmed_fp": cv.trimmed_fp,
            }
        )
    return rows
