"""Scaling projection from multi-size trace families.

Given MFACT predictions of the same application at several rank counts,
fit a two-term scaling law and extrapolate: compute follows an
Amdahl/Gustafson split (serial + parallel/p) and communication follows
a power law in p (halo surfaces shrink, collective depths grow).  This
answers the question the paper's conclusion gestures at — using cheap
modeling to look *beyond* the traced scales — while staying honest:
the projection carries its fit residual so wild extrapolations are
visibly uncertain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.machines.config import MachineConfig
from repro.mfact.logical_clock import LogicalClockReplay
from repro.trace.trace import TraceSet

__all__ = ["ScalingFit", "fit_scaling", "project_scaling"]


@dataclass(frozen=True)
class ScalingFit:
    """Fitted model: T(p) = serial + parallel / p + c * p^beta."""

    serial: float
    parallel: float
    comm_coefficient: float
    comm_exponent: float
    residual_rms: float
    ranks: Tuple[int, ...]

    def predict(self, p) -> np.ndarray:
        """Projected total time at rank count(s) ``p``."""
        p = np.asarray(p, dtype=float)
        return self.serial + self.parallel / p + self.comm_coefficient * p**self.comm_exponent

    def efficiency(self, p) -> np.ndarray:
        """Parallel efficiency vs the smallest fitted size."""
        p0 = float(min(self.ranks))
        t0 = float(self.predict(p0))
        p = np.asarray(p, dtype=float)
        return (t0 * p0) / (self.predict(p) * p)

    def sweet_spot(self, candidates: Sequence[int]) -> int:
        """The candidate rank count with the best time*resources product."""
        candidates = list(candidates)
        costs = [float(self.predict(p)) * p for p in candidates]
        return candidates[int(np.argmin(costs))]


def _decompose(trace: TraceSet, machine: MachineConfig) -> Tuple[float, float]:
    """(compute on critical path, communication share) via one replay."""
    replay = LogicalClockReplay(trace, machine)
    total = replay.run().baseline_total_time
    compute = max(replay.counters.compute)
    return compute, max(0.0, total - compute)


def fit_scaling(
    traces: Sequence[TraceSet], machine: MachineConfig
) -> ScalingFit:
    """Fit the scaling law to >= 3 sizes of one application.

    The compute terms are fitted by least squares on
    ``compute(p) = serial + parallel / p``; the communication term by a
    log-log regression on the replay's communication time.
    """
    if len(traces) < 3:
        raise ValueError("need at least three trace sizes to fit three shapes")
    ranks = [t.nranks for t in traces]
    if len(set(ranks)) != len(ranks):
        raise ValueError("trace sizes must be distinct")
    comp: List[float] = []
    comm: List[float] = []
    for trace in traces:
        c, q = _decompose(trace, machine)
        comp.append(c)
        comm.append(max(q, 1e-12))
    p = np.asarray(ranks, dtype=float)
    comp_arr = np.asarray(comp)
    # compute(p) = serial + parallel/p  (non-negative least squares, 2x2).
    A = np.column_stack([np.ones_like(p), 1.0 / p])
    coef, *_ = np.linalg.lstsq(A, comp_arr, rcond=None)
    serial, parallel = float(max(coef[0], 0.0)), float(max(coef[1], 0.0))
    # comm(p) = c * p^beta via log-log fit.
    logs = np.log(np.asarray(comm))
    B = np.column_stack([np.ones_like(p), np.log(p)])
    ccoef, *_ = np.linalg.lstsq(B, logs, rcond=None)
    c0, beta = float(np.exp(ccoef[0])), float(ccoef[1])
    fit = ScalingFit(
        serial=serial,
        parallel=parallel,
        comm_coefficient=c0,
        comm_exponent=beta,
        residual_rms=0.0,
        ranks=tuple(int(r) for r in ranks),
    )
    predicted = fit.predict(p)
    totals = comp_arr + np.asarray(comm)
    rms = float(np.sqrt(np.mean((predicted - totals) ** 2)))
    return ScalingFit(
        serial=serial,
        parallel=parallel,
        comm_coefficient=c0,
        comm_exponent=beta,
        residual_rms=rms,
        ranks=tuple(int(r) for r in ranks),
    )


def project_scaling(
    traces: Sequence[TraceSet],
    machine: MachineConfig,
    targets: Sequence[int],
) -> Dict[int, float]:
    """Fit and project in one call: {target rank count: projected time}."""
    fit = fit_scaling(traces, machine)
    return {int(p): float(fit.predict(p)) for p in targets}
