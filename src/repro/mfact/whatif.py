"""What-if design-space exploration (Section II-C's practical case).

The paper motivates modeling for *disruptive* design questions — "a
cluster with a 10x faster network and 100x faster compute" — where the
design space is too large to simulate point by point.  This module
wraps MFACT's trace model in a small design-space API:
declare axes (bandwidth, latency, compute speed), price the whole grid,
and query speedups, bottleneck shifts and the cheapest configuration
meeting a target.

Every grid point is priced by evaluating the max-plus dependency graph
of the trace model (:func:`repro.sensitivity.analysis.trace_model`) —
the graph recorded by the MFACT sweep replay itself, so a trace that
was already modeled or analyzed pays no replay at all.  It agrees with
a replay per compute factor (the oracle in
``tests/test_sensitivity_differential.py``) within the package's
documented ``1e-6`` relative band; that suite asserts ``1e-9`` on the
mini-corpus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.machines.config import MachineConfig
from repro.trace.trace import TraceSet

__all__ = ["DesignPoint", "DesignSpaceResult", "explore_design_space"]


@dataclass(frozen=True)
class DesignPoint:
    """One hypothetical machine: speed factors relative to the baseline."""

    bandwidth_factor: float
    latency_factor: float
    compute_factor: float

    def describe(self) -> str:
        return (
            f"bw x{self.bandwidth_factor:g}, lat x{self.latency_factor:g}, "
            f"compute x{self.compute_factor:g}"
        )


@dataclass
class DesignSpaceResult:
    """Predicted application time over a design grid."""

    machine: MachineConfig
    points: List[DesignPoint]
    total_time: np.ndarray  # aligned with points
    baseline_index: int

    @property
    def baseline_time(self) -> float:
        return float(self.total_time[self.baseline_index])

    def speedup(self, point: DesignPoint) -> float:
        """Baseline time divided by the point's predicted time."""
        idx = self.points.index(point)
        return self.baseline_time / float(self.total_time[idx])

    def best(self) -> Tuple[DesignPoint, float]:
        """The fastest configuration and its speedup."""
        idx = int(np.argmin(self.total_time))
        return self.points[idx], self.baseline_time / float(self.total_time[idx])

    def cheapest_meeting(
        self, target_speedup: float, rel_tol: float = 1e-9
    ) -> Optional[DesignPoint]:
        """The least aggressive upgrade achieving ``target_speedup``.

        "Least aggressive" minimizes the product of the three factors —
        a rough proxy for cost.  Returns None if no grid point reaches
        the target.

        Boundary behavior is deterministic: a point qualifies when its
        speedup reaches the target within ``rel_tol`` relative slack
        (so a speedup equal to the target except for float rounding —
        e.g. ``1.9999999999999998`` vs ``2.0`` — is not dropped), and a
        candidate replaces the incumbent only when its cost is smaller
        by more than the same relative slack — cost ties, exact or
        float-noise, keep the *first* qualifying point in grid order.
        """
        best_point = None
        best_cost = None
        threshold = target_speedup * (1.0 - rel_tol)
        for point, total in zip(self.points, self.total_time):
            if self.baseline_time / float(total) < threshold:
                continue
            cost = point.bandwidth_factor * point.compute_factor * point.latency_factor
            if best_cost is None or cost < best_cost * (1.0 - rel_tol):
                best_cost = cost
                best_point = point
        return best_point

    def amdahl_table(self) -> List[Tuple[str, float]]:
        """(description, speedup) rows sorted by speedup, descending."""
        rows = [
            (point.describe(), self.baseline_time / float(total))
            for point, total in zip(self.points, self.total_time)
        ]
        return sorted(rows, key=lambda r: -r[1])


def explore_design_space(
    trace: TraceSet,
    machine: MachineConfig,
    bandwidth_factors: Sequence[float] = (1.0, 2.0, 10.0),
    latency_factors: Sequence[float] = (1.0, 2.0, 10.0),
    compute_factors: Sequence[float] = (1.0, 10.0, 100.0),
    analytic: bool = True,
) -> DesignSpaceResult:
    """Price a trace on every (bw, lat, compute) combination.

    One tape evaluation of the trace model prices the whole grid,
    compute axis included; the model is recorded once per trace content
    and shared with the other queries.  Points are ordered compute-major,
    then latency, then bandwidth, and the grid must contain the baseline
    point (all factors 1.0).

    ``analytic`` accepts only ``True``, the one pricing path; the
    replay-per-compute-factor loop is the test oracle in
    ``tests/test_sensitivity_differential.py``.
    """
    if not analytic:
        raise ValueError(
            "explore_design_space prices only off the trace model's tape; the "
            "replay-per-compute-factor loop is the oracle in "
            "tests/test_sensitivity_differential.py"
        )
    if not all(f > 0 for f in bandwidth_factors):
        raise ValueError("bandwidth factors must be positive")
    if not all(f > 0 for f in latency_factors):
        raise ValueError("latency factors must be positive")
    if not all(f > 0 for f in compute_factors):
        raise ValueError("compute factors must be positive")
    # Imported here: whatif is a mfact module and repro.sensitivity
    # builds on mfact's replay, so a top-level import would be cyclic.
    from repro.sensitivity.analysis import trace_model

    points: List[DesignPoint] = []
    lats: List[float] = []
    bws: List[float] = []
    scales: List[float] = []
    baseline_index = None
    for cf in compute_factors:
        for lf in latency_factors:
            for bf in bandwidth_factors:
                points.append(DesignPoint(bf, lf, cf))
                lats.append(machine.latency / lf)
                bws.append(machine.bandwidth * bf)
                scales.append(machine.compute_scale / cf)
                if bf == 1.0 and lf == 1.0 and cf == 1.0:
                    baseline_index = len(points) - 1
    if baseline_index is None:
        raise ValueError(
            "the design grid must contain the baseline point (all factors 1.0)"
        )
    graph, _ = trace_model(trace, machine)
    totals = graph.evaluate(np.asarray(lats), np.asarray(bws), np.asarray(scales))
    return DesignSpaceResult(
        machine=machine,
        points=points,
        total_time=totals,
        baseline_index=baseline_index,
    )
