"""Latency/bandwidth tolerance analytics over a recorded graph.

One recorded replay yields a :class:`~repro.sensitivity.graph.DependencyGraph`;
everything here is pure tape evaluation — thousands of what-if points
for the cost of that single replay, which is MFACT's own sweep replay
(:func:`record_graph`, shared between queries by :func:`trace_model`):

* :func:`latency_curve` / :func:`bandwidth_curve` — predicted totals as
  the network degrades or improves along one axis.
* :func:`latency_tolerance` — the largest latency multiplier the
  application absorbs within a relative slowdown budget (LLAMP's
  question).  The predicted total is a *convex* nondecreasing
  piecewise-linear function of the latency multiplier (a max over
  paths, each affine in it), so the threshold is found exactly by
  guarded parametric Newton: the critical path at a trial multiplier
  gives both the value and the slope (``alpha_count * latency``), and
  once the binding path at the crossing is reached the step lands on
  the root.  Deterministic in both result and work.
* :func:`analyze_trace` — the full :class:`SensitivityReport` with the
  three design-matrix features.

Degenerate traces are first-class: a pure-compute trace (or an empty
one) has an *unbounded* latency tolerance — reported as ``inf``, capped
at :data:`LAT_TOLERANCE_CAP` in feature space — zero bandwidth
sensitivity, and a critical path that is all compute.  No division by
zero or NaN ever reaches the design matrix; the Hypothesis suite in
``tests/test_sensitivity.py`` holds that line.

Tolerance semantics
-------------------

``lat_tolerance`` answers: *by what factor can wire latency grow before
the application slows down more than ``tolerance`` (default 5%)?*  A
latency-bound ring exchange tolerates barely more than 1x; a
compute-dominated stencil tolerates orders of magnitude.  The feature
fed to the classifier is ``log10`` of the (capped) multiplier, in
``[0, 6]``.  ``bw_sensitivity`` is the relative slowdown when bandwidth
halves, and ``critical_path_frac`` the non-compute fraction of the
critical path — both already in ``[0, 1]``-ish ranges that need no
transform.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro import obs
from repro.machines.config import MachineConfig
from repro.mfact.hockney import ConfigGrid
from repro.mfact.logical_clock import LogicalClockReplay
from repro.mfact.report import MFACTReport
from repro.sensitivity.graph import CriticalPath, DependencyGraph, GraphRecorder
from repro.trace.trace import TraceSet
from repro.util.fingerprint import machine_config_hash, trace_fingerprint

__all__ = [
    "DEFAULT_BW_CURVE_FACTORS",
    "DEFAULT_LAT_CURVE_FACTORS",
    "DEFAULT_TOLERANCE",
    "LAT_TOLERANCE_CAP",
    "SensitivityReport",
    "analyze_graph",
    "analyze_trace",
    "bandwidth_curve",
    "latency_curve",
    "latency_tolerance",
    "record_graph",
    "trace_model",
]

#: Relative slowdown budget defining the latency-tolerance threshold.
DEFAULT_TOLERANCE = 0.05

#: Largest latency multiplier probed; tolerances beyond it are ``inf``.
LAT_TOLERANCE_CAP = 1.0e6

#: Latency multipliers (>= 1 degrades the network) for the curve.
DEFAULT_LAT_CURVE_FACTORS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 256.0, 1024.0)

#: Bandwidth multipliers (< 1 degrades the network) for the curve.
DEFAULT_BW_CURVE_FACTORS = (0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)

#: Threshold search: iteration cap on the guarded parametric Newton.
#: Each step pivots to a new binding path, so the cap is only a
#: backstop — real tapes converge in a handful of steps.
_NEWTON_MAX_STEPS = 64
#: Feasibility slack absorbing float noise at the exact crossing.
_NEWTON_SLACK = 1e-12


def record_graph(
    trace: TraceSet, machine: MachineConfig
) -> Tuple[DependencyGraph, MFACTReport]:
    """The trace model: one MFACT sweep replay with a recorder attached.

    Returns the sealed graph and the ordinary MFACT report of that
    replay (:meth:`ConfigGrid.sweep` grid, the default of
    :func:`~repro.mfact.logical_clock.model_trace`).  The recorder's
    hooks are structural, so the graph does not depend on the grid.
    No memo: each call replays (see :func:`trace_model`).
    """
    recorder = GraphRecorder(trace.nranks, machine)
    report = LogicalClockReplay(
        trace, machine, ConfigGrid.sweep(machine), recorder=recorder
    ).run()
    with obs.span("sensitivity_graph"):  # sealing: arrays and levels
        graph = recorder.finish()
    if obs.enabled():
        obs.counter("repro_sensitivity_graphs_total").inc()
        obs.counter("repro_sensitivity_nodes_total").inc(graph.n_nodes)
        obs.counter("repro_sensitivity_edges_total").inc(graph.n_edges)
    return graph, report


#: Trace models kept by :func:`trace_model`.  Callers query one trace
#: at a time, so the latest model is all a hit needs; keeping more only
#: holds graphs (a few MB each) that no later query reads.
TRACE_MODEL_MEMO_SIZE = 1

_memo: "OrderedDict[Tuple[str, str], Tuple[DependencyGraph, MFACTReport]]" = OrderedDict()
_memo_lock = threading.Lock()


def trace_model(
    trace: TraceSet, machine: MachineConfig
) -> Tuple[DependencyGraph, MFACTReport]:
    """:func:`record_graph`, shared by the query calls on one trace.

    ``model_trace`` (default grid), :func:`analyze_trace` and
    ``explore_design_space`` all read the same trace
    model, so a trace queried all three ways replays once.  The memo is
    keyed by content — the trace fingerprint and the machine config
    hash, as the record cache is — because traces are mutable:
    ``synthesize_ground_truth`` restamps durations in place.  It keeps
    the :data:`TRACE_MODEL_MEMO_SIZE` most recently used models.  The
    returned graph and report are shared; callers must not mutate them.
    """
    key = (trace_fingerprint(trace), machine_config_hash(machine))
    with _memo_lock:
        model = _memo.get(key)
        if model is not None:
            _memo.move_to_end(key)
        else:  # make room first, so evicted graphs are freed before the replay
            while len(_memo) >= TRACE_MODEL_MEMO_SIZE:
                _memo.popitem(last=False)
    obs.counter("repro_trace_model_total", status="miss" if model is None else "hit").inc()
    if model is not None:
        return model
    model = record_graph(trace, machine)
    with _memo_lock:
        _memo[key] = model
        _memo.move_to_end(key)
        while len(_memo) > TRACE_MODEL_MEMO_SIZE:
            _memo.popitem(last=False)
    return model


def latency_curve(
    graph: DependencyGraph,
    machine: MachineConfig,
    factors: Sequence[float] = DEFAULT_LAT_CURVE_FACTORS,
) -> List[Tuple[float, float]]:
    """``(latency multiplier, predicted total)`` points, one tape pass."""
    f = np.asarray(factors, dtype=float)
    totals = graph.evaluate(machine.latency * f, machine.bandwidth, machine.compute_scale)
    return [(float(x), float(t)) for x, t in zip(f, totals)]


def bandwidth_curve(
    graph: DependencyGraph,
    machine: MachineConfig,
    factors: Sequence[float] = DEFAULT_BW_CURVE_FACTORS,
) -> List[Tuple[float, float]]:
    """``(bandwidth multiplier, predicted total)`` points, one tape pass."""
    f = np.asarray(factors, dtype=float)
    totals = graph.evaluate(machine.latency, machine.bandwidth * f, machine.compute_scale)
    return [(float(x), float(t)) for x, t in zip(f, totals)]


def latency_tolerance(
    graph: DependencyGraph,
    machine: MachineConfig,
    tolerance: float = DEFAULT_TOLERANCE,
    cap: float = LAT_TOLERANCE_CAP,
) -> float:
    """Largest latency multiplier with ``T(m * alpha) <= (1 + tolerance)
    * T(alpha)``; ``inf`` when even ``cap`` stays inside the budget
    (pure-compute traces, or zero-time degenerate traces)."""
    t0 = float(graph.evaluate(machine.latency, machine.bandwidth, machine.compute_scale)[0])
    if t0 <= 0.0:
        return math.inf
    t_cap = float(
        graph.evaluate(machine.latency * cap, machine.bandwidth, machine.compute_scale)[0]
    )
    return _tolerance_root(graph, machine, (1.0 + tolerance) * t0, t_cap, cap)


def _tolerance_root(
    graph: DependencyGraph,
    machine: MachineConfig,
    budget: float,
    t_cap: float,
    cap: float,
) -> float:
    """Solve ``T(m) == budget`` by guarded parametric Newton.

    ``T`` is a max over paths, each affine in the multiplier ``m``, so
    it is convex piecewise-linear and nondecreasing; the critical path
    at a trial point gives the exact tangent (value and slope).  The
    bracket ``[lo, hi]`` keeps ``T(lo) <= budget < T(hi)``; any Newton
    proposal outside it falls back to the geometric midpoint, so the
    search terminates even on float-noise plateaus.
    """
    if t_cap <= budget:
        return math.inf
    lat0, bw0, scale0 = machine.latency, machine.bandwidth, machine.compute_scale
    lo, hi = 1.0, cap
    m = 1.0
    for _ in range(_NEWTON_MAX_STEPS):
        cp = graph.critical_path(latency=lat0 * m, bandwidth=bw0, compute_scale=scale0)
        t, slope = float(cp.total), float(cp.alpha_count) * lat0
        if abs(t - budget) <= _NEWTON_SLACK * budget:
            return m  # landed on the crossing
        if t <= budget:
            lo = max(lo, m)
        else:
            hi = min(hi, m)
        if hi <= lo * (1.0 + _NEWTON_SLACK):
            break
        m_next = m + (budget - t) / slope if slope > 0.0 else math.nan
        if not (lo < m_next < hi):  # Newton left the bracket (or nan)
            m_next = math.sqrt(lo * hi)
        m = m_next
    return lo


@dataclass
class SensitivityReport:
    """Everything one recorded replay says about network sensitivity."""

    trace_name: str
    machine: str
    baseline_total: float
    tolerance: float
    lat_tolerance: float  # latency multiplier; inf == insensitive
    bw_sensitivity: float  # relative slowdown at half bandwidth
    critical_path: CriticalPath
    lat_curve: List[Tuple[float, float]]
    bw_curve: List[Tuple[float, float]]
    n_nodes: int
    n_edges: int

    @property
    def critical_path_frac(self) -> float:
        """Non-compute fraction of the critical path, clipped to [0, 1]."""
        cp = self.critical_path
        if cp.total <= 0.0:
            return 0.0
        return float(min(max((cp.total - cp.compute_time) / cp.total, 0.0), 1.0))

    def features(self) -> Dict[str, float]:
        """The three design-matrix features; always finite (see
        :data:`repro.trace.features.SENSITIVITY_FEATURE_NAMES`)."""
        capped = min(self.lat_tolerance, LAT_TOLERANCE_CAP)
        return {
            "lat_tolerance": math.log10(max(capped, 1.0)),
            "bw_sensitivity": float(self.bw_sensitivity),
            "critical_path_frac": self.critical_path_frac,
        }

    def to_json(self) -> dict:
        return {
            "trace": self.trace_name,
            "machine": self.machine,
            "baseline_total": self.baseline_total,
            "tolerance": self.tolerance,
            # JSON has no inf: None marks an unbounded tolerance.
            "lat_tolerance": None if math.isinf(self.lat_tolerance) else self.lat_tolerance,
            "bw_sensitivity": self.bw_sensitivity,
            "critical_path": self.critical_path.to_json(),
            "lat_curve": [[f, t] for f, t in self.lat_curve],
            "bw_curve": [[f, t] for f, t in self.bw_curve],
            "graph": {"nodes": self.n_nodes, "edges": self.n_edges},
            "features": self.features(),
        }


def analyze_graph(
    graph: DependencyGraph,
    machine: MachineConfig,
    trace_name: str = "",
    machine_name: str = "",
    tolerance: float = DEFAULT_TOLERANCE,
    lat_factors: Sequence[float] = DEFAULT_LAT_CURVE_FACTORS,
    bw_factors: Sequence[float] = DEFAULT_BW_CURVE_FACTORS,
) -> SensitivityReport:
    """Analytics over an already-recorded graph (no replay at all).

    Every independent probe — baseline, half-bandwidth, the tolerance
    cap, and both curves — rides one batched tape pass; only the
    Newton threshold search needs further (scalar) passes.
    """
    lf = np.asarray(lat_factors, dtype=float)
    bf = np.asarray(bw_factors, dtype=float)
    lat_mult = np.concatenate(([1.0, 1.0, LAT_TOLERANCE_CAP], lf, np.ones_like(bf)))
    bw_mult = np.concatenate(([1.0, 0.5, 1.0], np.ones_like(lf), bf))
    totals = graph.evaluate(
        machine.latency * lat_mult, machine.bandwidth * bw_mult, machine.compute_scale
    )
    t0, t_half, t_cap = float(totals[0]), float(totals[1]), float(totals[2])
    lat_curve = [(float(x), float(t)) for x, t in zip(lf, totals[3 : 3 + lf.size])]
    bw_curve = [(float(x), float(t)) for x, t in zip(bf, totals[3 + lf.size :])]
    bw_sens = max((t_half - t0) / t0, 0.0) if t0 > 0.0 else 0.0
    if t0 <= 0.0:
        lat_tol = math.inf
    else:
        lat_tol = _tolerance_root(
            graph, machine, (1.0 + tolerance) * t0, t_cap, LAT_TOLERANCE_CAP
        )
    return SensitivityReport(
        trace_name=trace_name,
        machine=machine_name,
        baseline_total=t0,
        tolerance=tolerance,
        lat_tolerance=lat_tol,
        bw_sensitivity=bw_sens,
        critical_path=graph.critical_path(),
        lat_curve=lat_curve,
        bw_curve=bw_curve,
        n_nodes=graph.n_nodes,
        n_edges=graph.n_edges,
    )


def analyze_trace(
    trace: TraceSet,
    machine: MachineConfig,
    tolerance: float = DEFAULT_TOLERANCE,
    lat_factors: Sequence[float] = DEFAULT_LAT_CURVE_FACTORS,
    bw_factors: Sequence[float] = DEFAULT_BW_CURVE_FACTORS,
) -> SensitivityReport:
    """End-to-end: the trace model (see :func:`trace_model`), then pure
    tape analytics."""
    graph, _ = trace_model(trace, machine)
    return analyze_graph(
        graph,
        machine,
        trace_name=trace.name,
        machine_name=trace.machine,
        tolerance=tolerance,
        lat_factors=lat_factors,
        bw_factors=bw_factors,
    )
