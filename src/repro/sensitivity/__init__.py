"""Zero-replay sensitivity analytics over the logical-clock graph.

MFACT's logical-clock replay (:mod:`repro.mfact.logical_clock`) updates
every clock with only two operations: ``max`` over predecessor clocks
and ``+`` a cost that is affine in the network parameters — latency
``alpha``, inverse bandwidth ``1/B`` and the compute scale.  That makes
the whole replay a max-plus expression over the happens-before graph:
record the graph once, and the application's predicted total time for
*any* (latency, bandwidth, compute) configuration is one vectorized
bottom-up pass over the recorded nodes — no replay, no matching, no
scheduling.

This package provides that layer (ROADMAP item 3, LLAMP-style):

* :class:`~repro.sensitivity.graph.GraphRecorder` — hooks called by
  :class:`~repro.mfact.logical_clock.LogicalClockReplay` during one
  replay to record each clock update as a node with cost-decomposed
  edges ``(overhead, alpha_count, bytes, compute_seconds)``.
* :class:`~repro.sensitivity.graph.DependencyGraph` — the frozen
  max-plus tape: :meth:`~repro.sensitivity.graph.DependencyGraph.evaluate`
  prices a batch of configurations one topological level at a time,
  and :meth:`~repro.sensitivity.graph.DependencyGraph.critical_path`
  backtracks the binding chain and decomposes it by cost component.
* :mod:`~repro.sensitivity.analysis` — the trace model
  (:func:`~repro.sensitivity.analysis.record_graph`: the MFACT replay
  with a recorder attached, so one replay yields the graph and, priced
  off it, the MFACT sweep report; :func:`~repro.sensitivity.analysis.trace_model`
  shares it between the queries on one trace content), latency-
  tolerance and bandwidth-sensitivity curves, tolerance thresholds and
  the ``lat_tolerance`` / ``bw_sensitivity`` / ``critical_path_frac``
  features consumed by the enhanced-MFACT design matrix.

Accuracy contract: tape evaluation reassociates the replay's float
additions (``max(a, b) + c`` becomes ``max(a + c, b + c)``, and chains
of compute advances are folded into one edge), so analytic totals agree
with a real replay to relative error far below the documented band of
``1e-6`` — the differential suite asserts ``1e-9`` on the mini-corpus.
"""

from repro.sensitivity.analysis import (
    DEFAULT_BW_CURVE_FACTORS,
    DEFAULT_LAT_CURVE_FACTORS,
    DEFAULT_TOLERANCE,
    LAT_TOLERANCE_CAP,
    SensitivityReport,
    analyze_graph,
    analyze_trace,
    bandwidth_curve,
    latency_curve,
    latency_tolerance,
    record_graph,
    trace_model,
)
from repro.sensitivity.graph import CriticalPath, DependencyGraph, GraphRecorder

__all__ = [
    "CriticalPath",
    "DEFAULT_BW_CURVE_FACTORS",
    "DEFAULT_LAT_CURVE_FACTORS",
    "DEFAULT_TOLERANCE",
    "DependencyGraph",
    "GraphRecorder",
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
