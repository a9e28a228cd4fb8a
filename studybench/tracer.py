"""Layer spans recorded from outside the program.

The traced pass replaces each layer's public boundary function, as the
calling module binds it, with a wrapper that records a span in memory:
name, start, end, parent span and pass id, plus a few counts read off
the arguments or the result.  Nothing inside ``repro`` changes, and the
wrappers exist only in the traced pass's process; a timed pass checks
that none are present (:func:`wrapped_boundaries`).

A boundary that no longer exists (a module, function or method renamed
or deleted) is reported as absent instead of failing the pass; the
metrics of that layer then read 0.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import asdict, dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Attribute that marks a boundary wrapper.
MARK = "_studybench_boundary"

ENGINES = ("packet", "flow", "packet-flow")
EXPERIMENTS = ("table1", "table3", "fig2", "fig3", "fig4", "fig5", "section6")


@dataclass(frozen=True)
class Boundary:
    """One function, method or class to wrap: ``module:attr`` named ``name``.

    ``name`` may be a callable of the call's ``(args, kwargs)``;
    ``info`` reads counts off ``(args, kwargs, result)`` after the call.
    """

    name: object
    module: str
    attr: str
    info: Optional[Callable] = None

    @property
    def ident(self) -> str:
        return f"{self.module}:{self.attr}"


def _sim_name(args, kwargs) -> str:
    model = args[2] if len(args) > 2 else kwargs.get("model", "packet-flow")
    return f"sim.{model}"


BOUNDARIES: Tuple[Boundary, ...] = (
    # workloads: trace build and its three phases
    Boundary("workloads.build", "repro.workloads.suite", "build_trace"),
    Boundary("workloads.generate", "repro.workloads.suite", "generate_npb"),
    Boundary("workloads.generate", "repro.workloads.suite", "generate_doe"),
    Boundary("workloads.synthesize", "repro.workloads.suite", "synthesize_ground_truth"),
    # Attributed by parent: calibration under build_trace, MFACT under
    # model_trace, sensitivity under record_graph.
    Boundary("replay", "repro.mfact.logical_clock", "LogicalClockReplay.run"),
    # core.executor: fingerprint, spec index and record cache
    Boundary("fingerprint", "repro.core.executor", "trace_cache_key"),
    Boundary("speckey", "repro.core.executor", "spec_cache_key"),
    Boundary(
        "cache.read", "repro.core.executor", "RecordCache.get_checked",
        lambda a, k, r: {"status": r[1]},
    ),
    Boundary("cache.read", "repro.core.executor", "RecordCache.get_alias"),
    Boundary("cache.write", "repro.core.executor", "RecordCache.put"),
    Boundary("cache.write", "repro.core.executor", "RecordCache.put_alias"),
    # core.pipeline
    Boundary("pipeline.measure", "repro.core.executor", "measure_trace"),
    Boundary("record.serialize", "repro.core.pipeline", "StudyRecord.to_json"),
    Boundary("record.deserialize", "repro.core.pipeline", "StudyRecord.from_json"),
    # trace I/O and features (pipeline's binding, and the defining
    # module's for calls made from the benchmark itself)
    Boundary("trace.read", "repro.trace.binary", "read_trace_binary"),
    Boundary("features", "repro.core.pipeline", "extract_features"),
    Boundary("features", "repro.trace.features", "extract_features"),
    # mfact
    Boundary(
        "mfact.model", "repro.core.pipeline", "model_trace",
        lambda a, k, r: {"ops": a[0].op_count()},
    ),
    Boundary(
        "mfact.model", "repro.mfact.logical_clock", "model_trace",
        lambda a, k, r: {"ops": a[0].op_count()},
    ),
    # sensitivity
    Boundary(
        "sensitivity.record", "repro.core.pipeline", "record_graph",
        lambda a, k, r: {"edges": r[0].n_edges},
    ),
    Boundary(
        "sensitivity.record", "repro.sensitivity.analysis", "record_graph",
        lambda a, k, r: {"edges": r[0].n_edges},
    ),
    Boundary("sensitivity.analyze", "repro.core.pipeline", "analyze_graph"),
    Boundary("sensitivity.analyze", "repro.sensitivity.analysis", "analyze_trace"),
    Boundary("sensitivity.evaluate", "repro.sensitivity.graph", "DependencyGraph.evaluate"),
    # mfact.whatif
    Boundary("whatif.explore", "repro.mfact.whatif", "explore_design_space"),
    # sim
    Boundary("sim.prep", "repro.core.pipeline", "ReplayShared"),
    Boundary(
        _sim_name, "repro.core.pipeline", "simulate_trace",
        lambda a, k, r: {"events": r.events},
    ),
    # stats, as section6's EnhancedMFACT.train binds it
    Boundary("stats.mccv", "repro.core.enhanced_mfact", "monte_carlo_cv"),
    Boundary("stats.stepwise", "repro.core.enhanced_mfact", "stepwise_forward"),
) + tuple(
    Boundary(f"experiments.{name}", f"repro.experiments.{name}", "compute")
    for name in EXPERIMENTS
)

#: Layers reported as busy time (inclusive) and share of ``study_s``.
BUSY = (
    "workloads.build",
    "workloads.generate",
    "workloads.calibrate",
    "workloads.synthesize",
    "fingerprint",
    "speckey",
    "cache.read",
    "cache.write",
    "pipeline.measure",
    "record.serialize",
    "record.deserialize",
    "trace.read",
    "features",
    "mfact.model",
    "sensitivity.record",
    "sensitivity.analyze",
    "sensitivity.evaluate",
    "whatif.explore",
    "sim.prep",
    *(f"sim.{engine}" for engine in ENGINES),
    "stats.mccv",
    "stats.stepwise",
    *(f"experiments.{name}" for name in EXPERIMENTS),
)


def _unit(metric: str) -> Tuple[str, str]:
    """(unit, better) of a per-layer metric, from its suffix."""
    if metric.endswith("per_s"):
        return "1/s", "higher"
    if metric.endswith("_s"):
        return "s", "lower"
    if metric in ("cache.hit_ratio", "trace.coverage"):
        return "ratio", "higher"
    if metric.endswith((".share", ".overhead")):
        return "ratio", "lower"
    if metric.endswith("calls_per_trace"):
        return "calls/trace", "lower"
    return "count", "lower"


def _metric_names() -> List[str]:
    names = []
    for layer in BUSY:
        names += [f"{layer}.busy_s", f"{layer}.share"]
    names += [
        "workloads.generate.calls_per_trace",
        "cache.read.calls",
        "cache.hit_ratio",
        "cache.write.calls",
        "pipeline.measure.self_s",
        "mfact.ops",
        "mfact.ops_per_s",
        "sensitivity.graph_edges",
        "sensitivity.evaluate.calls",
    ]
    for engine in ENGINES:
        names += [f"sim.{engine}.events", f"sim.{engine}.events_per_s"]
    names += ["stats.mccv.calls", "trace.coverage", "trace.unattributed_s", "trace.overhead"]
    return names


#: Every per-layer metric: name -> (unit, better).
LAYER_METRICS: Dict[str, Tuple[str, str]] = {name: _unit(name) for name in _metric_names()}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    pass_id: int
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _resolve(module: str, attr: str):
    """(owner, attribute name, raw attribute) for ``module:attr``."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, inspect.getattr_static(owner, name)


def _function(raw):
    return raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw


def wrapped_boundaries(boundaries=BOUNDARIES) -> List[str]:
    """Idents of the boundaries that currently carry a wrapper."""
    found = []
    for boundary in boundaries:
        try:
            raw = _resolve(boundary.module, boundary.attr)[2]
        except (ImportError, AttributeError):
            continue
        if getattr(_function(raw), MARK, False):
            found.append(boundary.ident)
    return found


class Tracer:
    """In-memory span recorder; :meth:`install` wraps the boundaries.

    Spans are recorded only while ``active`` is true, so work the
    benchmark itself does around the timed pass is never attributed.
    """

    def __init__(self, pass_id: int = 0):
        self.pass_id = pass_id
        self.spans: List[Span] = []
        self.absent: List[str] = []
        self.active = False
        self._stack: List[int] = []
        self._restore: List[tuple] = []

    def wrap(self, fn, name, info=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = Span(
                name(args, kwargs) if callable(name) else name,
                0.0,
                0.0,
                tracer._stack[-1] if tracer._stack else -1,
                tracer.pass_id,
            )
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer._stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def install(self, boundaries=BOUNDARIES) -> None:
        for boundary in boundaries:
            try:
                owner, attr, raw = _resolve(boundary.module, boundary.attr)
            except (ImportError, AttributeError):
                self.absent.append(boundary.ident)
                continue
            wrapped = self.wrap(_function(raw), boundary.name, boundary.info)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(wrapped)
            setattr(owner, attr, wrapped)
            self._restore.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def span_dicts(self, origin: float) -> List[dict]:
        """Spans as JSON, times relative to ``origin``."""
        out = []
        for span in self.spans:
            image = asdict(span)
            image["start"] -= origin
            image["end"] -= origin
            out.append(image)
        return out


def layer_metrics(spans: List[Span], study_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass of ``study_s`` seconds."""
    names = [span.name for span in spans]
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration

    def outermost(i: int) -> bool:
        parent = spans[i].parent
        while parent >= 0:
            if names[parent] == names[i]:
                return False
            parent = spans[parent].parent
        return True

    busy = dict.fromkeys(BUSY, 0.0)
    calls = dict.fromkeys(BUSY, 0)
    for i, span in enumerate(spans):
        name = span.name
        if name == "replay":
            parent = span.parent
            if parent < 0 or names[parent] != "workloads.build":
                continue
            name = "workloads.calibrate"
        if name in busy and outermost(i):
            busy[name] += span.duration
            calls[name] += 1

    def info_sum(name: str, key: str) -> float:
        return sum(s.info.get(key, 0) for s in spans if s.name == name)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    top = sum(span.duration for span in spans if span.parent < 0)
    reads = [s for s in spans if s.name == "cache.read" and "status" in s.info]
    out: Dict[str, float] = {}
    for layer in BUSY:
        out[f"{layer}.busy_s"] = busy[layer]
        out[f"{layer}.share"] = ratio(busy[layer], study_s)
    out["workloads.generate.calls_per_trace"] = ratio(
        calls["workloads.generate"], calls["workloads.build"]
    )
    out["cache.read.calls"] = calls["cache.read"]
    out["cache.hit_ratio"] = ratio(sum(s.info["status"] == "hit" for s in reads), len(reads))
    out["cache.write.calls"] = calls["cache.write"]
    out["pipeline.measure.self_s"] = sum(
        span.duration - child_time[i]
        for i, span in enumerate(spans)
        if span.name == "pipeline.measure"
    )
    out["mfact.ops"] = info_sum("mfact.model", "ops")
    out["mfact.ops_per_s"] = ratio(out["mfact.ops"], busy["mfact.model"])
    out["sensitivity.graph_edges"] = info_sum("sensitivity.record", "edges")
    out["sensitivity.evaluate.calls"] = calls["sensitivity.evaluate"]
    for engine in ENGINES:
        events = info_sum(f"sim.{engine}", "events")
        out[f"sim.{engine}.events"] = events
        out[f"sim.{engine}.events_per_s"] = ratio(events, busy[f"sim.{engine}"])
    out["stats.mccv.calls"] = calls["stats.mccv"]
    out["trace.coverage"] = ratio(top, study_s)
    out["trace.unattributed_s"] = study_s - top
    # Needs the untraced passes; the runner fills it in.
    out["trace.overhead"] = 0.0
    return out
