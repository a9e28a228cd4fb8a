"""Metrics registry: counters, gauges, histograms and span timers.

A dependency-free observability core for the study pipeline.  Three
design rules make its numbers trustworthy across execution modes:

* **Fixed log-spaced histogram buckets** (:data:`HISTOGRAM_BUCKETS`,
  shared by every histogram) — serial and parallel runs bucket every
  observation identically, so merged snapshots are bitwise-equal for
  any deterministic quantity no matter how work was scheduled.
* **Order-independent merging** — counters and histogram buckets merge
  by summation, gauges by maximum, span timers by (count-sum,
  seconds-sum, max).  Worker processes serialize a
  :class:`MetricsSnapshot` back to the parent over the existing result
  pipe; the parent folds them in, in completion order, and the result
  does not depend on that order.
* **A true no-op mode** — when no registry is active (the default),
  the module-level helpers hand out shared null instruments whose
  methods do nothing, and instrumented hot loops skip their
  bookkeeping entirely, so disabled metrics cost nothing measurable.

Naming convention: metric names are Prometheus-compatible
(``repro_<area>_<what>_<unit>``); anything measuring host wall-clock
time carries ``seconds`` or ``walltime`` in its name — that is the
**walltime family**, the only metrics allowed to differ between serial
and parallel runs of the same seeded corpus
(see :func:`is_walltime_series`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "HISTOGRAM_BUCKETS",
    "METRIC_NAME_RE",
    "Counter",
    "Gauge",
    "Histogram",
    "SpanStats",
    "MetricsSnapshot",
    "MetricsRegistry",
    "active_registry",
    "enabled",
    "enable",
    "disable",
    "reset",
    "snapshot",
    "counter",
    "gauge",
    "histogram",
    "span",
    "collect_task",
    "is_walltime_series",
    "deterministic_view",
]

import re

#: Valid Prometheus metric names (labels use the same alphabet minus ':').
METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Shared histogram bucket upper bounds: two log-spaced buckets per
#: decade from 1e-6 to ~3.2e9, identical for every histogram so that
#: snapshots from any execution mode aggregate bucket-for-bucket.
#: Observations above the top bound land in the implicit +Inf bucket.
HISTOGRAM_BUCKETS: Tuple[float, ...] = tuple(10.0 ** (k / 2.0) for k in range(-12, 20))


def _series_key(name: str, labels: Dict[str, str]) -> str:
    """Canonical series identity: ``name`` or ``name{k="v",...}``.

    Labels are sorted by key so the same (name, labels) always maps to
    the same series string regardless of call-site keyword order.
    """
    if not METRIC_NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    if not labels:
        return name
    parts = []
    for key in sorted(labels):
        if not _LABEL_NAME_RE.match(key):
            raise ValueError(f"invalid label name {key!r}")
        value = str(labels[key])
        value = value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        parts.append(f'{key}="{value}"')
    return f"{name}{{{','.join(parts)}}}"


def series_name(key: str) -> str:
    """Base metric name of a series key (labels stripped)."""
    return key.split("{", 1)[0]


def is_walltime_series(key: str) -> bool:
    """True when the series measures host wall-clock time.

    The walltime family — any metric whose base name contains
    ``seconds`` or ``walltime`` — is the only set of metrics allowed
    to differ between serial and parallel runs of the same corpus.
    """
    name = series_name(key)
    return "seconds" in name or "walltime" in name


# -- instruments --------------------------------------------------------------


class Counter:
    """Monotonically increasing value (int-exact until a float is added)."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self.value = 0

    def inc(self, amount=1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        with self._lock:
            self.value += amount


class Gauge:
    """Point-in-time value; merges across processes by maximum."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self.value = 0.0

    def set(self, value) -> None:
        with self._lock:
            self.value = value

    def set_max(self, value) -> None:
        """Keep the largest value seen (high-water-mark semantics)."""
        with self._lock:
            if value > self.value:
                self.value = value


class Histogram:
    """Distribution over the shared :data:`HISTOGRAM_BUCKETS` bounds.

    ``counts[i]`` tallies observations ``<= HISTOGRAM_BUCKETS[i]``
    (non-cumulative); ``counts[-1]`` is the overflow (+Inf) bucket.
    """

    __slots__ = ("_lock", "counts", "sum", "count")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self.counts = [0] * (len(HISTOGRAM_BUCKETS) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value) -> None:
        value = float(value)
        lo, hi = 0, len(HISTOGRAM_BUCKETS)
        while lo < hi:  # first bound >= value
            mid = (lo + hi) // 2
            if HISTOGRAM_BUCKETS[mid] >= value:
                hi = mid
            else:
                lo = mid + 1
        with self._lock:
            self.counts[lo] += 1
            self.sum += value
            self.count += 1


@dataclass
class SpanStats:
    """Aggregated timings of one span path."""

    count: int = 0
    total_seconds: float = 0.0
    max_seconds: float = 0.0

    def add(self, seconds: float) -> None:
        self.count += 1
        self.total_seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds


class _SpanTimer:
    """Context manager recording one timed span under the registry.

    Span paths nest: entering ``span("sim/packet")`` inside
    ``span("record")`` records the path ``record/sim/packet``, giving
    a per-phase tree whose *counts* are deterministic and whose
    *seconds* are walltime-family.
    """

    __slots__ = ("_registry", "_name", "_path", "_t0")

    def __init__(self, registry: "MetricsRegistry", name: str):
        self._registry = registry
        self._name = name
        self._path = ""
        self._t0 = 0.0

    def __enter__(self) -> "_SpanTimer":
        stack = self._registry._span_stack()
        stack.append(self._name)
        self._path = "/".join(stack)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = time.perf_counter() - self._t0
        stack = self._registry._span_stack()
        if stack and stack[-1] == self._name:
            stack.pop()
        self._registry._record_span(self._path, elapsed)


# -- snapshot -----------------------------------------------------------------


@dataclass
class MetricsSnapshot:
    """Immutable value image of a registry, safe to pickle/serialize.

    Keys are canonical series strings (``name{label="v"}``).  Histogram
    values are ``{"counts": [...], "sum": s, "count": n}`` aligned with
    :data:`HISTOGRAM_BUCKETS` plus the overflow slot; span values are
    ``{"count": n, "total_seconds": t, "max_seconds": m}``.
    """

    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, dict] = field(default_factory=dict)
    spans: Dict[str, dict] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {k: dict(v) for k, v in self.histograms.items()},
            "spans": {k: dict(v) for k, v in self.spans.items()},
        }

    @classmethod
    def from_json(cls, data: Optional[dict]) -> "MetricsSnapshot":
        data = data or {}
        return cls(
            counters=dict(data.get("counters", {})),
            gauges=dict(data.get("gauges", {})),
            histograms={k: dict(v) for k, v in data.get("histograms", {}).items()},
            spans={k: dict(v) for k, v in data.get("spans", {}).items()},
        )

    def is_empty(self) -> bool:
        return not (self.counters or self.gauges or self.histograms or self.spans)


def deterministic_view(snap: MetricsSnapshot) -> dict:
    """The schedule-independent projection of a snapshot.

    Everything except the walltime family and span timings: counters,
    gauges, histogram bucket counts, and span *counts*.  Two runs of
    the same seeded corpus — serial or parallel, any completion order —
    must produce identical views; tests and the CI self-check diff
    exactly this.
    """
    return {
        "counters": {
            k: v for k, v in sorted(snap.counters.items()) if not is_walltime_series(k)
        },
        "gauges": {
            k: v for k, v in sorted(snap.gauges.items()) if not is_walltime_series(k)
        },
        "histograms": {
            k: {"counts": list(v["counts"]), "count": v["count"]}
            for k, v in sorted(snap.histograms.items())
            if not is_walltime_series(k)
        },
        "span_counts": {k: v["count"] for k, v in sorted(snap.spans.items())},
    }


# -- registry -----------------------------------------------------------------


class MetricsRegistry:
    """Thread-safe home of every instrument created under one scope.

    Instrument creation and value mutation share one lock (mutations
    are tiny; contention is negligible at our thread counts).  Worker
    *processes* never share a registry — each task collects into its
    own (:func:`collect_task`) and the snapshot rides home on the
    result pipe, where :meth:`merge_snapshot` folds it in.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._spans: Dict[str, SpanStats] = {}
        self._local = threading.local()

    # -- instrument access -------------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        key = _series_key(name, labels)
        with self._lock:
            inst = self._counters.get(key)
            if inst is None:
                inst = self._counters[key] = Counter(self._lock)
        return inst

    def gauge(self, name: str, **labels) -> Gauge:
        key = _series_key(name, labels)
        with self._lock:
            inst = self._gauges.get(key)
            if inst is None:
                inst = self._gauges[key] = Gauge(self._lock)
        return inst

    def histogram(self, name: str, **labels) -> Histogram:
        key = _series_key(name, labels)
        with self._lock:
            inst = self._histograms.get(key)
            if inst is None:
                inst = self._histograms[key] = Histogram(self._lock)
        return inst

    def span(self, name: str) -> _SpanTimer:
        return _SpanTimer(self, name)

    # -- span plumbing -----------------------------------------------------

    def _span_stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record_span(self, path: str, seconds: float) -> None:
        with self._lock:
            stats = self._spans.get(path)
            if stats is None:
                stats = self._spans[path] = SpanStats()
            stats.add(seconds)

    # -- snapshot / merge --------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        with self._lock:
            return MetricsSnapshot(
                counters={k: c.value for k, c in self._counters.items()},
                gauges={k: g.value for k, g in self._gauges.items()},
                histograms={
                    k: {"counts": list(h.counts), "sum": h.sum, "count": h.count}
                    for k, h in self._histograms.items()
                },
                spans={
                    k: {
                        "count": s.count,
                        "total_seconds": s.total_seconds,
                        "max_seconds": s.max_seconds,
                    }
                    for k, s in self._spans.items()
                },
            )

    def merge_snapshot(self, snap) -> None:
        """Fold a snapshot (or its JSON image) into this registry.

        Counters and histogram buckets add, gauges keep the maximum,
        spans add counts/totals and keep the max — all order-free, so
        merging worker snapshots in completion order is deterministic.
        """
        if isinstance(snap, dict):
            snap = MetricsSnapshot.from_json(snap)
        if snap is None or snap.is_empty():
            return
        with self._lock:
            for key, value in snap.counters.items():
                inst = self._counters.get(key)
                if inst is None:
                    inst = self._counters[key] = Counter(self._lock)
                inst.value += value
            for key, value in snap.gauges.items():
                inst = self._gauges.get(key)
                if inst is None:
                    inst = self._gauges[key] = Gauge(self._lock)
                if value > inst.value:
                    inst.value = value
            for key, data in snap.histograms.items():
                hist = self._histograms.get(key)
                if hist is None:
                    hist = self._histograms[key] = Histogram(self._lock)
                counts = data.get("counts", [])
                if len(counts) != len(hist.counts):
                    raise ValueError(
                        f"histogram {key!r} has {len(counts)} buckets, "
                        f"expected {len(hist.counts)} (bucket scheme mismatch)"
                    )
                for i, c in enumerate(counts):
                    hist.counts[i] += c
                hist.sum += data.get("sum", 0.0)
                hist.count += data.get("count", 0)
            for key, data in snap.spans.items():
                stats = self._spans.get(key)
                if stats is None:
                    stats = self._spans[key] = SpanStats()
                stats.count += data.get("count", 0)
                stats.total_seconds += data.get("total_seconds", 0.0)
                stats.max_seconds = max(stats.max_seconds, data.get("max_seconds", 0.0))

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._spans.clear()


# -- null instruments (no-op mode) --------------------------------------------


class _NullCounter:
    __slots__ = ()

    def inc(self, amount=1) -> None:
        pass


class _NullGauge:
    __slots__ = ()

    def set(self, value) -> None:
        pass

    def set_max(self, value) -> None:
        pass


class _NullHistogram:
    __slots__ = ()

    def observe(self, value) -> None:
        pass


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()
NULL_SPAN = _NullSpan()


# -- module-level active registry ---------------------------------------------
#
# ``_active`` is the registry instrumented code writes to.  None (the
# default) is no-op mode.  ``enable()`` installs the process-global
# registry; ``collect_task()`` temporarily swaps in a fresh registry so
# one task's metrics can travel home over a process boundary — worker
# entrypoints use it on both the serial and the parallel path, which is
# what makes the two modes aggregate identically.

_GLOBAL = MetricsRegistry()
_active: Optional[MetricsRegistry] = None


def active_registry() -> Optional[MetricsRegistry]:
    """The registry currently collecting, or None in no-op mode."""
    return _active


def enabled() -> bool:
    """True when some registry is actively collecting."""
    return _active is not None


def enable() -> MetricsRegistry:
    """Activate the process-global registry (idempotent); returns it."""
    global _active
    _active = _GLOBAL
    return _GLOBAL


def disable() -> None:
    """Return to no-op mode (the global registry keeps its values)."""
    global _active
    _active = None


def reset() -> None:
    """Clear the process-global registry's values."""
    _GLOBAL.reset()


def snapshot() -> MetricsSnapshot:
    """Snapshot of the active registry (empty snapshot in no-op mode)."""
    return _active.snapshot() if _active is not None else MetricsSnapshot()


def counter(name: str, **labels):
    """Counter on the active registry, or a shared no-op."""
    return _active.counter(name, **labels) if _active is not None else NULL_COUNTER


def gauge(name: str, **labels):
    """Gauge on the active registry, or a shared no-op."""
    return _active.gauge(name, **labels) if _active is not None else NULL_GAUGE


def histogram(name: str, **labels):
    """Histogram on the active registry, or a shared no-op."""
    return _active.histogram(name, **labels) if _active is not None else NULL_HISTOGRAM


def span(name: str):
    """Span timer on the active registry, or a shared no-op."""
    return _active.span(name) if _active is not None else NULL_SPAN


#: Registries of the open :func:`collect_task` scopes, in entry order,
#: and the registry that was active before the first of them opened.
#: Tasks on different threads may exit in any order, so each exit
#: removes its own registry and the newest open one (or, once none is
#: open, the pre-task registry) becomes active.
_task_registries: List[MetricsRegistry] = []
_before_tasks: Optional[MetricsRegistry] = None
_task_lock = threading.Lock()


class collect_task:
    """Context manager: collect one task's metrics into a fresh registry.

    Worker entrypoints wrap each task with this so the task's metrics
    are isolated and serializable.  Once every open task has exited, in
    any order, the registry that was active before the first one
    entered is active again.  ``enabled=False`` degrades to a no-op
    that yields None, keeping disabled runs on the null path.
    """

    __slots__ = ("_enabled", "_registry")

    def __init__(self, enabled: bool = True):
        self._enabled = enabled
        self._registry: Optional[MetricsRegistry] = None

    def __enter__(self) -> Optional[MetricsRegistry]:
        global _active, _before_tasks
        if not self._enabled:
            return None
        self._registry = MetricsRegistry()
        with _task_lock:
            if not _task_registries:
                _before_tasks = _active
            _task_registries.append(self._registry)
            _active = self._registry
        return self._registry

    def __exit__(self, exc_type, exc, tb) -> None:
        global _active
        if not self._enabled:
            return
        with _task_lock:
            for i, registry in enumerate(_task_registries):
                if registry is self._registry:
                    del _task_registries[i]
                    break
            _active = _task_registries[-1] if _task_registries else _before_tasks
