"""Parallel study execution with a per-record result cache.

The paper's campaign replays every corpus trace through four tools.
Each (trace, machine, engine-suite, code-version) measurement is
independent, so the study is embarrassingly parallel: this module fans
:func:`repro.core.pipeline.measure_trace` out over a watchdog-supervised
worker pool (:class:`repro.core.resilience.WorkerPool`) and memoizes
every finished :class:`~repro.core.pipeline.StudyRecord` in a
content-addressed cache under ``.cache/records/``.

Properties the executor guarantees:

* **Determinism** — a parallel run (``jobs > 1``) produces records
  identical to the serial run; results are reassembled in corpus
  order regardless of completion order.  This holds even under a
  seeded fault plan (:mod:`repro.util.faults`): retries, backoff
  delays and ladder steps depend only on (record, attempt), never on
  scheduling.
* **Incrementality** — each record is cached the moment it finishes,
  keyed by :func:`repro.util.fingerprint.record_cache_key`; cached
  files carry a checksum, so corruption is detected on read (counted
  as ``cache_corrupt``, the bad file deleted, the record recomputed).
* **Resumability** — interrupting a run (Ctrl-C, including during a
  retry backoff wait) loses only records that were in flight.
* **Bounded failure** — a crashing replay retries with exponential
  backoff (:class:`~repro.core.resilience.RetryPolicy`); a replay that
  blows its wall/event budget — or a worker the parent watchdog had to
  kill — falls down the engine-degradation ladder
  (packet → packet-flow → flow → mfact-only) with the loss annotated
  on the record; a trace that fails every attempt at every step lands
  in the quarantine registry and is skipped (with reason) next run.
* **Observability** — every run emits a
  :class:`~repro.util.manifest.RunManifest` (schema v3) with per-record
  timing (total and compute-only walltime), cache hit/miss/corrupt,
  attempts, backoffs, ladder state, worker pid and failure diagnostics.
  With metrics collection on (``collect_metrics=True``, or a registry
  enabled via :mod:`repro.obs`), every worker attempt captures a
  task-local metrics snapshot that rides back on the result pipe; the
  driver merges them with its own counters into the manifest's
  ``metrics`` block, identically for serial and parallel runs.

``jobs=1`` runs entirely in-process (no pool, no pickling), preserving
the pipeline's historical serial path; hard worker hangs can only be
watchdog-killed under ``jobs > 1``, but cooperative in-engine budgets
protect both paths.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.core.pipeline import SIM_MODELS, StudyRecord, measure_trace
from repro.core.resilience import (
    LADDER,
    MFACT_ONLY_STEP,
    PoolWorkerError,
    QuarantineEntry,
    QuarantineRegistry,
    RetryPolicy,
    WorkerPool,
    classify_failure,
    step_engines,
)
from repro.machines.presets import get_machine
from repro.trace.trace import TraceSet
from repro.util.budget import Budget
from repro.util.faults import maybe_inject
from repro.util.fingerprint import (
    code_version,
    machine_config_hash,
    record_cache_key,
    trace_fingerprint,
    workloads_code_version,
)
from repro.util.manifest import ManifestEntry, RunManifest

__all__ = [
    "DEFAULT_RECORD_CACHE",
    "DEFAULT_RETRY_POLICY",
    "MANIFEST_NAME",
    "RecordCache",
    "RecordOutcome",
    "StudyRun",
    "drive_spec",
    "execute_study",
    "execute_traces",
    "spec_cache_key",
    "study_options",
    "trace_cache_key",
]

#: Default location of the per-record cache.
DEFAULT_RECORD_CACHE = Path(".cache") / "records"

#: Manifest filename written inside the record cache after each run.
MANIFEST_NAME = "last_run_manifest.json"

#: Retry policy applied when the caller does not pass one.
DEFAULT_RETRY_POLICY = RetryPolicy()

#: The parent watchdog allows this much of the cooperative budget
#: (plus a constant) before concluding a worker is hung and killing it.
_WATCHDOG_FACTOR = 1.5
_WATCHDOG_SLACK = 1.0

#: Interruptible sleep used for retry backoff (module-level so tests
#: can stub it to simulate Ctrl-C during a backoff wait).
_sleep = time.sleep


def _watchdog_deadline(record_timeout: Optional[float]) -> Optional[float]:
    """Parent-side kill deadline for one attempt (None = no watchdog).

    Deadlines measure *attempt compute time only*: the cooperative
    budget is armed inside :func:`~repro.core.pipeline.measure_trace`
    and the watchdog clock starts at dispatch
    (:meth:`~repro.core.resilience.WorkerPool.dispatch` stamps
    ``seat.started``), so retry-backoff sleeps and queueing — which
    happen in the parent between attempts — never eat into a record's
    ``record_timeout``.  The factor/slack headroom covers worker-side
    setup (trace build, MFACT modeling) that runs before the
    cooperative budget is armed.
    """
    if record_timeout is None:
        return None
    return record_timeout * _WATCHDOG_FACTOR + _WATCHDOG_SLACK


def trace_cache_key(trace: TraceSet, engines: Sequence[str] = SIM_MODELS) -> str:
    """Cache key for measuring ``trace`` on its own machine preset."""
    machine = get_machine(trace.machine)
    return record_cache_key(
        trace_fingerprint(trace),
        machine_config_hash(machine),
        tuple(engines),
        code_version(),
    )


def spec_cache_key(spec, engines: Sequence[str] = SIM_MODELS) -> str:
    """Spec-index key: identifies a record *without building the trace*.

    Combines the spec's fields with the workload-generation code hash
    (what the spec would build), the machine config hash, the engine
    suite and the measurement code version.  A warm run with unchanged
    code resolves records straight from this index; editing any
    generator invalidates it, and the run falls back to
    build-and-fingerprint where the per-record layer still answers for
    traces that came out unchanged.
    """
    image = json.dumps(dataclasses.asdict(spec), sort_keys=True)
    digest = hashlib.sha256()
    for part in (
        image,
        workloads_code_version(),
        machine_config_hash(get_machine(spec.machine)),
        "+".join(engines),
        code_version(),
    ):
        digest.update(part.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


class RecordCache:
    """Content-addressed store of finished study records.

    One JSON file per record, named by its cache key; writes go through
    a temporary file plus :func:`os.replace` so an interrupted run never
    leaves a torn entry behind.  Each file is a verified envelope
    ``{"key", "checksum", "record"}``: reads check the stored key
    against the requested one and the payload against its checksum, so
    a corrupted or misfiled entry is *detected* (and deleted) rather
    than silently treated as a miss or — worse — returned as data.
    """

    def __init__(self, root: Union[str, Path] = DEFAULT_RECORD_CACHE):
        self.root = Path(root)

    def path(self, key: str) -> Path:
        """Cache file backing ``key``."""
        return self.root / f"{key}.json"

    @staticmethod
    def _checksum(payload_text: str) -> str:
        return hashlib.sha256(payload_text.encode("utf-8")).hexdigest()

    def get_checked(self, key: str) -> Tuple[Optional[StudyRecord], str]:
        """The record for ``key`` plus a status: ``hit``/``miss``/``corrupt``.

        A ``corrupt`` entry (unparseable file, missing envelope, key or
        checksum mismatch) is deleted so the slot recomputes cleanly.
        """
        path = self.path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            obs.counter("repro_cache_reads_total", result="miss").inc()
            return None, "miss"
        try:
            # json.loads decodes the bytes itself; undecodable garbage
            # raises UnicodeDecodeError, a ValueError — i.e. "corrupt".
            envelope = json.loads(raw)
            if (
                not isinstance(envelope, dict)
                or envelope.get("key") != key
                or "record" not in envelope
            ):
                raise ValueError("missing or mismatched cache envelope")
            payload_text = json.dumps(envelope["record"], sort_keys=True)
            if self._checksum(payload_text) != envelope.get("checksum"):
                raise ValueError("cache checksum mismatch")
            record = StudyRecord.from_json(envelope["record"])
            obs.counter("repro_cache_reads_total", result="hit").inc()
            return record, "hit"
        except (ValueError, KeyError, TypeError):
            path.unlink(missing_ok=True)
            obs.counter("repro_cache_reads_total", result="corrupt").inc()
            obs.counter("repro_cache_evictions_total", reason="corrupt").inc()
            return None, "corrupt"

    def get(self, key: str) -> Optional[StudyRecord]:
        """The cached record for ``key``, or None (corrupt entries deleted)."""
        record, _ = self.get_checked(key)
        return record

    def put(self, key: str, record: StudyRecord) -> None:
        """Atomically persist ``record`` under ``key`` (with checksum)."""
        self.root.mkdir(parents=True, exist_ok=True)
        payload_text = json.dumps(record.to_json(), sort_keys=True)
        envelope = {
            "key": key,
            "checksum": self._checksum(payload_text),
            "record": record.to_json(),
        }
        path = self.path(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(envelope))
        os.replace(tmp, path)
        obs.counter("repro_cache_writes_total").inc()

    # The spec index: ``<spec_key>.key`` files mapping a spec-level key
    # to the record key it resolved to, letting warm runs skip trace
    # construction entirely.

    def alias_path(self, spec_key: str) -> Path:
        return self.root / f"{spec_key}.key"

    def get_alias(self, spec_key: str) -> Optional[str]:
        """Record key the spec index maps ``spec_key`` to, or None."""
        try:
            return self.alias_path(spec_key).read_text().strip() or None
        except OSError:
            return None

    def put_alias(self, spec_key: str, record_key: str) -> None:
        """Atomically point the spec index at ``record_key``."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.alias_path(spec_key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(record_key)
        os.replace(tmp, path)

    def keys(self) -> List[str]:
        """Keys of every complete entry on disk."""
        if not self.root.is_dir():
            return []
        return sorted(p.stem for p in self.root.glob("*.json") if p.name != MANIFEST_NAME)

    def __len__(self) -> int:
        return len(self.keys())

    def clear(self) -> int:
        """Delete all entries and spec-index links; returns the entry count."""
        keys = self.keys()
        for key in keys:
            self.path(key).unlink(missing_ok=True)
        if self.root.is_dir():
            for alias in self.root.glob("*.key"):
                alias.unlink(missing_ok=True)
        return len(keys)


@dataclass
class RecordOutcome:
    """What happened to one measurement *attempt* (returned by workers)."""

    index: int
    name: str
    key: str
    record: Optional[StudyRecord]
    cache_hit: bool
    walltime: float
    worker: int
    error: str = ""
    failure_kind: str = ""
    cache_corrupt: bool = False
    #: Task-local metrics snapshot (JSON image) captured around this
    #: attempt when the run collects metrics; None otherwise.  Plain
    #: dict so the outcome stays picklable across the result pipe.
    metrics: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.record is not None


@dataclass
class StudyRun:
    """Executor output: surviving records plus the full manifest."""

    records: List[StudyRecord] = field(default_factory=list)
    manifest: RunManifest = field(default_factory=RunManifest)

    @property
    def failures(self) -> List[ManifestEntry]:
        return self.manifest.failures


# -- worker-side measurement --------------------------------------------------
#
# Work items must cross a process boundary, so everything a worker needs
# is a plain picklable tuple: (index, spec-or-path, options dict).  The
# options carry the attempt's resilience state (attempt number, ladder
# step, engine set, budgets) so faults, budgets and cache keys depend
# only on values, never on which process runs the attempt.


def _attempt_budget(options: dict) -> Optional[Budget]:
    timeout = options.get("record_timeout")
    events = options.get("event_budget")
    if timeout is None and events is None:
        return None
    return Budget(wall_seconds=timeout, events=events)


def _measure_built_trace(
    index: int,
    name: str,
    trace: TraceSet,
    suite: str,
    options: dict,
    corrupt_seen: bool = False,
) -> RecordOutcome:
    """Fingerprint, cache-check, and (on a miss) measure one trace."""
    t0 = time.perf_counter()
    attempt = options.get("attempt", 0)
    engines = tuple(options.get("engines", SIM_MODELS))
    key = trace_cache_key(trace, engines)
    cache_root = options.get("cache_root")
    cache = RecordCache(cache_root) if cache_root else None
    corrupt = corrupt_seen
    if cache is not None:
        maybe_inject("cache", index=index, attempt=attempt, cache_path=cache.path(key))
        hit, status = cache.get_checked(key)
        if status == "corrupt":
            corrupt = True
        if hit is not None:
            return RecordOutcome(
                index=index,
                name=name,
                key=key,
                record=hit,
                cache_hit=True,
                walltime=time.perf_counter() - t0,
                worker=os.getpid(),
                cache_corrupt=corrupt,
            )
    with obs.span("record"):
        record = measure_trace(
            trace,
            spec_index=index,
            suite=suite,
            lint_gate=options.get("lint_gate", False),
            engines=engines,
            budget=_attempt_budget(options),
            ladder_step=options.get("ladder_step", 0),
            degraded_from=options.get("degraded_from", ""),
            attempt=attempt,
        )
    if cache is not None:
        cache.put(key, record)
    return RecordOutcome(
        index=index,
        name=name,
        key=key,
        record=record,
        cache_hit=False,
        walltime=time.perf_counter() - t0,
        worker=os.getpid(),
        cache_corrupt=corrupt,
    )


def _failure_outcome(
    index: int, name: str, exc: Exception, t0: float
) -> RecordOutcome:
    return RecordOutcome(
        index=index,
        name=name,
        key="",
        record=None,
        cache_hit=False,
        walltime=time.perf_counter() - t0,
        worker=os.getpid(),
        error=f"{type(exc).__name__}: {exc}\n{traceback.format_exc(limit=5)}",
        failure_kind=classify_failure(exc),
    )


def _capture_task_metrics(impl, task: Tuple[int, object, dict]) -> RecordOutcome:
    """Run one task, collecting its metrics when the run asked for them.

    The task-local registry isolates this attempt's instrumentation;
    its snapshot travels home on the outcome (a plain dict over the
    result pipe).  Both the serial path and pool workers funnel through
    here, which is what makes serial and parallel aggregation identical.
    """
    if not task[2].get("metrics"):
        return impl(task)
    with obs.collect_task() as registry:
        outcome = impl(task)
    snap = registry.snapshot()
    if not snap.is_empty():
        outcome.metrics = snap.to_json()
    return outcome


def _run_spec_task(task: Tuple[int, object, dict]) -> RecordOutcome:
    """Build one corpus spec's trace and measure it (picklable).

    Consults the spec index first: on a warm cache with unchanged code
    the record resolves without building the trace at all.
    """
    return _capture_task_metrics(_run_spec_task_impl, task)


def _run_path_task(task: Tuple[int, object, dict]) -> RecordOutcome:
    """Load one trace file and measure it (picklable)."""
    return _capture_task_metrics(_run_path_task_impl, task)


def _run_spec_task_impl(task: Tuple[int, object, dict]) -> RecordOutcome:
    from repro.workloads.suite import build_trace

    index, spec, options = task
    t0 = time.perf_counter()
    attempt = options.get("attempt", 0)
    engines = tuple(options.get("engines", SIM_MODELS))
    cache_root = options.get("cache_root")
    clean = not options.get("defects", {}).get(spec.index)
    try:
        maybe_inject(
            "record",
            index=spec.index,
            attempt=attempt,
            engines=engines,
            lease=options.get("lease", 0),
        )
        corrupt = False
        if cache_root and clean:
            cache = RecordCache(cache_root)
            spec_key = spec_cache_key(spec, engines)
            record_key = cache.get_alias(spec_key)
            if record_key:
                maybe_inject(
                    "cache",
                    index=spec.index,
                    attempt=attempt,
                    cache_path=cache.path(record_key),
                )
                record, status = cache.get_checked(record_key)
                if status == "corrupt":
                    corrupt = True
                if record is not None:
                    return RecordOutcome(
                        index=spec.index,
                        name=spec.name,
                        key=record_key,
                        record=record,
                        cache_hit=True,
                        walltime=time.perf_counter() - t0,
                        worker=os.getpid(),
                    )
        trace = build_trace(spec)
        defect = options.get("defects", {}).get(spec.index)
        if defect:
            from repro.workloads.synthesis import inject_defect

            trace = inject_defect(trace, defect, seed=spec.seed)
        outcome = _measure_built_trace(
            index=spec.index,
            name=spec.name,
            trace=trace,
            suite=spec.suite,
            options=options,
            corrupt_seen=corrupt,
        )
        if cache_root and clean and outcome.ok:
            RecordCache(cache_root).put_alias(spec_cache_key(spec, engines), outcome.key)
        return outcome
    except Exception as exc:
        return _failure_outcome(spec.index, spec.name, exc, t0)


def _run_path_task_impl(task: Tuple[int, object, dict]) -> RecordOutcome:
    from repro.trace.binary import read_trace_binary
    from repro.trace.dumpi import read_trace

    index, path, options = task
    path = str(path)
    t0 = time.perf_counter()
    try:
        maybe_inject(
            "record",
            index=index,
            attempt=options.get("attempt", 0),
            engines=tuple(options.get("engines", SIM_MODELS)),
            lease=options.get("lease", 0),
        )
        trace = read_trace_binary(path) if path.endswith(".bin") else read_trace(path)
        return _measure_built_trace(
            index=index,
            name=trace.name,
            trace=trace,
            suite=trace.metadata.get("suite", ""),
            options=options,
        )
    except Exception as exc:
        return _failure_outcome(index, path, exc, t0)


# -- driver -------------------------------------------------------------------


@dataclass
class _TaskState:
    """Parent-side resilience state of one record across its attempts."""

    index: int
    name: str
    payload: object
    quarantine_key: str = ""
    attempt: int = 0  # attempt within the current ladder step
    step: int = 0
    total_attempts: int = 0
    backoffs: List[float] = field(default_factory=list)
    degraded_from: str = ""
    #: Wall seconds across *all* attempts, cache lookups included.
    walltime: float = 0.0
    #: Wall seconds spent actually measuring (cache-hit attempts
    #: excluded) — the number warm-vs-cold speedup claims must use;
    #: folding near-zero cache-hit times into one total under-reports
    #: warm-run cost and over-reports speedup.
    compute_walltime: float = 0.0
    cache_corrupt: bool = False
    last_error: str = ""
    last_kind: str = ""
    last_worker: int = 0


class _Driver:
    """Shared retry/degrade/quarantine resolution for both drive paths."""

    def __init__(
        self,
        worker: Callable[[Tuple[int, object, dict]], RecordOutcome],
        options: dict,
        manifest: RunManifest,
        policy: RetryPolicy,
        quarantine: Optional[QuarantineRegistry],
        progress: Optional[Callable[[int, RecordOutcome], None]],
        metrics: Optional[obs.MetricsRegistry] = None,
    ):
        self.worker = worker
        self.options = options
        self.manifest = manifest
        self.policy = policy
        self.quarantine = quarantine
        self.progress = progress
        self.metrics = metrics
        self.base_engines: Tuple[str, ...] = tuple(options.get("engines", SIM_MODELS))
        self.outcomes: Dict[int, RecordOutcome] = {}

    # -- task construction -------------------------------------------------

    def task_for(self, state: _TaskState) -> Tuple[int, object, dict]:
        options = dict(self.options)
        options["attempt"] = state.attempt
        options["ladder_step"] = state.step
        options["degraded_from"] = state.degraded_from
        options["engines"] = step_engines(state.step, self.base_engines)
        return (state.index, state.payload, options)

    # -- pre-dispatch quarantine check -------------------------------------

    def quarantined_entry(self, state: _TaskState) -> Optional[ManifestEntry]:
        """Skip entry when a previous run quarantined this record."""
        if self.quarantine is None or not state.quarantine_key:
            return None
        hit = self.quarantine.get(state.quarantine_key)
        if hit is None:
            return None
        if self.metrics is not None:
            self.metrics.counter(
                "repro_executor_records_total", status="skipped"
            ).inc()
        return ManifestEntry(
            name=state.name,
            spec_index=state.index,
            key="",
            status="quarantined",
            cache_hit=False,
            walltime=0.0,
            worker=os.getpid(),
            error=f"quarantined: {hit.reason}",
            attempts=0,
            quarantined=True,
        )

    # -- outcome resolution ------------------------------------------------

    def resolve(self, state: _TaskState, outcome: RecordOutcome):
        """Returns ``("done"|"fail"|"quarantine", None)`` or ``("retry", delay)``
        or ``("degrade", None)`` after updating ``state``."""
        state.total_attempts += 1
        state.walltime += outcome.walltime
        if not outcome.cache_hit:
            contribution = outcome.walltime
            if outcome.failure_kind == "timeout":
                # A watchdog kill reports the parent-side elapsed time,
                # which includes the factor/slack headroom past the
                # compute budget; cap the *compute* accounting at the
                # budget itself so deadline kills don't inflate
                # compute_walltime with watchdog slack.
                limit = self.options.get("record_timeout")
                if limit is not None:
                    contribution = min(contribution, float(limit))
            state.compute_walltime += contribution
        state.cache_corrupt = state.cache_corrupt or outcome.cache_corrupt
        state.last_worker = outcome.worker
        m = self.metrics
        if m is not None:
            m.merge_snapshot(outcome.metrics)
            m.counter("repro_executor_attempts_total").inc()
        if outcome.ok:
            return "done", None
        kind = outcome.failure_kind or "permanent"
        state.last_error = outcome.error
        state.last_kind = kind
        if kind == "permanent":
            return "fail", None
        if kind == "transient" and state.attempt + 1 < self.policy.max_attempts:
            delay = self.policy.delay(
                self.manifest.seed, state.name, state.total_attempts - 1
            )
            state.backoffs.append(delay)
            state.attempt += 1
            if m is not None:
                m.counter("repro_executor_retries_total").inc()
                m.counter("repro_executor_backoff_seconds_total").inc(delay)
                # Delays come from the seeded backoff substream, so this
                # histogram is deterministic — keep "seconds" out of its
                # name so the serial-vs-parallel diff covers it.
                m.histogram("repro_executor_backoff_delay").observe(delay)
            return "retry", delay
        # Budget/timeout (retrying would blow the same budget) or a
        # transient failure that exhausted its attempts: step down the
        # engine-degradation ladder, skipping steps whose engine set is
        # unchanged for this run's suite.
        current = step_engines(state.step, self.base_engines)
        step = state.step
        while step < MFACT_ONLY_STEP:
            step += 1
            if step_engines(step, self.base_engines) != current:
                break
        if step == state.step:  # already at mfact-only: nowhere left to fall
            return "quarantine", None
        if not state.degraded_from:
            state.degraded_from = next(
                (name for name in LADDER if name in current),
                current[0] if current else "",
            )
        state.step = step
        state.attempt = 0
        if m is not None:
            m.counter("repro_executor_ladder_steps_total").inc()
        return "degrade", None

    # -- manifest/bookkeeping ----------------------------------------------

    def finish(self, state: _TaskState, outcome: RecordOutcome, action: str) -> None:
        """Record the final entry for ``state`` and fire progress."""
        if action == "done":
            record = outcome.record
            entry = ManifestEntry(
                name=state.name,
                spec_index=state.index,
                key=outcome.key,
                status="ok",
                cache_hit=outcome.cache_hit,
                walltime=state.walltime,
                compute_walltime=state.compute_walltime,
                worker=outcome.worker,
                attempts=state.total_attempts,
                backoffs=list(state.backoffs),
                ladder_step=record.ladder_step,
                degraded_from=record.degraded_from,
                cache_corrupt=state.cache_corrupt,
            )
        else:
            # "quarantine" means every recovery path was exhausted; the
            # entry is only *marked* quarantined when a registry exists
            # to actually enforce the skip on the next run.
            quarantined = (
                action == "quarantine"
                and self.quarantine is not None
                and bool(state.quarantine_key)
            )
            reason = ""
            if quarantined:
                reason = (
                    f"failed {state.total_attempts} attempts across "
                    f"ladder steps 0..{state.step}"
                )
                self.quarantine.add(
                    QuarantineEntry(
                        key=state.quarantine_key,
                        name=state.name,
                        reason=reason,
                        attempts=state.total_attempts,
                        ladder_step=state.step,
                        error=state.last_error.splitlines()[0]
                        if state.last_error
                        else "",
                    )
                )
            entry = ManifestEntry(
                name=state.name,
                spec_index=state.index,
                key="",
                status="failed",
                cache_hit=False,
                walltime=state.walltime,
                compute_walltime=state.compute_walltime,
                worker=state.last_worker,
                error=(f"quarantined: {reason}\n" if quarantined else "")
                + state.last_error,
                attempts=state.total_attempts,
                backoffs=list(state.backoffs),
                ladder_step=state.step,
                degraded_from=state.degraded_from,
                failure_kind=state.last_kind,
                cache_corrupt=state.cache_corrupt,
                quarantined=quarantined,
            )
        if self.metrics is not None:
            status = {"done": "ok", "fail": "failed", "quarantine": "quarantined"}[action]
            self.metrics.counter("repro_executor_records_total", status=status).inc()
            self.metrics.counter(
                "repro_executor_record_walltime_seconds_total"
            ).inc(state.walltime)
            self.metrics.counter(
                "repro_executor_compute_walltime_seconds_total"
            ).inc(state.compute_walltime)
        self.outcomes[state.index] = outcome
        self.manifest.entries.append(entry)
        if self.progress:
            self.progress(state.index, outcome)

    def synthetic_failure(self, state: _TaskState, kind: str, detail) -> RecordOutcome:
        """Outcome standing in for a worker the pool killed or lost."""
        if kind == "timeout":
            error = f"watchdog killed hung worker after {detail:.2f}s"
            walltime = float(detail)
        else:
            error = str(detail)
            walltime = 0.0
        return RecordOutcome(
            index=state.index,
            name=state.name,
            key="",
            record=None,
            cache_hit=False,
            walltime=walltime,
            worker=state.last_worker,
            error=error,
            failure_kind="timeout" if kind == "timeout" else "transient",
        )


def _drive_serial(driver: _Driver, states: List[_TaskState]) -> None:
    for state in states:
        skip = driver.quarantined_entry(state)
        if skip is not None:
            driver.manifest.entries.append(skip)
            continue
        while True:
            outcome = driver.worker(driver.task_for(state))
            if isinstance(outcome, PoolWorkerError):  # pragma: no cover - pool only
                outcome = driver.synthetic_failure(state, "crashed", outcome.error)
            action, delay = driver.resolve(state, outcome)
            if action == "retry":
                _sleep(delay)
                continue
            if action == "degrade":
                continue
            driver.finish(state, outcome, action)
            break


def _drive_parallel(
    driver: _Driver, states: List[_TaskState], jobs: int, record_timeout: Optional[float]
) -> None:
    deadline = _watchdog_deadline(record_timeout)
    pool = WorkerPool(driver.worker, jobs)
    ready: List[_TaskState] = []
    for state in states:
        skip = driver.quarantined_entry(state)
        if skip is not None:
            driver.manifest.entries.append(skip)
        else:
            ready.append(state)
    waiting: List[Tuple[float, _TaskState]] = []  # (due monotonic, state)
    active: Dict[int, _TaskState] = {}
    try:
        while ready or waiting or active:
            now = time.monotonic()
            due = [w for w in waiting if w[0] <= now]
            if due:
                waiting = [w for w in waiting if w[0] > now]
                ready.extend(state for _, state in due)
            while ready and pool.idle_count() > 0:
                state = ready.pop(0)
                pool.dispatch(state.index, driver.task_for(state), deadline=deadline)
                active[state.index] = state
            if not active:
                if waiting:
                    _sleep(max(0.0, min(0.05, waiting[0][0] - time.monotonic())))
                continue
            for kind, task_id, detail in pool.poll(timeout=0.05):
                state = active.pop(task_id)
                if kind == "done" and not isinstance(detail, PoolWorkerError):
                    outcome = detail
                elif kind == "done":
                    outcome = driver.synthetic_failure(state, "crashed", detail.error)
                else:
                    outcome = driver.synthetic_failure(state, kind, detail)
                action, delay = driver.resolve(state, outcome)
                if action == "retry":
                    waiting.append((time.monotonic() + delay, state))
                    waiting.sort(key=lambda w: w[0])
                elif action == "degrade":
                    ready.append(state)
                else:
                    driver.finish(state, outcome, action)
    finally:
        pool.shutdown()


def _drive(
    states: List[_TaskState],
    worker: Callable[[Tuple[int, object, dict]], RecordOutcome],
    jobs: int,
    manifest: RunManifest,
    options: dict,
    policy: RetryPolicy,
    quarantine: Optional[QuarantineRegistry],
    progress: Optional[Callable[[int, RecordOutcome], None]],
    metrics: Optional[obs.MetricsRegistry] = None,
) -> Dict[int, RecordOutcome]:
    """Run the resilient measurement loop, serially or via the pool.

    On :class:`KeyboardInterrupt` — including one delivered during a
    retry backoff wait — the partial outcome map is preserved on
    ``manifest`` (marked ``interrupted``) before the exception
    propagates; together with the per-record cache this is what makes
    interrupted studies resumable.
    """
    driver = _Driver(worker, options, manifest, policy, quarantine, progress, metrics)
    try:
        if jobs <= 1:
            _drive_serial(driver, states)
        else:
            _drive_parallel(driver, states, jobs, options.get("record_timeout"))
    except KeyboardInterrupt:
        manifest.interrupted = True
        raise
    finally:
        manifest.entries.sort(key=lambda e: e.spec_index)
    return driver.outcomes


def _finish(
    outcomes: Dict[int, RecordOutcome],
    manifest: RunManifest,
    cache_root: Optional[Path],
    manifest_path: Optional[Union[str, Path]],
    metrics: Optional[obs.MetricsRegistry] = None,
) -> StudyRun:
    if metrics is not None:
        # Embed the run's merged snapshot in the manifest, and fold it
        # into the globally-active registry (if any) so callers like
        # repro-experiments aggregate across several runs.
        manifest.metrics = metrics.snapshot().to_json()
        active = obs.active_registry()
        if active is not None and active is not metrics:
            active.merge_snapshot(manifest.metrics)
    if manifest_path is None and cache_root is not None:
        manifest_path = Path(cache_root) / MANIFEST_NAME
    if manifest_path is not None:
        manifest.write(manifest_path)
    records = [
        outcomes[i].record for i in sorted(outcomes) if outcomes[i].record is not None
    ]
    return StudyRun(records=records, manifest=manifest)


def _quarantine_registry(
    quarantine_root: Optional[Union[str, Path]],
    cache_root: Optional[Union[str, Path]],
) -> Optional[QuarantineRegistry]:
    """Registry under ``quarantine_root``; derived from the cache layout
    (``<cache parent>/quarantine``) when caching is on and no explicit
    root is given; None (disabled) for cacheless runs."""
    if quarantine_root is not None:
        return QuarantineRegistry(quarantine_root)
    if cache_root is not None:
        return QuarantineRegistry(Path(cache_root).parent / "quarantine")
    return None


def _open_quarantine(
    quarantine_root: Optional[Union[str, Path]],
    cache_root: Optional[Union[str, Path]],
    manifest: RunManifest,
) -> Optional[QuarantineRegistry]:
    """Open the quarantine registry and prune stale entries.

    Quarantine keys embed the measurement code version, so entries
    written under a different version can never match again; dropping
    them at open keeps the registry from accumulating dead files, and
    the count lands on the manifest (``quarantine_pruned``).
    """
    registry = _quarantine_registry(quarantine_root, cache_root)
    if registry is not None:
        manifest.quarantine_pruned = registry.prune_stale(code_version())
    return registry


def study_options(
    cache_root: Optional[Union[str, Path]] = None,
    lint_gate: bool = False,
    engines: Sequence[str] = SIM_MODELS,
    defects: Optional[Dict[int, str]] = None,
    record_timeout: Optional[float] = None,
    event_budget: Optional[int] = None,
    metrics: bool = False,
) -> dict:
    """The picklable options dict shipped to every measurement task.

    Single construction point shared by :func:`execute_study`,
    :func:`execute_traces` and the :mod:`repro.serve` worker agent, so
    a distributed attempt sees exactly the knobs a local attempt would
    — which is what keeps distributed canonical records byte-identical
    to serial ones.
    """
    return {
        "cache_root": str(cache_root) if cache_root is not None else None,
        "lint_gate": lint_gate,
        "engines": tuple(engines),
        "defects": dict(defects or {}),
        "record_timeout": record_timeout,
        "event_budget": event_budget,
        "metrics": metrics,
    }


def drive_spec(
    spec,
    options: dict,
    seed: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    quarantine: Optional[QuarantineRegistry] = None,
    lease: int = 0,
) -> Tuple[ManifestEntry, Optional[StudyRecord], Optional[dict]]:
    """Drive one corpus spec through the full resilience state machine.

    This is the unit of work a :mod:`repro.serve` worker executes per
    assignment: the same retry/degrade/quarantine ``_Driver`` loop the
    local executor runs, in-process, for a single spec.  ``lease`` is
    the serve lease generation (forwarded to fault hooks and stamped on
    the entry).  Returns ``(manifest entry, record or None, task
    metrics snapshot or None)``; because backoff delays, ladder steps
    and cache keys depend only on (spec, attempt, seed), the entry and
    record match what a serial :func:`execute_study` would produce.
    """
    policy = retry if retry is not None else DEFAULT_RETRY_POLICY
    run_metrics = obs.MetricsRegistry() if options.get("metrics") else None
    manifest = RunManifest(
        seed=seed,
        jobs=1,
        engines=list(options.get("engines", SIM_MODELS)),
        code_version=code_version(),
        retry_policy=policy.to_json(),
        record_timeout=options.get("record_timeout"),
        event_budget=options.get("event_budget"),
    )
    task_options = dict(options)
    task_options["lease"] = lease
    state = _TaskState(
        index=spec.index,
        name=spec.name,
        payload=spec,
        quarantine_key=spec_cache_key(spec, tuple(options.get("engines", SIM_MODELS))),
    )
    driver = _Driver(
        _run_spec_task, task_options, manifest, policy, quarantine, None, run_metrics
    )
    _drive_serial(driver, [state])
    entry = manifest.entries[0]
    entry.lease = lease
    outcome = driver.outcomes.get(spec.index)
    record = outcome.record if outcome is not None else None
    snapshot = None
    if run_metrics is not None:
        snap = run_metrics.snapshot()
        if not snap.is_empty():
            snapshot = snap.to_json()
    return entry, record, snapshot


def _execute(
    states: List[_TaskState],
    worker: Callable[[Tuple[int, object, dict]], RecordOutcome],
    *,
    jobs: int,
    cache_root: Optional[Union[str, Path]],
    lint_gate: bool,
    engines: Sequence[str],
    defects: Optional[Dict[int, str]],
    progress: Optional[Callable[[int, RecordOutcome], None]],
    manifest_path: Optional[Union[str, Path]],
    seed: Optional[int],
    record_timeout: Optional[float],
    event_budget: Optional[int],
    retry: Optional[RetryPolicy],
    quarantine_root: Optional[Union[str, Path]],
    collect_metrics: Optional[bool],
) -> StudyRun:
    """The body :func:`execute_study` and :func:`execute_traces` share:
    options, manifest, quarantine, the resilient drive loop, and the
    finish (which on interrupt still writes the partial manifest)."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    policy = retry if retry is not None else DEFAULT_RETRY_POLICY
    collect = obs.enabled() if collect_metrics is None else bool(collect_metrics)
    run_metrics = obs.MetricsRegistry() if collect else None
    options = study_options(
        cache_root=cache_root,
        lint_gate=lint_gate,
        engines=engines,
        defects=defects,
        record_timeout=record_timeout,
        event_budget=event_budget,
        metrics=collect,
    )
    manifest = RunManifest(
        seed=seed,
        jobs=jobs,
        engines=list(engines),
        code_version=code_version(),
        retry_policy=policy.to_json(),
        record_timeout=record_timeout,
        event_budget=event_budget,
    )
    quarantine = _open_quarantine(quarantine_root, cache_root, manifest)
    root = Path(cache_root) if cache_root else None
    try:
        outcomes = _drive(
            states, worker, jobs, manifest, options, policy, quarantine,
            progress, run_metrics,
        )
    except KeyboardInterrupt:
        _finish({}, manifest, root, manifest_path)
        raise
    return _finish(outcomes, manifest, root, manifest_path, run_metrics)


def execute_study(
    specs: Sequence,
    jobs: int = 1,
    cache_root: Optional[Union[str, Path]] = DEFAULT_RECORD_CACHE,
    lint_gate: bool = False,
    engines: Sequence[str] = SIM_MODELS,
    defects: Optional[Dict[int, str]] = None,
    progress: Optional[Callable[[int, RecordOutcome], None]] = None,
    manifest_path: Optional[Union[str, Path]] = None,
    seed: Optional[int] = None,
    record_timeout: Optional[float] = None,
    event_budget: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    quarantine_root: Optional[Union[str, Path]] = None,
    collect_metrics: Optional[bool] = None,
) -> StudyRun:
    """Measure every :class:`~repro.workloads.suite.TraceSpec` in ``specs``.

    ``jobs`` processes build and measure the traces concurrently
    (``jobs=1`` stays in-process).  ``cache_root=None`` disables the
    record cache entirely.  ``defects`` maps spec indices to
    :func:`~repro.workloads.synthesis.inject_defect` kinds and exists
    for fault-injection testing of the failure-isolation path.
    ``progress`` is called with ``(spec_index, outcome)`` as records
    finish (completion order under ``jobs > 1``).

    Resilience: ``record_timeout`` (wall seconds) and ``event_budget``
    bound every attempt — enforced cooperatively in-engine and, under
    ``jobs > 1``, by a watchdog that kills hung workers; over-budget
    records fall down the engine-degradation ladder instead of
    failing.  Transient failures retry under ``retry`` (default
    :data:`DEFAULT_RETRY_POLICY`) with deterministic backoff.  Records
    that exhaust every attempt at every ladder step are quarantined
    under ``quarantine_root`` (default: ``quarantine/`` beside the
    record cache) and skipped on later runs.

    Returns a :class:`StudyRun`; failed records appear only in its
    manifest.  The manifest is also written to ``manifest_path``
    (default: ``<cache_root>/last_run_manifest.json`` when caching).

    ``collect_metrics`` turns the :mod:`repro.obs` layer on for this
    run (default: on iff a registry is already enabled); the merged
    snapshot lands in ``manifest.metrics`` — identical for serial and
    parallel runs on all non-walltime series.

    Pool workers are long-lived: each one keeps its process (imports,
    numpy buffers, the flow model's water-fill memo) warm across all the
    records it measures.
    """
    states = [
        _TaskState(
            index=spec.index,
            name=spec.name,
            payload=spec,
            quarantine_key=spec_cache_key(spec, tuple(engines)),
        )
        for spec in specs
    ]
    return _execute(
        states, _run_spec_task, jobs=jobs, cache_root=cache_root,
        lint_gate=lint_gate, engines=engines, defects=defects,
        progress=progress, manifest_path=manifest_path, seed=seed,
        record_timeout=record_timeout, event_budget=event_budget,
        retry=retry, quarantine_root=quarantine_root,
        collect_metrics=collect_metrics,
    )


def execute_traces(
    paths: Sequence[Union[str, Path]],
    jobs: int = 1,
    cache_root: Optional[Union[str, Path]] = DEFAULT_RECORD_CACHE,
    lint_gate: bool = False,
    engines: Sequence[str] = SIM_MODELS,
    progress: Optional[Callable[[int, RecordOutcome], None]] = None,
    manifest_path: Optional[Union[str, Path]] = None,
    record_timeout: Optional[float] = None,
    event_budget: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    quarantine_root: Optional[Union[str, Path]] = None,
    collect_metrics: Optional[bool] = None,
) -> StudyRun:
    """Measure already-serialized trace files (``.dmp`` ASCII or ``.bin``).

    Same parallelism, caching, isolation, budget/retry/ladder/quarantine,
    metrics-collection and manifest semantics as
    :func:`execute_study`, but the work items are file paths — the CLI
    entry point ``python -m repro.trace.cli measure``.
    """
    states = []
    for i, p in enumerate(paths):
        digest = hashlib.sha256(str(Path(p).resolve()).encode("utf-8"))
        digest.update(code_version().encode("utf-8"))
        states.append(
            _TaskState(
                index=i,
                name=str(p),
                payload=str(p),
                quarantine_key=f"path-{digest.hexdigest()}",
            )
        )
    return _execute(
        states, _run_path_task, jobs=jobs, cache_root=cache_root,
        lint_gate=lint_gate, engines=engines, defects=None,
        progress=progress, manifest_path=manifest_path, seed=None,
        record_timeout=record_timeout, event_budget=event_budget,
        retry=retry, quarantine_root=quarantine_root,
        collect_metrics=collect_metrics,
    )
