"""Per-trace measurement: one :class:`StudyRecord` per corpus trace.

:func:`measure_trace` runs the paper's four tools on one trace — MFACT
modeling plus packet, flow and packet-flow simulations — with Table III
feature extraction; the record's DIFFtotal gives the Section VI label.

A study's records come from one path,
:func:`repro.core.executor.execute_study`: ``jobs > 1`` fans the
per-trace measurements out over a process pool, and every finished
record is stored in a content-addressed cache under ``.cache/records/``
keyed by (trace fingerprint, machine config hash, engine suite, code
version) — so interrupted studies resume, editing one workload
generator only recomputes its own traces, and a change to the
measurement code can never serve a record measured by the old code.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional, Sequence

from repro import obs
from repro.analysis.lint import LintGateError, lint_trace
from repro.core.difftotal import DIFF_THRESHOLD, diff_total
from repro.core.resilience import LADDER, band_for_step
from repro.machines.presets import get_machine
from repro.sensitivity.analysis import analyze_graph, record_graph
from repro.sim.mpi_replay import ReplayShared, simulate_trace
from repro.sim.network import UnsupportedTraceError
from repro.trace.features import extract_features
from repro.trace.trace import TraceSet
from repro.util.budget import Budget, BudgetExceeded, WallClockExceeded
from repro.util.faults import maybe_inject

__all__ = ["ToolRun", "StudyRecord"]

SIM_MODELS = ("packet", "flow", "packet-flow")


@dataclass
class ToolRun:
    """One tool's outcome on one trace."""

    completed: bool
    total_time: float = 0.0
    comm_time: float = 0.0
    walltime: float = 0.0
    events: int = 0
    error: str = ""


@dataclass
class StudyRecord:
    """All measurements for one corpus trace."""

    name: str
    app: str
    suite: str
    machine: str
    nranks: int
    spec_index: int
    measured_total: float
    measured_comm: float
    comm_fraction: float
    mfact: ToolRun = field(default_factory=lambda: ToolRun(False))
    mfact_class: str = ""
    mfact_cs: bool = False
    sims: Dict[str, ToolRun] = field(default_factory=dict)
    features: Dict[str, float] = field(default_factory=dict)
    # Engine-degradation annotations (empty/zero when measured at full
    # detail): the most detailed engine given up on, the ladder step
    # the record was finally measured at, and the expected |DIFFtotal|
    # accuracy band at that step — so downstream tables and figures can
    # flag degraded cells instead of silently mixing or dropping them.
    degraded_from: str = ""
    ladder_step: int = 0
    expected_diff_band: str = ""

    # -- derived -----------------------------------------------------------

    def diff_total(self, model: str = "packet-flow") -> Optional[float]:
        """DIFFtotal against one simulation model (None if it failed)."""
        sim = self.sims.get(model)
        if sim is None or not sim.completed or not self.mfact.completed:
            return None
        return diff_total(sim.total_time, self.mfact.total_time)

    def requires_simulation(self, threshold: float = DIFF_THRESHOLD) -> Optional[bool]:
        """The Section VI ground-truth label."""
        diff = self.diff_total()
        return None if diff is None else diff > threshold

    def to_json(self, canonical: bool = False) -> dict:
        """JSON image of the record.

        ``canonical=True`` drops every tool's ``walltime`` — the only
        nondeterministic field (it times the *meter*, not the modeled
        application), so canonical payloads are bitwise-identical across
        serial/parallel runs and repeated runs with the same seed.
        """
        out = asdict(self)
        if canonical:
            out["mfact"].pop("walltime", None)
            for sim in out["sims"].values():
                sim.pop("walltime", None)
        return out

    @classmethod
    def from_json(cls, data: dict) -> "StudyRecord":
        data = dict(data)
        data["mfact"] = ToolRun(**data["mfact"])
        data["sims"] = {k: ToolRun(**v) for k, v in data["sims"].items()}
        return cls(**data)


def measure_trace(
    trace: TraceSet,
    spec_index: int = -1,
    suite: str = "",
    lint_gate: bool = False,
    engines: Sequence[str] = SIM_MODELS,
    budget: Optional[Budget] = None,
    ladder_step: int = 0,
    degraded_from: str = "",
    attempt: int = 0,
) -> StudyRecord:
    """Run all four tools and feature extraction on one stamped trace.

    With ``lint_gate=True`` the trace is first vetted by the static
    analyzer (:func:`repro.analysis.lint.lint_trace`); any error-level
    diagnostic raises :class:`~repro.analysis.lint.LintGateError`
    *before* any replay engine spends time on a trace that would fail
    or produce meaningless results mid-flight.

    ``engines`` restricts which simulation models run (the executor's
    degradation ladder passes the reduced suite; MFACT always runs).
    ``budget`` bounds the whole record: each engine gets the wall time
    remaining, and an engine exceeding it is marked failed while the
    *cheaper* engines still run — an in-record step down the ladder,
    annotated on the returned record.  ``ladder_step``/``degraded_from``
    carry executor-level degradation into the record's annotations;
    ``attempt`` is forwarded to the chaos harness
    (:func:`repro.util.faults.maybe_inject`) so fault plans can scope
    faults per attempt.

    When any engine runs, the collective expansion, fabric and compiled
    op streams are built once per record (one
    :class:`~repro.sim.mpi_replay.ReplayShared`) and shared by every
    engine.
    """
    if lint_gate:
        report = lint_trace(trace)
        if not report.ok:
            raise LintGateError(report)
    machine = get_machine(trace.machine)
    with obs.span("features"):
        features = extract_features(trace)
    record = StudyRecord(
        name=trace.name,
        app=trace.app,
        suite=suite or trace.metadata.get("suite", ""),
        machine=trace.machine,
        nranks=trace.nranks,
        spec_index=spec_index,
        measured_total=trace.measured_total_time(),
        measured_comm=trace.measured_comm_time(),
        comm_fraction=trace.comm_fraction(),
        features=features,
    )
    # One recorded MFACT replay yields the dependency graph, and the
    # graph prices the report's configuration sweep and the zero-replay
    # sensitivity features.  No memo here: a cache miss must replay the
    # same way in every worker, or -j 1 and -j N runs would count
    # different metrics.  ``record.mfact.walltime``, the tool cost the
    # paper's Table II ranks, covers the replay (with the recorder's
    # hooks), sealing the graph and pricing the sweep.
    graph, report = record_graph(trace, machine)
    record.mfact = ToolRun(
        completed=True,
        total_time=report.baseline_total_time,
        comm_time=report.baseline_comm_time,
        walltime=report.walltime,
        events=trace.op_count(),
    )
    record.mfact_class = report.classification.value
    record.mfact_cs = bool(report.communication_sensitive)
    # Curves are skipped; the features need only the baseline/half-
    # bandwidth/cap probes and the Newton threshold, and are
    # bitwise-identical to a full analyze_trace().
    record.features.update(
        analyze_graph(graph, machine, lat_factors=(), bw_factors=()).features()
    )
    del graph, report  # freed before the engines run, off the record's peak memory
    wall_deadline = None
    if budget is not None and budget.wall_seconds is not None:
        wall_deadline = time.perf_counter() + budget.wall_seconds
    step = ladder_step
    degraded = degraded_from
    active_engines = [m for m in SIM_MODELS if m in engines]
    shared = ReplayShared(trace, machine) if active_engines else None
    for model in active_engines:
        remaining = None
        if wall_deadline is not None:
            remaining = wall_deadline - time.perf_counter()
            if remaining <= 0.0:
                # The record budget is gone before this (cheaper) engine
                # even started: give it up too and let MFACT stand.
                record.sims[model] = ToolRun(
                    completed=False, error="WallClockExceeded: record budget exhausted"
                )
                obs.counter("repro_engine_runs_total", engine=model, status="skipped").inc()
                degraded = degraded or model
                step = max(step, LADDER.index(model) + 1 if model in LADDER else step)
                continue
        try:
            maybe_inject(
                "engine",
                index=spec_index,
                attempt=attempt,
                engine=model,
                wall_remaining=remaining,
            )
            result = simulate_trace(
                trace,
                machine,
                model,
                budget=Budget(
                    wall_seconds=remaining,
                    events=budget.events if budget is not None else None,
                ),
                shared=shared,
            )
            record.sims[model] = ToolRun(
                completed=True,
                total_time=result.total_time,
                comm_time=result.comm_time,
                walltime=result.walltime,
                events=result.events,
            )
            obs.counter("repro_engine_runs_total", engine=model, status="ok").inc()
        except UnsupportedTraceError as exc:
            record.sims[model] = ToolRun(completed=False, error=str(exc))
            obs.counter("repro_engine_runs_total", engine=model, status="unsupported").inc()
        except BudgetExceeded as exc:
            # Step down the ladder *inside* the attempt: mark this
            # engine failed with the structured diagnostic and keep
            # measuring with the cheaper engines.  Wall-clock messages
            # embed elapsed seconds, which vary run to run; records must
            # stay canonical across serial/parallel runs, so store a
            # fixed text for those (event budgets are deterministic).
            detail = (
                "wall-clock record budget exceeded"
                if isinstance(exc, WallClockExceeded)
                else str(exc)
            )
            record.sims[model] = ToolRun(
                completed=False,
                error=f"{type(exc).__name__}: {detail}",
                events=getattr(exc, "events_executed", 0),
            )
            obs.counter("repro_engine_runs_total", engine=model, status="budget").inc()
            degraded = degraded or model
            if model in LADDER:
                step = max(step, LADDER.index(model) + 1)
    record.degraded_from = degraded
    record.ladder_step = step
    record.expected_diff_band = band_for_step(step) if degraded else ""
    obs.counter("repro_records_measured_total").inc()
    return record
