"""The 235-trace study corpus (Section V-A, Table I).

Builds the full trace set used by every experiment: 101 NPB runs and
134 DOE runs across the three machines, with rank counts drawn from an
exact Table Ia multiset (72 runs at 64 ranks, ..., 16 runs above 1024)
and per-instance communication-intensity targets spread over Table Ib's
bins.  Exactly 19 traces are multi-threaded (SST/Macro 3.0's packet
engine fails on them → 216 packet completions) and a further 54 use
complex communicator grouping (flow engine fails on both → 162 flow
completions); the packet-flow engine handles all 235.

Each trace is calibrated on one generated program: the generator
emits the communication program once, a single-configuration MFACT
replay prices it, and the computation budget needed to hit the
instance's communication-fraction target is stamped onto a copy of it.
The ground-truth synthesizer then stamps measured timestamps.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.machines.presets import get_machine
from repro.mfact.logical_clock import LogicalClockReplay
from repro.trace.trace import TraceSet
from repro.util.rng import DEFAULT_SEED
from repro.workloads.base import Program
from repro.workloads.doe import DOE_APPS, doe_program
from repro.workloads.npb import NPB_APPS, npb_program
from repro.workloads.synthesis import synthesize_ground_truth

__all__ = [
    "TraceSpec",
    "corpus_specs",
    "mini_corpus_specs",
    "build_trace",
    "build_corpus",
    "CORPUS_SIZE",
]

CORPUS_SIZE = 235

#: Exact Table Ia rank-count multiset (value -> number of traces).
RANK_POOL: Dict[int, int] = {
    64: 72,
    96: 9,
    128: 9,
    192: 30,
    256: 50,
    384: 6,
    512: 6,
    768: 18,
    1024: 19,
    1152: 6,
    1296: 5,
    1728: 5,
}

_MACHINE_CYCLE = ("cielito", "edison", "hopper")


@dataclass(frozen=True)
class TraceSpec:
    """Everything needed to deterministically rebuild one corpus trace."""

    index: int
    app: str
    suite: str  # "NPB" | "DOE"
    nranks: int
    machine: str
    seed: int
    scale: float
    comm_target: float  # target fraction of time in MPI
    imbalance: float
    ranks_per_node: int
    iters: Optional[int] = None
    use_threads: bool = False
    use_comm_split: bool = False
    mapping: str = "block"

    @property
    def name(self) -> str:
        return f"{self.app.lower()}.{self.nranks}.{self.machine}.i{self.index:03d}"


@dataclass
class _AppPlan:
    app: str
    suite: str
    count: int
    # Rank values in preference order (allocator falls back to any left).
    prefer: Tuple[int, ...]
    # Cycled per instance: (comm_target, imbalance).
    profiles: Tuple[Tuple[float, float], ...]
    # Scale shrinks as ranks grow beyond this knee (keeps event counts sane).
    scale: float = 1.0
    big_rank_scale: float = 1.0
    iters_small: Optional[int] = None
    iters_big: Optional[int] = None
    threads_quota: int = 0
    split_quota: int = 0
    rpn: Optional[int] = None  # override ranks-per-node (alltoall apps spread out)
    mapping: str = "block"  # rank placement ("scatter" for alltoall apps)


_SMALL = (64, 96, 128, 192, 256)
_ANY = (64, 192, 256, 96, 128, 768, 1024, 384, 512, 1152, 1296, 1728)
_BIGOK = (768, 1024, 1152, 1296, 1728, 256, 192, 64)

_PLANS: List[_AppPlan] = [
    # -- NPB ---------------------------------------------------------------
    _AppPlan("EP", "NPB", 11, _ANY, ((0.01, 0.02), (0.02, 0.03), (0.03, 0.02))),
    _AppPlan("DT", "NPB", 6, _SMALL, ((0.07, 0.05), (0.09, 0.05))),
    _AppPlan(
        "IS", "NPB", 12, _SMALL + (512, 1024),
        ((0.45, 0.10), (0.55, 0.15), (0.35, 0.30), (0.50, 0.10)),
        big_rank_scale=0.02, split_quota=4, rpn=1, mapping="scatter",
    ),
    _AppPlan(
        "FT", "NPB", 12, _SMALL + (512, 768, 1024),
        ((0.40, 0.05), (0.50, 0.06), (0.30, 0.25), (0.55, 0.05)),
        big_rank_scale=0.03, split_quota=6, rpn=1, mapping="scatter",
    ),
    _AppPlan(
        "CG", "NPB", 14, _ANY,
        ((0.25, 0.05), (0.35, 0.06), (0.45, 0.05), (0.30, 0.08)),
        split_quota=6,
    ),
    _AppPlan(
        "MG", "NPB", 14, _ANY,
        ((0.15, 0.35), (0.25, 0.40), (0.22, 0.06), (0.35, 0.05)),
        split_quota=6,
    ),
    _AppPlan(
        "LU", "NPB", 12, _ANY,
        ((0.14, 0.35), (0.20, 0.45), (0.28, 0.30), (0.10, 0.40)),
    ),
    _AppPlan("BT", "NPB", 10, _ANY, ((0.08, 0.04), (0.13, 0.05), (0.18, 0.06))),
    _AppPlan("SP", "NPB", 10, _ANY, ((0.12, 0.30), (0.18, 0.05), (0.24, 0.35))),
    # -- DOE ---------------------------------------------------------------
    _AppPlan(
        "BIGFFT", "DOE", 8, _SMALL,
        ((0.45, 0.05), (0.55, 0.05), (0.38, 0.06)),
        split_quota=4, rpn=1, mapping="scatter",
    ),
    _AppPlan(
        "CR", "DOE", 12, _SMALL + (384,),
        ((0.50, 0.15), (0.65, 0.20), (0.75, 0.15), (0.42, 0.20)),
        split_quota=6,
    ),
    _AppPlan(
        "AMG", "DOE", 15, _ANY,
        ((0.25, 0.08), (0.35, 0.06), (0.18, 0.35), (0.30, 0.08), (0.15, 0.40)),
        threads_quota=3, split_quota=6,
    ),
    _AppPlan(
        "MINIFE", "DOE", 15, _ANY,
        ((0.06, 0.03), (0.10, 0.04), (0.14, 0.05), (0.08, 0.03)),
    ),
    _AppPlan(
        "MGPROD", "DOE", 12, _ANY,
        ((0.15, 0.35), (0.22, 0.40), (0.18, 0.06), (0.26, 0.35)),
        split_quota=6,
    ),
    _AppPlan(
        "FB", "DOE", 12, _SMALL + (384,),
        ((0.35, 0.15), (0.50, 0.20), (0.60, 0.15), (0.42, 0.25)),
        split_quota=4,
    ),
    _AppPlan(
        "LULESH", "DOE", 16, _ANY,
        ((0.05, 0.03), (0.08, 0.04), (0.12, 0.35), (0.16, 0.40)),
        threads_quota=6,
    ),
    _AppPlan(
        "CNS", "DOE", 12, _ANY,
        ((0.09, 0.04), (0.14, 0.05), (0.20, 0.06)),
        threads_quota=5,
    ),
    _AppPlan(
        "CMC", "DOE", 16, _ANY,
        ((0.02, 0.03), (0.04, 0.04), (0.06, 0.35), (0.09, 0.40)),
        threads_quota=5,
    ),
    _AppPlan(
        "NEKBONE", "DOE", 16, _ANY,
        ((0.25, 0.06), (0.35, 0.08), (0.45, 0.06), (0.55, 0.08)),
        split_quota=6,
    ),
]

#: Rank count past which a plan's ``big_rank_scale`` and reduced
#: iteration counts kick in (keeps simulation event counts tractable).
_BIG_RANKS = 384


def _ranks_per_node(nranks: int) -> int:
    """Placement density: bigger jobs pack nodes more tightly,
    mirroring fixed-size machines like the 64-node Cielito."""
    return max(1, min(16, nranks // 64))


def corpus_specs(seed: int = DEFAULT_SEED) -> List[TraceSpec]:
    """The deterministic list of 235 trace specifications."""
    pool = Counter(RANK_POOL)
    specs: List[TraceSpec] = []
    index = 0
    for plan in _PLANS:
        for j in range(plan.count):
            # Rotate the preference list per instance so each app gets a
            # spread of job sizes instead of draining one pool.
            k = len(plan.prefer)
            rotation = [plan.prefer[(j + i) % k] for i in range(k)]
            nranks = None
            for candidate in rotation:
                if pool[candidate] > 0:
                    nranks = candidate
                    break
            if nranks is None:  # preference exhausted: take largest stock
                nranks = max(pool, key=lambda v: (pool[v], -v))
                if pool[nranks] == 0:
                    raise RuntimeError("rank pool exhausted before 235 traces")
            pool[nranks] -= 1
            comm_target, imbalance = plan.profiles[j % len(plan.profiles)]
            big = nranks >= _BIG_RANKS
            scale = plan.scale * (plan.big_rank_scale if big else 1.0)
            iters = plan.iters_big if big else plan.iters_small
            if big and iters is None:
                base_iters = (NPB_APPS if plan.suite == "NPB" else DOE_APPS)[
                    plan.app
                ].iters
                iters = max(2, base_iters // 2)
            specs.append(
                TraceSpec(
                    index=index,
                    app=plan.app,
                    suite=plan.suite,
                    nranks=nranks,
                    machine=_MACHINE_CYCLE[index % len(_MACHINE_CYCLE)],
                    seed=seed + index,
                    scale=scale,
                    comm_target=comm_target,
                    imbalance=imbalance,
                    ranks_per_node=plan.rpn or _ranks_per_node(nranks),
                    iters=iters,
                    use_threads=j < plan.threads_quota,
                    use_comm_split=plan.threads_quota <= j < plan.threads_quota + plan.split_quota,
                    mapping=plan.mapping,
                )
            )
            index += 1
    assert len(specs) == CORPUS_SIZE, f"corpus has {len(specs)} specs, expected {CORPUS_SIZE}"
    assert sum(pool.values()) == 0, f"rank pool not exhausted: {dict(pool)}"
    assert sum(s.use_threads for s in specs) == 19
    assert sum(s.use_comm_split for s in specs) == 54
    return specs


#: Apps cycled by :func:`mini_corpus_specs` (a mix of both suites and
#: communication profiles, all cheap at single-digit rank counts).
_MINI_APPS: Tuple[Tuple[str, str, float], ...] = (
    ("CG", "NPB", 0.30),
    ("EP", "NPB", 0.02),
    ("IS", "NPB", 0.45),
    ("MG", "NPB", 0.20),
    ("LULESH", "DOE", 0.08),
    ("CR", "DOE", 0.50),
    ("MINIFE", "DOE", 0.10),
    ("NEKBONE", "DOE", 0.35),
)


def mini_corpus_specs(
    count: int = 12, seed: int = DEFAULT_SEED, nranks: int = 8
) -> List[TraceSpec]:
    """A scaled-down corpus: ``count`` cheap traces at ``nranks`` ranks.

    Same spec/build machinery as the real corpus but sized for executor
    scaling experiments and fast tests — each trace builds and measures
    in well under a second.
    """
    specs = []
    for i in range(count):
        app, suite, comm_target = _MINI_APPS[i % len(_MINI_APPS)]
        specs.append(
            TraceSpec(
                index=i,
                app=app,
                suite=suite,
                nranks=nranks,
                machine=_MACHINE_CYCLE[i % len(_MACHINE_CYCLE)],
                seed=seed + i,
                scale=0.05,
                comm_target=comm_target,
                imbalance=0.05,
                ranks_per_node=max(1, nranks // 2),
            )
        )
    return specs


def _program(spec: TraceSpec) -> Program:
    make = npb_program if spec.suite == "NPB" else doe_program
    program = make(
        spec.app,
        spec.nranks,
        get_machine(spec.machine),
        seed=spec.seed,
        scale=spec.scale,
        imbalance=spec.imbalance,
        ranks_per_node=spec.ranks_per_node,
        use_threads=spec.use_threads,
        use_comm_split=spec.use_comm_split,
        name=spec.name,
        iters=spec.iters,
    )
    program.trace.metadata["mapping"] = spec.mapping
    program.trace.metadata["mapping_seed"] = spec.seed
    return program


def build_trace(spec: TraceSpec, max_retries: int = 2) -> TraceSet:
    """Generate, calibrate and stamp one corpus trace.

    The communication program is generated (and validated) once.  A
    single-configuration MFACT replay prices it, which sets the
    computation budget that puts the instance at its
    communication-fraction target; each attempt stamps that budget onto
    a fresh copy of the program and synthesizes its ground truth.  The
    measured fraction is then checked and the budget re-adjusted up to
    ``max_retries`` times.
    """
    machine = get_machine(spec.machine)
    with obs.span("trace_build"):
        with obs.span("generate"):
            program = _program(spec)
        with obs.span("calibrate"):
            bare = program.trace
            report = LogicalClockReplay(bare, machine).run()
        comm_time = max(report.baseline_total_time, 1e-9)
        f = min(0.97, max(0.005, spec.comm_target))
        compute_per_iter = comm_time * (1.0 - f) / f / bare.metadata["iters"]
        trace = None
        for attempt in range(max_retries + 1):
            obs.counter("repro_trace_build_attempts_total").inc()
            with obs.span("synthesize"):
                trace = program.stamp(compute_per_iter)
                synthesize_ground_truth(trace, machine, spec.seed)
                measured = trace.comm_fraction()
            if measured <= 0 or abs(measured - f) <= 0.18 * f or compute_per_iter <= 0:
                break
            # One multiplicative correction per retry: scale the compute
            # budget by the ratio of odds (compute share implied by target
            # vs. observed).
            odds_target = (1.0 - f) / f
            odds_measured = max(1e-3, (1.0 - measured) / measured)
            compute_per_iter *= odds_target / odds_measured
    trace.metadata["comm_target"] = f
    trace.metadata["spec_index"] = spec.index
    return trace


def build_corpus(
    seed: int = DEFAULT_SEED,
    limit: Optional[int] = None,
    progress: Optional[Callable[[int, TraceSpec], None]] = None,
) -> List[TraceSet]:
    """Build the full corpus (or its first ``limit`` traces)."""
    specs = corpus_specs(seed)
    if limit is not None:
        specs = specs[:limit]
    traces = []
    for spec in specs:
        if progress:
            progress(spec.index, spec)
        traces.append(build_trace(spec))
    return traces
