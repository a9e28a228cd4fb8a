"""Program-once trace build against the regenerate-per-attempt oracle.

``build_trace`` generates each trace's communication program once
(:class:`~repro.workloads.base.Program`), calibrates on it and stamps
the compute budget onto a fresh copy per synthesis attempt; the public
generators return ``program.stamp(compute_per_iter)``.  The oracle
below is the code this replaced, kept verbatim: generators that insert
compute ops inline while emitting (and validate every trace), and a
``build_trace`` that regenerates the whole program on every attempt.
Every trace must come out the same bytes, metadata and fingerprint.

The oracle synthesizer keeps the old numpy ``_free`` array, so the
byte checks also pin that the synthesizer's timestamps, now builtin
floats, kept their bits.
"""

import dataclasses
import itertools
from collections import Counter

import numpy as np
import pytest

from repro import obs
from repro.machines.presets import get_machine
from repro.mfact.hockney import ConfigGrid
from repro.mfact.logical_clock import LogicalClockReplay
from repro.trace.binary import dumps_binary
from repro.trace.trace import TraceSet
from repro.util.fingerprint import trace_fingerprint
from repro.util.rng import DEFAULT_SEED, substream
from repro.workloads import suite
from repro.workloads.base import Program, ProgramBuilder
from repro.workloads.doe import DOE_APPS, generate_doe
from repro.workloads.npb import NPB_APPS, _imbalance_multipliers, generate_npb
from repro.workloads.suite import build_trace, corpus_specs, mini_corpus_specs
from repro.workloads.synthesis import GroundTruthSynthesizer, synthesize_ground_truth
from studybench.workloads import corpus_subset

# -- the oracle: inline compute, regenerate per attempt -----------------------


def oracle_generate_npb(
    app,
    nranks,
    machine,
    seed,
    scale=1.0,
    compute_per_iter=0.0,
    imbalance=0.0,
    ranks_per_node=16,
    use_threads=False,
    use_comm_split=False,
    name=None,
    iters=None,
):
    try:
        spec = NPB_APPS[app.upper()]
    except KeyError:
        known = ", ".join(sorted(NPB_APPS))
        raise ValueError(f"unknown NPB app {app!r} (known: {known})") from None
    rng = substream(seed, "npb", app.upper(), nranks)
    trace_name = name or f"{app.lower()}.{nranks}.{machine.name}.s{seed % 1000}"
    b = ProgramBuilder(nranks, spec.name, trace_name, ranks_per_node=ranks_per_node)
    b.uses_threads = use_threads
    if use_comm_split:
        # Mirror NPB codes that split row/column communicators.
        half = max(1, nranks // 2)
        b.add_comm(tuple(range(half)))
        b.add_comm(tuple(range(half, nranks)))
    mult = _imbalance_multipliers(nranks, imbalance, rng)
    if spec.setup:
        spec.setup(b, machine, rng, nranks, scale)
    niters = iters if iters is not None else spec.iters
    for it in range(niters):
        # Jitter is drawn unconditionally so the RNG stream (and hence
        # the traffic) is identical across calibration passes that only
        # change the compute budget.
        jitter = rng.normal(1.0, 0.02, size=nranks).clip(0.8, 1.2)
        if compute_per_iter > 0:
            for rank in range(nranks):
                b.compute(rank, compute_per_iter * mult[rank] * jitter[rank])
        spec.emit_round(b, machine, rng, nranks, scale, it)
    if spec.finalize:
        spec.finalize(b, machine, rng, nranks, scale)
    b.barrier()
    b.metadata.update(
        app=spec.name,
        suite="NPB",
        scale=scale,
        imbalance=imbalance,
        iters=niters,
        seed=seed,
    )
    return b.build(machine=machine.name)


def oracle_generate_doe(
    app,
    nranks,
    machine,
    seed,
    scale=1.0,
    compute_per_iter=0.0,
    imbalance=0.0,
    ranks_per_node=16,
    use_threads=False,
    use_comm_split=False,
    name=None,
    iters=None,
):
    key = app.upper().replace("-", "")
    try:
        spec = DOE_APPS[key]
    except KeyError:
        known = ", ".join(sorted(DOE_APPS))
        raise ValueError(f"unknown DOE app {app!r} (known: {known})") from None
    rng = substream(seed, "doe", key, nranks)
    trace_name = name or f"{spec.name.lower()}.{nranks}.{machine.name}.s{seed % 1000}"
    b = ProgramBuilder(nranks, spec.name, trace_name, ranks_per_node=ranks_per_node)
    b.uses_threads = use_threads
    if use_comm_split:
        half = max(1, nranks // 2)
        b.add_comm(tuple(range(half)))
        b.add_comm(tuple(range(half, nranks)))
    mult = _imbalance_multipliers(nranks, imbalance, rng)
    if spec.setup:
        spec.setup(b, machine, rng, nranks, scale)
    niters = iters if iters is not None else spec.iters
    for it in range(niters):
        # Jitter is drawn unconditionally so the RNG stream (and hence
        # the traffic) is identical across calibration passes that only
        # change the compute budget.
        jitter = rng.normal(1.0, 0.02, size=nranks).clip(0.8, 1.2)
        if compute_per_iter > 0:
            for rank in range(nranks):
                b.compute(rank, compute_per_iter * mult[rank] * jitter[rank])
        spec.emit_round(b, machine, rng, nranks, scale, it)
    if spec.finalize:
        spec.finalize(b, machine, rng, nranks, scale)
    b.barrier()
    b.metadata.update(
        app=spec.name,
        suite="DOE",
        scale=scale,
        imbalance=imbalance,
        iters=niters,
        seed=seed,
    )
    return b.build(machine=machine.name)


class NumpyFreeSynthesizer(GroundTruthSynthesizer):
    """The synthesizer with its old numpy link-free array."""

    def __init__(self, trace, machine, seed):
        super().__init__(trace, machine, seed)
        self._free = np.zeros(self.fabric.nresources)


def oracle_synthesize(trace, machine, seed):
    return NumpyFreeSynthesizer(trace, machine, seed).run()


def _generate(spec, compute_per_iter):
    machine = get_machine(spec.machine)
    gen = oracle_generate_npb if spec.suite == "NPB" else oracle_generate_doe
    return gen(
        spec.app,
        spec.nranks,
        machine,
        seed=spec.seed,
        scale=spec.scale,
        compute_per_iter=compute_per_iter,
        imbalance=spec.imbalance,
        ranks_per_node=spec.ranks_per_node,
        use_threads=spec.use_threads,
        use_comm_split=spec.use_comm_split,
        name=spec.name,
        iters=spec.iters,
    )


def oracle_build_trace(spec, max_retries=2):
    machine = get_machine(spec.machine)
    bare = _generate(spec, 0.0)
    bare.metadata["mapping"] = spec.mapping
    bare.metadata["mapping_seed"] = spec.seed
    niters = bare.metadata["iters"]
    report = LogicalClockReplay(bare, machine, ConfigGrid.single(machine)).run()
    comm_time = max(report.baseline_total_time, 1e-9)
    f = min(0.97, max(0.005, spec.comm_target))
    compute_per_iter = comm_time * (1.0 - f) / f / niters
    trace = None
    for attempt in range(max_retries + 1):
        trace = _generate(spec, compute_per_iter)
        trace.metadata["mapping"] = spec.mapping
        trace.metadata["mapping_seed"] = spec.seed
        oracle_synthesize(trace, machine, spec.seed)
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


# -- inputs -------------------------------------------------------------------

MINI = mini_corpus_specs(count=24)
SUBSET = corpus_subset(DEFAULT_SEED)


def _wide_specs(seed=4242, apps=("CG", "FB", "AMG", "BIGFFT")):
    """The first 64-rank spec of a few apps (irregular, threaded, alltoall)."""
    first = {}
    for spec in corpus_specs(seed):
        if spec.nranks == 64 and spec.app in apps:
            first.setdefault(spec.app, spec)
    return list(first.values())


WIDE = _wide_specs()


def _floats(trace):
    for stream in trace.ranks:
        for op in stream:
            yield op.t_entry
            yield op.t_exit
            yield op.duration


def _assert_same_trace(new, old):
    assert dumps_binary(new) == dumps_binary(old)
    assert list(new.metadata.items()) == list(old.metadata.items())
    assert trace_fingerprint(new) == trace_fingerprint(old)


@pytest.mark.parametrize("spec", MINI + SUBSET + WIDE, ids=lambda s: f"{s.name}-s{s.seed}")
def test_build_trace_matches_regenerating_oracle(spec):
    new = build_trace(spec)
    _assert_same_trace(new, oracle_build_trace(spec))
    assert all(type(x) is float for x in _floats(new))


def test_corpus_inputs_cover_both_flags():
    assert [s.nranks for s in WIDE] == [64] * 4
    for specs in (SUBSET, WIDE):
        assert any(s.use_threads for s in specs) and any(s.use_comm_split for s in specs)


# -- the public generators ----------------------------------------------------

_GENERATORS = [("NPB", app) for app in NPB_APPS] + [("DOE", app) for app in DOE_APPS]


@pytest.mark.parametrize(
    "suite_app,flags",
    list(itertools.product(_GENERATORS, itertools.product((False, True), repeat=2))),
    ids=lambda v: "-".join(map(str, v)),
)
def test_generators_match_inline_compute_oracle(suite_app, flags):
    suite_name, app = suite_app
    use_comm_split, use_threads = flags
    new_gen, old_gen = (
        (generate_npb, oracle_generate_npb)
        if suite_name == "NPB"
        else (generate_doe, oracle_generate_doe)
    )
    machine = get_machine("cielito")
    for compute_per_iter in (0.0, 1e-6, 1e-3):
        kwargs = dict(
            seed=11,
            scale=0.05,
            compute_per_iter=compute_per_iter,
            imbalance=0.2,
            ranks_per_node=4,
            use_threads=use_threads,
            use_comm_split=use_comm_split,
        )
        new = new_gen(app, 8, machine, **kwargs)
        old = old_gen(app, 8, machine, **kwargs)
        _assert_same_trace(new, old)
        assert (new.name, new.app, new.comms) == (old.name, old.app, old.comms)
        assert (new.uses_threads, new.uses_comm_split) == (old.uses_threads, old.uses_comm_split)
        assert all(type(x) is float for x in _floats(new))


@pytest.mark.parametrize(
    "new_gen,old_gen,app",
    [
        (generate_npb, oracle_generate_npb, "cg"),
        (generate_doe, oracle_generate_doe, "big-fft"),
        (generate_doe, oracle_generate_doe, "MultiGrid"),
    ],
)
def test_spellings_names_and_errors_match(new_gen, old_gen, app):
    machine = get_machine("edison")
    try:
        old = old_gen(app, 6, machine, 3, scale=0.1, compute_per_iter=1e-5, iters=2)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            new_gen(app, 6, machine, 3, scale=0.1, compute_per_iter=1e-5, iters=2)
        assert str(raised.value) == str(exc)
        return
    new = new_gen(app, 6, machine, 3, scale=0.1, compute_per_iter=1e-5, iters=2, name=None)
    _assert_same_trace(new, old)
    assert new.name == old.name


# -- no aliasing between the program and its stamps ---------------------------


def _op_ids(trace):
    return {id(op) for stream in trace.ranks for op in stream}


def test_stamps_share_nothing_and_synthesis_touches_only_its_stamp():
    spec = MINI[5]
    machine = get_machine(spec.machine)
    program = suite._program(spec)
    program_bytes = dumps_binary(program.trace)
    a, b = program.stamp(2e-5), program.stamp(2e-5)
    assert not _op_ids(a) & _op_ids(b)
    assert not (_op_ids(a) | _op_ids(b)) & _op_ids(program.trace)
    assert a.ranks is not b.ranks and a.comms is not program.trace.comms
    sibling_bytes = dumps_binary(b)
    assert dumps_binary(a) == sibling_bytes

    synthesize_ground_truth(a, machine, spec.seed)
    a.metadata["touched"] = True
    assert a.has_timestamps()
    assert dumps_binary(program.trace) == program_bytes
    assert dumps_binary(b) == sibling_bytes
    assert "touched" not in program.trace.metadata and "touched" not in b.metadata


def test_stamp_inserts_compute_only_where_positive():
    program = suite._program(MINI[0])
    comm_ops = program.trace.op_count()
    assert program.stamp(0.0).op_count() == comm_ops
    assert program.stamp(-1.0).op_count() == comm_ops
    assert program.stamp(1e-4).op_count() == comm_ops + len(program.slots)
    with pytest.raises(ValueError, match="finite"):
        program.stamp(float("inf"))


# -- build_trace generates once -----------------------------------------------


def _count_calls(monkeypatch, owner, attr, calls):
    original = getattr(owner, attr)

    def counting(*args, **kwargs):
        calls[attr] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counting)


def test_build_trace_generates_and_validates_once(monkeypatch):
    retried = 0
    for spec in MINI[:12]:
        calls = Counter()
        for owner, attr in ((ProgramBuilder, "program"), (TraceSet, "validate"), (Program, "stamp")):
            _count_calls(monkeypatch, owner, attr, calls)
        with obs.collect_task() as registry:
            build_trace(spec)
            attempts = registry.snapshot().counters["repro_trace_build_attempts_total"]
        monkeypatch.undo()
        assert (calls["program"], calls["validate"]) == (1, 1), spec.name
        assert calls["stamp"] == attempts
        retried += attempts > 1
    assert retried  # some spec exercises a re-stamp


def test_program_reads_no_budget():
    spec = dataclasses.replace(MINI[1], comm_target=0.9)
    assert dumps_binary(suite._program(spec).trace) == dumps_binary(suite._program(MINI[1]).trace)
