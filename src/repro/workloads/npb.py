"""NAS Parallel Benchmark workload generators.

Each generator reproduces the communication *structure* of its NPB
program — the pattern, message-size scaling and collective mix that
drive modeling-vs-simulation divergence — parameterized by rank count
and a problem-scale factor.  A generator emits a communication
:class:`~repro.workloads.base.Program`; computation is stamped onto it
per ``compute_per_iter`` (see :mod:`repro.workloads.suite`'s
calibration loop), distributed with per-rank imbalance multipliers.
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

from repro.machines.config import MachineConfig
from repro.util.rng import substream
from repro.workloads.base import Program, ProgramBuilder
from repro.workloads.patterns import (
    butterfly_exchange,
    grid_dims,
    halo_exchange,
    ring_shift,
    sweep_pipeline,
)

__all__ = ["NPB_APPS", "app_program", "generate_npb", "npb_program"]


def _imbalance_multipliers(nranks: int, imbalance: float, rng: np.random.Generator):
    """Per-rank compute multipliers with mean ~1 and spread ``imbalance``.

    Uses a lognormal spread plus a structured block skew (half the ranks
    slightly heavier), which is how real load imbalance tends to look.
    """
    if imbalance <= 0:
        return np.ones(nranks)
    noise = rng.lognormal(mean=0.0, sigma=imbalance * 0.6, size=nranks)
    block = 1.0 + imbalance * (np.arange(nranks) >= nranks // 2)
    mult = noise * block
    return mult / mult.mean()


class _App:
    """One generator: emits per-iteration communication rounds."""

    def __init__(self, name, iters, emit_round, setup=None, finalize=None, ranks_cap=None):
        self.name = name
        self.iters = iters
        self.emit_round = emit_round
        self.setup = setup
        self.finalize = finalize
        self.ranks_cap = ranks_cap


def _scaled(base: int, nranks: int, scale: float, per_rank_decay: float = 0.5) -> int:
    """Message size scaling: weak-scaling problems shrink per-rank
    surface area as ranks grow (``per_rank_decay`` is the exponent)."""
    size = base * scale / max(1.0, (nranks / 64.0) ** per_rank_decay)
    return max(64, int(size))


# -- per-benchmark round emitters -------------------------------------------


def _ep_round(b, machine, rng, nranks, scale, it):
    if it == 0:
        b.bcast(512)
    # Embarrassingly parallel: only terminal reductions.


def _ep_final(b, machine, rng, nranks, scale):
    for _ in range(3):
        b.allreduce(64)


def _dt_round(b, machine, rng, nranks, scale, it):
    # Data-traffic graph: sources feed a shuffle layer feeding sinks.
    tag = b.fresh_tag()
    size = _scaled(96 * 1024, nranks, scale, 0.8)
    third = max(1, nranks // 3)
    for src in range(third):
        dst = third + (src % third)
        b.send(src, dst, size, tag)
        b.recv(dst, src, size, tag)
    for mid in range(third, 2 * third):
        dst = 2 * third + (mid % max(1, nranks - 2 * third))
        if dst < nranks:
            b.send(mid, dst, size, tag)
            b.recv(dst, mid, size, tag)


def _is_round(b, machine, rng, nranks, scale, it):
    # Bucket sort: small count exchange, then heavy key redistribution.
    b.allreduce(1024)
    b.alltoall(64)  # bucket sizes
    b.alltoall(_scaled(20 * 1024, nranks, scale, 1.0))  # keys


def _ft_round(b, machine, rng, nranks, scale, it):
    # 3-D FFT: two transposes per inverse/forward step.
    per_pair = _scaled(28 * 1024, nranks, scale, 1.0)
    b.alltoall(per_pair)
    b.alltoall(per_pair)
    b.allreduce(16)


def _cg_round(b, machine, rng, nranks, scale, it):
    dims = grid_dims(nranks, 2)
    size = _scaled(48 * 1024, nranks, scale)
    halo_exchange(b, dims, size)
    b.allreduce(8)
    halo_exchange(b, dims, size)
    b.allreduce(8)
    b.allreduce(8)


def _mg_round(b, machine, rng, nranks, scale, it):
    dims = grid_dims(nranks, 3)
    base = _scaled(128 * 1024, nranks, scale)
    for level in range(4):
        halo_exchange(b, dims, max(256, base >> (2 * level)))
    b.allreduce(8)


def _lu_round(b, machine, rng, nranks, scale, it):
    dims = grid_dims(nranks, 2)
    size = _scaled(24 * 1024, nranks, scale, 0.7)
    sweep_pipeline(b, (dims[0], dims[1]), size)
    sweep_pipeline(b, (dims[0], dims[1]), size, reverse=True)
    if it % 4 == 0:
        b.allreduce(40)


def _bt_round(b, machine, rng, nranks, scale, it):
    dims = grid_dims(nranks, 2)
    size = _scaled(160 * 1024, nranks, scale)
    for _ in range(3):  # three sweep directions exchange faces
        halo_exchange(b, dims, size)
    b.allreduce(40)


def _sp_round(b, machine, rng, nranks, scale, it):
    dims = grid_dims(nranks, 2)
    size = _scaled(96 * 1024, nranks, scale)
    for _ in range(3):
        halo_exchange(b, dims, size)
    b.allreduce(40)


NPB_APPS: Dict[str, _App] = {
    "EP": _App("EP", iters=6, emit_round=_ep_round, finalize=_ep_final),
    "DT": _App("DT", iters=2, emit_round=_dt_round),
    "IS": _App("IS", iters=4, emit_round=_is_round),
    "FT": _App("FT", iters=3, emit_round=_ft_round),
    "CG": _App("CG", iters=8, emit_round=_cg_round),
    "MG": _App("MG", iters=5, emit_round=_mg_round),
    "LU": _App("LU", iters=6, emit_round=_lu_round),
    "BT": _App("BT", iters=5, emit_round=_bt_round),
    "SP": _App("SP", iters=5, emit_round=_sp_round),
}


def app_program(
    suite: str,
    apps: Dict[str, _App],
    app: str,
    key: str,
    nranks: int,
    machine: MachineConfig,
    seed: int,
    scale: float = 1.0,
    imbalance: float = 0.0,
    ranks_per_node: int = 16,
    use_threads: bool = False,
    use_comm_split: bool = False,
    name: str = None,
    iters: int = None,
) -> Program:
    """The communication program of one ``suite`` application trace.

    ``apps[key]`` is the generator; ``app`` is the caller's spelling,
    for the error message.  The program depends only on (app, nranks,
    scale, seed) and the flags; :meth:`Program.stamp` adds the
    computation for a budget.
    """
    try:
        spec = apps[key]
    except KeyError:
        known = ", ".join(sorted(apps))
        raise ValueError(f"unknown {suite} app {app!r} (known: {known})") from None
    rng = substream(seed, suite.lower(), key, nranks)
    trace_name = name or f"{spec.name.lower()}.{nranks}.{machine.name}.s{seed % 1000}"
    b = ProgramBuilder(nranks, spec.name, trace_name, ranks_per_node=ranks_per_node)
    b.uses_threads = use_threads
    if use_comm_split:
        # Mirror codes that split row/column communicators.
        half = max(1, nranks // 2)
        b.add_comm(tuple(range(half)))
        b.add_comm(tuple(range(half, nranks)))
    mult = _imbalance_multipliers(nranks, imbalance, rng)
    if spec.setup:
        spec.setup(b, machine, rng, nranks, scale)
    niters = iters if iters is not None else spec.iters
    for it in range(niters):
        # Jitter is drawn whatever the compute budget, so the RNG
        # stream (and hence the traffic) does not depend on it.
        jitter = rng.normal(1.0, 0.02, size=nranks).clip(0.8, 1.2)
        b.compute_slots(mult, jitter)
        spec.emit_round(b, machine, rng, nranks, scale, it)
    if spec.finalize:
        spec.finalize(b, machine, rng, nranks, scale)
    b.barrier()
    b.metadata.update(
        app=spec.name,
        suite=suite,
        scale=scale,
        imbalance=imbalance,
        iters=niters,
        seed=seed,
    )
    return b.program(machine=machine.name)


def npb_program(app: str, nranks: int, machine: MachineConfig, seed: int, **options) -> Program:
    """The communication program of one NPB trace; ``options`` are
    :func:`generate_npb`'s, less ``compute_per_iter``."""
    return app_program("NPB", NPB_APPS, app, app.upper(), nranks, machine, seed, **options)


def generate_npb(
    app: str,
    nranks: int,
    machine: MachineConfig,
    seed: int,
    scale: float = 1.0,
    compute_per_iter: float = 0.0,
    imbalance: float = 0.0,
    ranks_per_node: int = 16,
    use_threads: bool = False,
    use_comm_split: bool = False,
    name: str = None,
    iters: int = None,
):
    """Build one NPB trace.

    ``compute_per_iter`` is the mean per-rank computation inserted each
    iteration (seconds); ``imbalance`` spreads it across ranks.  The
    communication structure depends only on (app, nranks, scale, seed):
    this stamps ``compute_per_iter`` onto :func:`npb_program`'s program,
    which the corpus build generates once and stamps per calibration
    attempt.
    """
    program = npb_program(
        app,
        nranks,
        machine,
        seed,
        scale=scale,
        imbalance=imbalance,
        ranks_per_node=ranks_per_node,
        use_threads=use_threads,
        use_comm_split=use_comm_split,
        name=name,
        iters=iters,
    )
    return program.stamp(compute_per_iter)
