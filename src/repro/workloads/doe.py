"""DOE DesignForward / co-design workload generators.

Covers the extracted kernels (Big FFT, Crystal Router), mini-apps (AMG,
MiniFE, LULESH, CNS, CMC, Nekbone) and full applications (MultiGrid,
FillBoundary) used in the study, with the communication structures
their papers and trace analyses describe: halo exchanges, staged
hypercube routing, irregular AMR ghost exchange, spectral-element
gather/scatter, and large FFT transposes.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.machines.config import MachineConfig
from repro.workloads.base import Program
from repro.workloads.npb import _App, _scaled, app_program
from repro.workloads.patterns import (
    butterfly_exchange,
    grid_dims,
    halo_exchange,
    irregular_exchange,
)

__all__ = ["DOE_APPS", "doe_program", "generate_doe"]


def _bigfft_round(b, machine, rng, nranks, scale, it):
    # 1-D decomposed 3-D FFT: one giant transpose each direction.
    per_pair = _scaled(40 * 1024, nranks, scale, 1.0)
    b.alltoall(per_pair)
    b.alltoall(per_pair)


def _cr_round(b, machine, rng, nranks, scale, it):
    # Crystal router: log p staged hypercube exchange with highly
    # variable per-stage payloads (routed aggregates).
    base = _scaled(224 * 1024, nranks, scale, 0.8)

    def stage_size(k):
        return max(1024, int(base * float(rng.lognormal(0.0, 0.55))) >> max(0, k - 2))

    butterfly_exchange(b, stage_size)


def _amg_round(b, machine, rng, nranks, scale, it):
    # Algebraic multigrid V-cycle: fine levels exchange moderate halos,
    # coarse levels send many small messages to wider neighbor sets.
    dims = grid_dims(nranks, 3)
    base = _scaled(96 * 1024, nranks, scale)
    halo_exchange(b, dims, base)
    halo_exchange(b, dims, max(256, base >> 3))
    irregular_exchange(
        b,
        rng,
        messages_per_rank=3.0,
        size_sampler=lambda r: int(r.lognormal(np.log(2048), 0.7)),
        locality=0.7,
    )
    b.allreduce(8)
    b.allreduce(8)


def _minife_round(b, machine, rng, nranks, scale, it):
    dims = grid_dims(nranks, 3)
    size = _scaled(64 * 1024, nranks, scale)
    halo_exchange(b, dims, size)
    b.allreduce(8)
    b.allreduce(8)


def _mgprod_round(b, machine, rng, nranks, scale, it):
    # Production MultiGrid: deeper cycle than NPB MG, residual checks.
    dims = grid_dims(nranks, 3)
    base = _scaled(160 * 1024, nranks, scale)
    for level in range(5):
        halo_exchange(b, dims, max(256, base >> (2 * level)))
    b.allreduce(16)


def _fb_round(b, machine, rng, nranks, scale, it):
    # AMR FillBoundary: bursty, irregular ghost-zone exchange.
    irregular_exchange(
        b,
        rng,
        messages_per_rank=14.0,
        size_sampler=lambda r: int(r.lognormal(np.log(_scaled(24 * 1024, b.nranks, scale)), 1.0)),
        locality=0.8,
    )
    if it % 2 == 0:
        b.allreduce(64)


def _lulesh_round(b, machine, rng, nranks, scale, it):
    dims = grid_dims(nranks, 3)
    size = _scaled(96 * 1024, nranks, scale)
    halo_exchange(b, dims, size)
    b.allreduce(8)  # dt computation
    b.allreduce(8)


def _cns_round(b, machine, rng, nranks, scale, it):
    dims = grid_dims(nranks, 3)
    size = _scaled(224 * 1024, nranks, scale)
    halo_exchange(b, dims, size)
    halo_exchange(b, dims, max(1024, size // 2))


def _cmc_round(b, machine, rng, nranks, scale, it):
    # Monte Carlo: nearly no communication inside a step.
    if it % 3 == 2:
        b.allreduce(128)


def _cmc_final(b, machine, rng, nranks, scale):
    b.reduce(4096, root=0)
    b.barrier()


def _nekbone_round(b, machine, rng, nranks, scale, it):
    # Spectral-element CG: gather/scatter halo plus dot products.
    dims = grid_dims(nranks, 3)
    size = _scaled(20 * 1024, nranks, scale, 0.4)
    halo_exchange(b, dims, size)
    b.allreduce(8)
    halo_exchange(b, dims, size)
    b.allreduce(8)


DOE_APPS: Dict[str, _App] = {
    "BIGFFT": _App("BigFFT", iters=2, emit_round=_bigfft_round),
    "CR": _App("CR", iters=4, emit_round=_cr_round),
    "AMG": _App("AMG", iters=4, emit_round=_amg_round),
    "MINIFE": _App("MiniFE", iters=8, emit_round=_minife_round),
    "MGPROD": _App("MultiGrid", iters=4, emit_round=_mgprod_round),
    "FB": _App("FillBoundary", iters=5, emit_round=_fb_round),
    "LULESH": _App("LULESH", iters=8, emit_round=_lulesh_round),
    "CNS": _App("CNS", iters=5, emit_round=_cns_round),
    "CMC": _App("CMC", iters=9, emit_round=_cmc_round, finalize=_cmc_final),
    "NEKBONE": _App("Nekbone", iters=10, emit_round=_nekbone_round),
}


def doe_program(app: str, nranks: int, machine: MachineConfig, seed: int, **options) -> Program:
    """The communication program of one DOE trace (see :func:`npb_program`)."""
    key = app.upper().replace("-", "")
    return app_program("DOE", DOE_APPS, app, key, nranks, machine, seed, **options)


def generate_doe(
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
    """Build one DOE application trace (same contract as ``generate_npb``)."""
    program = doe_program(
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
