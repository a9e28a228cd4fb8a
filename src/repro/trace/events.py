"""MPI trace event model.

A trace is a per-rank, program-ordered sequence of :class:`Op` records,
mirroring what the DUMPI tracer captures: for every MPI call its entry
and exit timestamps plus communication metadata (peer, byte count, tag,
communicator), and for the gaps between MPI calls the local computation
time.  We materialize computation explicitly as ``COMPUTE`` ops so that
replay engines never need to reconstruct inter-call gaps.

Timestamps (``t_entry``/``t_exit``) hold the *measured* execution times
from the (synthesized) original run; replay engines read only the op
structure and compute durations, exactly as MFACT and SST/Macro replay
DUMPI traces.
"""

from __future__ import annotations

import math
from enum import IntEnum
from typing import Iterable, Optional, Tuple

import numpy as np

__all__ = [
    "OpKind",
    "Op",
    "P2P_KINDS",
    "COLLECTIVE_KINDS",
    "SEND_LIKE_KINDS",
    "REQUEST_KINDS",
    "check_op_block",
    "make_compute",
]


class OpKind(IntEnum):
    """MPI operation kinds recorded in traces."""

    COMPUTE = 0
    SEND = 1  # blocking MPI_Send
    ISEND = 2  # MPI_Isend
    RECV = 3  # blocking MPI_Recv
    IRECV = 4  # MPI_Irecv
    WAIT = 5  # MPI_Wait on an earlier request
    BARRIER = 6
    BCAST = 7
    REDUCE = 8
    ALLREDUCE = 9
    ALLGATHER = 10
    ALLTOALL = 11
    GATHER = 12
    SCATTER = 13
    REDUCE_SCATTER = 14


#: Point-to-point op kinds (initiation side).
P2P_KINDS = frozenset(
    {OpKind.SEND, OpKind.ISEND, OpKind.RECV, OpKind.IRECV}
)

#: Collective op kinds.
COLLECTIVE_KINDS = frozenset(
    {
        OpKind.BARRIER,
        OpKind.BCAST,
        OpKind.REDUCE,
        OpKind.ALLREDUCE,
        OpKind.ALLGATHER,
        OpKind.ALLTOALL,
        OpKind.GATHER,
        OpKind.SCATTER,
        OpKind.REDUCE_SCATTER,
    }
)

#: Point-to-point sends (the ops that put a message on the wire).
SEND_LIKE_KINDS = frozenset({OpKind.SEND, OpKind.ISEND})

#: Op kinds that carry a request id.
REQUEST_KINDS = frozenset({OpKind.ISEND, OpKind.IRECV, OpKind.WAIT})

_ROOTED = frozenset({OpKind.BCAST, OpKind.REDUCE, OpKind.GATHER, OpKind.SCATTER})


class Op:
    """One trace record.

    Attributes
    ----------
    kind:
        The :class:`OpKind`.
    peer:
        Destination/source rank for p2p ops; root rank for rooted
        collectives; ``-1`` otherwise.
    nbytes:
        Message payload for p2p ops; per-rank payload for collectives.
    tag:
        MPI tag for p2p ops (``0`` otherwise).
    comm:
        Communicator id; ``0`` is ``MPI_COMM_WORLD``.
    req:
        Request id for ISEND/IRECV (unique per rank) and the request a
        WAIT completes; ``-1`` otherwise.
    duration:
        For COMPUTE ops, the local computation time in seconds as
        measured in the original run (replay engines may scale it);
        finite and non-negative.
    t_entry, t_exit:
        Measured wall-clock entry/exit times of the call in the original
        run, in seconds from application start (``nan`` until the
        ground-truth synthesizer fills them in).
    """

    __slots__ = ("kind", "peer", "nbytes", "tag", "comm", "req", "duration", "t_entry", "t_exit")

    def __init__(
        self,
        kind: OpKind,
        peer: int = -1,
        nbytes: int = 0,
        tag: int = 0,
        comm: int = 0,
        req: int = -1,
        duration: float = 0.0,
        t_entry: float = float("nan"),
        t_exit: float = float("nan"),
    ):
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        if not math.isfinite(duration):
            # NaN would pass the sign check below and poison every
            # predicted total downstream.
            raise ValueError(f"duration must be finite, got {duration}")
        if duration < 0:
            raise ValueError(f"duration must be >= 0, got {duration}")
        if kind in P2P_KINDS and peer < 0:
            raise ValueError(f"{OpKind(kind).name} requires a peer rank")
        if kind in _ROOTED and peer < 0:
            raise ValueError(f"{OpKind(kind).name} requires a root rank in peer")
        if kind in REQUEST_KINDS and req < 0:
            raise ValueError(f"{OpKind(kind).name} requires a request id")
        self.kind = OpKind(kind)
        self.peer = int(peer)
        self.nbytes = int(nbytes)
        self.tag = int(tag)
        self.comm = int(comm)
        self.req = int(req)
        self.duration = float(duration)
        self.t_entry = float(t_entry)
        self.t_exit = float(t_exit)

    def copy(self) -> "Op":
        """A new op with the same fields.

        Skips ``__init__``: ``self`` already passed its checks, and the
        copy holds the same (already converted) values.
        """
        new = Op.__new__(Op)
        new.kind = self.kind
        new.peer = self.peer
        new.nbytes = self.nbytes
        new.tag = self.tag
        new.comm = self.comm
        new.req = self.req
        new.duration = self.duration
        new.t_entry = self.t_entry
        new.t_exit = self.t_exit
        return new

    # -- convenience -------------------------------------------------

    @property
    def is_p2p(self) -> bool:
        """True for point-to-point initiation ops."""
        return self.kind in P2P_KINDS

    @property
    def is_collective(self) -> bool:
        """True for collective ops."""
        return self.kind in COLLECTIVE_KINDS

    @property
    def is_send_like(self) -> bool:
        """True for SEND and ISEND."""
        return self.kind in SEND_LIKE_KINDS

    @property
    def is_recv_like(self) -> bool:
        """True for RECV and IRECV."""
        return self.kind in (OpKind.RECV, OpKind.IRECV)

    @property
    def measured_duration(self) -> float:
        """Measured call duration ``t_exit - t_entry`` (nan if unset)."""
        return self.t_exit - self.t_entry

    def key(self) -> Tuple:
        """Structural identity tuple (ignores timestamps)."""
        return (int(self.kind), self.peer, self.nbytes, self.tag, self.comm, self.req, self.duration)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Op):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        parts = [self.kind.name]
        if self.kind == OpKind.COMPUTE:
            parts.append(f"duration={self.duration:.3g}")
        else:
            if self.peer >= 0:
                parts.append(f"peer={self.peer}")
            if self.nbytes:
                parts.append(f"nbytes={self.nbytes}")
            if self.req >= 0:
                parts.append(f"req={self.req}")
            if self.comm:
                parts.append(f"comm={self.comm}")
        return f"Op({', '.join(parts)})"


def _kind_table(kinds) -> np.ndarray:
    """A 256-entry lookup over kind codes, true for ``kinds``."""
    table = np.zeros(256, dtype=bool)
    table[[int(k) for k in kinds]] = True
    return table


# The rules of ``Op.__init__`` as lookups over a kind byte, so a block of
# decoded records is checked with a few array operations.
_VALID_KIND = _kind_table(OpKind)
_NEEDS_PEER = _kind_table(P2P_KINDS | _ROOTED)
_NEEDS_REQ = _kind_table(REQUEST_KINDS)


def check_op_block(
    kind: np.ndarray,
    peer: np.ndarray,
    nbytes: np.ndarray,
    req: np.ndarray,
    duration: np.ndarray,
) -> None:
    """Run the checks of :class:`Op` over a block of records at once.

    The arguments are equal-length columns of the block, ``kind`` as
    ``uint8`` codes.  A row is suspect when its kind is not an
    :class:`OpKind`, ``nbytes < 0``, ``duration`` is not finite and
    non-negative, a p2p or rooted kind has ``peer < 0``, or a request
    kind has ``req < 0``.  Suspect rows are rebuilt with ``Op(...)`` in
    order, so the first one raises exactly the :class:`ValueError` the
    per-op constructor gives it.
    """
    bad = (
        ~_VALID_KIND[kind]
        | (nbytes < 0)
        | ~(np.isfinite(duration) & (duration >= 0))
        | (_NEEDS_PEER[kind] & (peer < 0))
        | (_NEEDS_REQ[kind] & (req < 0))
    )
    for i in np.flatnonzero(bad):
        Op(
            OpKind(int(kind[i])),
            peer=int(peer[i]),
            nbytes=int(nbytes[i]),
            req=int(req[i]),
            duration=float(duration[i]),
        )


def make_compute(duration: float) -> Op:
    """Shorthand for a computation segment of ``duration`` seconds."""
    return Op(OpKind.COMPUTE, duration=duration)


def total_payload(ops: Iterable[Op]) -> int:
    """Sum of payload bytes over send-like and collective ops."""
    return sum(op.nbytes for op in ops if op.is_send_like or op.is_collective)
