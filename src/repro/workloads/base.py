"""Program builder for synthetic application traces.

A :class:`ProgramBuilder` accumulates per-rank op streams with managed
request ids and tags, then emits a validated :class:`TraceSet`.  All
application generators are written against this API.

Generators emit communication only, plus a *compute slot* per rank at
each iteration head (:meth:`ProgramBuilder.compute_slots`).  The result
is a :class:`Program`: the communication trace, validated once, that
:meth:`Program.stamp` turns into a full trace for any compute budget.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.trace.events import Op, OpKind
from repro.trace.trace import TraceSet
from repro.util.validation import check_rank, require

__all__ = ["Program", "ProgramBuilder"]


class ProgramBuilder:
    """Accumulates a multi-rank MPI program and produces a trace."""

    def __init__(self, nranks: int, app: str, name: str, ranks_per_node: int = 16):
        require(nranks >= 1, "nranks must be >= 1")
        self.nranks = int(nranks)
        self.app = app
        self.name = name
        self.ranks_per_node = int(ranks_per_node)
        self.ops: List[List[Op]] = [[] for _ in range(self.nranks)]
        self._next_req = [1] * self.nranks
        self._next_tag = 1
        self._site_tags: Dict[tuple, int] = {}
        self._comms: Dict[int, Tuple[int, ...]] = {0: tuple(range(self.nranks))}
        self._next_comm = 1
        self.uses_threads = False
        self.uses_comm_split = False
        self.metadata: dict = {}
        self.slots: List[Tuple[int, int, float, float]] = []

    # -- structure ---------------------------------------------------------

    def fresh_tag(self) -> int:
        """A tag no other call site of this program has used."""
        tag = self._next_tag
        self._next_tag += 1
        return tag

    def site_tag(self, *key) -> int:
        """A stable tag for a communication call site.

        Real MPI codes reuse one tag per exchange site across
        iterations; FIFO channel matching keeps this safe as long as
        each rank completes a site's requests before reissuing it (all
        pattern emitters do).  Stable tags also make iterative traces
        compressible (:mod:`repro.trace.compress`).
        """
        tag = self._site_tags.get(key)
        if tag is None:
            tag = self._site_tags[key] = self.fresh_tag()
        return tag

    def add_comm(self, members: Sequence[int]) -> int:
        """Register a sub-communicator; marks the trace as using grouping."""
        members = tuple(members)
        require(len(members) >= 1, "communicator needs at least one member")
        for m in members:
            check_rank(m, self.nranks, "communicator member")
        comm = self._next_comm
        self._next_comm += 1
        self._comms[comm] = members
        self.uses_comm_split = True
        return comm

    # -- per-rank ops -------------------------------------------------------

    def compute(self, rank: int, seconds: float) -> None:
        """Local computation on ``rank``."""
        if seconds > 0:
            self.ops[rank].append(Op(OpKind.COMPUTE, duration=seconds))

    def compute_slots(self, mult: Sequence[float], jitter: Sequence[float]) -> None:
        """Mark each rank's next position as a compute slot.

        Rank ``r``'s slot is priced ``compute_per_iter * mult[r] *
        jitter[r]`` when the program is stamped (:meth:`Program.stamp`).
        """
        for rank in range(self.nranks):
            self.slots.append((rank, len(self.ops[rank]), float(mult[rank]), float(jitter[rank])))

    def send(self, rank: int, peer: int, nbytes: int, tag: int) -> None:
        """Blocking send."""
        self.ops[rank].append(Op(OpKind.SEND, peer=peer, nbytes=nbytes, tag=tag))

    def recv(self, rank: int, peer: int, nbytes: int, tag: int) -> None:
        """Blocking receive."""
        self.ops[rank].append(Op(OpKind.RECV, peer=peer, nbytes=nbytes, tag=tag))

    def isend(self, rank: int, peer: int, nbytes: int, tag: int) -> int:
        """Non-blocking send; returns the request id."""
        req = self._next_req[rank]
        self._next_req[rank] += 1
        self.ops[rank].append(Op(OpKind.ISEND, peer=peer, nbytes=nbytes, tag=tag, req=req))
        return req

    def irecv(self, rank: int, peer: int, nbytes: int, tag: int) -> int:
        """Non-blocking receive; returns the request id."""
        req = self._next_req[rank]
        self._next_req[rank] += 1
        self.ops[rank].append(Op(OpKind.IRECV, peer=peer, nbytes=nbytes, tag=tag, req=req))
        return req

    def wait(self, rank: int, req: int) -> None:
        """Complete one request."""
        self.ops[rank].append(Op(OpKind.WAIT, req=req))

    def waitall(self, rank: int, reqs: Sequence[int]) -> None:
        """Complete several requests in order."""
        for req in reqs:
            self.wait(rank, req)

    # -- collectives (all ranks of a communicator) ---------------------------

    def _collective(self, kind: OpKind, nbytes: int, comm: int, root: int = -1) -> None:
        for rank in self._comms[comm]:
            self.ops[rank].append(Op(kind, peer=root, nbytes=nbytes, comm=comm))

    def barrier(self, comm: int = 0) -> None:
        self._collective(OpKind.BARRIER, 0, comm)

    def bcast(self, nbytes: int, root: int = 0, comm: int = 0) -> None:
        self._collective(OpKind.BCAST, nbytes, comm, root)

    def reduce(self, nbytes: int, root: int = 0, comm: int = 0) -> None:
        self._collective(OpKind.REDUCE, nbytes, comm, root)

    def allreduce(self, nbytes: int, comm: int = 0) -> None:
        self._collective(OpKind.ALLREDUCE, nbytes, comm)

    def allgather(self, nbytes: int, comm: int = 0) -> None:
        self._collective(OpKind.ALLGATHER, nbytes, comm)

    def alltoall(self, nbytes_per_pair: int, comm: int = 0) -> None:
        self._collective(OpKind.ALLTOALL, nbytes_per_pair, comm)

    def gather(self, nbytes: int, root: int = 0, comm: int = 0) -> None:
        self._collective(OpKind.GATHER, nbytes, comm, root)

    def scatter(self, nbytes: int, root: int = 0, comm: int = 0) -> None:
        self._collective(OpKind.SCATTER, nbytes, comm, root)

    def reduce_scatter(self, nbytes: int, comm: int = 0) -> None:
        self._collective(OpKind.REDUCE_SCATTER, nbytes, comm)

    # -- finish --------------------------------------------------------------

    def build(self, machine: str = "unknown", validate: bool = True) -> TraceSet:
        """Emit the trace (validated by default)."""
        trace = TraceSet(
            name=self.name,
            app=self.app,
            ranks=self.ops,
            machine=machine,
            ranks_per_node=self.ranks_per_node,
            comms=dict(self._comms),
            uses_comm_split=self.uses_comm_split,
            uses_threads=self.uses_threads,
            metadata=dict(self.metadata),
        )
        if validate:
            trace.validate()
        return trace

    def program(self, machine: str = "unknown") -> "Program":
        """Emit the validated communication trace and its compute slots."""
        return Program(self.build(machine=machine), self.slots)


class Program:
    """A communication-only trace plus the compute slots to fill in.

    ``trace`` is validated once, when the builder emits it.
    :meth:`stamp` adds compute ops and never touches ``trace``, so one
    program serves any number of compute budgets (the calibration
    replay reads ``trace`` directly; it never mutates ops).
    """

    __slots__ = ("trace", "slots", "_by_rank")

    def __init__(self, trace: TraceSet, slots: Sequence[Tuple[int, int, float, float]]):
        self.trace = trace
        #: ``(rank, position, mult, jitter)`` in the order they were marked.
        self.slots = tuple(slots)
        self._by_rank: List[List[Tuple[int, float, float]]] = [[] for _ in trace.ranks]
        for rank, position, mult, jitter in self.slots:
            self._by_rank[rank].append((position, mult, jitter))

    def stamp(self, compute_per_iter: float) -> TraceSet:
        """A fresh trace with ``compute_per_iter * mult * jitter`` of
        compute at each slot (no op where that is not ``> 0``).

        Every op is a copy, so stamps share no :class:`Op` with the
        program or with each other.  No re-validation: ``validate()``
        looks only at requests, p2p channels and collectives, which
        compute ops do not change.
        """
        src = self.trace
        ranks = []
        for stream, slots in zip(src.ranks, self._by_rank):
            out: List[Op] = []
            start = 0
            for position, mult, jitter in slots:
                out += [op.copy() for op in stream[start:position]]
                seconds = compute_per_iter * mult * jitter
                if seconds > 0:
                    out.append(Op(OpKind.COMPUTE, duration=seconds))
                start = position
            out += [op.copy() for op in stream[start:]]
            ranks.append(out)
        return TraceSet(
            name=src.name,
            app=src.app,
            ranks=ranks,
            machine=src.machine,
            ranks_per_node=src.ranks_per_node,
            comms=dict(src.comms),
            uses_comm_split=src.uses_comm_split,
            uses_threads=src.uses_threads,
            metadata=dict(src.metadata),
        )
