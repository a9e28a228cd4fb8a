"""Trace containers: one op stream per rank plus run-level metadata."""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.trace.events import SEND_LIKE_KINDS, Op, OpKind
from repro.util.validation import check_rank, require

__all__ = ["TraceSet", "TraceValidationError"]

_COMPUTE = OpKind.COMPUTE


class TraceValidationError(ValueError):
    """Raised when a trace violates MPI matching semantics."""


class TraceSet:
    """A complete multi-rank application trace.

    Parameters
    ----------
    name:
        Unique trace instance name, e.g. ``"lulesh.512.cielito.s3"``.
    app:
        Application family name, e.g. ``"LULESH"``.
    ranks:
        Per-rank op lists; ``ranks[r]`` is rank ``r``'s program-ordered
        stream.
    machine:
        Name of the machine the trace was collected on.
    ranks_per_node:
        Processes per node in the original run (used for rank→node
        mapping and the ``RN`` feature).
    comms:
        Mapping from communicator id to the tuple of world ranks it
        contains.  Communicator ``0`` is always the world and is filled
        in automatically.
    uses_comm_split / uses_threads:
        Flags mirroring the trace properties that SST/Macro 3.0's packet
        and flow engines cannot handle (complex MPI grouping operations
        and MPI multi-threading, Section V-A).
    metadata:
        Free-form run metadata (problem size, seed, generator params).
    """

    def __init__(
        self,
        name: str,
        app: str,
        ranks: Sequence[List[Op]],
        machine: str = "unknown",
        ranks_per_node: int = 16,
        comms: Optional[Dict[int, Tuple[int, ...]]] = None,
        uses_comm_split: bool = False,
        uses_threads: bool = False,
        metadata: Optional[dict] = None,
    ):
        require(len(ranks) >= 1, "a trace needs at least one rank")
        require(ranks_per_node >= 1, "ranks_per_node must be >= 1")
        self.name = str(name)
        self.app = str(app)
        self.ranks: List[List[Op]] = [list(stream) for stream in ranks]
        self.machine = str(machine)
        self.ranks_per_node = int(ranks_per_node)
        self.comms: Dict[int, Tuple[int, ...]] = dict(comms or {})
        self.comms.setdefault(0, tuple(range(len(self.ranks))))
        self.uses_comm_split = bool(uses_comm_split)
        self.uses_threads = bool(uses_threads)
        self.metadata = dict(metadata or {})

    # -- basic shape ---------------------------------------------------

    @property
    def nranks(self) -> int:
        """Number of application processes in the trace."""
        return len(self.ranks)

    @property
    def nnodes(self) -> int:
        """Number of nodes the run occupied."""
        return -(-self.nranks // self.ranks_per_node)

    def __iter__(self) -> Iterator[List[Op]]:
        return iter(self.ranks)

    def __len__(self) -> int:
        return len(self.ranks)

    def op_count(self) -> int:
        """Total number of ops across all ranks."""
        return sum(len(stream) for stream in self.ranks)

    def message_count(self) -> int:
        """Number of p2p send initiations across all ranks."""
        return sum(1 for stream in self.ranks for op in stream if op.kind in SEND_LIKE_KINDS)

    def total_send_bytes(self) -> int:
        """Total p2p payload bytes across all ranks."""
        return sum(
            op.nbytes for stream in self.ranks for op in stream if op.kind in SEND_LIKE_KINDS
        )

    def comm_ranks(self, comm: int) -> Tuple[int, ...]:
        """World ranks belonging to communicator ``comm``."""
        try:
            return self.comms[comm]
        except KeyError:
            raise KeyError(f"trace {self.name!r} has no communicator {comm}") from None

    # -- measured times -------------------------------------------------

    def has_timestamps(self) -> bool:
        """True once the ground-truth synthesizer stamped every op."""
        isnan = math.isnan
        for stream in self.ranks:
            for op in stream:
                if isnan(op.t_entry) or isnan(op.t_exit):
                    return False
        return True

    def measured_total_time(self) -> float:
        """Measured application time: the latest op exit across ranks."""
        latest = 0.0
        for stream in self.ranks:
            if stream:
                t = stream[-1].t_exit
                if math.isnan(t):
                    raise ValueError(f"trace {self.name!r} has no measured timestamps")
                latest = max(latest, t)
        return latest

    def measured_comm_time(self) -> float:
        """Measured time in MPI calls, averaged over ranks."""
        isnan = math.isnan
        per_rank = []
        for stream in self.ranks:
            total = 0.0
            for op in stream:
                if op.kind != _COMPUTE:
                    d = op.t_exit - op.t_entry
                    if isnan(d):
                        raise ValueError(f"trace {self.name!r} has no measured timestamps")
                    total += d
            per_rank.append(total)
        return sum(per_rank) / len(per_rank)

    def comm_fraction(self) -> float:
        """Measured communication intensity: mean MPI time / total time."""
        total = self.measured_total_time()
        if total <= 0:
            return 0.0
        return min(1.0, self.measured_comm_time() / total)

    # -- validation -----------------------------------------------------

    def validate(self) -> None:
        """Check MPI matching semantics; raise :class:`TraceValidationError`.

        Verifies that (1) every ISEND/IRECV request is waited exactly
        once and requests are unique per rank, (2) p2p traffic matches:
        for every (src, dst, tag) the send count, and the per-position
        byte counts, equal the receive count posted at ``dst`` for
        ``src``, and (3) all ranks of a communicator issue the same
        sequence of collectives with consistent parameters.
        """
        sends: Dict[Tuple[int, int, int], List[int]] = {}
        recvs: Dict[Tuple[int, int, int], List[int]] = {}
        coll_seq: Dict[int, Dict[int, List[Tuple]]] = {}
        for rank, stream in enumerate(self.ranks):
            pending: Dict[int, OpKind] = {}
            for op in stream:
                if op.kind in (OpKind.ISEND, OpKind.IRECV):
                    if op.req in pending:
                        raise TraceValidationError(
                            f"{self.name}: rank {rank} reuses request {op.req} before wait"
                        )
                    pending[op.req] = op.kind
                elif op.kind == OpKind.WAIT:
                    if op.req not in pending:
                        raise TraceValidationError(
                            f"{self.name}: rank {rank} waits on unknown request {op.req}"
                        )
                    del pending[op.req]
                if op.is_send_like:
                    check_rank(op.peer, self.nranks, "send peer")
                    sends.setdefault((rank, op.peer, op.tag), []).append(op.nbytes)
                elif op.is_recv_like:
                    check_rank(op.peer, self.nranks, "recv peer")
                    recvs.setdefault((op.peer, rank, op.tag), []).append(op.nbytes)
                elif op.is_collective:
                    members = self.comm_ranks(op.comm)
                    if rank not in members:
                        raise TraceValidationError(
                            f"{self.name}: rank {rank} calls {op.kind.name} on comm "
                            f"{op.comm} it does not belong to"
                        )
                    coll_seq.setdefault(op.comm, {}).setdefault(rank, []).append(
                        (int(op.kind), op.peer, op.nbytes)
                    )
            if pending:
                raise TraceValidationError(
                    f"{self.name}: rank {rank} leaves requests {sorted(pending)} unwaited"
                )
        if set(sends) != set(recvs):
            missing = set(sends) ^ set(recvs)
            raise TraceValidationError(f"{self.name}: unmatched p2p channels {sorted(missing)[:5]}")
        for channel, sizes in sends.items():
            if sizes != recvs[channel]:
                raise TraceValidationError(
                    f"{self.name}: byte mismatch on channel {channel}: "
                    f"{len(sizes)} sends vs {len(recvs[channel])} recvs"
                )
        for comm, per_rank in coll_seq.items():
            members = self.comm_ranks(comm)
            sequences = {r: per_rank.get(r, []) for r in members}
            reference = sequences[members[0]]
            for r, seq in sequences.items():
                if seq != reference:
                    raise TraceValidationError(
                        f"{self.name}: collective sequence mismatch on comm {comm} "
                        f"between ranks {members[0]} and {r}"
                    )

    def __repr__(self) -> str:
        return (
            f"TraceSet(name={self.name!r}, app={self.app!r}, nranks={self.nranks}, "
            f"ops={self.op_count()}, machine={self.machine!r})"
        )
