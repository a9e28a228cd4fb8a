"""Ground-truth timestamp synthesis.

The paper's traces carry *measured* timestamps from real machines; we
do not have those machines, so this module plays the role of the real
system: it replays a generated program once on the target machine with
effects **neither tool fully models** and stamps every op's
``t_entry``/``t_exit``:

* per-MPI-call software cost several times the tools' modeled overhead
  (real MPI stacks do protocol work, tag matching, memory registration);
* an MPI transfer-time inflation factor ``kappa`` (real latency and
  effective bandwidth are worse than the published Hockney parameters);
* message-granularity queueing on the actual route (link reservation),
  which the simulators partially capture and the modeling tool not at
  all;
* OS noise on computation segments (written back into the trace as the
  measured compute durations, exactly as DUMPI would record them).

The net effect reproduces Section V-C's observation: both tools predict
*below* the measured time, with the simulator closer (it models the
contention part) and MFACT lower still.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.collectives.cost_models import collective_cost
from repro.machines.config import MachineConfig
from repro.sim.network import Fabric
from repro.trace.events import Op, OpKind
from repro.trace.trace import TraceSet
from repro.util.rng import substream

__all__ = [
    "GroundTruthSynthesizer",
    "synthesize_ground_truth",
    "inject_defect",
    "DEFECT_KINDS",
]

_SYNC_COLLECTIVES = frozenset(
    {
        OpKind.BARRIER,
        OpKind.ALLREDUCE,
        OpKind.ALLGATHER,
        OpKind.ALLTOALL,
        OpKind.REDUCE_SCATTER,
    }
)


class GroundTruthSynthesizer:
    """Stamps measured timestamps onto a generated trace, in place."""

    #: Multiplier on the machine's modeled per-call software overhead.
    OVERHEAD_FACTOR = 4.0
    #: Weight of route-queueing delays added on top of the Hockney time.
    QUEUE_WEIGHT = 0.45
    #: Mean / spread of the per-trace MPI transfer inflation ``kappa``.
    KAPPA_MEAN = 1.35
    KAPPA_SIGMA = 0.08
    #: OS-noise fraction on computation segments.
    COMPUTE_NOISE = 0.02

    def __init__(self, trace: TraceSet, machine: MachineConfig, seed: int):
        self.trace = trace
        self.machine = machine
        rng = substream(seed, "ground-truth", trace.name)
        self.rng = rng
        self.kappa = float(rng.lognormal(np.log(self.KAPPA_MEAN), self.KAPPA_SIGMA))
        n = trace.nranks
        self.fabric = Fabric(trace, machine)
        self.clk = [0.0] * n
        self._inj = [0.0] * n
        self._ej = [0.0] * n
        # A list, not a numpy array: its values become timestamps, which
        # stay builtin floats.
        self._free = [0.0] * self.fabric.nresources
        self._ip = [0] * n
        self._channels: Dict[Tuple[int, int, int], "_Chan"] = {}
        self._requests: List[Dict[int, Tuple[Optional[float], int, object]]] = [
            {} for _ in range(n)
        ]
        self._blocked: List[Optional[Tuple]] = [None] * n
        self._block_entry: List[float] = [0.0] * n
        self._coll_counts: Dict[Tuple[int, int], Dict[int, float]] = {}
        self._coll_ops: Dict[Tuple[int, int], Dict[int, object]] = {}
        self._coll_instance: List[Dict[int, int]] = [dict() for _ in range(n)]
        self._runnable: List[Tuple[float, int]] = []
        self._queued = [False] * n
        self._overhead = machine.software_overhead * self.OVERHEAD_FACTOR
        self._inv_bw = self.kappa / machine.bandwidth
        self._lat = self.kappa * machine.latency

    # -- network cost with queueing ------------------------------------------

    def _transfer_avail(self, src: int, dst: int, nbytes: int, start: float) -> float:
        """Fully-injected + queued header time for one message."""
        inj_start = max(self._inj[src], start)
        bw_term = nbytes * self._inv_bw
        self._inj[src] = inj_start + bw_term
        route = self.fabric.route(src, dst)
        t = inj_start
        queue_delay = 0.0
        free = self._free
        for resource in route:
            if free[resource] > t:
                queue_delay += free[resource] - t
                t = free[resource]
            free[resource] = t + bw_term
            t += 0.0
        return inj_start + self.QUEUE_WEIGHT * queue_delay + self._lat

    def _recv_done(self, rank: int, avail: float, nbytes: int, ready: float) -> float:
        arrived = max(avail, self._ej[rank]) + nbytes * self._inv_bw
        self._ej[rank] = arrived
        return max(ready, arrived)

    # -- cooperative scheduler (mirrors the MFACT engine, scalar) -------------

    def _chan(self, src, dst, tag):
        key = (src, dst, tag)
        c = self._channels.get(key)
        if c is None:
            c = self._channels[key] = _Chan()
        return c

    def _wake(self, rank):
        # Ranks are scheduled lowest-clock-first so shared resource state
        # (link free times) is touched in near-virtual-time order; a FIFO
        # here would let one rank race ahead and see messages from its
        # own future, inflating queue delays unboundedly.
        if not self._queued[rank]:
            self._queued[rank] = True
            heapq.heappush(self._runnable, (self.clk[rank], rank))

    def _deliver(self, src, dst, tag, avail, nbytes):
        chan = self._chan(src, dst, tag)
        if chan.slots:
            kind, ident = chan.slots.popleft()
            if kind == "recv":
                done = self._recv_done(dst, avail, nbytes, self.clk[dst] + self._overhead)
                op = self._blocked[dst][2]
                op.t_exit = done
                self.clk[dst] = done
                self._blocked[dst] = None
                self._ip[dst] += 1
                self._wake(dst)
            else:
                entry = self._requests[dst][ident]
                self._requests[dst][ident] = (avail, nbytes, entry[2])
                blocked = self._blocked[dst]
                if blocked is not None and blocked[0] == "wait" and blocked[1] == ident:
                    done = self._recv_done(dst, avail, nbytes, self.clk[dst] + self._overhead)
                    op = blocked[2]
                    op.t_exit = done
                    self.clk[dst] = done
                    del self._requests[dst][ident]
                    self._blocked[dst] = None
                    self._ip[dst] += 1
                    self._wake(dst)
        else:
            chan.messages.append((avail, nbytes))

    def _collective_ready(self, rank, op) -> bool:
        members = self.trace.comm_ranks(op.comm)
        inst = self._coll_instance[rank].get(op.comm, 0)
        key = (op.comm, inst)
        arrived = self._coll_counts.setdefault(key, {})
        ops = self._coll_ops.setdefault(key, {})
        arrived[rank] = self.clk[rank]
        ops[rank] = op
        if len(arrived) < len(members):
            self._blocked[rank] = ("coll", key, op)
            return False
        self._fire_collective(op, members, arrived, ops)
        del self._coll_counts[key]
        del self._coll_ops[key]
        for r in members:
            self._coll_instance[r][op.comm] = inst + 1
            self._blocked[r] = None
            self._ip[r] += 1
            if r != rank:
                self._wake(r)
        return True

    def _fire_collective(self, op, members, arrived, ops) -> None:
        p = len(members)
        cost = collective_cost(op.kind, p, op.nbytes)
        total = self.kappa * cost.time(self.machine.latency, self.machine.bandwidth)
        total += self._overhead
        # Real collectives suffer mildly superlinear congestion at scale.
        total *= float(1.0 + 0.02 * np.log2(max(2, p)))
        if op.kind in _SYNC_COLLECTIVES:
            peak = max(arrived.values())
            done = peak + total
            for r in members:
                ops[r].t_exit = done
                self.clk[r] = done
            return
        root = op.peer
        if op.kind in (OpKind.BCAST, OpKind.SCATTER):
            root_done = arrived[root] + total
            for r in members:
                done = root_done if r == root else max(arrived[r] + self._overhead, root_done)
                ops[r].t_exit = done
                self.clk[r] = done
            return
        peak = max(arrived.values())
        own = self._lat + op.nbytes * self._inv_bw + self._overhead
        for r in members:
            done = peak + total if r == root else arrived[r] + own
            ops[r].t_exit = done
            self.clk[r] = done

    def _step(self, rank: int) -> bool:
        op = self.trace.ranks[rank][self._ip[rank]]
        kind = op.kind
        o = self._overhead
        op.t_entry = self.clk[rank]
        if kind == OpKind.COMPUTE:
            noise = 1.0 + abs(self.rng.normal(0.0, self.COMPUTE_NOISE))
            measured = op.duration * self.machine.compute_scale * noise
            op.duration = measured
            self.clk[rank] += measured
            op.t_exit = self.clk[rank]
        elif kind == OpKind.SEND:
            start = self.clk[rank] + o
            avail = self._transfer_avail(rank, op.peer, op.nbytes, start)
            self.clk[rank] = self._inj[rank]
            op.t_exit = self.clk[rank]
            self._deliver(rank, op.peer, op.tag, avail, op.nbytes)
        elif kind == OpKind.ISEND:
            start = self.clk[rank] + o
            avail = self._transfer_avail(rank, op.peer, op.nbytes, start)
            self.clk[rank] = start
            op.t_exit = start
            self._requests[rank][op.req] = (None, 0, "isend")
            self._deliver(rank, op.peer, op.tag, avail, op.nbytes)
        elif kind == OpKind.RECV:
            chan = self._chan(op.peer, rank, op.tag)
            if chan.messages:
                avail, nbytes = chan.messages.popleft()
                done = self._recv_done(rank, avail, nbytes, self.clk[rank] + o)
                self.clk[rank] = done
                op.t_exit = done
            else:
                chan.slots.append(("recv", rank))
                self._blocked[rank] = ("recv", None, op)
                return False
        elif kind == OpKind.IRECV:
            self.clk[rank] += o
            op.t_exit = self.clk[rank]
            chan = self._chan(op.peer, rank, op.tag)
            if chan.messages:
                avail, nbytes = chan.messages.popleft()
                self._requests[rank][op.req] = (avail, nbytes, "irecv")
            else:
                chan.slots.append(("irecv", op.req))
                self._requests[rank][op.req] = (None, op.nbytes, "irecv")
        elif kind == OpKind.WAIT:
            entry = self._requests[rank].get(op.req)
            if entry is None:
                raise RuntimeError(f"rank {rank} waits on unknown request {op.req}")
            avail, nbytes, state = entry
            if state == "isend":
                self.clk[rank] += o
                op.t_exit = self.clk[rank]
                del self._requests[rank][op.req]
            elif avail is not None:
                done = self._recv_done(rank, avail, nbytes, self.clk[rank] + o)
                self.clk[rank] = done
                op.t_exit = done
                del self._requests[rank][op.req]
            else:
                self._blocked[rank] = ("wait", op.req, op)
                return False
        elif op.is_collective:
            return self._collective_ready(rank, op)
        else:  # pragma: no cover
            raise ValueError(f"unhandled op kind {kind!r}")
        self._ip[rank] += 1
        return True

    def run(self) -> TraceSet:
        """Stamp the trace; returns it for chaining."""
        n = self.trace.nranks
        lengths = [len(ops) for ops in self.trace.ranks]
        for rank in range(n):
            self._wake(rank)
        done = [False] * n
        remaining = n
        runnable = self._runnable
        while runnable:
            _, rank = heapq.heappop(runnable)
            self._queued[rank] = False
            if done[rank] or self._blocked[rank] is not None:
                continue
            # Execute until this rank blocks, finishes, or overtakes the
            # next-lowest clock in the ready queue.
            while self._ip[rank] < lengths[rank]:
                if not self._step(rank):
                    break
                if runnable and self.clk[rank] > runnable[0][0]:
                    self._wake(rank)
                    break
            else:
                if not done[rank]:
                    done[rank] = True
                    remaining -= 1
        if remaining:
            stuck = [r for r in range(n) if not done[r]]
            raise RuntimeError(f"synthesis of {self.trace.name} deadlocked at ranks {stuck[:8]}")
        return self.trace


class _Chan:
    __slots__ = ("messages", "slots")

    def __init__(self):
        self.messages: Deque[Tuple[float, int]] = deque()
        self.slots: Deque[Tuple[str, int]] = deque()


def synthesize_ground_truth(trace: TraceSet, machine: MachineConfig, seed: int) -> TraceSet:
    """Stamp measured timestamps onto ``trace`` (mutates and returns it)."""
    return GroundTruthSynthesizer(trace, machine, seed).run()


# -- fault injection ----------------------------------------------------------

#: Defect kinds :func:`inject_defect` can plant (each targets one
#: tracelint rule; see ``repro.analysis.lint`` for the rule catalogue).
DEFECT_KINDS = (
    "deadlock",  # send/recv wait-for cycle between two ranks
    "unmatched-send",  # a send no rank ever receives
    "unmatched-recv",  # a recv no rank ever satisfies
    "byte-mismatch",  # matched pair disagreeing on payload size
    "lost-wait",  # an IRECV request that is never waited
    "reordered-collectives",  # one rank swaps two collective calls
    "root-divergence",  # one rank disagrees on a collective's arguments
    "time-travel",  # a measured timestamp goes backwards
)

#: Tag space for injected p2p traffic (above generator tags, below the
#: collective-expansion tag base of ``1 << 20``).
_DEFECT_TAG_BASE = 1 << 19


def _clone_trace(trace: TraceSet) -> TraceSet:
    """Deep copy: fresh Op objects so injection never mutates the input."""
    ranks = [[op.copy() for op in stream] for stream in trace.ranks]
    return TraceSet(
        name=trace.name,
        app=trace.app,
        ranks=ranks,
        machine=trace.machine,
        ranks_per_node=trace.ranks_per_node,
        comms=dict(trace.comms),
        uses_comm_split=trace.uses_comm_split,
        uses_threads=trace.uses_threads,
        metadata=dict(trace.metadata),
    )


def inject_defect(trace: TraceSet, kind: str, seed: int = 0) -> TraceSet:
    """Return a copy of ``trace`` with one known structural defect.

    ``kind`` is one of :data:`DEFECT_KINDS`.  The defect site is chosen
    deterministically from ``seed``, and the copy's metadata records the
    injection (``injected_defect``) so downstream tooling can assert a
    linter flags exactly what was planted.  Structural kinds add
    *unstamped* ops, so injecting into a stamped trace additionally
    trips the timestamp-consistency rule; inject before ground-truth
    synthesis when that matters.  ``time-travel`` requires a stamped
    trace.  Used by the tracelint test-suite and intended for future
    fault-injection studies.
    """
    if kind not in DEFECT_KINDS:
        known = ", ".join(DEFECT_KINDS)
        raise ValueError(f"unknown defect kind {kind!r} (known: {known})")
    if trace.nranks < 2:
        raise ValueError("defect injection needs at least two ranks")
    out = _clone_trace(trace)
    rng = substream(seed, "defect", kind, trace.name)
    a, b = (int(r) for r in rng.choice(out.nranks, size=2, replace=False))
    tag = _DEFECT_TAG_BASE + int(rng.integers(0, 1024))
    if kind == "deadlock":
        # Both ranks first receive from each other, and only send after:
        # counts match on every channel, yet neither recv can ever be
        # satisfied — a two-rank wait-for cycle.
        out.ranks[a].insert(0, Op(OpKind.RECV, peer=b, nbytes=64, tag=tag))
        out.ranks[b].insert(0, Op(OpKind.RECV, peer=a, nbytes=64, tag=tag + 1))
        out.ranks[a].append(Op(OpKind.SEND, peer=b, nbytes=64, tag=tag + 1))
        out.ranks[b].append(Op(OpKind.SEND, peer=a, nbytes=64, tag=tag))
    elif kind == "unmatched-send":
        out.ranks[a].append(Op(OpKind.SEND, peer=b, nbytes=256, tag=tag))
    elif kind == "unmatched-recv":
        out.ranks[a].append(Op(OpKind.RECV, peer=b, nbytes=256, tag=tag))
    elif kind == "byte-mismatch":
        out.ranks[a].append(Op(OpKind.SEND, peer=b, nbytes=1024, tag=tag))
        out.ranks[b].append(Op(OpKind.RECV, peer=a, nbytes=512, tag=tag))
    elif kind == "lost-wait":
        req = 1 + max(
            (op.req for op in out.ranks[b] if op.req >= 0), default=0
        )
        out.ranks[b].append(Op(OpKind.IRECV, peer=a, nbytes=128, tag=tag, req=req))
        out.ranks[a].append(Op(OpKind.SEND, peer=b, nbytes=128, tag=tag))
    elif kind == "reordered-collectives":
        idx = [i for i, op in enumerate(out.ranks[a]) if op.is_collective]
        swap = None
        for i in idx:
            for j in idx:
                if j <= i:
                    continue
                x, y = out.ranks[a][i], out.ranks[a][j]
                if (x.kind, x.peer, x.nbytes) != (y.kind, y.peer, y.nbytes):
                    swap = (i, j)
                    break
            if swap:
                break
        if swap is None:
            raise ValueError(
                f"trace {trace.name!r} has no two distinct collectives to reorder"
            )
        i, j = swap
        out.ranks[a][i], out.ranks[a][j] = out.ranks[a][j], out.ranks[a][i]
    elif kind == "root-divergence":
        for op in out.ranks[a]:
            if op.is_collective and len(out.comms.get(op.comm, ())) > 1:
                op.nbytes += 8  # one rank now disagrees on the payload
                break
        else:
            raise ValueError(f"trace {trace.name!r} has no collective to perturb")
    elif kind == "time-travel":
        if not trace.has_timestamps():
            raise ValueError("time-travel injection needs a stamped trace")
        stream = out.ranks[a]
        i = int(rng.integers(0, len(stream)))
        op = stream[i]
        op.t_entry, op.t_exit = op.t_exit, op.t_entry - 1.0
    out.metadata["injected_defect"] = kind
    out.metadata["defect_seed"] = int(seed)
    return out
