"""MFACT's logical-clock trace replay engine.

The engine replays a trace once at one network configuration, the
machine's own, while maintaining one Lamport-style logical clock per
rank (an extension of Lamport's scheme with non-unit computation and
communication times, Section IV-A).  Clocks and counters are plain
floats.  MFACT's "many configurations from one replay" comes from the
recorder: the replay logs its happens-before structure as a max-plus
tape, and :func:`repro.sensitivity.analysis.record_graph` prices the
whole configuration sweep off that tape.  A replay at another
configuration passes ``dataclasses.replace(machine, latency=...,
bandwidth=..., compute_scale=...)``.

Semantics
---------
* computation: ``clk += duration * compute_scale``
* blocking send: sender pays software overhead plus the bandwidth term
  (eager, buffered); the message becomes available to the receiver at
  the sender's post-overhead clock
* non-blocking send: sender pays only overhead; the transfer overlaps
* receive completion (blocking recv, or wait on an irecv): the transfer
  costs Hockney ``alpha + m/B`` once both sides are ready; the clock
  advance is decomposed into the four counters (wait / latency /
  bandwidth, with computation tracked separately)
* collectives: priced with the Thakur–Gropp closed forms of
  :mod:`repro.collectives.cost_models`; synchronizing collectives
  complete at the member-wise max clock plus the collective cost

Matching follows MPI ordering: per (source, destination, tag) channel,
sends match posted receives FIFO.

An optional ``recorder`` (duck-typed; see
:class:`repro.sensitivity.graph.GraphRecorder`) observes every clock
update through ``on_*`` hooks, turning one replay into a reusable
max-plus dependency graph.  With ``recorder=None`` (the default) the
hooks cost one predicate per op.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro import obs
from repro.collectives.cost_models import collective_cost
from repro.machines.config import MachineConfig
from repro.mfact.counters import CounterSet
from repro.mfact.hockney import ConfigGrid
from repro.mfact.report import MFACTReport
from repro.trace.events import OpKind
from repro.trace.trace import TraceSet

__all__ = ["LogicalClockReplay", "model_trace", "ReplayDeadlockError"]

_SYNC_COLLECTIVES = frozenset(
    {
        OpKind.BARRIER,
        OpKind.ALLREDUCE,
        OpKind.ALLGATHER,
        OpKind.ALLTOALL,
        OpKind.REDUCE_SCATTER,
    }
)


# Enum attribute lookups cost ~0.1 us each; ``_step`` compares against
# these module constants instead.
_COMPUTE, _SEND, _ISEND, _RECV, _IRECV, _WAIT = (
    OpKind.COMPUTE,
    OpKind.SEND,
    OpKind.ISEND,
    OpKind.RECV,
    OpKind.IRECV,
    OpKind.WAIT,
)


class ReplayDeadlockError(RuntimeError):
    """Raised when the trace cannot make progress (invalid matching)."""


class _Channel:
    """FIFO matching state for one (src, dst, tag) message channel."""

    __slots__ = ("messages", "slots")

    def __init__(self):
        self.messages: Deque[float] = deque()  # availability clocks
        self.slots: Deque[Tuple[str, int]] = deque()  # ("recv", rank) | ("irecv", req)


class LogicalClockReplay:
    """One MFACT replay of a trace at the machine's own configuration.

    Per-rank state (clock, NIC serialization horizons, the four counters)
    lives in plain lists with one float per rank.  After :meth:`run`,
    :attr:`clk` holds each rank's final clock and :attr:`counters` its
    counters.
    """

    def __init__(self, trace: TraceSet, machine: MachineConfig, recorder=None):
        self.trace = trace
        self.machine = machine
        self._rec = recorder
        n = trace.nranks
        self._lat = float(machine.latency)
        self._inv_bw = 1.0 / machine.bandwidth
        self._scale = float(machine.compute_scale)
        self._overhead = machine.software_overhead
        self.counters = CounterSet(n)
        self.clk: List[float] = [0.0] * n
        self._inj = [0.0] * n  # per-rank outgoing NIC serialization
        self._ej = [0.0] * n  # per-rank incoming NIC serialization
        self._ip = [0] * n
        self._channels: Dict[Tuple[int, int, int], _Channel] = {}
        # Per-rank request table:
        # req id -> ("isend", None, 0) | ("irecv", avail-or-None, nbytes)
        self._requests: List[Dict[int, Tuple[str, Optional[float], int]]] = [{} for _ in range(n)]
        self._blocked: List[Optional[Tuple]] = [None] * n  # why a rank is parked
        # Collective rendezvous: (comm, instance) -> {rank: clock at arrival}
        self._coll_counts: Dict[Tuple[int, int], Dict[int, float]] = {}
        self._coll_instance: List[Dict[int, int]] = [dict() for _ in range(n)]
        self._runnable: Deque[int] = deque()
        self._queued = [False] * n

    # -- channel helpers -------------------------------------------------

    def _channel(self, src: int, dst: int, tag: int) -> _Channel:
        key = (src, dst, tag)
        chan = self._channels.get(key)
        if chan is None:
            chan = self._channels[key] = _Channel()
        return chan

    def _wake(self, rank: int) -> None:
        if not self._queued[rank]:
            self._queued[rank] = True
            self._runnable.append(rank)

    # -- message completion ------------------------------------------------

    def _complete_recv(self, rank: int, avail: float, nbytes: int) -> None:
        """Advance ``rank``'s clock past a message and attribute counters.

        ``avail`` is the fully-injected time at the sender (the Hockney
        bandwidth term is already inside it); delivery adds the wire
        latency ``alpha``.  The clock advance is decomposed into the
        wait / latency / bandwidth counters for sensitivity tracking.
        """
        ready = self.clk[rank] + self._overhead
        bw_term = nbytes * self._inv_bw
        # The payload drains serially through the receiving rank's NIC:
        # ``avail`` carries the header-at-receiver time (injection start
        # plus wire latency was added by the sender).
        arrived = max(avail, self._ej[rank]) + bw_term
        self._ej[rank] = arrived
        new = max(ready, arrived)
        delta = new - ready
        bw_part = min(delta, bw_term)
        lat_part = min(max(delta - bw_term, 0.0), self._lat)
        c = self.counters
        c.bandwidth[rank] += bw_part
        c.latency[rank] += lat_part
        c.wait[rank] += delta - bw_part - lat_part
        self.clk[rank] = new

    def _deliver(self, src: int, dst: int, tag: int, avail: float, nbytes: int) -> None:
        """A send became available; match it or queue it."""
        chan = self._channel(src, dst, tag)
        if chan.slots:
            kind, ident = chan.slots.popleft()
            if kind == "recv":
                # dst is parked in a blocking recv on this channel.
                self._complete_recv(dst, avail, nbytes)
                if self._rec is not None:
                    self._rec.on_recv_complete(dst, src, tag, nbytes)
                self._blocked[dst] = None
                self._ip[dst] += 1
                self._wake(dst)
            else:  # bound an irecv request
                nbytes = self._requests[dst][ident][2]
                self._requests[dst][ident] = ("irecv", avail, nbytes)
                if self._rec is not None:
                    self._rec.on_irecv_bind(dst, src, tag, ident)
                blocked = self._blocked[dst]
                if blocked is not None and blocked[0] == "wait" and blocked[1] == ident:
                    self._complete_recv(dst, avail, nbytes)
                    if self._rec is not None:
                        self._rec.on_wait_complete(dst, ident, nbytes)
                    del self._requests[dst][ident]
                    self._blocked[dst] = None
                    self._ip[dst] += 1
                    self._wake(dst)
        else:
            chan.messages.append(avail)

    # -- collectives -------------------------------------------------------

    def _collective_ready(self, rank: int, op) -> bool:
        """Register arrival; fire the collective when all members arrived."""
        members = self.trace.comm_ranks(op.comm)
        inst = self._coll_instance[rank].get(op.comm, 0)
        key = (op.comm, inst)
        arrived = self._coll_counts.setdefault(key, {})
        arrived[rank] = self.clk[rank]
        if len(arrived) < len(members):
            self._blocked[rank] = ("coll", key)
            return False
        self._fire_collective(op, members, arrived)
        del self._coll_counts[key]
        for r in members:
            self._coll_instance[r][op.comm] = inst + 1
            self._blocked[r] = None
            self._ip[r] += 1
            if r != rank:
                self._wake(r)
        return True

    def _fire_collective(self, op, members, arrived: Dict[int, float]) -> None:
        p = len(members)
        cost = collective_cost(op.kind, p, op.nbytes)
        o = self._overhead
        lat_share = cost.alpha_count * self._lat
        bw_share = cost.bytes_on_wire * self._inv_bw
        total = lat_share + bw_share
        c = self.counters
        clk, lat, bw, wait = self.clk, c.latency, c.bandwidth, c.wait
        if self._rec is not None:
            self._rec.on_collective(
                op.kind, members, op.peer, op.nbytes, cost.alpha_count, cost.bytes_on_wire
            )
        if op.kind in _SYNC_COLLECTIVES:
            peak = max(arrived.values())
            for r in members:
                start = arrived[r] + o
                done = max(peak + o, start) + total
                wait[r] = wait[r] + (done - start - total)
                lat[r] = lat[r] + lat_share
                bw[r] = bw[r] + bw_share
                clk[r] = done
            return
        root = op.peer
        if op.kind in (OpKind.BCAST, OpKind.SCATTER):
            root_done = arrived[root] + o + total
            for r in members:
                start = arrived[r] + o
                if r == root:
                    done = root_done
                    lat[r] = lat[r] + lat_share
                    bw[r] = bw[r] + bw_share
                else:
                    done = max(start, root_done)
                    delta = done - start
                    bw_part = min(delta, bw_share)
                    lat_part = min(max(delta - bw_share, 0.0), lat_share)
                    bw[r] = bw[r] + bw_part
                    lat[r] = lat[r] + lat_part
                    wait[r] = wait[r] + (delta - bw_part - lat_part)
                clk[r] = done
            return
        # REDUCE / GATHER: root completes after everyone plus the tree cost;
        # non-roots leave after contributing their own single message.
        own = self._lat + op.nbytes * self._inv_bw
        peak = max(arrived.values())
        for r in members:
            start = arrived[r] + o
            if r == root:
                done = max(peak + o, start) + total
                wait[r] = wait[r] + (done - start - total)
                lat[r] = lat[r] + lat_share
                bw[r] = bw[r] + bw_share
            else:
                done = start + own
                lat[r] = lat[r] + self._lat
                bw[r] = bw[r] + op.nbytes * self._inv_bw
            clk[r] = done

    # -- diagnostics ---------------------------------------------------------

    def _deadlock_message(self, stuck: List[int]) -> str:
        """Actionable deadlock diagnostic: why each stuck rank is parked,
        plus the oldest unmatched ``(src, dst, tag)`` channel.

        Channels are reported in first-use order (``self._channels`` is
        insertion-ordered), so "oldest" is the channel that entered the
        matching state machine earliest — usually the root mismatch.
        """
        reasons = []
        for r in stuck[:8]:
            why = self._blocked[r]
            if why is None:
                reasons.append(f"rank {r} runnable but unfinished")
            elif why[0] == "recv":
                src, dst, tag = why[1]
                reasons.append(
                    f"rank {r} in blocking recv on channel (src={src}, dst={dst}, tag={tag})"
                )
            elif why[0] == "wait":
                reasons.append(f"rank {r} waiting on request {why[1]}")
            else:  # collective rendezvous
                reasons.append(f"rank {r} at collective rendezvous on comm {why[1][0]}")
        oldest = ""
        for (src, dst, tag), chan in self._channels.items():
            if chan.messages or chan.slots:
                oldest = (
                    f"; oldest unmatched channel (src={src}, dst={dst}, tag={tag}): "
                    f"{len(chan.messages)} queued send(s), "
                    f"{len(chan.slots)} posted receive(s)"
                )
                break
        return (
            f"replay of {self.trace.name} deadlocked with ranks {stuck[:8]} blocked: "
            + "; ".join(reasons)
            + oldest
        )

    # -- main loop -----------------------------------------------------------

    def _step(self, rank: int) -> bool:
        """Execute ``rank``'s next op; return False if the rank blocked."""
        ops = self.trace.ranks[rank]
        op = ops[self._ip[rank]]
        kind = op.kind
        o = self._overhead
        clk = self.clk
        if kind == _COMPUTE:
            work = op.duration * self._scale
            clk[rank] += work
            self.counters.compute[rank] += work
            if self._rec is not None:
                self._rec.on_compute(rank, op.duration)
        elif kind == _SEND:
            # The rank's NIC serializes its outgoing messages; a blocking
            # send returns once the payload is fully injected.
            bw_term = op.nbytes * self._inv_bw
            start = clk[rank] + o
            inj_start = max(self._inj[rank], start)
            inj_done = inj_start + bw_term
            self._inj[rank] = inj_done
            c = self.counters
            c.bandwidth[rank] += bw_term
            c.wait[rank] += inj_start - start
            clk[rank] = inj_done
            if self._rec is not None:
                self._rec.on_send(rank, op.peer, op.tag, op.nbytes, blocking=True)
            # Header reaches the receiver one wire latency after injection
            # starts; the receiver pays the bandwidth term while draining.
            self._deliver(rank, op.peer, op.tag, inj_start + self._lat, op.nbytes)
        elif kind == _ISEND:
            # Injection overlaps with local progress; only overhead is paid.
            bw_term = op.nbytes * self._inv_bw
            inj_start = max(self._inj[rank], clk[rank] + o)
            self._inj[rank] = inj_start + bw_term
            clk[rank] = clk[rank] + o
            self._requests[rank][op.req] = ("isend", None, 0)
            if self._rec is not None:
                self._rec.on_send(rank, op.peer, op.tag, op.nbytes, blocking=False)
            self._deliver(rank, op.peer, op.tag, inj_start + self._lat, op.nbytes)
        elif kind == _RECV:
            chan = self._channel(op.peer, rank, op.tag)
            if chan.messages:
                avail = chan.messages.popleft()
                self._complete_recv(rank, avail, op.nbytes)
                if self._rec is not None:
                    self._rec.on_recv_complete(rank, op.peer, op.tag, op.nbytes)
            else:
                chan.slots.append(("recv", rank))
                self._blocked[rank] = ("recv", (op.peer, rank, op.tag))
                return False
        elif kind == _IRECV:
            clk[rank] = clk[rank] + o
            if self._rec is not None:
                self._rec.on_overhead(rank)
            chan = self._channel(op.peer, rank, op.tag)
            if chan.messages:
                avail = chan.messages.popleft()
                self._requests[rank][op.req] = ("irecv", avail, op.nbytes)
                if self._rec is not None:
                    self._rec.on_irecv_bind(rank, op.peer, op.tag, op.req)
            else:
                chan.slots.append(("irecv", op.req))
                self._requests[rank][op.req] = ("irecv", None, op.nbytes)
        elif kind == _WAIT:
            entry = self._requests[rank].get(op.req)
            if entry is None:
                raise ReplayDeadlockError(
                    f"rank {rank} waits on unknown request {op.req} in {self.trace.name}"
                )
            state, avail, nbytes = entry
            if state == "isend":
                clk[rank] = clk[rank] + o
                if self._rec is not None:
                    self._rec.on_overhead(rank)
                del self._requests[rank][op.req]
            elif avail is not None:
                self._complete_recv(rank, avail, nbytes)
                if self._rec is not None:
                    self._rec.on_wait_complete(rank, op.req, nbytes)
                del self._requests[rank][op.req]
            else:
                self._blocked[rank] = ("wait", op.req)
                return False
        elif op.is_collective:
            return self._collective_ready(rank, op)
        else:  # pragma: no cover - OpKind is closed
            raise ValueError(f"unhandled op kind {kind!r}")
        self._ip[rank] += 1
        return True

    def run(self) -> MFACTReport:
        """Replay the whole trace; report at the machine's configuration."""
        with obs.span("replay"):
            start = time.perf_counter()
            n = self.trace.nranks
            lengths = [len(ops) for ops in self.trace.ranks]
            steps = 0
            for rank in range(n):
                self._wake(rank)
            done = [False] * n
            remaining = n
            while self._runnable:
                rank = self._runnable.popleft()
                self._queued[rank] = False
                if done[rank] or self._blocked[rank] is not None:
                    continue
                while self._ip[rank] < lengths[rank]:
                    steps += 1
                    if not self._step(rank):
                        break
                if self._ip[rank] >= lengths[rank] and not done[rank]:
                    done[rank] = True
                    remaining -= 1
            if remaining:
                stuck = [r for r in range(n) if not done[r]]
                raise ReplayDeadlockError(self._deadlock_message(stuck))
            if obs.enabled():
                obs.counter("repro_mfact_steps_total").inc(steps)
                obs.counter("repro_mfact_replays_total").inc()
            return MFACTReport.from_replay(self, time.perf_counter() - start)


def model_trace(
    trace: TraceSet,
    machine: MachineConfig,
    grid: Optional[ConfigGrid] = None,
) -> MFACTReport:
    """MFACT's report for ``trace`` on ``machine``.

    The report is the trace model's
    (:func:`repro.sensitivity.analysis.trace_model`): one replay at the
    machine's configuration records the dependency graph and prices
    :meth:`ConfigGrid.sweep` off it, and later sensitivity and what-if
    queries on the same trace content reuse it instead of replaying.
    The returned report is then shared; do not mutate it.  An explicit
    ``grid``, whose baseline must be the machine's own configuration,
    is priced off the same model's tape; its walltime adds that pricing
    to the model's.
    """
    # Imported here: repro.sensitivity builds on this module.
    from repro.sensitivity.analysis import trace_model

    graph, report = trace_model(trace, machine)
    if grid is None:
        return report
    start = time.perf_counter()
    totals = graph.evaluate(grid.latency, grid.bandwidth, grid.compute_scale)
    return report.priced(machine, grid, totals, report.walltime + time.perf_counter() - start)
