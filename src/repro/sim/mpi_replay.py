"""MPI replay layer driving a network model.

Replays a trace through the discrete-event engine: per-rank scalar
virtual clocks, MPI message matching with FIFO channels, eager buffered
sends (senders block only for NIC injection), and collectives expanded
into their Thakur–Gropp point-to-point schedules
(:func:`expand_collectives`) — the same decomposition SST/Macro's MPI
layer performs before handing traffic to its congestion model.

Per-rank communication time (time spent inside MPI calls) is
accumulated so simulated total *and* communication time can be compared
with MFACT's counters.
"""

from __future__ import annotations

import time
from collections import deque
from functools import partial
from typing import Callable, Deque, Dict, List, Optional, Tuple, Type

from repro import obs
from repro.collectives.algorithms import schedule_collective
from repro.machines.config import MachineConfig
from repro.sim import modes
from repro.sim.engine import DEFAULT_MAX_EVENTS, EventEngine
from repro.util.budget import Budget
from repro.sim.flow import FlowModel
from repro.sim.network import Fabric, NetworkModel, UnsupportedTraceError
from repro.sim.packet import PacketModel
from repro.sim.packetflow import PacketFlowModel
from repro.sim.results import SimResult
from repro.trace.events import Op, OpKind
from repro.trace.trace import TraceSet

__all__ = [
    "expand_collectives",
    "compile_streams",
    "ReplayShared",
    "SimReplay",
    "simulate_trace",
    "MODEL_CLASSES",
]

# Integer OpKind values for the compiled-stream dispatch below.
_K_COMPUTE = int(OpKind.COMPUTE)
_K_SEND = int(OpKind.SEND)
_K_ISEND = int(OpKind.ISEND)
_K_RECV = int(OpKind.RECV)
_K_IRECV = int(OpKind.IRECV)
_K_WAIT = int(OpKind.WAIT)

#: Tag space reserved for expanded collective traffic.
COLLECTIVE_TAG_BASE = 1 << 20
#: Request-id space reserved for expanded collective traffic.
COLLECTIVE_REQ_BASE = 1 << 30

MODEL_CLASSES: Dict[str, Type[NetworkModel]] = {
    "packet": PacketModel,
    "flow": FlowModel,
    "packet-flow": PacketFlowModel,
}


def expand_collectives(trace: TraceSet) -> TraceSet:
    """Rewrite collectives into point-to-point phases.

    Every collective instance gets a unique tag from the reserved space,
    so expanded traffic never interferes with application messages.
    Phases become IRECV / ISEND pairs followed by WAITs, which lets both
    directions of an exchange progress and keeps pairwise patterns
    deadlock-free.
    """
    new_ranks: List[List[Op]] = [[] for _ in range(trace.nranks)]
    instance_ids: Dict[Tuple[int, int], int] = {}
    schedules: Dict[int, dict] = {}
    occurrence: List[Dict[int, int]] = [dict() for _ in range(trace.nranks)]
    req_counter = [COLLECTIVE_REQ_BASE] * trace.nranks
    next_instance = [0]

    def instance_of(comm: int, occ: int, op: Op) -> int:
        key = (comm, occ)
        inst = instance_ids.get(key)
        if inst is None:
            inst = instance_ids[key] = next_instance[0]
            next_instance[0] += 1
            members = trace.comm_ranks(comm)
            schedules[inst] = schedule_collective(op.kind, members, op.nbytes, op.peer)
        return inst

    for rank, stream in enumerate(trace.ranks):
        out = new_ranks[rank]
        for op in stream:
            if not op.is_collective:
                out.append(op)
                continue
            occ = occurrence[rank].get(op.comm, 0)
            occurrence[rank][op.comm] = occ + 1
            inst = instance_of(op.comm, occ, op)
            tag = COLLECTIVE_TAG_BASE + inst
            for phase in schedules[inst].get(rank, []):
                reqs: List[int] = []
                for peer, size in phase.recvs:
                    req = req_counter[rank]
                    req_counter[rank] += 1
                    out.append(Op(OpKind.IRECV, peer=peer, nbytes=size, tag=tag, req=req))
                    reqs.append(req)
                for peer, size in phase.sends:
                    req = req_counter[rank]
                    req_counter[rank] += 1
                    out.append(Op(OpKind.ISEND, peer=peer, nbytes=size, tag=tag, req=req))
                    reqs.append(req)
                for req in reqs:
                    out.append(Op(OpKind.WAIT, req=req))
    return TraceSet(
        name=trace.name,
        app=trace.app,
        ranks=new_ranks,
        machine=trace.machine,
        ranks_per_node=trace.ranks_per_node,
        comms=dict(trace.comms),
        uses_comm_split=trace.uses_comm_split,
        uses_threads=trace.uses_threads,
        metadata=dict(trace.metadata),
    )


def compile_streams(trace: TraceSet, machine: MachineConfig) -> List[List[Tuple]]:
    """Flatten an (expanded) trace into per-rank tuple streams.

    Each op becomes a per-kind tuple holding exactly the fields the
    replay dispatch reads for that kind — the hot loop indexes two or
    three slots instead of unpacking six attribute loads on an
    ``__slots__`` object:

    - COMPUTE: ``(kind, work)``
    - SEND/ISEND: ``(kind, peer, nbytes, tag, req, inject)``
    - RECV: ``(kind, peer, tag)``
    - IRECV: ``(kind, peer, tag, req)``
    - WAIT: ``(kind, req)``

    The machine-dependent floats are pre-baked: the scaled work
    ``duration * compute_scale`` for COMPUTE and the eager injection
    time ``nbytes / injection_rate`` for SEND (both single deterministic
    products, so pre-baking cannot shift a bit).  Worth building only
    when the streams are reused (every engine of a record replays the
    same expansion), which is why :class:`ReplayShared` owns the
    compilation.
    """
    scale = machine.compute_scale
    inj = machine.effective_injection_bandwidth
    out: List[List[Tuple]] = []
    for stream in trace.ranks:
        compiled = []
        for op in stream:
            kind = int(op.kind)
            if kind == _K_COMPUTE:
                entry = (kind, op.duration * scale)
            elif kind == _K_SEND:
                entry = (kind, op.peer, op.nbytes, op.tag, op.req, op.nbytes / inj)
            elif kind == _K_ISEND:
                entry = (kind, op.peer, op.nbytes, op.tag, op.req, 0.0)
            elif kind == _K_RECV:
                entry = (kind, op.peer, op.tag)
            elif kind == _K_IRECV:
                entry = (kind, op.peer, op.tag, op.req)
            else:
                entry = (kind, op.req)
            compiled.append(entry)
        out.append(compiled)
    return out


class ReplayShared:
    """Per-(trace, machine) precomputation shared across engines.

    The vectorized measurement path builds one of these per record and
    hands it to every :class:`SimReplay`: collective expansion, the
    fabric (topology + routing, read-only during replay) and the
    compiled op streams are all identical across the packet, flow and
    packet-flow replays of one trace, so the scalar path's
    once-per-engine cost collapses to once per record.
    """

    __slots__ = ("trace", "machine", "expanded", "fabric", "compiled")

    def __init__(self, trace: TraceSet, machine: MachineConfig):
        self.trace = trace
        self.machine = machine
        self.expanded = expand_collectives(trace)
        self.fabric = Fabric(trace, machine)
        self.compiled = compile_streams(self.expanded, machine)


class _SimChannel:
    __slots__ = ("deliveries", "slots")

    def __init__(self):
        self.deliveries: Deque[float] = deque()
        self.slots: Deque[Tuple[str, int]] = deque()


class SimReplay:
    """Replay one trace through one network model."""

    def __init__(
        self,
        trace: TraceSet,
        machine: MachineConfig,
        model: str = "packet-flow",
        fabric: Optional[Fabric] = None,
        vectorized: Optional[bool] = None,
        shared: Optional[ReplayShared] = None,
        **model_kwargs,
    ):
        try:
            model_cls = MODEL_CLASSES[model]
        except KeyError:
            known = ", ".join(sorted(MODEL_CLASSES))
            raise ValueError(f"unknown model {model!r} (known: {known})") from None
        self.original = trace
        self.machine = machine
        self.vectorized = modes.resolve(vectorized)
        self.engine = EventEngine()
        if shared is not None and fabric is None:
            fabric = shared.fabric
        self.fabric = fabric if fabric is not None else Fabric(trace, machine)
        self.model = model_cls(
            self.fabric, self.engine, vectorized=self.vectorized, **model_kwargs
        )
        self.model.check_trace(trace)
        # ``shared`` must have been built from this same (trace, machine)
        # pair; it saves re-expanding and re-compiling per engine.
        self.trace = shared.expanded if shared is not None else expand_collectives(trace)
        self._compiled = shared.compiled if shared is not None else None
        n = trace.nranks
        self.clk = [0.0] * n
        self.comm_time = [0.0] * n
        self.compute_time = [0.0] * n
        self._ip = [0] * n
        self._channels: Dict[Tuple[int, int, int], _SimChannel] = {}
        # req id -> ("isend", None) | ("irecv", delivery-time-or-None)
        self._requests: List[Dict[int, Tuple[str, Optional[float]]]] = [{} for _ in range(n)]
        self._blocked_at: List[float] = [0.0] * n  # virtual time a block began
        self._blocked: List[Optional[Tuple]] = [None] * n
        self._done = [False] * n
        self._overhead = machine.software_overhead
        self._inj_rate = machine.effective_injection_bandwidth
        # Per-OpKind [count, seconds] tallies, flushed to the metrics
        # registry when run() completes; None keeps the hot loop on the
        # zero-overhead path while metrics are disabled.
        self._kind_obs: Optional[Dict[OpKind, List[float]]] = (
            {} if obs.enabled() else None
        )
        # Pick the dispatch once: the compiled-stream fast loop when
        # shared precomputation is attached and per-op tallies are off,
        # else the reference loop (the behavioral specification both
        # must match, enforced by the differential equivalence suite).
        # The plain function is stored, not a bound method: a bound
        # method on the instance is a reference cycle that would leave
        # every finished replay to the cyclic GC.
        self._advance_impl = (
            SimReplay._advance_fast
            if self._compiled is not None and self._kind_obs is None
            else SimReplay._advance_ref
        )

    def _tally_op(self, kind: OpKind, t0: float) -> None:
        ent = self._kind_obs.get(kind)
        if ent is None:
            ent = self._kind_obs[kind] = [0, 0.0]
        ent[0] += 1
        ent[1] += time.perf_counter() - t0

    # -- helpers -----------------------------------------------------------

    def _channel(self, src: int, dst: int, tag: int) -> _SimChannel:
        key = (src, dst, tag)
        chan = self._channels.get(key)
        if chan is None:
            chan = self._channels[key] = _SimChannel()
        return chan

    def _deliver(self, src: int, dst: int, tag: int, when: float) -> None:
        # Hot path shared by both engine modes: the channel lookup is
        # inlined (no _channel call) and the ``max`` builtins are spelled
        # as branches — ``clk[dst] if clk[dst] >= when else when`` picks
        # the same value ``max`` would, and the waited-time clamp skips
        # zero adds (``waited`` is ``+0.0`` when the rank never waited,
        # and ``x + 0.0 == x`` bitwise for the non-negative tallies).
        key = (src, dst, tag)
        chan = self._channels.get(key)
        if chan is None:
            chan = self._channels[key] = _SimChannel()
        slots = chan.slots
        if slots:
            kind, ident = slots.popleft()
            clk = self.clk
            c = clk[dst]
            arrived = c if c >= when else when
            if kind == "recv":
                waited = arrived - self._blocked_at[dst]
                if waited > 0.0:
                    self.comm_time[dst] += waited
                clk[dst] = arrived
                self._blocked[dst] = None
                self._ip[dst] += 1
                self._advance_impl(self, dst)
            else:
                self._requests[dst][ident] = ("irecv", when)
                blocked = self._blocked[dst]
                if blocked is not None and blocked[0] == "wait" and blocked[1] == ident:
                    waited = arrived - self._blocked_at[dst]
                    if waited > 0.0:
                        self.comm_time[dst] += waited
                    clk[dst] = arrived
                    del self._requests[dst][ident]
                    self._blocked[dst] = None
                    self._ip[dst] += 1
                    self._advance_impl(self, dst)
        else:
            chan.deliveries.append(when)

    # -- op execution --------------------------------------------------------

    def _advance_fast(self, rank: int) -> None:
        """Compiled-stream twin of :meth:`_advance_ref`.

        Identical arithmetic and branch structure, operating on the
        per-kind tuples from :func:`compile_streams` (each branch
        indexes only the fields its kind carries; the pre-baked floats
        replace the per-op multiply/divide) with the instruction
        pointer kept in a local (flushed on every exit so
        :meth:`_deliver`'s ``_ip`` bump composes exactly as before).
        """
        ops = self._compiled[rank]
        n_ops = len(ops)
        o = self._overhead
        clk = self.clk
        comm_time = self.comm_time
        requests = self._requests[rank]
        transfer = self.model.transfer
        deliver = self._deliver
        channels = self._channels
        ip = self._ip[rank]
        # The rank's clock and time tallies live in unboxed locals for
        # the whole dispatch loop — nothing else mutates them while this
        # rank advances (``transfer`` only schedules future events) —
        # and are flushed at every exit, in the same order the subscript
        # writes would have landed.
        c = clk[rank]
        ct = comm_time[rank]
        pt = self.compute_time[rank]
        while ip < n_ops:
            op = ops[ip]
            kind = op[0]
            if kind == _K_COMPUTE:
                work = op[1]
                c += work
                pt += work
            elif kind == _K_SEND or kind == _K_ISEND:
                peer = op[1]
                start = c + o
                ct += o
                if kind == _K_SEND:
                    # Eager: sender is busy for the injection (pre-baked).
                    inject = op[5]
                    c = start + inject
                    ct += inject
                else:
                    c = start
                    requests[op[4]] = ("isend", None)
                transfer(rank, peer, op[2], start, partial(deliver, rank, peer, op[3]))
            elif kind == _K_RECV:
                ct += o
                c += o
                key = (op[1], rank, op[2])
                chan = channels.get(key)
                if chan is None:
                    chan = channels[key] = _SimChannel()
                if chan.deliveries:
                    when = chan.deliveries.popleft()
                    if when > c:
                        ct += when - c
                        c = when
                else:
                    clk[rank] = c
                    comm_time[rank] = ct
                    self.compute_time[rank] = pt
                    chan.slots.append(("recv", rank))
                    self._blocked[rank] = ("recv",)
                    self._blocked_at[rank] = c
                    self._ip[rank] = ip
                    return
            elif kind == _K_IRECV:
                ct += o
                c += o
                key = (op[1], rank, op[2])
                chan = channels.get(key)
                if chan is None:
                    chan = channels[key] = _SimChannel()
                req = op[3]
                if chan.deliveries:
                    requests[req] = ("irecv", chan.deliveries.popleft())
                else:
                    chan.slots.append(("irecv", req))
                    requests[req] = ("irecv", None)
            elif kind == _K_WAIT:
                req = op[1]
                entry = requests.get(req)
                if entry is None:
                    clk[rank] = c
                    comm_time[rank] = ct
                    self.compute_time[rank] = pt
                    raise RuntimeError(
                        f"rank {rank} waits on unknown request {req} in {self.trace.name}"
                    )
                state, when = entry
                ct += o
                c += o
                if state == "isend":
                    del requests[req]
                elif when is not None:
                    if when > c:
                        ct += when - c
                        c = when
                    del requests[req]
                else:
                    clk[rank] = c
                    comm_time[rank] = ct
                    self.compute_time[rank] = pt
                    self._blocked[rank] = ("wait", req)
                    self._blocked_at[rank] = c
                    self._ip[rank] = ip
                    return
            else:  # pragma: no cover - collectives were expanded away
                raise RuntimeError(f"unexpanded collective {kind!r} reached the simulator")
            ip += 1
        clk[rank] = c
        comm_time[rank] = ct
        self.compute_time[rank] = pt
        self._ip[rank] = ip
        self._done[rank] = True

    def _advance_ref(self, rank: int) -> None:
        """Reference dispatch loop over :class:`Op` objects."""
        ops = self.trace.ranks[rank]
        n_ops = len(ops)
        o = self._overhead
        kobs = self._kind_obs
        t0 = 0.0
        while self._ip[rank] < n_ops:
            op = ops[self._ip[rank]]
            kind = op.kind
            if kobs is not None:
                t0 = time.perf_counter()
            if kind == OpKind.COMPUTE:
                work = op.duration * self.machine.compute_scale
                self.clk[rank] += work
                self.compute_time[rank] += work
            elif kind in (OpKind.SEND, OpKind.ISEND):
                start = self.clk[rank] + o
                self.comm_time[rank] += o
                if kind == OpKind.SEND:
                    # Eager: sender is busy for the injection of the payload.
                    inject = op.nbytes / self._inj_rate
                    self.clk[rank] = start + inject
                    self.comm_time[rank] += inject
                else:
                    self.clk[rank] = start
                    self._requests[rank][op.req] = ("isend", None)
                src, dst, tag, nbytes = rank, op.peer, op.tag, op.nbytes
                self.model.transfer(
                    src,
                    dst,
                    nbytes,
                    start,
                    lambda when, s=src, d=dst, t=tag: self._deliver(s, d, t, when),
                )
            elif kind == OpKind.RECV:
                self.comm_time[rank] += o
                self.clk[rank] += o
                chan = self._channel(op.peer, rank, op.tag)
                if chan.deliveries:
                    when = chan.deliveries.popleft()
                    if when > self.clk[rank]:
                        self.comm_time[rank] += when - self.clk[rank]
                        self.clk[rank] = when
                else:
                    chan.slots.append(("recv", rank))
                    self._blocked[rank] = ("recv",)
                    self._blocked_at[rank] = self.clk[rank]
                    if kobs is not None:
                        self._tally_op(kind, t0)
                    return
            elif kind == OpKind.IRECV:
                self.comm_time[rank] += o
                self.clk[rank] += o
                chan = self._channel(op.peer, rank, op.tag)
                if chan.deliveries:
                    self._requests[rank][op.req] = ("irecv", chan.deliveries.popleft())
                else:
                    chan.slots.append(("irecv", op.req))
                    self._requests[rank][op.req] = ("irecv", None)
            elif kind == OpKind.WAIT:
                entry = self._requests[rank].get(op.req)
                if entry is None:
                    raise RuntimeError(
                        f"rank {rank} waits on unknown request {op.req} in {self.trace.name}"
                    )
                state, when = entry
                self.comm_time[rank] += o
                self.clk[rank] += o
                if state == "isend":
                    del self._requests[rank][op.req]
                elif when is not None:
                    if when > self.clk[rank]:
                        self.comm_time[rank] += when - self.clk[rank]
                        self.clk[rank] = when
                    del self._requests[rank][op.req]
                else:
                    self._blocked[rank] = ("wait", op.req)
                    self._blocked_at[rank] = self.clk[rank]
                    if kobs is not None:
                        self._tally_op(kind, t0)
                    return
            else:  # pragma: no cover - collectives were expanded away
                raise RuntimeError(f"unexpanded collective {kind!r} reached the simulator")
            if kobs is not None:
                self._tally_op(kind, t0)
            self._ip[rank] += 1
        self._done[rank] = True

    def run(self, budget: Optional[Budget] = None) -> SimResult:
        """Simulate the whole trace and report times and tool cost.

        ``budget`` caps the attempt: its wall deadline is armed before
        the initial rank advance (so model scheduling loops are covered
        too) and its event cap bounds the engine run; exceeding either
        raises a :class:`~repro.util.budget.BudgetExceeded` subclass.
        """
        with obs.span(f"sim/{self.model.name}"):
            return self._run(budget)

    def _run(self, budget: Optional[Budget]) -> SimResult:
        wall_start = time.perf_counter()
        budget = budget if budget is not None else Budget()
        self.engine.set_wall_deadline(budget.wall_seconds)
        for rank in range(self.original.nranks):
            self._advance_impl(self, rank)
        self.engine.run(
            max_events=budget.events if budget.events is not None else DEFAULT_MAX_EVENTS
        )
        if not all(self._done):
            stuck = [r for r, d in enumerate(self._done) if not d]
            raise RuntimeError(
                f"simulation of {self.trace.name} deadlocked; blocked ranks {stuck[:8]}"
            )
        walltime = time.perf_counter() - wall_start
        n = self.original.nranks
        self._flush_metrics()
        return SimResult(
            trace_name=self.original.name,
            app=self.original.app,
            machine=self.machine.name,
            model=self.model.name,
            total_time=max(self.clk),
            comm_time=sum(self.comm_time) / n,
            compute_time=sum(self.compute_time) / n,
            walltime=walltime,
            events=self.engine.events_processed,
            messages=self.model.messages_sent,
            bytes_sent=self.model.bytes_sent,
        )

    def _flush_metrics(self) -> None:
        """Publish per-OpKind tallies and traffic totals for this replay.

        Called only on successful completion: a budget abort stops at a
        schedule- or wall-dependent op, and partial tallies would poison
        the serial-vs-parallel determinism guarantee.
        """
        if self._kind_obs is None:
            return
        engine = self.model.name
        for kind in sorted(self._kind_obs, key=lambda k: k.name):
            count, seconds = self._kind_obs[kind]
            obs.counter(
                "repro_dispatch_ops_total", engine=engine, kind=kind.name
            ).inc(int(count))
            obs.counter(
                "repro_dispatch_seconds_total", engine=engine, kind=kind.name
            ).inc(seconds)
        obs.counter("repro_sim_messages_total", engine=engine).inc(self.model.messages_sent)
        obs.counter("repro_sim_bytes_total", engine=engine).inc(self.model.bytes_sent)
        self._kind_obs = {}


def simulate_trace(
    trace: TraceSet,
    machine: MachineConfig,
    model: str = "packet-flow",
    budget: Optional[Budget] = None,
    vectorized: Optional[bool] = None,
    shared: Optional[ReplayShared] = None,
    **model_kwargs,
) -> SimResult:
    """Convenience wrapper: simulate ``trace`` on ``machine`` with ``model``.

    ``budget`` (wall seconds / event cap) bounds the attempt; see
    :meth:`SimReplay.run`.  ``vectorized`` picks the scalar or
    vectorized simulation paths (``None``: process default, see
    :mod:`repro.sim.modes`); ``shared`` reuses a
    :class:`ReplayShared` built for this same (trace, machine) pair.
    """
    return SimReplay(
        trace, machine, model, vectorized=vectorized, shared=shared, **model_kwargs
    ).run(budget=budget)
