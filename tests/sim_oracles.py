"""Reference flow and packet-flow models and the reference replay.

The production :class:`~repro.sim.flow.FlowModel` and
:class:`~repro.sim.packetflow.PacketFlowModel` keep their state in flat
lists with cached routes, memoized water-fills and compiled op streams.
The models below are the straightforward versions those replaced: one
:class:`Flow` object per flow with the textbook dict water-fill, and a
packet-flow model over numpy occupancy arrays.  Every production result
must match them bit for bit.

:func:`reference_engines` swaps them into ``MODEL_CLASSES`` and pins
the replay to its reference dispatch loop (:class:`RefReplay`), so
:func:`~repro.core.pipeline.measure_trace` and
:func:`~repro.core.executor.execute_study` run end to end on the
reference engines.  Pool workers are forked inside the patch and
inherit it.
"""

from contextlib import contextmanager
from typing import Dict, List, Sequence
from unittest.mock import patch

import numpy as np

from repro.sim.flow import (
    _VECTOR_THRESHOLD,
    FINISH_HORIZON,
    LOCAL_BANDWIDTH_FACTOR,
    RIPPLE_COALESCE,
    FlowModel,
)
from repro.sim.mpi_replay import MODEL_CLASSES, SimReplay
from repro.sim.network import NetworkModel
from repro.sim.packetflow import DEFAULT_CHUNK_SIZE, PacketFlowModel


class Flow:
    __slots__ = ("route", "route_arr", "remaining", "rate", "deliver", "prop_latency")

    def __init__(self, route, nbytes, deliver, prop_latency):
        self.route = route
        self.route_arr = np.asarray(route, dtype=np.intp)
        self.remaining = float(nbytes)
        self.rate = 0.0
        self.deliver = deliver
        self.prop_latency = prop_latency


def dict_waterfill(routes: Sequence[Sequence[int]], caps, rates=None) -> List[float]:
    """Max-min water-fill: freeze every flow that crosses a bottleneck
    link at the fair level, drain the capacity, repeat.  Writes into
    ``rates`` (a flow left unfrozen keeps its old rate) and returns it."""
    rates = [0.0] * len(routes) if rates is None else rates
    remaining_cap = {}
    counts = {}
    for route in routes:
        for link in route:
            if link in counts:
                counts[link] += 1
            else:
                counts[link] = 1
                remaining_cap[link] = float(caps[link])
    unfrozen = set(range(len(routes)))
    while unfrozen:
        level = None
        for link, count in counts.items():
            if count > 0:
                fair = remaining_cap[link] / count
                if level is None or fair < level:
                    level = fair
        if level is None:
            break
        newly = [
            i
            for i in sorted(unfrozen)
            if any(
                counts[l] > 0 and remaining_cap[l] / counts[l] <= level * (1 + 1e-12)
                for l in routes[i]
            )
        ]
        if not newly:
            break
        for i in newly:
            rates[i] = level
            unfrozen.discard(i)
            for link in routes[i]:
                counts[link] -= 1
                remaining_cap[link] = max(0.0, remaining_cap[link] - level)
    return rates


class OracleFlowModel(NetworkModel):
    """Reference flow model: one :class:`Flow` per flow, rates rebuilt
    from scratch on every ripple."""

    name = "flow"
    check_trace = FlowModel.check_trace
    _waterfill_core = FlowModel._waterfill_core

    def __init__(self, fabric, engine, ripple=True):
        super().__init__(fabric, engine)
        machine = fabric.machine
        self._caps = np.full(fabric.nresources, machine.bandwidth)
        nlinks = fabric.topology.nlinks
        self._caps[nlinks : nlinks + fabric.topology.nnodes] = (
            machine.effective_injection_bandwidth
        )
        self._local_rate = LOCAL_BANDWIDTH_FACTOR * machine.effective_injection_bandwidth
        self._flows: List[Flow] = []
        self._last_update = 0.0
        self._version = 0
        self._dirty = False
        self.ripple = bool(ripple)
        self.ripple_updates = 0

    def _progress(self, now):
        dt = now - self._last_update
        if dt > 0:
            for flow in self._flows:
                flow.remaining -= flow.rate * dt
                if flow.remaining < 0.0:
                    flow.remaining = 0.0
        self._last_update = now

    def _recompute_rates(self):
        flows = self._flows
        if not flows:
            return
        self.ripple_updates += 1
        if len(flows) <= _VECTOR_THRESHOLD:
            rates = dict_waterfill([f.route for f in flows], self._caps, [f.rate for f in flows])
        else:
            lens = np.fromiter((f.route_arr.size for f in flows), dtype=np.intp, count=len(flows))
            links, inv = np.unique(np.concatenate([f.route_arr for f in flows]), return_inverse=True)
            flow_idx = np.repeat(np.arange(len(flows)), lens)
            rates = self._waterfill_core(len(flows), flow_idx, inv, self._caps[links], links.size)
        for flow, rate in zip(flows, rates):
            flow.rate = float(rate)

    def _mark_dirty(self):
        if not self._dirty:
            self._dirty = True
            self.engine.schedule(self.engine.now + RIPPLE_COALESCE, self._recompute_event)

    def _recompute_event(self):
        self._dirty = False
        self._progress(self.engine.now)
        self._harvest()
        self._recompute_rates()
        self._arm()

    def _arm(self):
        self._version += 1
        now = self._last_update
        best = None
        for flow in self._flows:
            if flow.rate > 0.0:
                eta = now + flow.remaining / flow.rate
                if best is None or eta < best:
                    best = eta
        if best is None:
            return
        version = self._version
        self.engine.schedule(max(best, self.engine.now), lambda: self._on_completion(version))

    def _harvest(self):
        now = self.engine.now
        finished = [
            f for f in self._flows if f.remaining <= max(1e-3, f.rate * FINISH_HORIZON)
        ]
        if not finished:
            return False
        self._flows = [f for f in self._flows if f not in finished]
        for flow in finished:
            done = now + flow.prop_latency
            self.engine.schedule(done, lambda f=flow, d=done: f.deliver(d))
        return True

    def _on_completion(self, version):
        if version != self._version:
            return
        self._progress(self.engine.now)
        if not self._harvest():
            self._arm()
        elif self.ripple or not self._flows:
            self._mark_dirty()
        else:
            self._arm()

    def transfer(self, src_rank, dst_rank, nbytes, start, deliver):
        self.messages_sent += 1
        self.bytes_sent += nbytes
        route = self.fabric.route(src_rank, dst_rank)
        if not route:
            done = start + self.fabric.machine.software_overhead + nbytes / self._local_rate
            self.engine.schedule(done, lambda: deliver(done))
            return
        flow = Flow(route, max(1, nbytes), deliver, self.fabric.route_latency(route))

        def start_flow():
            self._progress(self.engine.now)
            self._flows.append(flow)
            if self.ripple or len(self._flows) == 1:
                self._mark_dirty()
            else:
                # Frozen-rate ablation: only the new flow gets a rate.
                flow.rate = float(self._caps[list(flow.route)].min()) / len(self._flows)
                self._arm()

        self.engine.schedule(start, start_flow)


class OraclePacketFlowModel(NetworkModel):
    """Reference packet-flow model over numpy occupancy arrays."""

    name = "packet-flow"
    MULTIPLEX_CHARGE = PacketFlowModel.MULTIPLEX_CHARGE

    def __init__(self, fabric, engine, chunk_size=DEFAULT_CHUNK_SIZE):
        super().__init__(fabric, engine)
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1 byte, got {chunk_size}")
        self.chunk_size = int(chunk_size)
        machine = fabric.machine
        self._active = np.zeros(fabric.nresources, dtype=np.int64)
        nlinks = fabric.topology.nlinks
        self._serial = np.full(fabric.nresources, 1.0 / machine.bandwidth)
        self._serial[nlinks : nlinks + fabric.topology.nnodes] = (
            1.0 / machine.effective_injection_bandwidth
        )
        self._local_rate = LOCAL_BANDWIDTH_FACTOR * machine.effective_injection_bandwidth
        self.packets_sent = 0

    def transfer(self, src_rank, dst_rank, nbytes, start, deliver):
        self.messages_sent += 1
        self.bytes_sent += nbytes
        route = self.fabric.route(src_rank, dst_rank)
        if not route:
            done = start + self.fabric.machine.software_overhead + nbytes / self._local_rate
            self.engine.schedule(done, lambda: deliver(done))
            return
        self.engine.schedule(start, lambda: self._launch(route, nbytes, deliver))

    def _launch(self, route, nbytes, deliver):
        self.engine.check_budget()
        self.packets_sent += max(1, -(-nbytes // self.chunk_size))
        active = self._active
        bottleneck_mult = 1.0
        bottleneck_serial = 0.0
        for resource in route:
            mult = 1.0 + self.MULTIPLEX_CHARGE * active[resource]
            s = self._serial[resource]
            if s * mult > bottleneck_serial * bottleneck_mult:
                bottleneck_serial = s
                bottleneck_mult = mult
        done = (
            self.engine.now
            + nbytes * (bottleneck_serial * bottleneck_mult)
            + self.fabric.route_latency(route)
        )
        for resource in route:
            active[resource] += 1

        def complete():
            for resource in route:
                active[resource] -= 1
            deliver(done)

        self.engine.schedule(done, complete)


ORACLE_MODELS: Dict[str, type] = {
    "flow": OracleFlowModel,
    "packet-flow": OraclePacketFlowModel,
}


class RefReplay(SimReplay):
    """A replay pinned to the reference dispatch loop over ``Op`` objects."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._advance_impl = SimReplay._advance_ref


@contextmanager
def reference_engines():
    """Run every replay on the oracle models and the reference dispatch."""
    with patch.dict(MODEL_CLASSES, ORACLE_MODELS), \
            patch("repro.sim.mpi_replay.SimReplay", RefReplay):
        yield


def load_flows(model: FlowModel, routes) -> FlowModel:
    """Add one 1 MiB flow per route to a production flow model."""
    for route in routes:
        route = tuple(route)
        model._append_flow(route, np.asarray(route, dtype=np.intp), 1 << 20, None, 1e-6)
    return model
