"""Hybrid packet-flow network model (SST/Macro 6.1 style).

Messages are chunked into coarse packets (1-8 KiB recommended; default
4 KiB).  Unlike the packet model, channels are *multiplexed*: a packet
competing with ``k`` others on its bottleneck resource "samples" the
congestion and is charged ``k+1`` times the unloaded serialization
delay, instead of waiting for exclusive reservations.  This removes the
packet model's serialization overestimate while avoiding the flow
model's ripple updates; cost stays proportional to the number of
packets but with a single event per message.

Every chunk of a message samples the same bottleneck (the sample is
taken once at launch), so the per-chunk charge sums to a closed form:
``nbytes * serialization * multiplier``.  Both the scalar reference
path and the fast path charge that closed form; the fast path
additionally caches routes, per-route serialization factors and
propagation latencies per (src, dst) pair and keeps occupancy counters
in plain Python lists — routes are a handful of hops, far below any
numpy break-even point, so the congestion sample is a short loop over
unboxed floats tracking the running maximum charge (same strict-``>``
first-maximum rule as the scalar scan).  The differential equivalence
suite holds the two paths byte-identical.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.sim.network import Fabric, NetworkModel
from repro.util.units import KIB

__all__ = ["PacketFlowModel", "DEFAULT_CHUNK_SIZE"]

#: Default coarse-packet payload in bytes (SST recommends 1-8 KiB).
DEFAULT_CHUNK_SIZE = 4 * KIB

LOCAL_BANDWIDTH_FACTOR = 4.0


class PacketFlowModel(NetworkModel):
    """Coarse packets with sampled congestion and channel multiplexing."""

    name = "packet-flow"

    #: Fraction of the sampled multiplexing that is charged.  The sample
    #: is an instantaneous worst-case (competitors also drain and free
    #: the channel while our chunks flow), so charging the full
    #: multiplier for the whole message would overestimate contention
    #: relative to the per-packet arbitration real SST/Macro performs.
    MULTIPLEX_CHARGE = 0.5

    def __init__(self, fabric: Fabric, engine, chunk_size: int = DEFAULT_CHUNK_SIZE,
                 vectorized: Optional[bool] = None):
        super().__init__(fabric, engine, vectorized)
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
        #: Same-node sends are ~40% of traffic on the corpus topologies;
        #: the fast path reads the overhead off the instance instead of
        #: chasing fabric.machine per message.
        self._soft_overhead = machine.software_overhead
        self.packets_sent = 0
        #: Fast-path twins of the occupancy/serialization arrays as
        #: plain Python lists (unboxed index + float arithmetic).
        self._active_list: List[int] = [0] * fabric.nresources
        self._serial_list: List[float] = self._serial.tolist()
        #: (src, dst) -> (route, per-hop serialization, latency);
        #: serialization is None for same-node (empty) routes.
        self._route_cache: Dict[Tuple[int, int], Tuple] = {}

    def _route_of(self, src_rank: int, dst_rank: int):
        key = (src_rank, dst_rank)
        hit = self._route_cache.get(key)
        if hit is None:
            route = self.fabric.route(src_rank, dst_rank)
            if route:
                serial = self._serial_list
                hit = (
                    route,
                    [serial[r] for r in route],
                    self.fabric.route_latency(route),
                )
            else:
                hit = (route, None, 0.0)
            self._route_cache[key] = hit
        return hit

    def transfer(self, src_rank, dst_rank, nbytes, start, deliver):
        self.messages_sent += 1
        self.bytes_sent += nbytes
        if self.vectorized:
            # Inlined route-cache probe (see _route_of, kept for the
            # cold path and tests).
            key = (src_rank, dst_rank)
            hit = self._route_cache.get(key)
            if hit is None:
                hit = self._route_of(src_rank, dst_rank)
            route, serial_route, latency = hit
            if not route:
                done = start + self._soft_overhead + nbytes / self._local_rate
                self.engine.schedule(done, partial(deliver, done))
                return
            self.engine.schedule(
                start,
                partial(self._launch_vec, route, serial_route, latency, nbytes, deliver),
            )
            return
        route = self.fabric.route(src_rank, dst_rank)
        if not route:
            done = start + self.fabric.machine.software_overhead + nbytes / self._local_rate
            self.engine.schedule(done, lambda: deliver(done))
            return
        self.engine.schedule(start, lambda: self._launch(route, nbytes, deliver))

    def _launch(self, route, nbytes, deliver):
        """One event per message; congestion sampled on the scalar path."""
        self.engine.check_budget()
        now = self.engine.now
        self.packets_sent += max(1, -(-nbytes // self.chunk_size))
        active = self._active
        serial = self._serial
        route_arr = list(route)
        # Sample congestion on each resource: concurrent messages plus us
        # share the channel, so every chunk is charged the multiplexed
        # serialization of the most congested resource on the route —
        # which sums to the closed form below.
        bottleneck_mult = 1.0
        bottleneck_serial = 0.0
        for resource in route_arr:
            mult = 1.0 + self.MULTIPLEX_CHARGE * active[resource]
            s = serial[resource]
            if s * mult > bottleneck_serial * bottleneck_mult:
                bottleneck_serial = s
                bottleneck_mult = mult
        done = now + nbytes * (bottleneck_serial * bottleneck_mult) + self.fabric.route_latency(
            route
        )
        for resource in route_arr:
            active[resource] += 1

        def complete():
            for resource in route_arr:
                active[resource] -= 1
            deliver(done)
        self.engine.schedule(done, complete)

    def _launch_vec(self, route, serial_route, latency, nbytes, deliver):
        """Congestion sample over the cached route, unboxed.

        The running maximum of the ``serial * multiplier`` product uses
        the same strict-``>`` first-maximum rule and the same IEEE
        products as the scalar scan, so ``done`` is bit-identical.  No
        ``check_budget`` here: the launch is O(route hops) with no
        per-packet fan-out, and the engine's drain loop already polls
        the wall deadline between events.
        """
        engine = self.engine
        packets = -(-nbytes // self.chunk_size)
        self.packets_sent += packets if packets else 1
        active = self._active_list
        charge = self.MULTIPLEX_CHARGE
        best = 0.0
        for pos, resource in enumerate(route):
            eff = serial_route[pos] * (1.0 + charge * active[resource])
            if eff > best:
                best = eff
        done = engine._now + nbytes * best + latency
        for resource in route:
            active[resource] += 1

        def complete():
            for resource in route:
                active[resource] -= 1
            deliver(done)
        engine.schedule(done, complete)
