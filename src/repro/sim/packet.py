"""Packet-level network model (SST/Macro 3.0 style).

Messages are segmented into fixed-size packets (default 1 KiB).  Each
packet is routed individually and requires the *exclusive* reservation
of channel bandwidth on every resource along its route — the behaviour
the paper notes "overestimates the serialization latency".  Simulation
cost is proportional to the number of packets delivered, which is what
makes this the most expensive model.

Each packet is one engine event at its network-entry time; the packet
then walks its route store-and-forward, advancing every resource's
next-free time by its full serialization delay.

A message in flight is one :class:`_Train`.  A message of ``n``
packets of size ``P`` puts packet ``k < n - 1`` on the network at
``start + k * P * inj_serial``.  ``transfer`` reserves the ``n``
sequence numbers that scheduling every packet up front would take
(:meth:`~repro.sim.engine.EventEngine.reserve`) and pushes just two
entries with :meth:`~repro.sim.engine.EventEngine.push`: packet 0 and
the last packet.  When full packet ``k`` fires it walks its route
inline, from its own entry time and with per-hop full-packet
serialization times computed once per route, and puts packet ``k + 1``
straight onto the engine's heap under its reserved number.  Full-packet
entry times strictly increase, so each successor is queued before the
clock reaches it (which is why it can skip ``push``'s past-time guard),
and the engine pops the same (time, sequence) order — one callback per
packet — as if all ``n`` had been scheduled at once.  Event counts and
every simulated time are unchanged; the queue holds at most two entries
per message instead of ``n``.

**Last-packet entry rule.**  When ``nbytes`` is not a multiple of ``P``
the last packet carries the remainder ``r = nbytes - (n - 1) * P`` and
enters at ``start + (n - 1) * r * inj_serial``: spaced by its own size,
not by ``P``, so it can enter alongside or ahead of earlier packets (a
2.5 KiB message's 512-byte tail enters together with packet 1, and runs
after it by sequence).  This is the historical rule and study records
depend on it, so it stays.
"""

from __future__ import annotations

from functools import partial
from heapq import heappush
from typing import Dict, List, Tuple

from repro.sim.network import Fabric, NetworkModel, UnsupportedTraceError
from repro.trace.trace import TraceSet
from repro.util.units import KIB

__all__ = ["PacketModel", "DEFAULT_PACKET_SIZE"]

#: Default packet payload in bytes.
DEFAULT_PACKET_SIZE = 1 * KIB

#: Intra-node transfers move at this multiple of the NIC bandwidth.
LOCAL_BANDWIDTH_FACTOR = 4.0

#: One route hop: (resource, serialization seconds, latency added after
#: the hop).  Serialization is per byte in a route's ``hops`` and per full
#: packet in its ``full`` twin.  Injection adds no latency, fabric links
#: the switch hop latency, and ejection the endpoint latency.
Hop = Tuple[int, float, float]

#: A route's hops, per byte and per full packet.
Route = Tuple[Tuple[Hop, ...], Tuple[Hop, ...]]


class PacketModel(NetworkModel):
    """Store-and-forward packet simulation with exclusive channels."""

    name = "packet"

    def __init__(self, fabric: Fabric, engine, packet_size: int = DEFAULT_PACKET_SIZE):
        super().__init__(fabric, engine)
        if packet_size < 1:
            raise ValueError(f"packet_size must be >= 1 byte, got {packet_size}")
        self.packet_size = int(packet_size)
        #: Next-free virtual time of every resource.
        self._free: List[float] = [0.0] * fabric.nresources
        machine = fabric.machine
        self._inj_serial = 1.0 / machine.effective_injection_bandwidth
        self._link_serial = 1.0 / machine.bandwidth
        self._hop_latency = machine.hop_latency
        self._endpoint_latency = machine.latency
        self._local_rate = LOCAL_BANDWIDTH_FACTOR * machine.effective_injection_bandwidth
        self.packets_sent = 0
        self._routes: Dict[Tuple[int, int], Route] = {}
        #: The engine's heap, which trains push their successors onto
        #: directly (the engine never rebinds it).
        self._queue = engine._queue

    def check_trace(self, trace: TraceSet) -> None:
        """SST/Macro 3.0's packet engine cannot replay multi-threaded traces."""
        if trace.uses_threads:
            raise UnsupportedTraceError(
                f"packet model cannot replay multi-threaded trace {trace.name!r}"
            )

    def _route_of(self, src_rank: int, dst_rank: int) -> Route:
        route = self.fabric.route(src_rank, dst_rank)
        last = len(route) - 1
        hops = tuple(
            (resource, self._inj_serial, 0.0) if pos == 0
            else (resource, self._link_serial,
                  self._endpoint_latency if pos == last else self._hop_latency)
            for pos, resource in enumerate(route)
        )
        size = self.packet_size
        full = tuple((resource, size * per_byte, latency) for resource, per_byte, latency in hops)
        cached = self._routes[(src_rank, dst_rank)] = (hops, full)
        return cached

    def transfer(self, src_rank, dst_rank, nbytes, start, deliver):
        self.messages_sent += 1
        self.bytes_sent += nbytes
        route = self._routes.get((src_rank, dst_rank))
        if route is None:
            route = self._route_of(src_rank, dst_rank)
        hops, full = route
        engine = self.engine
        if not hops:
            done = start + self.fabric.machine.software_overhead + nbytes / self._local_rate
            engine.schedule(done, partial(deliver, done))
            return
        engine.check_budget()
        size = self.packet_size
        npackets = max(1, -(-nbytes // size))
        self.packets_sent += npackets
        last = npackets - 1
        tail = nbytes - last * size if nbytes % size else size
        base = engine.reserve(npackets)
        train = _Train(self, hops, full, start, base, last, tail, deliver)
        if last:
            engine.push(start, base, train)
        engine.push(start + last * tail * self._inj_serial, base + last, train.last_packet)


class _Train:
    """One message in flight through the packet model.

    Calling the train fires its next full packet; :meth:`last_packet`
    is the separate entry ``transfer`` pushes for the final packet.  The
    train delivers the message once every packet has arrived — after
    whichever packet fires last, which can be a full one, because the
    last packet may enter early (see the module doc).
    """

    __slots__ = (
        "model", "hops", "full", "start", "base", "last", "tail", "next", "at",
        "remaining", "arrival", "deliver",
    )

    def __init__(self, model: PacketModel, hops, full, start: float, base: int, last: int,
                 tail: int, deliver):
        self.model = model
        self.hops = hops
        self.full = full
        self.start = start
        self.base = base
        self.last = last
        self.tail = tail
        self.next = 0
        self.at = start
        self.remaining = last + 1
        self.arrival = start
        self.deliver = deliver

    def __call__(self) -> None:
        """Fire full packet ``next`` at its entry time ``at``; queue packet
        ``next + 1`` unless it is the last, else deliver if this was the
        final packet to fire."""
        model = self.model
        free = model._free
        t = self.at
        for resource, serial, latency in self.full:
            f = free[resource]
            depart = (f if f > t else t) + serial
            free[resource] = depart
            t = depart + latency
        if t > self.arrival:
            self.arrival = t
        self.remaining -= 1
        k = self.next + 1
        if k < self.last:
            self.next = k
            at = self.at = self.start + k * model.packet_size * model._inj_serial
            heappush(model._queue, (at, self.base + k, self))
        elif not self.remaining:
            done = self.arrival
            model.engine.schedule(done, partial(self.deliver, done))

    def last_packet(self) -> None:
        """Fire the last packet, whose size is the remainder (see module doc)."""
        model = self.model
        free = model._free
        size = self.tail
        t = model.engine.now
        for resource, per_byte, latency in self.hops:
            f = free[resource]
            depart = (f if f > t else t) + size * per_byte
            free[resource] = depart
            t = depart + latency
        if t > self.arrival:
            self.arrival = t
        self.remaining -= 1
        if not self.remaining:
            done = self.arrival
            model.engine.schedule(done, partial(self.deliver, done))
