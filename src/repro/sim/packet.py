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
entries: packet 0 and the last packet.  When full packet ``k`` fires it
walks its route and pushes packet ``k + 1`` under its reserved number
(:meth:`~repro.sim.engine.EventEngine.push`).  Full-packet entry times
strictly increase, so each successor is queued before the clock reaches
it, and the engine pops the same (time, sequence) order — one callback
per packet — as if all ``n`` had been scheduled at once.  Event counts
and every simulated time are unchanged; the queue holds at most two
entries per message instead of ``n``.

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
from typing import Dict, List, Tuple

from repro.sim.network import Fabric, NetworkModel, UnsupportedTraceError
from repro.trace.trace import TraceSet
from repro.util.units import KIB

__all__ = ["PacketModel", "DEFAULT_PACKET_SIZE"]

#: Default packet payload in bytes.
DEFAULT_PACKET_SIZE = 1 * KIB

#: Intra-node transfers move at this multiple of the NIC bandwidth.
LOCAL_BANDWIDTH_FACTOR = 4.0

#: One route hop: (resource, serialization seconds per byte, latency
#: added after the hop).  Injection adds no latency, fabric links the
#: switch hop latency, and ejection the endpoint latency.
Hop = Tuple[int, float, float]


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
        self._hops: Dict[Tuple[int, int], Tuple[Hop, ...]] = {}

    def check_trace(self, trace: TraceSet) -> None:
        """SST/Macro 3.0's packet engine cannot replay multi-threaded traces."""
        if trace.uses_threads:
            raise UnsupportedTraceError(
                f"packet model cannot replay multi-threaded trace {trace.name!r}"
            )

    def _hops_of(self, src_rank: int, dst_rank: int) -> Tuple[Hop, ...]:
        route = self.fabric.route(src_rank, dst_rank)
        last = len(route) - 1
        hops = self._hops[(src_rank, dst_rank)] = tuple(
            (resource, self._inj_serial, 0.0) if pos == 0
            else (resource, self._link_serial,
                  self._endpoint_latency if pos == last else self._hop_latency)
            for pos, resource in enumerate(route)
        )
        return hops

    def transfer(self, src_rank, dst_rank, nbytes, start, deliver):
        self.messages_sent += 1
        self.bytes_sent += nbytes
        hops = self._hops.get((src_rank, dst_rank))
        if hops is None:
            hops = self._hops_of(src_rank, dst_rank)
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
        train = _Train(self, hops, start, base, last, tail, deliver)
        if last:
            engine.push(start, base, train)
        engine.push(start + last * tail * self._inj_serial, base + last, train.last_packet)


class _Train:
    """One message in flight through the packet model.

    Calling the train fires its next full packet; :meth:`last_packet`
    is the separate entry ``transfer`` pushes for the final packet.  The
    train delivers the message once every packet has arrived.
    """

    __slots__ = (
        "model", "hops", "start", "base", "last", "tail", "next", "remaining",
        "arrival", "deliver",
    )

    def __init__(self, model: PacketModel, hops, start: float, base: int, last: int,
                 tail: int, deliver):
        self.model = model
        self.hops = hops
        self.start = start
        self.base = base
        self.last = last
        self.tail = tail
        self.next = 0
        self.remaining = last + 1
        self.arrival = start
        self.deliver = deliver

    def __call__(self) -> None:
        """Fire full packet ``next``; push packet ``next + 1`` unless it is the last."""
        model = self.model
        size = model.packet_size
        self._fly(size)
        k = self.next + 1
        if k < self.last:
            self.next = k
            model.engine.push(self.start + k * size * model._inj_serial, self.base + k, self)

    def last_packet(self) -> None:
        """Fire the last packet, whose size is the remainder (see module doc)."""
        self._fly(self.tail)

    def _fly(self, size: int) -> None:
        """Walk one ``size``-byte packet along the route from the current time."""
        model = self.model
        free = model._free
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
