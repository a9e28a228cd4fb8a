"""Packet trains against the per-packet reference model.

:class:`~repro.sim.packet.PacketModel` keeps one queue entry per message
in flight (a train that pushes each packet's successor when it fires).
The oracle below is the model it replaced: every packet of a message
scheduled up front as its own closure.  Both must pop the same
(time, sequence) order, so every :class:`SimResult` field and every
budget abort must agree bit for bit, under both dispatch loops.  The
five ``cold-corpus`` traces are also pinned to the values every engine
gave before the engine lost its batched drain and full packets were
walked inline.
"""

import heapq
from unittest.mock import patch

import pytest

from repro import obs
from repro.machines import CIELITO
from repro.machines.presets import get_machine
from repro.sim import EventEngine, Fabric, PacketModel, SimReplay
from repro.sim.mpi_replay import MODEL_CLASSES, ReplayShared, simulate_trace
from repro.sim.network import NetworkModel, UnsupportedTraceError
from repro.sim.packet import DEFAULT_PACKET_SIZE, LOCAL_BANDWIDTH_FACTOR
from repro.trace.events import Op, OpKind
from repro.trace.trace import TraceSet
from repro.util.budget import Budget, EventBudgetExceeded, WallClockExceeded
from repro.util.rng import DEFAULT_SEED
from repro.workloads.suite import build_trace, mini_corpus_specs
from studybench.workloads import PACKET_APPS, corpus_subset


#: Production replays must take the compiled dispatch.
pytestmark = pytest.mark.usefixtures("metrics_off")

class OraclePacketModel(NetworkModel):
    """Reference packet model: one closure and one heap entry per packet."""

    name = "packet"

    def __init__(self, fabric, engine, packet_size=DEFAULT_PACKET_SIZE):
        super().__init__(fabric, engine)
        self.packet_size = packet_size
        self.free = [0.0] * fabric.nresources
        machine = fabric.machine
        self.inj_serial = 1.0 / machine.effective_injection_bandwidth
        self.link_serial = 1.0 / machine.bandwidth

    def check_trace(self, trace):
        if trace.uses_threads:
            raise UnsupportedTraceError(trace.name)

    def transfer(self, src_rank, dst_rank, nbytes, start, deliver):
        self.messages_sent += 1
        self.bytes_sent += nbytes
        route = self.fabric.route(src_rank, dst_rank)
        machine = self.fabric.machine
        if not route:
            rate = LOCAL_BANDWIDTH_FACTOR * machine.effective_injection_bandwidth
            done = start + machine.software_overhead + nbytes / rate
            self.engine.schedule(done, lambda: deliver(done))
            return
        self.engine.check_budget()
        size_full = self.packet_size
        npackets = max(1, -(-nbytes // size_full))
        state = {"remaining": npackets, "last": start}
        for idx in range(npackets):
            size = (
                size_full if idx < npackets - 1 or nbytes % size_full == 0
                else nbytes - (npackets - 1) * size_full
            )
            self.engine.schedule(
                start + idx * size * self.inj_serial,
                lambda size=size: self._walk(route, size, state, deliver),
            )

    def _walk(self, route, size, state, deliver):
        machine = self.fabric.machine
        t = self.engine.now
        for pos, resource in enumerate(route):
            depart = max(t, self.free[resource]) + size * (
                self.inj_serial if pos == 0 else self.link_serial
            )
            self.free[resource] = depart
            if pos == 0:
                t = depart
            elif pos == len(route) - 1:
                t = depart + machine.latency
            else:
                t = depart + machine.hop_latency
        state["remaining"] -= 1
        state["last"] = max(state["last"], t)
        if state["remaining"] == 0:
            done = state["last"]
            self.engine.schedule(done, lambda: deliver(done))


def outcome(model_cls, trace, machine, compiled, budget=None, engine="packet"):
    """Every SimResult field (floats as hex) or the budget abort's fields.

    ``compiled`` replays through the measurement path: compiled op
    streams over a :class:`ReplayShared`, as ``measure_trace`` runs it.
    Otherwise the replay runs with metrics on, which selects the
    reference dispatch loop over ``Op`` objects.
    """
    shared = ReplayShared(trace, machine) if compiled else None
    with patch.dict(MODEL_CLASSES, {"packet": model_cls}), obs.collect_task(not compiled):
        try:
            res = simulate_trace(trace, machine, engine, budget=budget, shared=shared)
        except UnsupportedTraceError:
            return ("unsupported",)
        except EventBudgetExceeded as exc:
            return ("aborted", exc.events_executed, float(exc.sim_time_reached).hex())
    return (
        float(res.total_time).hex(), float(res.comm_time).hex(),
        float(res.compute_time).hex(), res.events, res.messages, res.bytes_sent,
    )


#: The 24-spec mini corpus (8 ranks) and every corpus app at 16 ranks.
MINI = mini_corpus_specs(count=24)
SUBSET = corpus_subset(DEFAULT_SEED)


@pytest.fixture(scope="module")
def traces():
    return {spec.name: build_trace(spec) for spec in MINI + SUBSET}


#: The two dispatch loops: ``scalar`` is the reference op loop (metrics
#: on), ``batched`` the compiled streams of the measurement path.  The
#: ids date from when the measurement path also drained events in
#: same-timestamp batches; they are kept so test ids stay stable.
DRAINS = pytest.mark.parametrize("compiled", [False, True], ids=["scalar", "batched"])

#: ``SimResult`` (total_time, comm_time, events, messages, bytes_sent)
#: of the five ``cold-corpus`` traces on every engine, recorded before
#: the single-drain engine and the inline train walk; ``None`` where
#: the engine rejects the trace.
PINNED = {
    "packet": {
        "bigfft.16.hopper.i101": ("0x1.ad4861747d82fp-9", "0x1.c5da45854dd40p-10", 39488, 1024, 39322112),
        "bt.16.cielito.i081": ("0x1.a6867ba75c44bp-2", "0x1.263e7d44ffdd2p-5", 155328, 1344, 157299712),
        "cr.16.edison.i109": ("0x1.2c4f40bb3e518p-7", "0x1.44ddaf6501eb7p-8", 76576, 320, 77894992),
        "ft.16.hopper.i029": ("0x1.b0feb009b211ap-8", "0x1.bc3b06cb4d5d5p-9", 86912, 640, 88083968),
        "is.16.hopper.i017": ("0x1.db0cf35fab43fp-9", "0x1.0f7ae0b66658ep-9", 42368, 832, 42336768),
    },
    "flow": {
        "bigfft.16.hopper.i101": None,
        "bt.16.cielito.i081": ("0x1.a7890c412cb86p-2", "0x1.2e517a800a580p-5", 5144, 1344, 157299712),
        "cr.16.edison.i109": None,
        "ft.16.hopper.i029": None,
        "is.16.hopper.i017": None,
    },
    "packet-flow": {
        "bigfft.16.hopper.i101": ("0x1.81dabea0d2e52p-9", "0x1.6ef991f44d0eap-10", 2048, 1024, 39322112),
        "bt.16.cielito.i081": ("0x1.9f7cabeb31015p-2", "0x1.dbe0e43cb4237p-6", 2688, 1344, 157299712),
        "cr.16.edison.i109": ("0x1.f891d1b8e789ep-8", "0x1.c9a374f85c9e5p-9", 640, 320, 77894992),
        "ft.16.hopper.i029": ("0x1.706b5f9859bfap-8", "0x1.3b1c3dc671cd8p-9", 1280, 640, 88083968),
        "is.16.hopper.i017": ("0x1.6b9015e406764p-9", "0x1.401cee3d5ff80p-10", 1664, 832, 42336768),
    },
}


class TestTrainsMatchOracle:
    @DRAINS
    @pytest.mark.parametrize("spec", MINI + SUBSET, ids=lambda s: s.name)
    def test_sim_result_bitwise(self, traces, spec, compiled):
        trace = traces[spec.name]
        machine = get_machine(trace.machine)
        expected = outcome(OraclePacketModel, trace, machine, compiled)
        assert outcome(PacketModel, trace, machine, compiled) == expected

    @DRAINS
    def test_event_budget_abort_mid_message(self, compiled):
        """A 64 KiB message is 64 packet events; stop after 30 of them."""
        nbytes = 64 * 1024
        ranks = [
            [Op(OpKind.SEND, peer=1, nbytes=nbytes, tag=1)],
            [Op(OpKind.RECV, peer=0, nbytes=nbytes, tag=1)],
        ]
        trace = TraceSet("t", "T", ranks, machine="cielito", ranks_per_node=1)
        budget = Budget(events=30)
        expected = outcome(OraclePacketModel, trace, CIELITO, compiled, budget)
        assert expected[:2] == ("aborted", 31)
        assert outcome(PacketModel, trace, CIELITO, compiled, budget) == expected

    @DRAINS
    def test_event_budget_abort_on_corpus_trace(self, traces, compiled):
        trace = traces[SUBSET[0].name]
        machine = get_machine(trace.machine)
        events = outcome(PacketModel, trace, machine, compiled)[3]
        for cap in (events // 3, events // 2 + 7):
            budget = Budget(events=cap)
            expected = outcome(OraclePacketModel, trace, machine, compiled, budget)
            assert expected[:2] == ("aborted", cap + 1)
            assert outcome(PacketModel, trace, machine, compiled, budget) == expected


class TestPinnedCorpusResults:
    @DRAINS
    @pytest.mark.parametrize("engine", sorted(PINNED))
    @pytest.mark.parametrize("spec", corpus_subset(DEFAULT_SEED, PACKET_APPS), ids=lambda s: s.name)
    def test_sim_result_equals_pinned(self, traces, spec, engine, compiled):
        trace = traces[spec.name]
        got = outcome(PacketModel, trace, get_machine(trace.machine), compiled, engine=engine)
        pinned = PINNED[engine][spec.name]
        if pinned is None:
            assert got == ("unsupported",)
        else:
            total, comm, _compute, events, messages, nbytes = got
            assert (total, comm, events, messages, nbytes) == pinned


def two_node_model():
    ranks = [[Op(OpKind.SEND, peer=1, nbytes=1, tag=1)], [Op(OpKind.RECV, peer=0, nbytes=1, tag=1)]]
    fabric = Fabric(TraceSet("t", "T", ranks, machine="cielito", ranks_per_node=1), CIELITO)
    return fabric, EventEngine()


def popped_keys(cls, nbytes, packet_size=DEFAULT_PACKET_SIZE):
    """Run one ``nbytes`` transfer on ``cls``; return the (time, sequence)
    key of every entry the engine pops, in order, and the deliveries."""
    fabric, engine = two_node_model()
    keys = []
    heappop = heapq.heappop

    def record_pop(queue):
        entry = heappop(queue)
        keys.append(entry[:2])
        return entry

    delivered = []
    model = cls(fabric, engine, packet_size)
    model.transfer(0, 1, nbytes, 0.0, delivered.append)
    with patch("heapq.heappop", record_pop):
        engine.run()
    return keys, delivered, model


class TestEntryTimes:
    @pytest.mark.parametrize("nbytes", [0, 1, 1024, 2560, 10 * 1024, 10 * 1024 + 3])
    def test_train_keys_equal_up_front_keys(self, nbytes):
        """The engine pops the same (time, sequence) keys, in the same
        order, from a train as from the oracle's up-front schedule, and
        the message is delivered once, at the same time."""
        keys, delivered, _ = popped_keys(PacketModel, nbytes)
        oracle_keys, oracle_delivered, _ = popped_keys(OraclePacketModel, nbytes)
        assert (keys, delivered) == (oracle_keys, oracle_delivered)
        assert len(delivered) == 1

    @pytest.mark.parametrize("packet_size", [1000, 1500])
    def test_odd_packet_size_keys_equal_up_front_keys(self, packet_size):
        """With a packet size that is not a power of two, ``(k * P) * s``
        and ``k * (P * s)`` round differently, so this pins the order of
        the entry-time multiply as well as the per-hop products."""
        nbytes = 40 * packet_size + 7
        got = popped_keys(PacketModel, nbytes, packet_size)[:2]
        assert got == popped_keys(OraclePacketModel, nbytes, packet_size)[:2]

    def test_remainder_packet_enters_with_packet_one(self):
        """2.5 KiB is two full packets and a 512-byte tail; the tail
        enters at ``2 * 512 * inj_serial``, the same time as packet 1."""
        keys, _, model = popped_keys(PacketModel, 2560)
        (p0, s0), (p1, s1), (tail, s2), _delivery = keys
        assert p0 == 0.0
        assert tail == p1 == 1024 * model._inj_serial
        assert s0 < s1 < s2  # packet 1 dispatches first at the shared time

    def test_full_packet_fires_last_after_an_early_tail(self):
        """``4 KiB + 100`` bytes: the 100-byte tail enters at
        ``4 * 100 * inj_serial``, before full packets 1-3, so full
        packet 3 is the last to fire and must deliver, exactly once, at
        the latest arrival."""
        nbytes = 4 * 1024 + 100
        keys, delivered, model = popped_keys(PacketModel, nbytes)
        inj = model._inj_serial
        (p0, s0), (tail, s4), (p1, s1), (p2, s2), (p3, s3), (done, _) = keys
        assert (p0, p1, p2, p3) == (0.0, 1024 * inj, 2 * 1024 * inj, 3 * 1024 * inj)
        assert p0 < tail == 4 * 100 * inj < p1
        assert s0 < s1 < s2 < s3 < s4
        assert delivered == [done]
        assert popped_keys(OraclePacketModel, nbytes)[1] == delivered

    @pytest.mark.parametrize("nbytes", [1, 2560])
    def test_transfer_starting_in_the_past_raises(self, nbytes):
        """Conservative execution: a message cannot enter the network
        before the current virtual time, single packet or train."""
        fabric, engine = two_node_model()
        model = PacketModel(fabric, engine)
        engine.schedule(1.0, lambda: model.transfer(0, 1, nbytes, 0.5, lambda when: None))
        with pytest.raises(ValueError, match="before current time"):
            engine.run()


class TestWallBudget:
    def test_huge_single_send_still_hits_wall_deadline(self):
        """One 64 MiB send is 65536 packets from a single transfer; a
        0 s wall budget must still stop it (per-transfer check)."""
        nbytes = 64 << 20
        ranks = [
            [Op(OpKind.SEND, peer=1, nbytes=nbytes, tag=1)],
            [Op(OpKind.RECV, peer=0, nbytes=nbytes, tag=1)],
        ]
        trace = TraceSet("t", "T", ranks, machine="cielito", ranks_per_node=1)
        replay = SimReplay(trace, CIELITO, "packet")
        with pytest.raises(WallClockExceeded):
            replay.run(budget=Budget(wall_seconds=0.0))
        assert replay.engine.events_processed < 1024
