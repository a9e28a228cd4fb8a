"""Packet trains against the per-packet reference model.

:class:`~repro.sim.packet.PacketModel` keeps one queue entry per message
in flight (a train that pushes each packet's successor when it fires).
The oracle below is the model it replaced: every packet of a message
scheduled up front as its own closure.  Both must pop the same
(time, sequence) order, so every :class:`SimResult` field and every
budget abort must agree bit for bit, on both engine drains.
"""

from unittest.mock import patch

import pytest

from repro.machines import CIELITO
from repro.machines.presets import get_machine
from repro.sim import EventEngine, Fabric, PacketModel, SimReplay
from repro.sim.mpi_replay import MODEL_CLASSES, simulate_trace
from repro.sim.network import NetworkModel, UnsupportedTraceError
from repro.sim.packet import DEFAULT_PACKET_SIZE, LOCAL_BANDWIDTH_FACTOR
from repro.trace.events import Op, OpKind
from repro.trace.trace import TraceSet
from repro.util.budget import Budget, EventBudgetExceeded, WallClockExceeded
from repro.util.rng import DEFAULT_SEED
from repro.workloads.suite import build_trace, mini_corpus_specs
from studybench.workloads import corpus_subset


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


def outcome(model_cls, trace, machine, vectorized, budget=None):
    """Every SimResult field (floats as hex) or the budget abort's fields."""
    with patch.dict(MODEL_CLASSES, {"packet": model_cls}):
        try:
            res = simulate_trace(trace, machine, "packet", vectorized=vectorized, budget=budget)
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


DRAINS = pytest.mark.parametrize("vectorized", [False, True], ids=["scalar", "batched"])


class TestTrainsMatchOracle:
    @DRAINS
    @pytest.mark.parametrize("spec", MINI + SUBSET, ids=lambda s: s.name)
    def test_sim_result_bitwise(self, traces, spec, vectorized):
        trace = traces[spec.name]
        machine = get_machine(trace.machine)
        expected = outcome(OraclePacketModel, trace, machine, vectorized)
        assert outcome(PacketModel, trace, machine, vectorized) == expected

    @DRAINS
    def test_event_budget_abort_mid_message(self, vectorized):
        """A 64 KiB message is 64 packet events; stop after 30 of them."""
        nbytes = 64 * 1024
        ranks = [
            [Op(OpKind.SEND, peer=1, nbytes=nbytes, tag=1)],
            [Op(OpKind.RECV, peer=0, nbytes=nbytes, tag=1)],
        ]
        trace = TraceSet("t", "T", ranks, machine="cielito", ranks_per_node=1)
        budget = Budget(events=30)
        expected = outcome(OraclePacketModel, trace, CIELITO, vectorized, budget)
        assert expected[:2] == ("aborted", 31)
        assert outcome(PacketModel, trace, CIELITO, vectorized, budget) == expected

    @DRAINS
    def test_event_budget_abort_on_corpus_trace(self, traces, vectorized):
        trace = traces[SUBSET[0].name]
        machine = get_machine(trace.machine)
        events = outcome(PacketModel, trace, machine, vectorized)[3]
        for cap in (events // 3, events // 2 + 7):
            budget = Budget(events=cap)
            expected = outcome(OraclePacketModel, trace, machine, vectorized, budget)
            assert expected[:2] == ("aborted", cap + 1)
            assert outcome(PacketModel, trace, machine, vectorized, budget) == expected


def two_node_model():
    ranks = [[Op(OpKind.SEND, peer=1, nbytes=1, tag=1)], [Op(OpKind.RECV, peer=0, nbytes=1, tag=1)]]
    fabric = Fabric(TraceSet("t", "T", ranks, machine="cielito", ranks_per_node=1), CIELITO)
    return fabric, EventEngine(vectorized=False)


class TestEntryTimes:
    @pytest.mark.parametrize("nbytes", [0, 1, 1024, 2560, 10 * 1024, 10 * 1024 + 3])
    def test_train_keys_equal_up_front_keys(self, nbytes):
        """The (time, sequence) keys a train pushes are the ones the
        oracle schedules up front, packet for packet, and the message
        is delivered at the same time.  ``schedule`` enqueues through
        ``push``, so recording ``push`` sees every entry of both."""
        runs = {}
        for cls in (OraclePacketModel, PacketModel):
            fabric, engine = two_node_model()
            keys = []
            push = engine.push

            def record_push(when, seq, cb, keys=keys, push=push):
                keys.append((when, seq))
                push(when, seq, cb)

            engine.push = record_push
            delivered = []
            cls(fabric, engine).transfer(0, 1, nbytes, 0.0, delivered.append)
            engine.run()
            runs[cls] = sorted(keys), delivered, engine.events_processed
        assert runs[PacketModel] == runs[OraclePacketModel]

    def test_remainder_packet_enters_with_packet_one(self):
        """2.5 KiB is two full packets and a 512-byte tail; the tail
        enters at ``2 * 512 * inj_serial``, the same time as packet 1."""
        fabric, engine = two_node_model()
        model = PacketModel(fabric, engine)
        pushed = []
        push = engine.push
        engine.push = lambda when, seq, cb: (pushed.append((when, seq)), push(when, seq, cb))
        model.transfer(0, 1, 2560, 0.0, lambda when: None)
        engine.run()
        (p0, s0), (tail, s2), (p1, s1), _delivery = pushed
        assert p0 == 0.0
        assert tail == p1 == 1024 * model._inj_serial
        assert s0 < s1 < s2  # packet 1 dispatches first at the shared time
        assert engine.events_processed == 3 + 1  # three packets and the delivery

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
