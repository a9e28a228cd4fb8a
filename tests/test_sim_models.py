"""Simulator tests: event engine, fabric, and the three network models."""

import gc
import weakref

import numpy as np
import pytest

from repro import obs
from repro.machines import CIELITO, EDISON, HOPPER
from repro.machines.presets import get_machine
from repro.sim.mpi_replay import ReplayShared
from repro.sim import (
    EventEngine,
    Fabric,
    FlowModel,
    PacketFlowModel,
    PacketModel,
    SimReplay,
    UnsupportedTraceError,
    expand_collectives,
    simulate_trace,
)
from repro.trace.events import Op, OpKind, make_compute
from repro.trace.trace import TraceSet
from repro.workloads.suite import build_trace, mini_corpus_specs


class TestEventEngine:
    def test_time_order(self):
        engine = EventEngine()
        seen = []
        engine.schedule(2.0, lambda: seen.append(2))
        engine.schedule(1.0, lambda: seen.append(1))
        engine.schedule(3.0, lambda: seen.append(3))
        engine.run()
        assert seen == [1, 2, 3]

    def test_fifo_for_ties(self):
        engine = EventEngine()
        seen = []
        engine.schedule(1.0, lambda: seen.append("a"))
        engine.schedule(1.0, lambda: seen.append("b"))
        engine.run()
        assert seen == ["a", "b"]

    def test_now_advances(self):
        engine = EventEngine()
        times = []
        engine.schedule(0.5, lambda: times.append(engine.now))
        engine.schedule(1.5, lambda: times.append(engine.now))
        engine.run()
        assert times == [0.5, 1.5]

    def test_past_scheduling_rejected(self):
        engine = EventEngine()

        def bad():
            engine.schedule(0.0, lambda: None)

        engine.schedule(1.0, bad)
        with pytest.raises(ValueError):
            engine.run()

    def test_cascading_events(self):
        engine = EventEngine()
        seen = []

        def first():
            seen.append("first")
            engine.schedule(engine.now + 1.0, lambda: seen.append("second"))

        engine.schedule(1.0, first)
        engine.run()
        assert seen == ["first", "second"]

    def test_event_budget(self):
        engine = EventEngine()

        def loop():
            engine.schedule(engine.now + 1.0, loop)

        engine.schedule(0.0, loop)
        with pytest.raises(RuntimeError, match="budget"):
            engine.run(max_events=100)


def make_trace(nranks=4, nbytes=65536, rpn=2, **kwargs):
    ranks = []
    for r in range(nranks):
        ranks.append([
            make_compute(0.001),
            Op(OpKind.IRECV, peer=(r - 1) % nranks, nbytes=nbytes, tag=1, req=1),
            Op(OpKind.ISEND, peer=(r + 1) % nranks, nbytes=nbytes, tag=1, req=2),
            Op(OpKind.WAIT, req=1),
            Op(OpKind.WAIT, req=2),
            Op(OpKind.ALLREDUCE, nbytes=64),
        ])
    return TraceSet("ring", "RING", ranks, machine="cielito", ranks_per_node=rpn, **kwargs)


class TestFabric:
    def test_routes_between_ranks(self):
        fabric = Fabric(make_trace(8, rpn=2), CIELITO)
        route = fabric.route(0, 7)
        assert len(route) >= 3  # injection + fabric + ejection

    def test_same_node_empty_route(self):
        fabric = Fabric(make_trace(8, rpn=2), CIELITO)
        assert fabric.route(0, 1) == ()

    def test_route_latency_exceeds_alpha(self):
        fabric = Fabric(make_trace(8, rpn=1), CIELITO)
        route = fabric.route(0, 5)
        assert fabric.route_latency(route) >= CIELITO.latency

    def test_scatter_mapping_honored(self):
        t = make_trace(16, rpn=1)
        t.metadata["mapping"] = "scatter"
        t.metadata["mapping_seed"] = 3
        f1 = Fabric(t, CIELITO)
        t.metadata["mapping"] = "block"
        f2 = Fabric(t, CIELITO)
        assert f1.mapping != f2.mapping

    def test_mapping_length_checked(self):
        with pytest.raises(ValueError):
            Fabric(make_trace(8), CIELITO, mapping=[0, 1])


class TestExpandCollectives:
    def test_no_collectives_left(self):
        flat = expand_collectives(make_trace())
        for stream in flat.ranks:
            assert all(not op.is_collective for op in stream)

    def test_expanded_trace_validates(self):
        expand_collectives(make_trace()).validate()

    def test_p2p_ops_preserved(self):
        original = make_trace()
        flat = expand_collectives(original)
        orig_msgs = original.message_count()
        assert flat.message_count() > orig_msgs  # collective traffic added

    def test_unique_tags_per_instance(self):
        ranks = [[Op(OpKind.BARRIER)], [Op(OpKind.BARRIER)]]
        two = TraceSet("t", "T", [r + [Op(OpKind.BARRIER)] for r in ranks])
        flat = expand_collectives(two)
        tags = {op.tag for stream in flat.ranks for op in stream if op.is_p2p}
        assert len(tags) == 2

    def test_subcomm_expansion(self):
        ranks = [
            [Op(OpKind.ALLREDUCE, nbytes=64, comm=1)],
            [Op(OpKind.ALLREDUCE, nbytes=64, comm=1)],
            [],
        ]
        trace = TraceSet("t", "T", ranks, comms={1: (0, 1)})
        flat = expand_collectives(trace)
        flat.validate()
        assert not flat.ranks[2]


MODELS = ["packet", "flow", "packet-flow"]


class TestModelsAgreeUncontended:
    @pytest.mark.parametrize("model", MODELS)
    def test_single_message_time(self, model):
        nbytes = 1 << 20
        ranks = [
            [Op(OpKind.SEND, peer=1, nbytes=nbytes, tag=1)],
            [Op(OpKind.RECV, peer=0, nbytes=nbytes, tag=1)],
        ]
        trace = TraceSet("t", "T", ranks, machine="cielito", ranks_per_node=1)
        res = simulate_trace(trace, CIELITO, model)
        hockney = CIELITO.latency + nbytes / CIELITO.bandwidth
        assert res.total_time == pytest.approx(hockney, rel=0.25)

    @pytest.mark.parametrize("model", MODELS)
    def test_ring_runs(self, model):
        res = simulate_trace(make_trace(), CIELITO, model)
        assert res.total_time > 0.001
        assert res.model == model
        assert res.events > 0

    def test_models_mutually_close_on_light_traffic(self):
        totals = [simulate_trace(make_trace(), CIELITO, m).total_time for m in MODELS]
        assert max(totals) / min(totals) < 1.1

    @pytest.mark.parametrize("machine", [CIELITO, EDISON, HOPPER])
    def test_all_machines(self, machine):
        res = simulate_trace(make_trace(), machine, "packet-flow")
        assert res.total_time > 0


class TestContention:
    def _hotspot(self, n=8, nbytes=1 << 20):
        ranks = []
        for r in range(n):
            if r == 0:
                ops = [Op(OpKind.IRECV, peer=s, nbytes=nbytes, tag=1, req=s) for s in range(1, n)]
                ops += [Op(OpKind.WAIT, req=s) for s in range(1, n)]
            else:
                ops = [Op(OpKind.SEND, peer=0, nbytes=nbytes, tag=1)]
            ranks.append(ops)
        return TraceSet("hot", "HOT", ranks, machine="cielito", ranks_per_node=1)

    @pytest.mark.parametrize("model", MODELS)
    def test_incast_serializes(self, model):
        n, nbytes = 8, 1 << 20
        res = simulate_trace(self._hotspot(n, nbytes), CIELITO, model)
        serial = (n - 1) * nbytes / CIELITO.bandwidth
        assert res.total_time >= 0.5 * serial

    def test_packet_exclusive_reservation_slowest_or_equal(self):
        totals = {m: simulate_trace(self._hotspot(), CIELITO, m).total_time for m in MODELS}
        assert totals["packet"] >= 0.9 * totals["flow"]

    def test_node_nic_shared(self):
        # Two ranks on one node sending cross-machine share injection.
        nbytes = 4 << 20
        ranks = [
            [Op(OpKind.SEND, peer=2, nbytes=nbytes, tag=1)],
            [Op(OpKind.SEND, peer=3, nbytes=nbytes, tag=2)],
            [Op(OpKind.RECV, peer=0, nbytes=nbytes, tag=1)],
            [Op(OpKind.RECV, peer=1, nbytes=nbytes, tag=2)],
        ]
        shared = TraceSet("t", "T", ranks, machine="cielito", ranks_per_node=2)
        apart = TraceSet("t", "T", ranks, machine="cielito", ranks_per_node=1)
        t_shared = simulate_trace(shared, CIELITO, "flow").total_time
        t_apart = simulate_trace(apart, CIELITO, "flow").total_time
        assert t_shared > 1.5 * t_apart


class TestEngineLimitations:
    def test_packet_rejects_threads(self):
        trace = make_trace(uses_threads=True)
        with pytest.raises(UnsupportedTraceError):
            simulate_trace(trace, CIELITO, "packet")

    def test_flow_rejects_threads_and_split(self):
        with pytest.raises(UnsupportedTraceError):
            simulate_trace(make_trace(uses_threads=True), CIELITO, "flow")
        with pytest.raises(UnsupportedTraceError):
            simulate_trace(make_trace(uses_comm_split=True), CIELITO, "flow")

    def test_packet_allows_split(self):
        res = simulate_trace(make_trace(uses_comm_split=True), CIELITO, "packet")
        assert res.total_time > 0

    def test_packet_flow_handles_everything(self):
        res = simulate_trace(
            make_trace(uses_threads=True, uses_comm_split=True), CIELITO, "packet-flow"
        )
        assert res.total_time > 0

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="unknown model"):
            simulate_trace(make_trace(), CIELITO, "quantum")


class TestFlowModelInternals:
    def test_ripple_counter_increments(self):
        replay = SimReplay(make_trace(), CIELITO, "flow")
        replay.run()
        assert replay.model.ripple_updates > 0

    def test_frozen_rate_ablation_runs(self):
        replay = SimReplay(make_trace(), CIELITO, "flow", ripple=False)
        result = replay.run()
        assert result.total_time > 0

    def test_max_min_fairness_two_flows(self):
        # Two flows sharing one bottleneck finish in ~2x the solo time.
        nbytes = 8 << 20
        ranks = [
            [Op(OpKind.SEND, peer=1, nbytes=nbytes, tag=1)],
            [Op(OpKind.RECV, peer=0, nbytes=nbytes, tag=1),
             Op(OpKind.RECV, peer=2, nbytes=nbytes, tag=2)],
            [Op(OpKind.SEND, peer=1, nbytes=nbytes, tag=2)],
        ]
        trace = TraceSet("t", "T", ranks, machine="cielito", ranks_per_node=1)
        res = simulate_trace(trace, CIELITO, "flow")
        solo = nbytes / CIELITO.bandwidth
        assert res.total_time == pytest.approx(2 * solo, rel=0.3)


class TestPacketModelInternals:
    def test_packet_count(self):
        nbytes = 10 * 1024
        ranks = [
            [Op(OpKind.SEND, peer=1, nbytes=nbytes, tag=1)],
            [Op(OpKind.RECV, peer=0, nbytes=nbytes, tag=1)],
        ]
        trace = TraceSet("t", "T", ranks, machine="cielito", ranks_per_node=1)
        replay = SimReplay(trace, CIELITO, "packet")
        replay.run()
        assert replay.model.packets_sent == 10  # 10 KiB / 1 KiB packets

    def test_custom_packet_size(self):
        trace = make_trace()
        replay = SimReplay(trace, CIELITO, "packet", packet_size=4096)
        replay.run()
        small = SimReplay(trace, CIELITO, "packet", packet_size=512)
        small.run()
        assert small.model.packets_sent > replay.model.packets_sent

    def test_invalid_packet_size(self):
        with pytest.raises(ValueError):
            SimReplay(make_trace(), CIELITO, "packet", packet_size=0)


class TestSimResultAccounting:
    def test_comm_and_compute_tracked(self):
        res = simulate_trace(make_trace(), CIELITO, "packet-flow")
        assert res.compute_time == pytest.approx(0.001, rel=0.05)
        assert res.comm_time > 0

    @pytest.mark.parametrize("model", MODELS)
    def test_times_are_builtin_floats(self, model):
        """No numpy scalar leaks out of an engine into a SimResult."""
        res = simulate_trace(make_trace(), CIELITO, model)
        assert type(res.total_time) is float
        assert type(res.comm_time) is float

    def test_messages_and_bytes(self):
        res = simulate_trace(make_trace(nranks=4, nbytes=1000), CIELITO, "packet-flow")
        assert res.messages >= 4
        assert res.bytes_sent >= 4000


class TestReplayLifetime:
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("shared", [False, True], ids=["own-prep", "shared-prep"])
    def test_finished_replay_freed_by_refcount(self, model, shared):
        """A finished replay holds no reference cycle, so dropping the
        last reference frees it without the cyclic GC (the fast dispatch
        is picked with shared precomputation)."""
        trace = make_trace()
        prep = ReplayShared(trace, CIELITO) if shared else None
        gc.collect()
        gc.disable()
        try:
            replay = SimReplay(trace, CIELITO, model, shared=prep)
            replay.run()
            ref = weakref.ref(replay)
            del replay
            assert ref() is None
        finally:
            gc.enable()


class TestOneDispatch:
    """A replay without shared precomputation compiles its own op streams
    and runs the same dispatch ``measure_trace`` does; only collecting
    metrics selects the reference loop."""

    @pytest.fixture(scope="class")
    def traces(self):
        return [build_trace(spec) for spec in mini_corpus_specs()[:4]]

    @staticmethod
    def outcome(replay):
        try:
            res = replay.run()
        except UnsupportedTraceError:
            return ("unsupported",)
        return (
            float(res.total_time).hex(), float(res.comm_time).hex(),
            float(res.compute_time).hex(), res.events, res.messages, res.bytes_sent,
        )

    @staticmethod
    def replay(trace, model, shared=None):
        try:
            return SimReplay(trace, get_machine(trace.machine), model, shared=shared)
        except UnsupportedTraceError:
            return None

    @pytest.mark.parametrize("model", MODELS)
    def test_own_prep_runs_compiled_dispatch_bitwise(self, traces, model, metrics_off):
        for trace in traces:
            own = self.replay(trace, model)
            shared = self.replay(trace, model, ReplayShared(trace, get_machine(trace.machine)))
            if own is None or shared is None:
                assert own is shared is None
                continue
            assert own._advance_impl is SimReplay._advance_fast
            assert shared._advance_impl is SimReplay._advance_fast
            assert self.outcome(own) == self.outcome(shared)

    def test_metrics_select_the_reference_loop(self, traces):
        with obs.collect_task():
            assert self.replay(traces[0], "packet")._advance_impl is SimReplay._advance_ref
