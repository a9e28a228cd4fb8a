"""Property-based tests for the max-min water-fill and the compressor."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.machines import CIELITO
from repro.sim.engine import EventEngine
from repro.sim.flow import FlowModel
from repro.sim.network import Fabric
from repro.trace.compress import compress_trace, decompress_trace
from repro.trace.events import Op, OpKind, make_compute
from repro.trace.trace import TraceSet
from tests.sim_oracles import load_flows

slow = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _fabric(nranks=8):
    trace = TraceSet("t", "T", [[] for _ in range(nranks)], machine="cielito",
                     ranks_per_node=1)
    return Fabric(trace, CIELITO)


def _filled(fabric, routes):
    """Rates from each production fill over the same flows: the ripple
    (which picks the small or the numpy fill by flow count), then each
    fill forced."""
    out = []
    for fill in ("_recompute_event", "_waterfill_small", "_waterfill_vector"):
        model = load_flows(FlowModel(fabric, EventEngine()), routes)
        getattr(model, fill)()
        out.append((model, list(model._rates)))
    return out


class TestWaterfillProperties:
    @given(data=st.data())
    @slow
    def test_capacity_never_exceeded(self, data):
        fabric = _fabric()
        nflows = data.draw(st.integers(min_value=1, max_value=60))
        pairs = data.draw(
            st.lists(
                st.tuples(st.integers(0, 7), st.integers(0, 7)),
                min_size=nflows, max_size=nflows,
            )
        )
        routes = [fabric.route(src, dst) for src, dst in pairs if src != dst]
        if not routes:
            return
        for model, rates in _filled(fabric, routes):
            # Per-link capacity constraint.
            load = {}
            for route, rate in zip(routes, rates):
                for link in route:
                    load[link] = load.get(link, 0.0) + rate
            for link, total in load.items():
                assert total <= model._caps[link] * (1 + 1e-6)

    @given(data=st.data())
    @slow
    def test_every_flow_gets_positive_rate(self, data):
        fabric = _fabric()
        nflows = data.draw(st.integers(min_value=1, max_value=60))
        routes = []
        for i in range(nflows):
            src, dst = i % 8, (i + 1 + i % 7) % 8
            if src == dst:
                continue
            routes.append(fabric.route(src, dst))
        if not routes:
            return
        for _, rates in _filled(fabric, routes):
            assert all(rate > 0 for rate in rates)

    @given(data=st.data())
    @slow
    def test_small_fill_is_max_min_fair(self, data):
        """Every flow crosses a saturated link on which no flow gets a
        higher rate: the defining property of a max-min allocation."""
        fabric = _fabric()
        pairs = data.draw(
            st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=60)
        )
        routes = [fabric.route(src, dst) for src, dst in pairs if src != dst]
        if not routes:
            return
        model, rates = _filled(fabric, routes)[1]
        load, top = {}, {}
        for route, rate in zip(routes, rates):
            for link in route:
                load[link] = load.get(link, 0.0) + rate
                top[link] = max(top.get(link, 0.0), rate)
        for route, rate in zip(routes, rates):
            assert any(
                load[link] >= model._caps[link] * (1 - 1e-9) and rate >= top[link] * (1 - 1e-9)
                for link in route
            )

    def test_single_flow_gets_bottleneck_capacity(self):
        fabric = _fabric()
        route = fabric.route(0, 5)
        for model, rates in _filled(fabric, [route]):
            assert rates == [pytest.approx(float(model._caps[list(route)].min()))]

    def test_two_identical_flows_split_evenly(self):
        fabric = _fabric()
        route = fabric.route(0, 5)
        for model, rates in _filled(fabric, [route, route]):
            cap = float(model._caps[list(route)].min())
            assert rates == [pytest.approx(cap / 2, rel=1e-6)] * 2


def _op_block(rng, tag):
    """A small request-closed op block."""
    kind = rng.integers(0, 3)
    if kind == 0:
        return [make_compute(float(rng.integers(1, 5)) / 1000)]
    if kind == 1:
        return [Op(OpKind.BARRIER)]
    return [
        Op(OpKind.IRECV, peer=1, nbytes=int(rng.integers(1, 4096)), tag=tag, req=900 + tag),
        Op(OpKind.WAIT, req=900 + tag),
    ]


class TestCompressorProperties:
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        repeats=st.integers(min_value=1, max_value=12),
    )
    @slow
    def test_roundtrip_op_count_and_structure(self, seed, repeats):
        rng = np.random.default_rng(seed)
        # rank 0: repeated block + literal tail; rank 1: matching sends.
        block = []
        ntags = int(rng.integers(1, 4))
        for t in range(ntags):
            block.extend(_op_block(rng, t))
        ops0 = block * repeats + [make_compute(0.123456)]
        recv_tags = [op.tag for op in ops0 if op.kind == OpKind.IRECV]
        sizes = {op.tag: op.nbytes for op in ops0 if op.kind == OpKind.IRECV}
        ops1 = [Op(OpKind.SEND, peer=0, nbytes=sizes[t], tag=t) for t in recv_tags]
        ops1 += [Op(OpKind.BARRIER)] * sum(1 for op in ops0 if op.kind == OpKind.BARRIER)
        trace = TraceSet("t", "T", [ops0, ops1])
        trace.validate()
        compressed = compress_trace(trace)
        restored = decompress_trace(compressed)
        restored.validate()
        assert restored.op_count() == trace.op_count()
        for s1, s2 in zip(trace.ranks, restored.ranks):
            k1 = [(op.kind, op.peer, op.nbytes, op.tag) for op in s1]
            k2 = [(op.kind, op.peer, op.nbytes, op.tag) for op in s2]
            assert k1 == k2

    @given(repeats=st.integers(min_value=3, max_value=30))
    @slow
    def test_repetition_compresses(self, repeats):
        block = [Op(OpKind.BARRIER), make_compute(0.001)]
        trace = TraceSet("t", "T", [list(block) * repeats])
        compressed = compress_trace(trace)
        assert compressed.compression_ratio >= repeats / 2
