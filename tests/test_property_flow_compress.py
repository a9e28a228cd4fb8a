"""Property-based tests for the max-min water-fill and the compressor."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.machines import CIELITO
from repro.sim.engine import EventEngine
from repro.sim.flow import FlowModel, _Flow
from repro.sim.network import Fabric
from repro.trace.compress import compress_trace, decompress_trace
from repro.trace.events import Op, OpKind, make_compute
from repro.trace.trace import TraceSet

slow = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _flow_model(nranks=8):
    trace = TraceSet("t", "T", [[] for _ in range(nranks)], machine="cielito",
                     ranks_per_node=1)
    fabric = Fabric(trace, CIELITO)
    # Scalar engine: these tests drive the reference water-fill through
    # the scalar-side flow list (`_flows`); the vectorized path keeps
    # its own flow state and is held equivalent by
    # tests/test_vectorized_equivalence.py.
    return FlowModel(fabric, EventEngine(), vectorized=False), fabric


class TestWaterfillProperties:
    @given(data=st.data())
    @slow
    def test_capacity_never_exceeded(self, data):
        model, fabric = _flow_model()
        nflows = data.draw(st.integers(min_value=1, max_value=60))
        pairs = data.draw(
            st.lists(
                st.tuples(st.integers(0, 7), st.integers(0, 7)),
                min_size=nflows, max_size=nflows,
            )
        )
        flows = []
        for src, dst in pairs:
            if src == dst:
                continue
            route = fabric.route(src, dst)
            flows.append(_Flow(route, 1 << 20, lambda t: None, 1e-6))
        if not flows:
            return
        model._flows = flows
        model._recompute_rates()
        # Per-link capacity constraint.
        load = {}
        for flow in flows:
            for link in flow.route:
                load[link] = load.get(link, 0.0) + flow.rate
        for link, total in load.items():
            assert total <= model._caps[link] * (1 + 1e-6)

    @given(data=st.data())
    @slow
    def test_every_flow_gets_positive_rate(self, data):
        model, fabric = _flow_model()
        nflows = data.draw(st.integers(min_value=1, max_value=40))
        flows = []
        for i in range(nflows):
            src, dst = i % 8, (i + 1 + i % 7) % 8
            if src == dst:
                continue
            flows.append(_Flow(fabric.route(src, dst), 1024, lambda t: None, 1e-6))
        if not flows:
            return
        model._flows = flows
        model._recompute_rates()
        for flow in flows:
            assert flow.rate > 0

    def test_single_flow_gets_bottleneck_capacity(self):
        model, fabric = _flow_model()
        route = fabric.route(0, 5)
        flow = _Flow(route, 1 << 20, lambda t: None, 1e-6)
        model._flows = [flow]
        model._recompute_rates()
        assert flow.rate == pytest.approx(float(model._caps[list(route)].min()))

    def test_two_identical_flows_split_evenly(self):
        model, fabric = _flow_model()
        route = fabric.route(0, 5)
        flows = [_Flow(route, 1 << 20, lambda t: None, 1e-6) for _ in range(2)]
        model._flows = flows
        model._recompute_rates()
        cap = float(model._caps[list(route)].min())
        for flow in flows:
            assert flow.rate == pytest.approx(cap / 2, rel=1e-6)


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
