"""Regression tests for the FlowModel water-filling allocators.

The production small (bottleneck-set) water-fill must equal the dict
water-fill oracle (``tests/sim_oracles.py``) bit for bit, memo hit or
miss; the numpy water-fill must agree with both up to rounding whenever
the allocation needs no more refinement levels than its iteration cap.
``flow.py`` must also stay free of unordered iteration: the dict fill
once iterated a raw ``set`` when freezing flows at a level, which
detlint's ``det/unordered-iter`` rule now flags.
"""

from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.detlint import lint_source
from repro.machines import CIELITO
from repro.sim.engine import EventEngine
from repro.sim.flow import _MAX_WATERFILL_ITERATIONS, FlowModel
from repro.sim.network import Fabric
from repro.trace.trace import TraceSet
from tests.sim_oracles import dict_waterfill, load_flows

FLOW_PY = Path(__file__).resolve().parent.parent / "src" / "repro" / "sim" / "flow.py"

#: An 8-node fabric: 2x2x2 torus links plus injection/ejection resources.
FABRIC = Fabric(
    TraceSet("t", "T", [[] for _ in range(8)], machine="cielito", ranks_per_node=1), CIELITO
)


def make_model(caps=None):
    """A production flow model, optionally over synthetic capacities."""
    model = FlowModel(FABRIC, EventEngine())
    if caps is not None:
        model._caps = np.asarray(caps, dtype=float)
        model._caps_list = model._caps.tolist()
        model._wf_memo = {}
    return model


def small_rates(routes, caps=None):
    model = load_flows(make_model(caps), routes)
    model._waterfill_small()
    return list(model._rates)


def vector_rates(routes, caps=None):
    model = load_flows(make_model(caps), routes)
    model._waterfill_vector()
    return list(model._rates)


ROUTES = [[0], [0, 2], [2, 3], [3]]
CAPS = [10.0, 10.0, 4.0, 100.0]

pair_routes = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda p: p[0] != p[1]),
    min_size=1, max_size=60,
).map(lambda pairs: [FABRIC.route(src, dst) for src, dst in pairs])


class TestWaterfillAgreement:
    def test_small_fill_max_min_rates(self):
        # Link 2 (cap 4, 2 flows) bottlenecks flows 1 and 2 at 2.0;
        # flow 0 then gets link 0's remainder, flow 3 link 3's.
        assert small_rates(ROUTES, CAPS) == [8.0, 2.0, 2.0, 98.0]
        assert dict_waterfill(ROUTES, CAPS) == [8.0, 2.0, 2.0, 98.0]

    def test_small_and_vector_fills_agree(self):
        np.testing.assert_allclose(
            small_rates(ROUTES, CAPS), vector_rates(ROUTES, CAPS), rtol=1e-9
        )

    def test_agreement_on_uniform_contention(self):
        # Eight flows over one shared link: everyone gets cap / 8.
        small = small_rates([[0]] * 8, [8.0])
        assert all(abs(rate - 1.0) < 1e-12 for rate in small)
        np.testing.assert_allclose(small, vector_rates([[0]] * 8, [8.0]), rtol=1e-9)

    def test_small_fill_is_permutation_invariant(self):
        forward = small_rates(ROUTES, CAPS)
        backward = small_rates(ROUTES[::-1], CAPS)
        assert forward == backward[::-1]
        assert dict_waterfill(ROUTES[::-1], CAPS) == backward

    @given(routes=pair_routes)
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_fills_match_dict_oracle_across_the_threshold(self, routes):
        """Random traffic on the 8-node fabric, 1-60 flows, so draws land
        on both sides of ``_VECTOR_THRESHOLD``: the small fill equals the
        dict fill bitwise, on a memo miss and on the memo hit after it."""
        oracle = dict_waterfill(routes, make_model()._caps)
        model = load_flows(make_model(), routes)
        model._wf_memo = {}
        model._waterfill_small()
        assert model._rates == oracle
        model._rates = [0.0] * model._n
        model._waterfill_small()
        assert model._rates == oracle
        if len(set(oracle)) <= _MAX_WATERFILL_ITERATIONS:
            np.testing.assert_allclose(vector_rates(routes), oracle, rtol=1e-9)


class TestFlowModuleIsOrderClean:
    def test_detlint_reports_no_unordered_iteration(self):
        diags = lint_source(FLOW_PY.read_text(), "src/repro/sim/flow.py")
        assert [d for d in diags if d.rule == "det/unordered-iter"] == []
