"""One replay per trace: the query calls share the trace model.

``model_trace`` (default grid), ``analyze_trace``,
``explore_design_space`` and ``EnhancedMFACT.predict_trace`` all read
:func:`repro.sensitivity.analysis.trace_model`, a small memo keyed by
trace content and machine configuration.  These tests pin when it hits,
when it must miss, and that a hit returns what a fresh replay would.
"""

import sys
import threading

import numpy as np
import pytest

from repro import obs
from repro.core.enhanced_mfact import EnhancedMFACT
from repro.core.pipeline import measure_trace
from repro.machines import CIELITO, EDISON
from repro.mfact import ConfigGrid, LogicalClockReplay, explore_design_space, model_trace
from repro.sensitivity import analysis
from repro.sensitivity.analysis import (
    TRACE_MODEL_MEMO_SIZE,
    analyze_graph,
    analyze_trace,
    record_graph,
    trace_model,
)
from repro.sensitivity.graph import GraphRecorder
from repro.stats.logistic import LogisticModel
from repro.workloads import generate_npb, synthesize_ground_truth

GRID = {
    "bandwidth_factors": (0.5, 1.0, 2.0),
    "latency_factors": (1.0, 4.0),
    "compute_factors": (1.0, 2.0),
}


@pytest.fixture(autouse=True)
def _clean():
    """Each test starts with an empty memo and a fresh, enabled registry."""
    analysis._memo.clear()
    obs.reset()
    obs.enable()
    yield
    obs.disable()
    obs.reset()
    analysis._memo.clear()


def counters():
    c = obs.snapshot().counters
    return (
        c.get("repro_mfact_replays_total", 0),
        c.get('repro_trace_model_total{status="hit"}', 0),
        c.get('repro_trace_model_total{status="miss"}', 0),
    )


def cg(seed=3, nranks=8, machine=CIELITO):
    trace = generate_npb("CG", nranks, machine, seed=seed, compute_per_iter=0.002,
                         ranks_per_node=2)
    synthesize_ground_truth(trace, machine, seed=seed)
    return trace


def enhanced():
    model = LogisticModel(
        coef=np.array([0.0, 1.0]), feature_names=("lat_tolerance",),
        log_likelihood=0.0, n_obs=1, converged=True,
    )
    return EnhancedMFACT(model=model, selected=("lat_tolerance",))


def fresh(trace, machine):
    """An unmemoized sweep replay with a recorder: (graph, report)."""
    recorder = GraphRecorder(trace.nranks, machine)
    report = LogicalClockReplay(trace, machine, recorder=recorder).run()
    return recorder.finish(), report


class TestOneReplay:
    def test_all_queries_share_one_replay(self):
        trace = cg()
        report = model_trace(trace, CIELITO)
        sens = analyze_trace(trace, CIELITO)
        grid = explore_design_space(trace, CIELITO, **GRID)
        enhanced().predict_trace(trace, CIELITO)
        # predict_trace reads the model twice (report and sensitivity).
        assert counters() == (1, 4, 1)
        assert float(grid.total_time[grid.baseline_index]) == pytest.approx(
            report.baseline_total_time, rel=1e-9
        )
        assert sens.baseline_total == grid.total_time[grid.baseline_index]

    def test_hit_equals_fresh_replay(self):
        trace = cg()
        graph, report = fresh(trace, CIELITO)
        model_trace(trace, CIELITO)
        shared_graph, shared_report = trace_model(trace, CIELITO)
        assert counters()[1:] == (1, 1)
        assert np.array_equal(shared_report.total_time, report.total_time)
        assert shared_report.classification == report.classification
        assert analyze_graph(shared_graph, CIELITO).to_json() == analyze_graph(
            graph, CIELITO
        ).to_json()

    def test_measure_trace_replays_once_without_the_memo(self):
        trace = cg()
        measure_trace(trace, engines=())
        measure_trace(trace, engines=())
        assert counters() == (2, 0, 0)
        assert len(analysis._memo) == 0


class TestMisses:
    def test_in_place_restamp_misses(self):
        trace = cg(seed=3)
        before = analyze_trace(trace, CIELITO).to_json()
        synthesize_ground_truth(trace, CIELITO, seed=4)  # rewrites op.duration in place
        after = analyze_trace(trace, CIELITO)
        assert counters() == (2, 0, 2)
        graph, report = fresh(trace, CIELITO)
        expected = analyze_graph(graph, CIELITO, trace_name=trace.name,
                                 machine_name=trace.machine)
        assert after.to_json() == expected.to_json()
        assert after.to_json() != before
        assert np.array_equal(model_trace(trace, CIELITO).total_time, report.total_time)

    def test_other_machine_misses(self):
        trace = cg()
        model_trace(trace, CIELITO)
        model_trace(trace, EDISON)
        assert counters() == (2, 0, 2)
        assert trace_model(trace, EDISON)[1].machine == EDISON.name

    def test_explicit_grid_bypasses_the_memo(self):
        trace = cg()
        model_trace(trace, CIELITO, grid=ConfigGrid.sweep(CIELITO))
        model_trace(trace, CIELITO, grid=ConfigGrid.single(CIELITO))
        assert counters() == (2, 0, 0)
        assert len(analysis._memo) == 0

    def test_record_graph_always_replays(self):
        trace = cg()
        record_graph(trace, CIELITO)
        record_graph(trace, CIELITO)
        assert counters() == (2, 0, 0)


class TestMemoBounds:
    def test_memo_keeps_the_most_recent_models(self):
        traces = [cg(seed=s, nranks=4) for s in range(TRACE_MODEL_MEMO_SIZE + 2)]
        for trace in traces:
            model_trace(trace, CIELITO)
            assert len(analysis._memo) <= TRACE_MODEL_MEMO_SIZE
        assert len(analysis._memo) == TRACE_MODEL_MEMO_SIZE
        model_trace(traces[-1], CIELITO)  # newest: still held
        model_trace(traces[0], CIELITO)  # oldest: evicted
        n = len(traces)
        assert counters() == (n + 1, 1, n + 1)
        assert len(analysis._memo) == TRACE_MODEL_MEMO_SIZE

    def test_miss_makes_room_before_replaying(self, monkeypatch):
        # A miss evicts before it replays, so the evicted graph is freed
        # before the new replay allocates.
        seen = []
        real = analysis.record_graph

        def spy(trace, machine):
            seen.append(len(analysis._memo))
            return real(trace, machine)

        monkeypatch.setattr(analysis, "record_graph", spy)
        for seed in range(TRACE_MODEL_MEMO_SIZE + 1):
            model_trace(cg(seed=seed, nranks=4), CIELITO)
        assert seen == list(range(TRACE_MODEL_MEMO_SIZE)) + [TRACE_MODEL_MEMO_SIZE - 1]

    def test_threads_get_the_same_answer(self):
        # More threads than cores, two traces interleaved and a short
        # switch interval: a lost update or a torn memo entry would hand
        # some thread the other trace's model or overfill the memo.
        traces = [cg(seed=3), cg(seed=5)]
        expected = [
            analyze_graph(fresh(t, CIELITO)[0], CIELITO, trace_name=t.name,
                          machine_name=t.machine).to_json()
            for t in traces
        ]
        results = {}

        def query(i):
            results[i] = analyze_trace(traces[i % 2], CIELITO).to_json()

        threads = [threading.Thread(target=query, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == {i: expected[i % 2] for i in range(8)}
        assert len(analysis._memo) <= TRACE_MODEL_MEMO_SIZE
