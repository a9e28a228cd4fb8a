"""Sensitivity package tests: recorder fidelity, tolerance analytics,
degenerate traces (Hypothesis), deadlock diagnostics and the
``cheapest_meeting`` boundary regression."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machines import CIELITO, EDISON
from repro.mfact import ConfigGrid, ReplayDeadlockError, model_trace
from repro.mfact.logical_clock import LogicalClockReplay
from repro.mfact.whatif import DesignPoint, DesignSpaceResult
from repro.sensitivity import (
    LAT_TOLERANCE_CAP,
    analyze_graph,
    analyze_trace,
    bandwidth_curve,
    latency_curve,
    latency_tolerance,
    record_graph,
)
from repro.trace.events import Op, OpKind, make_compute
from repro.trace.features import SENSITIVITY_FEATURE_NAMES
from repro.trace.trace import TraceSet
from repro.workloads import generate_npb, synthesize_ground_truth
from repro.workloads.synthesis import inject_defect


def pingpong_trace(rounds=3, nbytes=4096):
    ranks = [[], []]
    for _ in range(rounds):
        ranks[0].append(make_compute(0.002))
        ranks[0].append(Op(OpKind.SEND, peer=1, nbytes=nbytes, tag=0))
        ranks[0].append(Op(OpKind.RECV, peer=1, nbytes=nbytes, tag=1))
        ranks[1].append(make_compute(0.001))
        ranks[1].append(Op(OpKind.RECV, peer=0, nbytes=nbytes, tag=0))
        ranks[1].append(Op(OpKind.SEND, peer=0, nbytes=nbytes, tag=1))
    return TraceSet("pingpong", "PP", ranks)


def npb_trace(app="CG", seed=3):
    trace = generate_npb(app, 8, CIELITO, seed=seed, compute_per_iter=0.002,
                         ranks_per_node=2)
    synthesize_ground_truth(trace, CIELITO, seed=seed)
    return trace


class TestGraphFidelity:
    def test_baseline_matches_replay(self):
        trace = pingpong_trace()
        graph, report = record_graph(trace, CIELITO)
        tape = float(graph.evaluate(
            CIELITO.latency, CIELITO.bandwidth, CIELITO.compute_scale)[0])
        assert tape == pytest.approx(report.baseline_total_time, rel=1e-9)

    def test_offbaseline_matches_fresh_replay(self):
        trace = npb_trace()
        graph, _ = record_graph(trace, CIELITO)
        for lat_f, bw_f in ((4.0, 1.0), (1.0, 0.25), (8.0, 0.5)):
            lat = CIELITO.latency * lat_f
            bw = CIELITO.bandwidth * bw_f
            grid = ConfigGrid([lat], [bw], [CIELITO.compute_scale])
            replayed = float(
                LogicalClockReplay(trace, CIELITO, grid).run().total_time[0]
            )
            tape = float(graph.evaluate(lat, bw, CIELITO.compute_scale)[0])
            assert tape == pytest.approx(replayed, rel=1e-9)

    def test_batch_evaluation_shape_and_consistency(self):
        graph, _ = record_graph(pingpong_trace(), CIELITO)
        lats = CIELITO.latency * np.array([1.0, 2.0, 4.0])
        totals = graph.evaluate(lats, CIELITO.bandwidth, CIELITO.compute_scale)
        assert totals.shape == (3,)
        singles = [
            float(graph.evaluate(l, CIELITO.bandwidth, CIELITO.compute_scale)[0])
            for l in lats
        ]
        assert np.allclose(totals, singles, rtol=0, atol=0)
        # Total time is nondecreasing in latency.
        assert totals[0] <= totals[1] <= totals[2]

    def test_critical_path_decomposition_covers_total(self):
        graph, report = record_graph(npb_trace(), CIELITO)
        cp = graph.critical_path()
        assert cp.total == pytest.approx(report.baseline_total_time, rel=1e-9)
        parts = cp.compute_time + cp.latency_time + cp.bandwidth_time + cp.overhead_time
        assert parts == pytest.approx(cp.total, rel=1e-9)
        assert cp.n_edges > 0

    def test_recorder_works_on_collective_apps(self):
        # MG mixes collectives with p2p; IS is alltoall-heavy.
        for app, machine in (("MG", CIELITO), ("IS", EDISON)):
            trace = generate_npb(app, 8, machine, seed=5, compute_per_iter=0.001,
                                 ranks_per_node=2)
            synthesize_ground_truth(trace, machine, seed=5)
            graph, report = record_graph(trace, machine)
            tape = float(graph.evaluate(
                machine.latency, machine.bandwidth, machine.compute_scale)[0])
            assert tape == pytest.approx(report.baseline_total_time, rel=1e-9)


class TestToleranceAnalytics:
    def test_latency_curve_anchored_at_baseline(self):
        graph, report = record_graph(npb_trace(), CIELITO)
        curve = latency_curve(graph, CIELITO)
        assert curve[0][0] == 1.0
        assert curve[0][1] == pytest.approx(report.baseline_total_time, rel=1e-9)
        totals = [t for _, t in curve]
        assert totals == sorted(totals)

    def test_bandwidth_curve_monotone_decreasing_in_bw(self):
        graph, _ = record_graph(npb_trace(), CIELITO)
        curve = bandwidth_curve(graph, CIELITO)
        totals = [t for _, t in curve]  # factors ascend: times descend
        assert totals == sorted(totals, reverse=True)

    def test_tolerance_threshold_brackets_budget(self):
        trace = pingpong_trace(rounds=5, nbytes=64)  # latency-sensitive
        graph, _ = record_graph(trace, CIELITO)
        tol = latency_tolerance(graph, CIELITO, tolerance=0.05)
        assert math.isfinite(tol) and tol >= 1.0
        t0 = float(graph.evaluate(
            CIELITO.latency, CIELITO.bandwidth, CIELITO.compute_scale)[0])
        at = float(graph.evaluate(
            CIELITO.latency * tol * 0.99, CIELITO.bandwidth, CIELITO.compute_scale)[0])
        above = float(graph.evaluate(
            CIELITO.latency * tol * 1.01, CIELITO.bandwidth, CIELITO.compute_scale)[0])
        assert at <= 1.05 * t0 * (1 + 1e-6)
        assert above >= 1.05 * t0 * (1 - 5e-3)

    def test_report_features_match_names(self):
        report = analyze_trace(npb_trace(), CIELITO)
        features = report.features()
        assert set(features) == set(SENSITIVITY_FEATURE_NAMES)
        assert all(math.isfinite(v) for v in features.values())
        assert 0.0 <= features["lat_tolerance"] <= math.log10(LAT_TOLERANCE_CAP)
        assert features["bw_sensitivity"] >= 0.0
        assert 0.0 <= features["critical_path_frac"] <= 1.0

    def test_report_json_roundtrips(self):
        import json

        report = analyze_trace(pingpong_trace(), CIELITO)
        blob = json.loads(json.dumps(report.to_json()))
        assert blob["trace"] == "pingpong"
        assert blob["graph"]["nodes"] == report.n_nodes
        assert len(blob["lat_curve"]) == len(report.lat_curve)


class TestDegenerateTraces:
    def test_pure_compute_unbounded_tolerance(self):
        ranks = [[make_compute(0.5)], [make_compute(0.3)]]
        trace = TraceSet("compute-only", "X", ranks)
        graph, _ = record_graph(trace, CIELITO)
        assert latency_tolerance(graph, CIELITO) == math.inf
        report = analyze_graph(graph, CIELITO, trace_name="compute-only")
        assert report.bw_sensitivity == 0.0
        assert report.critical_path_frac == pytest.approx(0.0, abs=1e-12)
        assert report.features()["lat_tolerance"] == math.log10(LAT_TOLERANCE_CAP)
        assert report.to_json()["lat_tolerance"] is None

    def test_empty_trace(self):
        trace = TraceSet("empty", "X", [[], []])
        report = analyze_trace(trace, CIELITO)
        assert math.isinf(report.lat_tolerance)
        assert all(math.isfinite(v) for v in report.features().values())

    # Satellite: no division by zero or NaN ever reaches the design
    # matrix, for any zero-communication trace shape.
    @settings(max_examples=25, deadline=None)
    @given(
        durations=st.lists(
            st.lists(
                st.floats(min_value=0.0, max_value=10.0,
                          allow_nan=False, allow_infinity=False),
                max_size=4,
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_pure_compute_features_always_finite(self, durations):
        ranks = [[make_compute(d) for d in rank] for rank in durations]
        trace = TraceSet("hyp", "X", ranks)
        report = analyze_trace(trace, CIELITO)
        features = report.features()
        assert set(features) == set(SENSITIVITY_FEATURE_NAMES)
        for value in features.values():
            assert math.isfinite(value)
        assert math.isinf(report.lat_tolerance)
        assert report.bw_sensitivity == 0.0


class TestDeadlockDiagnostics:
    def test_manual_cycle_names_blocked_channels(self):
        ranks = [
            [Op(OpKind.RECV, peer=1, nbytes=8, tag=7)],
            [Op(OpKind.RECV, peer=0, nbytes=8, tag=9)],
        ]
        with pytest.raises(ReplayDeadlockError) as err:
            model_trace(TraceSet("cycle", "T", ranks), CIELITO)
        message = str(err.value)
        assert "rank 0 in blocking recv on channel (src=1, dst=0, tag=7)" in message
        assert "rank 1 in blocking recv on channel (src=0, dst=1, tag=9)" in message
        assert "oldest unmatched channel" in message
        assert "posted receive(s)" in message

    def test_injected_deadlock_reports_ranks_and_channel(self):
        trace = generate_npb("CG", 4, CIELITO, seed=11, compute_per_iter=0.001,
                             ranks_per_node=2)
        bad = inject_defect(trace, "deadlock", seed=11)
        with pytest.raises(ReplayDeadlockError) as err:
            model_trace(bad, CIELITO)
        message = str(err.value)
        assert "deadlocked with ranks" in message
        assert "blocking recv on channel (src=" in message
        assert "oldest unmatched channel (src=" in message

    def test_injected_unmatched_recv_counts_posted_slots(self):
        trace = generate_npb("EP", 2, CIELITO, seed=4, compute_per_iter=0.001,
                             ranks_per_node=2)
        bad = inject_defect(trace, "unmatched-recv", seed=4)
        with pytest.raises(ReplayDeadlockError) as err:
            model_trace(bad, CIELITO)
        message = str(err.value)
        assert "0 queued send(s), 1 posted receive(s)" in message


class TestCheapestMeetingBoundary:
    """Regression: ties and float-equality at the target used to pick
    an arbitrary (dict-order dependent) point or drop exact hits."""

    @staticmethod
    def result(points, totals):
        return DesignSpaceResult(
            machine=CIELITO,
            points=points,
            total_time=np.asarray(totals, dtype=float),
            baseline_index=0,
        )

    def test_cost_tie_keeps_first_in_grid_order(self):
        baseline = DesignPoint(1.0, 1.0, 1.0)
        a = DesignPoint(2.0, 1.0, 1.0)  # cost 2, meets target
        b = DesignPoint(1.0, 2.0, 1.0)  # cost 2, also meets target
        res = self.result([baseline, a, b], [2.0, 1.0, 0.9])
        assert res.cheapest_meeting(2.0) == a

    def test_float_noise_equal_speedup_qualifies(self):
        baseline = DesignPoint(1.0, 1.0, 1.0)
        # Speedup = 2.0 / 1.0000000000000002 < 2.0 by one ulp.
        point = DesignPoint(2.0, 1.0, 1.0)
        res = self.result([baseline, point], [2.0, 1.0000000000000002])
        assert res.cheapest_meeting(2.0) == point

    def test_float_noise_cheaper_cost_does_not_steal_the_tie(self):
        baseline = DesignPoint(1.0, 1.0, 1.0)
        first = DesignPoint(2.0, 1.0, 1.0)  # cost 2.0
        # Cost differs only by float noise: 1.9999999999999998.
        second = DesignPoint(0.9999999999999999, 2.0, 1.0)
        res = self.result([baseline, first, second], [2.0, 0.5, 0.5])
        assert res.cheapest_meeting(2.0) == first

    def test_genuinely_cheaper_point_still_wins(self):
        baseline = DesignPoint(1.0, 1.0, 1.0)
        expensive = DesignPoint(4.0, 2.0, 1.0)
        cheap = DesignPoint(2.0, 1.0, 1.0)
        res = self.result([baseline, expensive, cheap], [2.0, 0.8, 0.9])
        assert res.cheapest_meeting(2.0) == cheap

    def test_no_point_meets_target(self):
        baseline = DesignPoint(1.0, 1.0, 1.0)
        res = self.result([baseline, DesignPoint(2.0, 1.0, 1.0)], [2.0, 1.5])
        assert res.cheapest_meeting(10.0) is None
