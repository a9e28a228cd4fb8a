"""Differential suite: analytic (recorded-tape) sensitivity results vs
brute-force replays, across the seeded mini-corpus.

``replayed_design_space`` is the what-if oracle: one MFACT replay per
compute factor, with the bandwidth and latency axes on the replay's
vectorized grid, which ``explore_design_space``'s tape pricing must
match point for point.

The sensitivity package documents a ``1e-6`` relative agreement band
between tape evaluation and a real replay; this suite holds the much
tighter ``1e-9`` observed in practice so any structural regression in
the recorder (a missing edge, a mis-folded cost) fails loudly rather
than hiding inside the documented band.
"""

import numpy as np
import pytest

from repro.core.pipeline import SIM_MODELS, measure_trace
from repro.machines.presets import get_machine
from repro.mfact.hockney import ConfigGrid
from repro.mfact.logical_clock import LogicalClockReplay
from repro.mfact.whatif import DesignPoint, DesignSpaceResult, explore_design_space
from repro.sensitivity import bandwidth_curve, latency_curve, record_graph
from repro.trace.features import SENSITIVITY_FEATURE_NAMES
from repro.workloads.suite import build_trace, mini_corpus_specs
from tests.sim_oracles import reference_engines

REL_BAND = 1e-9

BW_FACTORS = (0.25, 1.0, 4.0)
LAT_FACTORS = (1.0, 8.0)
COMPUTE_FACTORS = (1.0, 10.0)


def replayed_design_space(
    trace, machine, bandwidth_factors, latency_factors, compute_factors
):
    """Price the grid with one replay per compute factor (the oracle)."""
    points, totals, baseline_index = [], [], None
    for cf in compute_factors:
        lats, bws, scales = [], [], []
        for lf in latency_factors:
            for bf in bandwidth_factors:
                lats.append(machine.latency / lf)
                bws.append(machine.bandwidth * bf)
                scales.append(machine.compute_scale / cf)
        report = LogicalClockReplay(trace, machine, ConfigGrid(lats, bws, scales)).run()
        i = 0
        for lf in latency_factors:
            for bf in bandwidth_factors:
                points.append(DesignPoint(bf, lf, cf))
                totals.append(float(report.total_time[i]))
                if bf == 1.0 and lf == 1.0 and cf == 1.0:
                    baseline_index = len(points) - 1
                i += 1
    assert baseline_index is not None
    return DesignSpaceResult(
        machine=machine,
        points=points,
        total_time=np.asarray(totals),
        baseline_index=baseline_index,
    )


@pytest.fixture(scope="module")
def corpus():
    """(trace, machine) for a small seeded mini-corpus slice."""
    out = []
    for spec in mini_corpus_specs(count=4, nranks=8):
        trace = build_trace(spec)
        out.append((trace, get_machine(trace.machine)))
    return out


class TestAnalyticDesignSpace:
    def test_grid_matches_replayed_path(self, corpus):
        for trace, machine in corpus:
            replayed = replayed_design_space(
                trace, machine, BW_FACTORS, LAT_FACTORS, COMPUTE_FACTORS
            )
            analytic = explore_design_space(
                trace, machine, BW_FACTORS, LAT_FACTORS, COMPUTE_FACTORS
            )
            assert analytic.points == replayed.points
            assert analytic.baseline_index == replayed.baseline_index
            np.testing.assert_allclose(
                analytic.total_time, replayed.total_time, rtol=REL_BAND
            )

    def test_derived_queries_agree(self, corpus):
        trace, machine = corpus[0]
        replayed = replayed_design_space(
            trace, machine, BW_FACTORS, LAT_FACTORS, COMPUTE_FACTORS
        )
        analytic = explore_design_space(
            trace, machine, BW_FACTORS, LAT_FACTORS, COMPUTE_FACTORS
        )
        assert analytic.best()[0] == replayed.best()[0]
        assert analytic.cheapest_meeting(2.0) == replayed.cheapest_meeting(2.0)
        assert analytic.baseline_time == pytest.approx(
            replayed.baseline_time, rel=REL_BAND
        )

    def test_analytic_rejects_gridless_baseline(self, corpus):
        trace, machine = corpus[0]
        with pytest.raises(ValueError, match="baseline"):
            explore_design_space(trace, machine, (2.0,), (1.0,), (1.0,))

    def test_replay_pricing_is_only_the_oracle(self, corpus):
        trace, machine = corpus[0]
        with pytest.raises(ValueError, match="test_sensitivity_differential"):
            explore_design_space(trace, machine, analytic=False)


class TestCurveFidelity:
    def test_latency_curve_matches_per_point_replays(self, corpus):
        for trace, machine in corpus:
            graph, _ = record_graph(trace, machine)
            for factor, total in latency_curve(graph, machine, (1.0, 4.0, 64.0)):
                grid = ConfigGrid(
                    [machine.latency * factor],
                    [machine.bandwidth],
                    [machine.compute_scale],
                )
                replayed = float(
                    LogicalClockReplay(trace, machine, grid).run().total_time[0]
                )
                assert total == pytest.approx(replayed, rel=REL_BAND)

    def test_bandwidth_curve_matches_per_point_replays(self, corpus):
        trace, machine = corpus[0]
        graph, _ = record_graph(trace, machine)
        for factor, total in bandwidth_curve(graph, machine, (0.125, 1.0, 8.0)):
            grid = ConfigGrid(
                [machine.latency],
                [machine.bandwidth * factor],
                [machine.compute_scale],
            )
            replayed = float(
                LogicalClockReplay(trace, machine, grid).run().total_time[0]
            )
            assert total == pytest.approx(replayed, rel=REL_BAND)


class TestFeatureStability:
    def test_features_identical_across_engines_and_sim_modes(self, corpus):
        """The sensitivity features come from MFACT's modeling replay
        alone, so neither the engine choice nor running the reference
        engines (``tests/sim_oracles.py``) may move them by a single bit."""
        trace, _ = corpus[0]
        with reference_engines():
            oracle_all = measure_trace(trace, engines=SIM_MODELS)
            oracle_flow = measure_trace(trace, engines=["flow"])
        variants = [
            measure_trace(trace, engines=SIM_MODELS),
            oracle_all,
            measure_trace(trace, engines=["packet-flow"]),
            oracle_flow,
        ]
        reference = {
            name: variants[0].features[name] for name in SENSITIVITY_FEATURE_NAMES
        }
        for record in variants[1:]:
            for name in SENSITIVITY_FEATURE_NAMES:
                assert record.features[name] == reference[name]
