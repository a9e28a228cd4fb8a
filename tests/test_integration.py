"""End-to-end integration tests across modules.

These exercise the full pipeline (generate -> synthesize -> model +
simulate -> features -> train) at a scale that runs in seconds.
"""

import numpy as np
import pytest

from repro import (
    CIELITO,
    HOPPER,
    EnhancedMFACT,
    diff_total,
    model_trace,
    simulate_trace,
    synthesize_ground_truth,
)
from repro.core.pipeline import StudyRecord
from repro.mfact import ConfigGrid
from repro.trace.dumpi import dumps, loads
from repro.workloads import generate_doe, generate_npb

#: Total traffic (the ``TB`` feature) from which a record "moves bytes"
#: for the Table II event ranking.
MOVES_BYTES = 1 << 20


class TestPipeline:
    def test_all_tools_complete(self, mini_study):
        for record in mini_study:
            assert record.mfact.completed
            assert record.sims["packet-flow"].completed

    def test_diff_labels_exist(self, mini_study):
        labels = [r.requires_simulation() for r in mini_study]
        assert all(label is not None for label in labels)
        assert any(labels) and not all(labels)  # both classes occur

    def test_compute_bound_apps_small_diff(self, mini_study):
        by_app = {}
        for r in mini_study:
            by_app.setdefault(r.app, []).append(r)
        for record in by_app.get("EP", []) + by_app.get("CMC", []):
            assert record.diff_total() < 0.03

    def test_comm_apps_larger_diff_than_ep(self, mini_study):
        diffs = {r.name: r.diff_total() for r in mini_study}
        ep = min(d for name, d in diffs.items() if name.startswith("ep"))
        comm_max = max(
            d for name, d in diffs.items()
            if name.split(".")[0] in ("ft", "cr", "fb", "is", "nekbone", "cg")
        )
        assert comm_max > ep

    def test_mfact_fastest_tool(self, mini_study):
        """MFACT is the cheapest tool on all but at most one record.

        This check times the reference engines: ``mini_study`` runs the
        oracle flow and packet-flow models and the reference dispatch
        loop (``tests/sim_oracles.py``).  On the production engines
        packet-flow beats MFACT on several of these small traces; the
        numbers are in EXPERIMENTS.md's Table II section."""
        wins = sum(
            1 for r in mini_study
            if r.mfact.walltime <= min(s.walltime for s in r.sims.values() if s.completed)
        )
        assert wins >= len(mini_study) - 1

    def test_table2_event_cost_ranking(self, mini_study):
        """Table II's tool-cost order, packet >= flow >= packet-flow, on
        the deterministic cost records carry: engine events.  Packet
        events grow with bytes and flow events with messages, so the
        order holds wherever traffic is real; near-silent records (EP,
        CMC: a few KiB of small collectives, one packet per message)
        are excluded because flow's rate updates outnumber their
        packets.  Unlike the walltime checks, this one does not depend
        on host load."""
        moving = [r for r in mini_study if r.features["TB"] >= MOVES_BYTES]
        assert len(moving) >= len(mini_study) - 3
        for r in moving:
            events = {model: run.events for model, run in r.sims.items()}
            assert events["packet"] >= events["flow"] >= events["packet-flow"], (r.name, events)

    def test_measured_above_predictions_mostly(self, mini_study):
        above = sum(1 for r in mini_study if r.measured_total >= r.mfact.total_time)
        assert above >= len(mini_study) - 1

    def test_train_enhanced_on_mini_study(self, mini_study):
        # 12 records is tiny; just verify the training path end to end.
        enhanced = EnhancedMFACT.train(mini_study, runs=10, seed=0)
        assert 0.0 <= enhanced.success_rate <= 1.0
        preds = [enhanced.predict_record(r) for r in mini_study]
        assert all(p in (True, False) for p in preds)


class TestCrossMachineConsistency:
    def test_faster_network_faster_prediction(self):
        trace = generate_npb("CG", 16, CIELITO, seed=77, compute_per_iter=0.001,
                             ranks_per_node=1)
        synthesize_ground_truth(trace, CIELITO, seed=77)
        slow = model_trace(trace, CIELITO).baseline_total_time  # 10 Gb/s
        fast = model_trace(trace, HOPPER).baseline_total_time  # 35 Gb/s
        assert fast < slow

    def test_simulators_see_machine_difference_too(self):
        trace = generate_npb("CG", 16, CIELITO, seed=78, compute_per_iter=0.001,
                             ranks_per_node=1)
        synthesize_ground_truth(trace, CIELITO, seed=78)
        slow = simulate_trace(trace, CIELITO, "packet-flow").total_time
        fast = simulate_trace(trace, HOPPER, "packet-flow").total_time
        assert fast < slow


class TestSerializationIntegration:
    def test_stamped_trace_roundtrips_and_remodels(self):
        trace = generate_doe("AMG", 16, CIELITO, seed=80, compute_per_iter=0.002,
                             ranks_per_node=2)
        synthesize_ground_truth(trace, CIELITO, seed=80)
        t1 = model_trace(trace, CIELITO, ConfigGrid.single(CIELITO)).baseline_total_time
        again = loads(dumps(trace))
        t2 = model_trace(again, CIELITO, ConfigGrid.single(CIELITO)).baseline_total_time
        assert t1 == pytest.approx(t2, rel=1e-12)

    def test_study_record_json_roundtrip(self, mini_study):
        record = mini_study[0]
        again = StudyRecord.from_json(record.to_json())
        assert again.diff_total() == pytest.approx(record.diff_total())
        assert again.features == record.features
