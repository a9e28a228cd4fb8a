"""Smoke tests for the study benchmark.

Run from the repository root::

    PYTHONPATH=src python -m pytest studybench/tests -q
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
import time

import pytest

from repro.util.rng import DEFAULT_SEED
from studybench import runner, tracer
from studybench.compare import verdict
from studybench.tracer import Boundary, Span, Tracer, layer_metrics
from studybench.workloads import EXPERIMENTS, WORKLOADS, mini_specs

ROOT = runner.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    """Every workload at smoke size (2 items, 1 pass), timed and traced."""
    out = tmp_path_factory.mktemp("bench") / "results.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "studybench", "run", "--size", "smoke", "--seconds", "0",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), out


def test_metric_names_match_benchmark_json():
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == runner.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == tracer.LAYER_METRICS
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert tracer.EXPERIMENTS == tuple(EXPERIMENTS)


def test_output_schema(smoke_run):
    last, out = smoke_run
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] == 4 * 2 * (1 + 2)  # workloads x items x (timed + traced pair)
    expected = {
        f"{w}/{name}"
        for w in WORKLOADS
        for name in list(runner.END_TO_END) + list(tracer.LAYER_METRICS)
    }
    assert set(last["metrics"]) == expected
    for m in last["metrics"].values():
        assert set(m) == {"value", "unit"} and isinstance(m["value"], (int, float))
    spans = json.loads(out.with_suffix(".spans.json").read_text())
    assert set(spans) == set(WORKLOADS)
    assert all({"name", "start", "end", "parent", "pass_id"} <= set(s) for s in spans["cold-mini"])


def test_layers_stress_their_workload(smoke_run):
    metrics = smoke_run[0]["metrics"]
    # Smoke passes of classify and model-query last milliseconds, where
    # the executor's own bookkeeping outside any boundary is visible.
    for w in ("cold-corpus", "cold-mini"):
        assert metrics[f"{w}/trace.coverage"]["value"] >= 0.9
    for w in ("classify", "model-query"):
        for engine in tracer.ENGINES:
            assert metrics[f"{w}/sim.{engine}.busy_s"]["value"] == 0
    assert metrics["cold-corpus/sim.packet.share"]["value"] > 0.5
    assert metrics["model-query/whatif.explore.busy_s"]["value"] > 0


def _passes(*digest_maps):
    return [
        {"items": [{"name": n, "digest": d, "error": ""} for n, d in m.items()]}
        for m in digest_maps
    ]


def test_perturbed_record_counts_as_failed():
    workload = WORKLOADS["cold-mini"]
    spec = mini_specs(DEFAULT_SEED, "smoke")[:1]
    from repro.core.executor import execute_study

    record = execute_study(spec, jobs=1, cache_root=None).records[0]
    golden = runner.load_golden("cold-mini", DEFAULT_SEED, "smoke")
    good = {record.name: workload.digest(record)}
    assert runner.evaluate(_passes(good), golden)["failed"] == 0
    record.mfact.total_time *= 1.0 + 1e-12
    bad = {record.name: workload.digest(record)}
    result = runner.evaluate(_passes(good, bad), golden)
    assert (result["attempted"], result["failed"]) == (2, 1)
    # Unpinned seeds judge every pass against the first.
    assert runner.evaluate(_passes(good, bad), None)["failed"] == 1


def test_golden_cross_check_with_golden_trace_tests():
    path = ROOT / "tests" / "test_golden_traces.py"
    if not path.exists():
        pytest.skip("tests/test_golden_traces.py is not in this checkout")
    spec = importlib.util.spec_from_file_location("golden_traces", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    pinned = runner.load_golden("cold-mini", DEFAULT_SEED, "full")
    names = {s.index: s.name for s in mini_specs(DEFAULT_SEED, "full")}
    for index, (_, record_digest) in module.GOLDEN.items():
        assert pinned[names[index]] == record_digest


def test_self_time_coverage_and_attribution():
    spans = [
        Span("pipeline.measure", 0.0, 1.0, -1, 0),
        Span("features", 0.1, 0.4, 0, 0),
        Span("sim.packet", 0.5, 0.9, 0, 0, {"events": 100}),
        Span("workloads.build", 1.0, 1.2, -1, 0),
        Span("replay", 1.05, 1.15, 3, 0),
        Span("replay", 1.3, 1.35, -1, 0),
    ]
    m = layer_metrics(spans, study_s=1.5)
    assert m["pipeline.measure.self_s"] == pytest.approx(0.3)
    assert m["sim.packet.events_per_s"] == pytest.approx(250.0)
    assert m["workloads.calibrate.busy_s"] == pytest.approx(0.1)
    assert m["trace.coverage"] == pytest.approx(1.25 / 1.5)
    assert m["trace.unattributed_s"] == pytest.approx(0.25)
    assert m["pipeline.measure.share"] == pytest.approx(1.0 / 1.5)


def test_live_wrappers_nest_and_record_counts():
    t = Tracer()

    def inner():
        time.sleep(0.01)
        return 7

    wrapped_inner = t.wrap(inner, "features")
    outer = t.wrap(lambda: wrapped_inner() + 1, "pipeline.measure", lambda a, k, r: {"r": r})
    assert outer() == 8 and t.spans == []  # inactive: nothing recorded
    t.active = True
    assert outer() == 8
    assert [(s.name, s.parent) for s in t.spans] == [("pipeline.measure", -1), ("features", 0)]
    assert t.spans[0].info == {"r": 8}
    assert t.spans[0].duration >= t.spans[1].duration >= 0.01


def test_missing_boundary_is_absent_not_a_crash():
    t = Tracer()
    t.install(
        (
            Boundary("features", "repro.core.pipeline", "no_such_function"),
            Boundary("features", "repro.no_such_module", "extract_features"),
            Boundary("cache.read", "repro.core.executor", "RecordCache.no_such_method"),
        )
    )
    assert t.absent == [
        "repro.core.pipeline:no_such_function",
        "repro.no_such_module:extract_features",
        "repro.core.executor:RecordCache.no_such_method",
    ]
    assert layer_metrics(t.spans, 1.0)["features.busy_s"] == 0.0


def test_wrappers_exist_only_while_installed():
    assert tracer.wrapped_boundaries() == []
    t = Tracer()
    t.install()
    try:
        assert len(tracer.wrapped_boundaries()) == len(tracer.BOUNDARIES) - len(t.absent)
    finally:
        t.uninstall()
    assert tracer.wrapped_boundaries() == []


def test_compare_verdicts():
    a = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    assert verdict(a, a, 0.1, "lower") == "same"
    assert verdict(a, [x * 1.2 for x in a], 0.1, "lower") == "worse"
    assert verdict(a, [x * 1.2 for x in a], 0.1, "higher") == "better"
    assert verdict(a, [x * 0.95 for x in a], 0.1, "lower") == "better"  # 10/10 pairs
    assert verdict(a[:3], [x * 0.95 for x in a[:3]], 0.1, "lower") == "same"
    assert verdict([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0], 0.1, "lower") == "unresolved"
