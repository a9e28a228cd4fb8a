"""Observability tests: registry semantics, determinism, CLI surfaces.

The load-bearing property is mode-independence: a seeded corpus run
must produce the same non-walltime metrics at ``-j 1`` and ``-j 4``,
even under an active fault plan, because every instrument merges
order-free and every histogram shares one bucket scheme.  The rest
covers instrument semantics (counter exactness, gauge high-water mark,
bucket boundaries), span nesting, no-op mode, the Prometheus
render/parse round trip, manifest schema v1→v3 loading, the warm-cache
``compute_walltime`` split and the ``measure`` exit-code table.
"""

import json
import sys
import threading
import time

import pytest

from repro import obs
from repro.obs.registry import (
    HISTOGRAM_BUCKETS,
    MetricsRegistry,
    MetricsSnapshot,
    deterministic_view,
    is_walltime_series,
)
from repro.obs.report import (
    load_snapshot,
    parse_prometheus,
    render_prometheus,
    render_report,
    render_top_spans,
)
from repro.core.executor import execute_study
from repro.core.resilience import RetryPolicy
from repro.trace.cli import (
    EXIT_BUDGET,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_WARN,
    measure_exit_code,
)
from repro.trace.cli import main as cli_main
from repro.trace.dumpi import write_trace
from repro.util.faults import FaultPlan, FaultSpec, fault_plan_env
from repro.util.manifest import (
    MANIFEST_VERSION,
    ManifestEntry,
    ManifestError,
    ManifestFieldWarning,
    RunManifest,
)
from repro.workloads.suite import build_trace, mini_corpus_specs

SEED = 83
N = 3

#: Real backoff shape, tiny delays — chaos runs stay fast.
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.005, max_delay=0.02)


@pytest.fixture(autouse=True)
def _obs_clean():
    """Every test starts and ends in no-op mode with a clean registry."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


@pytest.fixture(scope="module")
def specs():
    return mini_corpus_specs(N, seed=SEED)


# -- instrument semantics -----------------------------------------------------


class TestInstruments:
    def test_counter_stays_integer_exact_at_large_values(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_test_total")
        c.inc(2**62)
        c.inc(1)
        value = reg.snapshot().counters["repro_test_total"]
        assert value == 2**62 + 1  # a float would have rounded this away
        assert isinstance(value, int)

    def test_counter_rejects_negative_increment(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("repro_test_total").inc(-1)

    def test_gauge_set_max_keeps_high_water_mark(self):
        reg = MetricsRegistry()
        g = reg.gauge("repro_test_depth")
        g.set_max(5)
        g.set_max(3)
        assert reg.snapshot().gauges["repro_test_depth"] == 5
        g.set(2)  # plain set overwrites
        assert reg.snapshot().gauges["repro_test_depth"] == 2

    def test_histogram_bucket_boundaries_and_overflow(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_test_sizes")
        h.observe(HISTOGRAM_BUCKETS[0])  # exactly on a bound: that bucket
        h.observe(HISTOGRAM_BUCKETS[0] * 1.0001)  # just above: next bucket
        h.observe(HISTOGRAM_BUCKETS[-1] * 10)  # beyond the top: overflow slot
        data = reg.snapshot().histograms["repro_test_sizes"]
        assert data["counts"][0] == 1
        assert data["counts"][1] == 1
        assert data["counts"][-1] == 1
        assert data["count"] == 3
        assert len(data["counts"]) == len(HISTOGRAM_BUCKETS) + 1

    def test_same_labels_any_order_is_one_series(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_test_total", engine="packet", status="ok")
        b = reg.counter("repro_test_total", status="ok", engine="packet")
        assert a is b
        a.inc()
        snap = reg.snapshot()
        assert snap.counters['repro_test_total{engine="packet",status="ok"}'] == 1

    def test_invalid_metric_name_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("not a metric name")

    def test_merge_is_order_free(self):
        def make(seed_value):
            reg = MetricsRegistry()
            reg.counter("repro_test_total").inc(seed_value)
            reg.gauge("repro_test_depth").set_max(seed_value)
            reg.histogram("repro_test_sizes").observe(float(seed_value))
            return reg.snapshot()

        a, b = make(3), make(7)
        left, right = MetricsRegistry(), MetricsRegistry()
        left.merge_snapshot(a)
        left.merge_snapshot(b)
        right.merge_snapshot(b)
        right.merge_snapshot(a)
        assert left.snapshot() == right.snapshot()
        merged = left.snapshot()
        assert merged.counters["repro_test_total"] == 10
        assert merged.gauges["repro_test_depth"] == 7  # max, not sum
        assert merged.histograms["repro_test_sizes"]["count"] == 2

    def test_merge_rejects_bucket_scheme_mismatch(self):
        reg = MetricsRegistry()
        bad = MetricsSnapshot(
            histograms={"repro_test_sizes": {"counts": [1, 2, 3], "sum": 1.0, "count": 6}}
        )
        with pytest.raises(ValueError, match="bucket scheme"):
            reg.merge_snapshot(bad)

    def test_merge_accepts_json_image(self):
        reg = MetricsRegistry()
        reg.merge_snapshot({"counters": {"repro_test_total": 4}})
        assert reg.snapshot().counters["repro_test_total"] == 4


# -- spans --------------------------------------------------------------------


class TestSpans:
    def test_nesting_builds_slash_paths(self):
        with obs.collect_task() as reg:
            with obs.span("record"):
                with obs.span("mfact"):
                    with obs.span("replay"):
                        pass
                with obs.span("mfact"):
                    pass
            snap = reg.snapshot()
        assert snap.spans["record"]["count"] == 1
        assert snap.spans["record/mfact"]["count"] == 2
        assert snap.spans["record/mfact/replay"]["count"] == 1
        assert snap.spans["record"]["total_seconds"] >= 0.0

    def test_span_survives_exception(self):
        with obs.collect_task() as reg:
            with pytest.raises(RuntimeError):
                with obs.span("boom"):
                    raise RuntimeError("x")
            snap = reg.snapshot()
        assert snap.spans["boom"]["count"] == 1


# -- no-op mode and task collection -------------------------------------------


class TestActiveRegistry:
    def test_noop_mode_costs_nothing_and_records_nothing(self):
        assert not obs.enabled()
        obs.counter("repro_test_total").inc()
        obs.gauge("repro_test_depth").set_max(9)
        obs.histogram("repro_test_sizes").observe(1.0)
        with obs.span("anything"):
            pass
        assert obs.snapshot().is_empty()
        # Null instruments are shared singletons, not per-call objects.
        assert obs.counter("a_total") is obs.counter("b_total")

    def test_collect_task_disabled_yields_none(self):
        with obs.collect_task(enabled=False) as reg:
            assert reg is None
            assert not obs.enabled()

    def test_collect_task_isolates_and_restores(self):
        global_reg = obs.enable()
        obs.counter("repro_outer_total").inc()
        with obs.collect_task() as task_reg:
            assert obs.active_registry() is task_reg
            assert task_reg is not global_reg
            obs.counter("repro_inner_total").inc()
        assert obs.active_registry() is global_reg
        assert "repro_inner_total" not in global_reg.snapshot().counters
        assert global_reg.snapshot().counters["repro_outer_total"] == 1

    def test_collect_task_restores_after_interleaved_and_nested_exits(self):
        # Tasks on serve worker threads overlap: A enters, B enters, then
        # either A exits first (interleaved) or B does (nested).  The open
        # task keeps collecting, and once both exit the registry active
        # before A entered is active again.
        for metrics_on in (False, True):
            before = obs.enable() if metrics_on else None
            for order in ("interleaved", "nested"):
                a, b = obs.collect_task(), obs.collect_task()
                reg_a = a.__enter__()
                reg_b = b.__enter__()
                assert obs.active_registry() is reg_b
                first, last, still_open = (
                    (a, b, reg_b) if order == "interleaved" else (b, a, reg_a)
                )
                first.__exit__(None, None, None)
                assert obs.active_registry() is still_open, order
                last.__exit__(None, None, None)
                assert obs.active_registry() is before, order
                assert obs.enabled() is (before is not None), order

    def test_collect_task_threads_leave_prior_registry_active(self):
        # More task threads than cores, switching often: whatever order
        # their scopes close in, the process-wide registry ends as before.
        before = obs.enable()
        start = threading.Barrier(8)

        def worker():
            start.wait(timeout=10)
            for _ in range(200):
                with obs.collect_task():
                    time.sleep(0)  # yield inside the scope
                    obs.counter("repro_stress_total").inc()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert obs.active_registry() is before
        assert "repro_stress_total" not in before.snapshot().counters


# -- walltime family and the deterministic view -------------------------------


class TestWalltimeFamily:
    @pytest.mark.parametrize(
        "key,expected",
        [
            ("repro_executor_record_walltime_seconds_total", True),
            ("repro_dispatch_seconds_total{engine=\"packet\"}", True),
            ("repro_executor_backoff_delay", False),  # seeded, deterministic
            ("repro_engine_events_total", False),
            ("repro_records_measured_total", False),
        ],
    )
    def test_is_walltime_series(self, key, expected):
        assert is_walltime_series(key) is expected

    def test_view_drops_walltime_but_keeps_span_counts(self):
        snap = MetricsSnapshot(
            counters={"repro_a_total": 1, "repro_b_seconds_total": 0.5},
            spans={"record": {"count": 2, "total_seconds": 1.0, "max_seconds": 0.9}},
        )
        view = deterministic_view(snap)
        assert view["counters"] == {"repro_a_total": 1}
        assert view["span_counts"] == {"record": 2}
        assert "seconds" not in json.dumps(view["counters"])


# -- Prometheus render / parse round trip -------------------------------------


class TestPrometheus:
    def _snapshot(self):
        reg = MetricsRegistry()
        reg.counter("repro_test_total", engine="packet").inc(7)
        reg.gauge("repro_test_depth").set(3)
        h = reg.histogram("repro_test_sizes")
        h.observe(0.5)
        h.observe(1e12)  # overflow bucket
        reg._record_span("record/sim", 0.25)
        return reg.snapshot()

    def test_round_trip(self):
        snap = self._snapshot()
        samples = parse_prometheus(render_prometheus(snap))
        assert samples['repro_test_total{engine="packet"}'] == 7
        assert samples["repro_test_depth"] == 3
        # Buckets are cumulative; +Inf equals the total count.
        assert samples['repro_test_sizes_bucket{le="+Inf"}'] == 2
        assert samples["repro_test_sizes_count"] == 2
        assert samples['repro_span_count{path="record/sim"}'] == 1
        assert samples['repro_span_seconds_total{path="record/sim"}'] == 0.25

    def test_parser_rejects_malformed_line(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_prometheus("this is not prometheus\n")

    def test_parser_rejects_duplicate_series(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_prometheus("repro_x_total 1\nrepro_x_total 2\n")

    def test_render_report_and_top_spans(self):
        snap = self._snapshot()
        report = render_report(snap)
        assert "== counters ==" in report and "repro_test_total" in report
        assert "record/sim" in render_top_spans(snap)
        assert render_top_spans(MetricsSnapshot()) == "no spans recorded\n"


# -- executor integration: determinism, manifest v3, compute_walltime ---------


class TestExecutorMetrics:
    def test_serial_and_parallel_views_identical_under_faults(self, specs, tmp_path):
        """The tentpole invariant: -j 1 and -j 4 agree on every
        non-walltime metric, histograms included, even while the fault
        plan forces retries and backoff on record 0."""
        plan = FaultPlan(seed=SEED, faults=(FaultSpec(index=0, kind="flaky"),))
        views = {}
        for jobs in (1, 4):
            with fault_plan_env(plan, tmp_path / f"j{jobs}"):
                run = execute_study(
                    specs,
                    jobs=jobs,
                    cache_root=None,
                    seed=SEED,
                    retry=FAST_RETRY,
                    collect_metrics=True,
                )
            snap = MetricsSnapshot.from_json(run.manifest.metrics)
            assert not snap.is_empty()
            views[jobs] = deterministic_view(snap)
        assert views[1] == views[4]
        counters = views[1]["counters"]
        assert counters["repro_records_measured_total"] == N
        assert counters["repro_executor_retries_total"] == 1  # the flaky record
        assert any(k.startswith("repro_engine_events_per_run") for k in views[1]["histograms"])
        assert views[1]["span_counts"]["record"] == N

    def test_trace_build_children_cover_the_build(self, specs):
        """A cold study's trace build splits into generate, calibrate
        and one synthesize per attempt, which explain nearly all of it."""
        run = execute_study(
            specs[:2], jobs=1, cache_root=None, seed=SEED, collect_metrics=True
        )
        snap = MetricsSnapshot.from_json(run.manifest.metrics)
        spans = snap.spans
        children = [f"trace_build/{c}" for c in ("generate", "calibrate", "synthesize")]
        assert spans["trace_build"]["count"] == 2
        assert [spans[c]["count"] for c in children[:2]] == [2, 2]
        attempts = snap.counters["repro_trace_build_attempts_total"]
        assert spans[children[2]]["count"] == attempts >= 2
        covered = sum(spans[c]["total_seconds"] for c in children)
        assert covered >= 0.97 * spans["trace_build"]["total_seconds"]

    def test_manifest_embeds_snapshot_and_round_trips(self, specs, tmp_path):
        run = execute_study(
            specs[:1], jobs=1, cache_root=None, seed=SEED, collect_metrics=True
        )
        assert run.manifest.metrics is not None
        doc = run.manifest.to_json()
        assert doc["version"] == MANIFEST_VERSION
        path = run.manifest.write(tmp_path / "manifest.json")
        loaded = RunManifest.read(path)
        assert loaded.metrics == run.manifest.metrics
        assert loaded.to_json() == doc

    def test_metrics_off_by_default_leaves_manifest_clean(self, specs):
        run = execute_study(specs[:1], jobs=1, cache_root=None, seed=SEED)
        assert run.manifest.metrics is None

    def test_warm_cache_splits_compute_from_total_walltime(self, specs, tmp_path):
        """Satellite regression: a warm-cache run reports walltime > 0
        (the lookup isn't free) but compute_walltime == 0 — previously
        cache hits inflated the single walltime figure."""
        root = tmp_path / "cache"
        cold = execute_study(specs, jobs=1, cache_root=root, seed=SEED)
        assert all(not e.cache_hit for e in cold.manifest.entries)
        assert all(e.compute_walltime > 0 for e in cold.manifest.entries)
        assert all(e.walltime >= e.compute_walltime for e in cold.manifest.entries)
        warm = execute_study(specs, jobs=1, cache_root=root, seed=SEED)
        assert all(e.cache_hit for e in warm.manifest.entries)
        assert all(e.walltime > 0 for e in warm.manifest.entries)
        assert all(e.compute_walltime == 0.0 for e in warm.manifest.entries)
        assert warm.manifest.compute_walltime == 0.0
        assert cold.manifest.compute_walltime > 0.0


# -- manifest schema versions -------------------------------------------------


def _v1_doc():
    return {
        "version": 1,
        "seed": 7,
        "jobs": 2,
        "engines": ["mfact"],
        "code_version": "abc",
        "interrupted": False,
        "entries": [
            {
                "name": "t0",
                "spec_index": 0,
                "key": "k0",
                "status": "ok",
                "cache_hit": False,
                "walltime": 1.5,
                "worker": 42,
            }
        ],
    }


class TestManifestVersions:
    def test_v1_loads_with_defaults(self):
        manifest = RunManifest.from_json(_v1_doc())
        entry = manifest.entries[0]
        assert entry.attempts == 1
        assert entry.backoffs == []
        assert entry.compute_walltime == 0.0
        assert manifest.metrics is None
        assert manifest.retry_policy is None

    def test_v2_fields_load_and_newer_fields_warn_but_are_ignored(self):
        doc = _v1_doc()
        doc["version"] = 2
        doc["entries"][0].update(
            attempts=3, backoffs=[0.01, 0.02], ladder_step=1, some_future_field=True
        )
        with pytest.warns(ManifestFieldWarning, match="some_future_field"):
            entry = RunManifest.from_json(doc).entries[0]
        assert entry.attempts == 3
        assert entry.backoffs == [0.01, 0.02]
        assert not hasattr(entry, "some_future_field")

    def test_v3_round_trips_through_disk(self, tmp_path):
        manifest = RunManifest.from_json(_v1_doc())
        manifest.metrics = {"counters": {"repro_x_total": 1}}
        loaded = RunManifest.read(manifest.write(tmp_path / "m.json"))
        assert loaded.to_json() == manifest.to_json()

    def test_unsupported_version_raises(self):
        doc = _v1_doc()
        doc["version"] = 99
        with pytest.raises(ManifestError, match="version"):
            RunManifest.from_json(doc)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(entries="nope"),
            lambda d: d.update(metrics=[1, 2]),
            lambda d: d["entries"].append(["not", "a", "dict"]),
            lambda d: d["entries"][0].pop("name"),
            lambda d: d["entries"][0].update(status="bogus"),
        ],
    )
    def test_structural_damage_raises_manifest_error(self, mutate):
        doc = _v1_doc()
        mutate(doc)
        with pytest.raises(ManifestError):
            RunManifest.from_json(doc)

    def test_garbled_file_raises_manifest_error(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"version": 3, "entries": [')  # truncated
        with pytest.raises(ManifestError, match="JSON"):
            RunManifest.read(path)
        with pytest.raises(ManifestError, match="cannot read"):
            RunManifest.read(tmp_path / "absent.json")


# -- CLI surfaces -------------------------------------------------------------


def _failure(kind):
    return ManifestEntry(
        name="t",
        spec_index=0,
        key="k",
        status="failed",
        cache_hit=False,
        walltime=0.0,
        worker=0,
        failure_kind=kind,
    )


class TestCliExitCodes:
    @pytest.mark.parametrize(
        "kinds,expected",
        [
            ([], EXIT_OK),
            (["budget"], EXIT_BUDGET),
            (["timeout"], EXIT_BUDGET),
            (["budget", "timeout"], EXIT_BUDGET),
            (["permanent"], EXIT_ERROR),
            (["transient"], EXIT_ERROR),
            (["budget", "permanent"], EXIT_ERROR),  # error outranks budget
            (["timeout", "transient", "budget"], EXIT_ERROR),
        ],
    )
    def test_measure_exit_code_table(self, kinds, expected):
        assert measure_exit_code([_failure(k) for k in kinds]) == expected

    def test_garbled_trace_is_an_error_not_a_traceback(self, tmp_path, capsys):
        path = tmp_path / "garbled.dmp"
        path.write_text("definitely not a trace {{{")
        assert cli_main(["info", str(path)]) == EXIT_ERROR
        assert "invalid trace" in capsys.readouterr().err

    def test_missing_trace_stays_a_warning(self, tmp_path):
        assert cli_main(["info", str(tmp_path / "absent.dmp")]) == EXIT_WARN


class TestCliMetrics:
    def test_measure_metrics_out_and_stats(self, specs, tmp_path, capsys):
        trace_path = tmp_path / f"{specs[0].name}.dmp"
        write_trace(build_trace(specs[0]), trace_path)
        out = tmp_path / "metrics.prom"
        code = cli_main(
            ["measure", str(trace_path), "--no-cache", "--metrics-out", str(out),
             "--profile"]
        )
        assert code == EXIT_OK
        profile = capsys.readouterr().out
        assert "record/mfact" in profile  # --profile printed the span tree
        samples = parse_prometheus(out.read_text())
        assert samples["repro_records_measured_total"] == 1
        snap = load_snapshot(str(out) + ".json")
        assert snap is not None and not snap.is_empty()
        assert cli_main(["stats", str(out) + ".json"]) == EXIT_OK
        assert "== counters ==" in capsys.readouterr().out

    def test_stats_on_manifest_without_metrics_warns(self, tmp_path, capsys):
        path = RunManifest().write(tmp_path / "manifest.json")
        assert cli_main(["stats", str(path)]) == EXIT_WARN
        assert "no metrics" in capsys.readouterr().err

    def test_stats_on_garbage_is_an_error(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("[1, 2, 3]")
        assert cli_main(["stats", str(path)]) == EXIT_ERROR
