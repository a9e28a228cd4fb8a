"""Determinism and equivalence tests for the parallel study executor."""

import json
import pickle

import pytest

from repro.core.executor import (
    MANIFEST_NAME,
    RecordCache,
    execute_study,
    execute_traces,
    trace_cache_key,
)
from repro.core.pipeline import StudyRecord
from repro.machines.presets import get_machine
from repro.sim.engine import EventEngine
from repro.sim.mpi_replay import simulate_trace
from repro.trace.dumpi import write_trace
from repro.util.manifest import RunManifest
from repro.workloads.npb import generate_npb
from repro.workloads.suite import build_trace, corpus_specs, mini_corpus_specs

SEED = 11


@pytest.fixture(scope="module")
def specs():
    return mini_corpus_specs(12, seed=SEED)


def canonical(records):
    return [r.to_json(canonical=True) for r in records]


class TestSerialParallelEquivalence:
    def test_serial_vs_parallel_records_identical(self, specs):
        serial = execute_study(specs, jobs=1, cache_root=None, seed=SEED)
        parallel = execute_study(specs, jobs=4, cache_root=None, seed=SEED)
        assert len(serial.records) == len(parallel.records) == 12
        assert canonical(serial.records) == canonical(parallel.records)

    def test_parallel_records_come_back_in_spec_order(self, specs):
        run = execute_study(specs, jobs=4, cache_root=None, seed=SEED)
        assert [r.spec_index for r in run.records] == [s.index for s in specs]
        assert [e.spec_index for e in run.manifest.entries] == [s.index for s in specs]

    def test_parallel_workers_actually_fan_out(self, specs):
        run = execute_study(specs[:6], jobs=3, cache_root=None, seed=SEED)
        workers = {e.worker for e in run.manifest.entries}
        assert len(workers) > 1, "expected records from more than one worker pid"


class TestRecordCache:
    def test_cold_then_warm_run_identical_with_full_hits(self, specs, tmp_path):
        root = tmp_path / "records"
        cold = execute_study(specs, jobs=1, cache_root=root, seed=SEED)
        assert cold.manifest.misses == 12 and cold.manifest.hits == 0
        warm = execute_study(specs, jobs=1, cache_root=root, seed=SEED)
        assert warm.manifest.hits == 12 and warm.manifest.misses == 0
        assert warm.manifest.hit_rate() == 1.0
        # Warm records are byte-identical, walltimes included: they are
        # the cached payloads themselves.
        assert [r.to_json() for r in cold.records] == [r.to_json() for r in warm.records]

    def test_warm_parallel_equals_cold_serial(self, specs, tmp_path):
        root = tmp_path / "records"
        cold = execute_study(specs, jobs=1, cache_root=root, seed=SEED)
        warm = execute_study(specs, jobs=4, cache_root=root, seed=SEED)
        assert warm.manifest.hits == 12
        assert [r.to_json() for r in cold.records] == [r.to_json() for r in warm.records]

    def test_manifest_written_into_cache_root(self, specs, tmp_path):
        root = tmp_path / "records"
        execute_study(specs[:2], jobs=1, cache_root=root, seed=SEED)
        manifest = RunManifest.read(root / MANIFEST_NAME)
        assert len(manifest.entries) == 2
        assert manifest.seed == SEED
        assert manifest.jobs == 1
        assert not manifest.interrupted
        assert all(e.walltime > 0 for e in manifest.entries)

    def test_cache_entries_are_readable_records(self, specs, tmp_path):
        root = tmp_path / "records"
        run = execute_study(specs[:3], jobs=1, cache_root=root, seed=SEED)
        cache = RecordCache(root)
        assert len(cache) == 3
        for entry, record in zip(run.manifest.entries, run.records):
            cached = cache.get(entry.key)
            assert cached is not None
            assert cached.to_json() == record.to_json()

    def test_corrupt_cache_entry_is_a_miss(self, specs, tmp_path):
        root = tmp_path / "records"
        run = execute_study(specs[:1], jobs=1, cache_root=root, seed=SEED)
        key = run.manifest.entries[0].key
        cache = RecordCache(root)
        cache.path(key).write_text("{not json")
        assert cache.get(key) is None
        # get() deletes the unparseable file rather than leave it rotting.
        assert not cache.path(key).exists()
        rerun = execute_study(specs[:1], jobs=1, cache_root=root, seed=SEED)
        assert rerun.manifest.misses == 1
        assert cache.get(key) is not None

    def test_corrupt_cache_entry_is_counted_in_manifest(self, specs, tmp_path):
        root = tmp_path / "records"
        run = execute_study(specs[:1], jobs=1, cache_root=root, seed=SEED)
        key = run.manifest.entries[0].key
        cache = RecordCache(root)
        # Flip bytes inside the stored envelope so the checksum breaks.
        blob = bytearray(cache.path(key).read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        cache.path(key).write_bytes(bytes(blob))
        rerun = execute_study(specs[:1], jobs=1, cache_root=root, seed=SEED)
        assert rerun.manifest.misses == 1
        assert rerun.manifest.cache_corrupt == 1
        entry = rerun.manifest.entries[0]
        assert entry.cache_corrupt and entry.status == "ok"
        # The recomputed record is identical to the original.
        assert (
            rerun.records[0].to_json(canonical=True)
            == run.records[0].to_json(canonical=True)
        )

    def test_clear_empties_the_cache(self, specs, tmp_path):
        root = tmp_path / "records"
        execute_study(specs[:2], jobs=1, cache_root=root, seed=SEED)
        cache = RecordCache(root)
        assert cache.clear() == 2
        assert len(cache) == 0


class TestCorpusStudy:
    """``execute_study`` over the paper corpus specs, as the experiments
    runner, the benchmark harness and the examples call it."""

    def test_corpus_jobs_parameter_is_equivalent(self):
        serial = execute_study(corpus_specs(SEED)[:2], jobs=1, cache_root=None)
        parallel = execute_study(corpus_specs(SEED)[:2], jobs=2, cache_root=None)
        assert canonical(serial.records) == canonical(parallel.records)

    def test_no_cache_root_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        records = execute_study(corpus_specs(SEED)[:1], cache_root=None).records
        assert len(records) == 1
        assert not (tmp_path / ".cache").exists()

    def test_record_cache_populated_under_cache_root(self, tmp_path):
        root = tmp_path / "records"
        execute_study(corpus_specs(SEED)[:2], cache_root=root)
        assert len(RecordCache(root)) == 2
        # The second run reads both records back from the cache.
        execute_study(corpus_specs(SEED)[:2], cache_root=root)
        manifest = RunManifest.read(root / MANIFEST_NAME)
        assert manifest.hits == 2 and manifest.misses == 0


class TestExecuteTraces:
    def test_measures_trace_files_and_caches(self, tmp_path):
        machine = get_machine("cielito")
        paths = []
        for i in range(3):
            trace = build_trace(mini_corpus_specs(3, seed=SEED)[i])
            path = tmp_path / f"t{i}.dmp"
            write_trace(trace, path)
            paths.append(path)
        root = tmp_path / "records"
        cold = execute_traces(paths, jobs=1, cache_root=root)
        assert len(cold.records) == 3 and not cold.failures
        warm = execute_traces(paths, jobs=2, cache_root=root)
        assert warm.manifest.hits == 3
        assert [r.to_json() for r in cold.records] == [r.to_json() for r in warm.records]

    def test_unreadable_file_is_isolated(self, tmp_path):
        good = build_trace(mini_corpus_specs(1, seed=SEED)[0])
        good_path = tmp_path / "good.dmp"
        write_trace(good, good_path)
        run = execute_traces([tmp_path / "missing.dmp", good_path], jobs=1, cache_root=None)
        assert len(run.records) == 1
        assert len(run.failures) == 1
        assert "missing.dmp" in run.failures[0].name


class TestPicklability:
    """Everything crossing the pool boundary must pickle; live engines must not."""

    def test_specs_records_and_configs_pickle(self):
        spec = mini_corpus_specs(1, seed=SEED)[0]
        trace = build_trace(spec)
        machine = get_machine(spec.machine)
        result = simulate_trace(trace, machine, "packet-flow")
        for obj in (spec, trace, machine, result):
            clone = pickle.loads(pickle.dumps(obj))
            assert type(clone) is type(obj)
        record = execute_study([spec], jobs=1, cache_root=None).records[0]
        clone = pickle.loads(pickle.dumps(record))
        assert clone.to_json() == record.to_json()

    def test_event_engine_refuses_to_pickle(self):
        with pytest.raises(TypeError, match="not picklable"):
            pickle.dumps(EventEngine())

    def test_study_record_json_round_trip(self):
        record = execute_study(mini_corpus_specs(1, seed=SEED), jobs=1, cache_root=None).records[0]
        restored = StudyRecord.from_json(json.loads(json.dumps(record.to_json())))
        assert restored.to_json() == record.to_json()
        assert restored.to_json(canonical=True) == record.to_json(canonical=True)
        assert "walltime" not in restored.to_json(canonical=True)["mfact"]


class TestValidation:
    def test_jobs_must_be_positive(self, specs):
        with pytest.raises(ValueError, match="jobs"):
            execute_study(specs[:1], jobs=0)
        with pytest.raises(ValueError, match="jobs"):
            execute_traces(["x.dmp"], jobs=-1)

    def test_trace_cache_key_is_stable(self):
        machine = get_machine("cielito")
        trace = generate_npb("CG", 4, machine, seed=1, compute_per_iter=1e-4)
        assert trace_cache_key(trace) == trace_cache_key(trace)
        assert len(trace_cache_key(trace)) == 64
