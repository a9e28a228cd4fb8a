"""End-to-end tests for the experiments CLI.

The record-driven targets run on a 2-record study measured into a
temporary working directory's ``.cache/records/``.  ``audit`` asserts
on the whole corpus, so it runs only when the repository's per-record
cache already holds every corpus spec of the default seed.
"""

import json

import pytest

from repro.core.executor import DEFAULT_RECORD_CACHE, RecordCache, execute_study, spec_cache_key
from repro.core.pipeline import StudyRecord
from repro.experiments.runner import EXPERIMENTS, main, run_experiment
from repro.util.rng import DEFAULT_SEED
from repro.workloads.suite import corpus_specs

LIMIT = 2


def corpus_cached() -> bool:
    """Whether ``.cache/records/`` holds a record for every corpus spec
    of the default seed (the runner's default)."""
    cache = RecordCache(DEFAULT_RECORD_CACHE)
    for spec in corpus_specs(DEFAULT_SEED):
        key = cache.get_alias(spec_cache_key(spec))
        if key is None or not cache.path(key).exists():
            return False
    return True


class TestRunnerParsing:
    def test_unknown_target(self):
        with pytest.raises(SystemExit):
            main(["nonsense"])

    def test_experiments_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "table1", "table3", "table4",
            "fig1", "fig2", "fig3", "fig4", "fig5",
            "section5b", "section6",
        }

    def test_every_registered_experiment_has_compute_and_render(self):
        for name, (compute, render) in EXPERIMENTS.items():
            assert callable(compute) and callable(render)


class TestRunnerAgainstCache:
    def test_record_driven_targets(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["table1", "fig5", "--limit", str(LIMIT), "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Figure 5" in out

    def test_audit_target(self, capsys):
        if not corpus_cached():
            pytest.skip("per-record cache does not hold every default-seed corpus spec")
        assert main(["audit", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "corpus size" in out
        assert "FAIL" not in out

    def test_run_experiment_helper(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        records = execute_study(corpus_specs(DEFAULT_SEED)[:LIMIT]).records
        text = run_experiment("section5b", records)
        assert "Section V-B" in text

    def test_limit_slices_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["table1", "--limit", str(LIMIT), "--quiet"]) == 0
        out = capsys.readouterr().out
        assert str(LIMIT) in out
        assert f"{'Total':>12s} {LIMIT:6d}" in out


class TestNoStudySnapshot:
    def test_stale_study_snapshot_is_never_read(self, capsys, tmp_path, monkeypatch):
        """A ``.cache/study_seed0.json`` left by older code (which read it
        back keyed by the seed alone) must not feed ``--seed 0``'s tables:
        records come from measurement through the per-record cache."""
        monkeypatch.chdir(tmp_path)
        stale = StudyRecord(
            name="STALE-FROM-OLD-CODE", app="STALE", suite="npb",
            machine="cielito", nranks=1728, spec_index=0,
            measured_total=1.0, measured_comm=0.99, comm_fraction=0.99,
        )
        snapshot = tmp_path / ".cache" / "study_seed0.json"
        snapshot.parent.mkdir()
        snapshot.write_text(json.dumps(
            {"seed": 0, "records": [stale.to_json()] * 235}
        ))
        assert main(["table1", "--seed", "0", "--limit", str(LIMIT), "--quiet"]) == 0
        out = capsys.readouterr().out
        measured = execute_study(corpus_specs(0)[:LIMIT]).records
        assert [r.name for r in measured] == [s.name for s in corpus_specs(0)[:LIMIT]]
        assert run_experiment("table1", measured) in out
