"""Tests for the unified repro-lint CLI (repro.analysis.cli)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import detlint
from repro.analysis.baseline import (
    Allowance,
    Baseline,
    canonical_path,
)
from repro.analysis.cli import main, run_lint
from repro.machines.presets import get_machine
from repro.trace.dumpi import write_trace
from repro.workloads.npb import generate_npb

REPO_ROOT = Path(__file__).resolve().parent.parent

CLEAN_SRC = "def double(x):\n    return 2 * x\n"

#: One det/wall-clock ERROR on line 5.
WALLCLOCK_SRC = (
    "import json\n"
    "import time\n"
    "\n"
    "def f(record):\n"
    "    return json.dumps({\"at\": time.time()})\n"
)


def make_pkg(tmp_path, name, source):
    """A file under a ``repro/core/`` prefix so paths canonicalize."""
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True, exist_ok=True)
    path = pkg / name
    path.write_text(source)
    return path


class TestExitCodes:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "ok.py"
        path.write_text(CLEAN_SRC)
        assert main([str(path), "--no-baseline"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_detlint_error_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text(WALLCLOCK_SRC)
        assert main([str(path), "--no-baseline"]) == 2
        assert "det/wall-clock" in capsys.readouterr().out

    def test_seed_provenance_error_exits_two(self, tmp_path, capsys):
        # Stdlib random use is reported once, as det/seed-provenance.
        path = tmp_path / "bad.py"
        path.write_text("import random\nrandom.seed(1)\n")
        assert main([str(path), "--no-baseline"]) == 2
        out = capsys.readouterr().out
        assert "det/seed-provenance" in out
        assert "src/unseeded-rng" not in out

    def test_warning_only_exits_one(self, tmp_path):
        # Inside the repro/ prefix the unordered-capture rule warns.
        path = make_pkg(
            tmp_path, "warn.py",
            "def f(items):\n    s = set(items)\n    return list(s)\n",
        )
        assert main([str(path), "--no-baseline"]) == 1

    def test_syntax_error_module_reports_once(self, tmp_path, capsys):
        path = make_pkg(tmp_path, "broken.py", "def f(:\n")
        rel = path.as_posix()
        assert main([str(path), "--no-baseline", "--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert [(d["rule"], d["severity"], d["location"])
                for d in payload["diagnostics"]] \
            == [("det/syntax", "ERROR", f"{rel}:1")]
        assert [d.rule for d in detlint.lint_source("def f(:\n", rel)] \
            == ["det/syntax"]


class TestBaselineRatchet:
    def test_allowance_suppresses_known_finding(self, tmp_path, capsys):
        make_pkg(tmp_path, "mod.py", WALLCLOCK_SRC)
        bpath = tmp_path / "baseline.json"
        Baseline([
            Allowance("det/wall-clock", "repro/core/mod.py", 1, "known"),
        ]).save(bpath)
        code = main([str(tmp_path / "repro"), "--baseline", str(bpath)])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 known finding(s) suppressed" in out

    def test_new_finding_beyond_allowance_fails(self, tmp_path, capsys):
        two = WALLCLOCK_SRC + (
            "\ndef g(record):\n"
            "    return json.dumps({\"seen\": time.time()})\n"
        )
        make_pkg(tmp_path, "mod.py", two)
        bpath = tmp_path / "baseline.json"
        Baseline([
            Allowance("det/wall-clock", "repro/core/mod.py", 1, "known"),
        ]).save(bpath)
        code = main([str(tmp_path / "repro"), "--baseline", str(bpath)])
        out = capsys.readouterr().out
        assert code == 2
        # The whole over-allowance group is shown, not just the newcomer.
        assert out.count("det/wall-clock") >= 2

    def test_stale_allowance_is_reported(self, tmp_path, capsys):
        make_pkg(tmp_path, "mod.py", CLEAN_SRC)
        bpath = tmp_path / "baseline.json"
        Baseline([
            Allowance("det/wall-clock", "repro/core/mod.py", 1, "fixed"),
        ]).save(bpath)
        code = main([str(tmp_path / "repro"), "--baseline", str(bpath)])
        out = capsys.readouterr().out
        assert code == 0
        assert "stale allowance" in out

    def test_update_baseline_writes_and_carries_reasons(
        self, tmp_path, capsys, monkeypatch
    ):
        two = WALLCLOCK_SRC + (
            "\ndef g(record):\n"
            "    return json.dumps({\"seen\": time.time()})\n"
        )
        # --update-baseline lints the default tree, ./src/repro.
        make_pkg(tmp_path / "src", "mod.py", two)
        monkeypatch.chdir(tmp_path)
        bpath = tmp_path / "baseline.json"
        Baseline([
            Allowance("det/wall-clock", "repro/core/mod.py", 1,
                      "intentional timestamp"),
        ]).save(bpath)
        code = main(["--baseline", str(bpath), "--update-baseline"])
        assert code == 0
        assert "baseline written" in capsys.readouterr().out
        updated = Baseline.load(bpath)
        (allowance,) = updated.allowances
        assert allowance.count == 2
        assert allowance.reason == "intentional timestamp"
        # The regenerated baseline makes the same tree pass.
        assert main([
            str(tmp_path / "src" / "repro"), "--baseline", str(bpath),
        ]) == 0
        capsys.readouterr()

    def test_update_baseline_with_paths_is_a_usage_error(self, tmp_path, capsys):
        make_pkg(tmp_path, "mod.py", CLEAN_SRC)
        bpath = tmp_path / "baseline.json"
        Baseline([
            Allowance("det/wall-clock", "repro/bench/sensitivity.py", 1,
                      "documented reason"),
        ]).save(bpath)
        before = bpath.read_bytes()
        with pytest.raises(SystemExit) as exc:
            main([str(tmp_path / "repro" / "core" / "mod.py"),
                  "--baseline", str(bpath), "--update-baseline"])
        assert exc.value.code == 2
        assert "--update-baseline" in capsys.readouterr().err
        assert bpath.read_bytes() == before

    def test_subset_run_keeps_unlinted_allowances_quiet(self, tmp_path, capsys):
        make_pkg(tmp_path, "mod.py", CLEAN_SRC)
        make_pkg(tmp_path, "other.py", CLEAN_SRC)
        bpath = tmp_path / "baseline.json"
        Baseline([
            Allowance("det/wall-clock", "repro/core/other.py", 1, "not linted"),
            Allowance("det/wall-clock", "repro/core/mod.py", 1, "fixed"),
        ]).save(bpath)
        code = main([str(tmp_path / "repro" / "core" / "mod.py"),
                     "--baseline", str(bpath), "--json"])
        assert code == 0
        baseline = json.loads(capsys.readouterr().out)["baseline"]
        assert [a["path"] for a in baseline["stale"]] == ["repro/core/mod.py"]
        assert [d["path"] for d in baseline["deltas"]] == ["repro/core/mod.py"]

    def test_run_lint_returns_raw_source_diags(self, tmp_path):
        make_pkg(tmp_path, "mod.py", WALLCLOCK_SRC)
        baseline = Baseline([
            Allowance("det/wall-clock", "repro/core/mod.py", 1, "known"),
        ])
        report, source_diags, result = run_lint([tmp_path / "repro"], baseline)
        assert report.diagnostics == []
        assert [d.rule for d in source_diags] == ["det/wall-clock"]
        assert result.suppressed == 1

    def test_canonical_path_strips_line_and_prefix(self):
        loc = "/tmp/x/repro/core/mod.py:17"
        assert canonical_path(loc) == "repro/core/mod.py"
        assert canonical_path("other/file.py") == "other/file.py"


class TestJsonOutput:
    def test_json_payload_includes_baseline_info(self, tmp_path, capsys):
        make_pkg(tmp_path, "mod.py", WALLCLOCK_SRC)
        bpath = tmp_path / "baseline.json"
        Baseline([
            Allowance("det/wall-clock", "repro/core/mod.py", 1, "known"),
        ]).save(bpath)
        code = main([
            str(tmp_path / "repro"), "--baseline", str(bpath), "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["ok"] is True
        assert payload["baseline"]["suppressed"] == 1
        assert payload["diagnostics"] == []

    def test_json_without_baseline_lists_findings(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text(WALLCLOCK_SRC)
        assert main([str(path), "--no-baseline", "--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["ERROR"] == 1
        assert payload["diagnostics"][0]["rule"] == "det/wall-clock"


class TestTracePaths:
    def test_unreadable_trace_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "garbage.dmp"
        path.write_text("not a trace at all\n")
        assert main([str(path), "--no-baseline"]) == 2
        assert "trace/unreadable" in capsys.readouterr().out

    def test_sources_and_trace_merge_into_one_report(self, tmp_path, capsys):
        trace = generate_npb(
            "CG", 16, get_machine("cielito"), seed=3, compute_per_iter=0.001
        )
        tpath = write_trace(trace, tmp_path / "cg.dmp")
        spath = tmp_path / "ok.py"
        spath.write_text(CLEAN_SRC)
        assert main([str(spath), str(tpath), "--no-baseline"]) == 0
        out = capsys.readouterr().out
        assert "ok.py" in out and "cg.dmp" in out


class TestEntryPoint:
    def test_module_entry_point_repo_is_clean(self):
        # The whole-tree check runs in-process (test_detlint's
        # TestRepoUnderBaseline); this one only proves that
        # ``python -m repro.analysis.cli`` starts and exits 0 on a
        # clean repo file.
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis.cli",
             "src/repro/analysis/diagnostics.py"],
            capture_output=True,
            text=True,
            cwd=str(REPO_ROOT),
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout
