"""Per-rule tests for the CFG/dataflow linter (repro.analysis.detlint).

Each rule gets a firing case and a clean twin; the repo-wide test pins
the whole package, linted through ``repro-lint``'s ``run_lint``, to the
checked-in baseline (zero unbaselined findings, zero stale allowances).
"""

import textwrap
from pathlib import Path

from repro.analysis.baseline import Baseline
from repro.analysis.cli import run_lint
from repro.analysis.detlint import DETLINT_RULES, lint_source
from repro.analysis.diagnostics import Severity

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"

#: Path label inside the measurement-critical warn scope.
SCOPED = "src/repro/core/mod.py"


def lint(src, rel="m.py"):
    return lint_source(textwrap.dedent(src), rel)


def rules(src, rel="m.py"):
    return [d.rule for d in lint(src, rel)]


class TestUnorderedIter:
    def test_set_order_into_dumps_is_error(self):
        src = """
            import json

            def f(items):
                s = set(items)
                return json.dumps(list(s))
            """
        diags = lint(src)
        assert [d.rule for d in diags] == ["det/unordered-iter"]
        assert diags[0].severity == Severity.ERROR

    def test_sorted_before_dumps_is_clean(self):
        src = """
            import json

            def f(items):
                s = set(items)
                return json.dumps(sorted(s))
            """
        assert rules(src) == []

    def test_listing_order_into_fingerprint_is_error(self):
        src = """
            import os

            def f(d):
                files = os.listdir(d)
                return make_fingerprint(files)
            """
        assert rules(src) == ["det/unordered-iter"]

    def test_set_join_into_digest_update_is_error(self):
        src = """
            import hashlib

            def f(items):
                names = {i.name for i in items}
                h = hashlib.sha256()
                h.update(",".join(names).encode())
                return h.hexdigest()
            """
        assert rules(src) == ["det/unordered-iter"]

    def test_capture_warns_only_in_critical_packages(self):
        src = """
            def f(items):
                s = set(items)
                return list(s)
            """
        diags = lint(src, SCOPED)
        assert [d.rule for d in diags] == ["det/unordered-iter"]
        assert diags[0].severity == Severity.WARNING
        assert rules(src, "src/repro/experiments/mod.py") == []

    def test_listcomp_capture_warns_in_scope(self):
        src = """
            def f(active):
                pending = {i for i in range(len(active))}
                return [i for i in pending if active[i]]
            """
        diags = lint(src, SCOPED)
        assert [d.rule for d in diags] == ["det/unordered-iter"]
        assert diags[0].severity == Severity.WARNING

    def test_sorted_comprehension_is_clean_in_scope(self):
        src = """
            def f(active):
                pending = {i for i in range(len(active))}
                return [i for i in sorted(pending) if active[i]]
            """
        assert rules(src, SCOPED) == []

    def test_membership_and_len_are_clean_in_scope(self):
        src = """
            def f(items, probe):
                s = set(items)
                return probe in s, len(s)
            """
        assert rules(src, SCOPED) == []


class TestWallClock:
    def test_wallclock_into_dumps_is_error(self):
        src = """
            import json
            import time

            def f(record):
                record["measured_at"] = time.time()
                return json.dumps(record, sort_keys=True)
            """
        diags = lint(src)
        assert [d.rule for d in diags] == ["det/wall-clock"]
        assert diags[0].severity == Severity.ERROR

    def test_manifest_sink_is_exempt(self):
        src = """
            import time

            def f(entry):
                entry["walltime"] = time.time()
                return write_manifest(entry)
            """
        assert rules(src) == []

    def test_timing_a_deterministic_payload_is_clean(self):
        src = """
            import json
            import time

            def f(record):
                t0 = time.perf_counter()
                payload = json.dumps(record, sort_keys=True)
                return payload, time.perf_counter() - t0
            """
        assert rules(src) == []


class TestBuiltinHash:
    def test_hash_into_persisted_key_is_error(self):
        src = """
            import json

            def f(spec):
                key = hash(spec)
                return json.dumps({"key": key})
            """
        assert rules(src) == ["det/builtin-hash"]

    def test_hash_for_comparison_is_clean(self):
        src = """
            def same(a, b):
                return hash(a) == hash(b)
            """
        assert rules(src) == []

    def test_hashlib_key_is_clean(self):
        src = """
            import hashlib
            import json

            def f(spec):
                key = hashlib.sha256(repr(spec).encode()).hexdigest()
                return json.dumps({"key": key})
            """
        assert rules(src) == []


class TestSeedProvenance:
    def test_stdlib_random_call_flagged(self):
        diags = lint_source("import random\nx = random.random()\n", "m.py")
        assert [d.rule for d in diags] == ["det/seed-provenance"]
        assert diags[0].location == "m.py:2"

    def test_stdlib_random_alias_flagged(self):
        diags = lint_source("import random as rnd\nx = rnd.choice([1])\n", "m.py")
        assert [d.rule for d in diags] == ["det/seed-provenance"]

    def test_from_random_import_flags_the_call_not_the_import(self):
        diags = lint_source("from random import shuffle\nshuffle(xs)\n", "m.py")
        assert [d.location for d in diags] == ["m.py:2"]
        assert [d.rule for d in diags] == ["det/seed-provenance"]

    def test_np_random_call_flagged(self):
        diags = lint_source(
            "import numpy as np\nrng = np.random.default_rng()\n", "m.py"
        )
        assert [d.rule for d in diags] == ["det/seed-provenance"]

    def test_generator_annotation_allowed(self):
        src = (
            "import numpy as np\n"
            "def f(rng: np.random.Generator) -> None:\n"
            "    rng.normal()\n"
        )
        assert lint_source(src, "m.py") == []

    def test_rng_module_exempt(self):
        src = "import numpy as np\nrng = np.random.default_rng(7)\n"
        assert lint_source(src, "src/repro/util/rng.py") == []
        assert lint_source(src, "other.py") != []


class TestSocketNoTimeout:
    SERVE = "src/repro/serve/mod.py"

    def test_bare_socket_in_serve_is_error(self):
        src = """
            import socket

            def f(host, port):
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                sock.connect((host, port))
                return sock.recv(4)
            """
        diags = lint(src, self.SERVE)
        assert [d.rule for d in diags] == ["conc/socket-no-timeout"]
        assert diags[0].severity == Severity.ERROR

    def test_settimeout_in_same_function_is_clean(self):
        src = """
            import socket

            def f(host, port):
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                sock.settimeout(5.0)
                sock.connect((host, port))
                return sock.recv(4)
            """
        assert rules(src, self.SERVE) == []

    def test_create_connection_without_timeout_is_error(self):
        src = """
            import socket

            def f(host, port):
                sock = socket.create_connection((host, port))
                return sock.recv(4)
            """
        assert rules(src, self.SERVE) == ["conc/socket-no-timeout"]

    def test_create_connection_with_timeout_kwarg_is_clean(self):
        src = """
            import socket

            def f(host, port):
                sock = socket.create_connection((host, port), timeout=3.0)
                return sock.recv(4)
            """
        assert rules(src, self.SERVE) == []

    def test_accept_result_needs_timeout(self):
        src = """
            def f(listener):
                conn, addr = listener.accept()
                return conn.recv(4)
            """
        assert rules(src, self.SERVE) == ["conc/socket-no-timeout"]

    def test_accept_result_with_settimeout_is_clean(self):
        src = """
            def f(listener, deadline):
                conn, addr = listener.accept()
                conn.settimeout(deadline)
                return conn.recv(4)
            """
        assert rules(src, self.SERVE) == []

    def test_rule_is_scoped_to_serve_package(self):
        src = """
            import socket

            def f(host, port):
                sock = socket.create_connection((host, port))
                return sock.recv(4)
            """
        assert rules(src, "src/repro/core/mod.py") == []
        assert rules(src, "m.py") == []


class TestDriverAndMeta:
    def test_rules_are_the_record_contract(self):
        assert sorted(DETLINT_RULES) == [
            "conc/socket-no-timeout", "det/builtin-hash",
            "det/seed-provenance", "det/unordered-iter", "det/wall-clock",
        ]

    def test_syntax_error_becomes_diagnostic(self):
        diags = lint_source("def broken(:\n", "m.py")
        assert [d.rule for d in diags] == ["det/syntax"]
        assert diags[0].severity == Severity.ERROR

    def test_every_emitted_rule_is_documented(self):
        src = """
            import json

            def f(items):
                s = set(items)
                return json.dumps(list(s))
            """
        for diag in lint(src):
            assert diag.rule in DETLINT_RULES

    def test_findings_are_deterministic(self):
        src = textwrap.dedent(
            """
            import json
            import time

            def f(record):
                return json.dumps({"at": time.time(), "k": hash(record)})
            """
        )
        first = [str(d) for d in lint_source(src, "m.py")]
        second = [str(d) for d in lint_source(src, "m.py")]
        assert first == second
        assert sorted({d.rule for d in lint_source(src, "m.py")}) == [
            "det/builtin-hash", "det/wall-clock",
        ]


class TestRepoUnderBaseline:
    def test_whole_package_within_baseline(self):
        # The CLI prints stale allowances without failing on them, so
        # this check is what keeps the baseline tight.
        baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
        _, _, result = run_lint([SRC_ROOT], baseline)
        assert result.kept == [], "\n".join(str(d) for d in result.kept)
        assert result.stale == [], [a.to_json() for a in result.stale]

    def test_baselined_debt_is_documented(self):
        baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
        for allowance in baseline.allowances:
            assert allowance.reason, (
                f"{allowance.rule} in {allowance.path} needs a reason"
            )
