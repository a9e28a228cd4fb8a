"""Tests for the cross-function summary layer.

Covers :mod:`repro.analysis.summaries` (per-function summaries, SCC
fixpoint) and the diagnostics they produce through detlint, the
per-module pass ``repro-lint`` runs
(:func:`repro.analysis.detlint.lint_source`).
"""

import ast

from repro.analysis import detlint
from repro.analysis.detlint import lint_source
from repro.analysis.summaries import (
    MODULE_BODY,
    compute_module_summaries,
    param_symbol,
    parse_symbol,
    _tarjan,
)


def rules(diags):
    return [d.rule for d in diags]


# ----------------------------------------------------------------------
# Summary computation
# ----------------------------------------------------------------------

class TestSummaries:
    def summarize(self, source, rel="src/repro/core/mod.py",
                  module="repro.core.mod"):
        tree = ast.parse(source)
        return compute_module_summaries(tree, rel, module)

    def test_return_taint_and_origin(self):
        summaries = self.summarize(
            "import time\n"
            "def now():\n"
            "    return time.time()\n"
        )
        summary = summaries["now"]
        assert detlint.WALLCLOCK in summary.return_tags
        assert "wallclock" in summary.nondet
        assert summary.origins["wallclock"][-1].startswith("time.time")

    def test_transitive_return_taint_to_fixpoint(self):
        summaries = self.summarize(
            "import time\n"
            "def c():\n"
            "    return b()\n"
            "def b():\n"
            "    return a()\n"
            "def a():\n"
            "    return time.time()\n"
        )
        # c is defined before a, so only the SCC fixpoint can see the
        # taint flow bottom-up through b.
        assert detlint.WALLCLOCK in summaries["c"].return_tags
        chain = summaries["c"].origins["wallclock"]
        assert chain[0] == "b()"
        assert chain[1] == "a()"

    def test_param_sink_is_symbolic_per_class(self):
        summaries = self.summarize(
            "import json\n"
            "def digest(values):\n"
            "    return json.dumps(sorted(values))\n"
            "def persist(values):\n"
            "    return json.dumps(values)\n"
        )
        # sorted() sanitizes exactly the unordered class; other taint
        # classes (wallclock, pyhash, rng) still reach the sink.
        assert not any(s.cls == "unordered"
                       for s in summaries["digest"].param_sinks)
        sinks = summaries["persist"].param_sinks
        assert any(s.index == 0 and s.cls == "unordered" for s in sinks)

    def test_return_symbols_thread_param_taint(self):
        summaries = self.summarize(
            "def ident(x):\n"
            "    return x\n"
        )
        assert param_symbol(0, "unordered") in summaries["ident"].return_symbols
        idx, cls = parse_symbol(param_symbol(0, "wallclock"))
        assert (idx, cls) == (0, "wallclock")

    def test_module_body_summary_present(self):
        summaries = self.summarize("import time\nNOW = time.time()\n")
        assert MODULE_BODY in summaries
        assert "wallclock" in summaries[MODULE_BODY].nondet

    def test_tarjan_orders_dependencies_first(self):
        sccs = _tarjan(
            ["a", "b", "c", "d"],
            {"a": {"b"}, "b": {"c"}, "c": {"b"}, "d": set()},
        )
        flat = [sorted(s) for s in sccs]
        assert ["b", "c"] in flat
        assert flat.index(["b", "c"]) < flat.index(["a"])


# ----------------------------------------------------------------------
# Calls between functions of one module
# ----------------------------------------------------------------------

class TestCrossModule:
    """Helper and caller in one module, through ``repro-lint``'s
    per-module pass.

    Calls into other modules are not resolved, so each case keeps the
    helper beside its caller.  The class keeps the name it had when the
    cases spanned two modules, so its test ids stay stable.
    """

    REL = "src/repro/core/mod.py"

    def test_two_hop_wallclock_chain_is_named(self):
        diags = lint_source(
            "import json\n"
            "import time\n"
            "def helper():\n"
            "    return time.time()\n"
            "def mid():\n"
            "    return helper()\n"
            "def record(payload):\n"
            "    return json.dumps({'at': mid(), 'payload': payload})\n",
            self.REL,
        )
        (diag,) = [d for d in diags if d.rule == "det/wall-clock"]
        assert diag.location == f"{self.REL}:8"
        assert "mid() -> helper() -> time.time()" in diag.message

    def test_param_sink_reported_at_call_site(self):
        diags = lint_source(
            "import json\n"
            "def persist(values):\n"
            "    return json.dumps(values)\n"
            "def bad(items):\n"
            "    return persist(set(items))\n"
            "def good(items):\n"
            "    return persist(sorted(items))\n",
            self.REL,
        )
        unordered = [d for d in diags if d.rule == "det/unordered-iter"]
        assert len(unordered) == 1
        assert unordered[0].location == f"{self.REL}:5"
        assert "persist()" in unordered[0].message

    def test_seed_provenance_through_aliased_helper(self):
        diags = lint_source(
            "import numpy.random as nr\n"
            "def fresh():\n"
            "    return nr.default_rng()\n"
            "def draw():\n"
            "    return fresh().integers(0, 10)\n",
            self.REL,
        )
        (diag,) = [d for d in diags if d.rule == "det/seed-provenance"]
        assert diag.location == f"{self.REL}:3"

    def test_blessed_substream_path_is_silent(self):
        diags = lint_source(
            "from repro.util.rng import substream\n"
            "def draw(seed):\n"
            "    return substream(seed, 'draws').integers(0, 10)\n",
            self.REL,
        )
        assert "det/seed-provenance" not in rules(diags)
