"""Static analysis over traces and sources.

Three linting layers share one diagnostic vocabulary:

* :mod:`repro.analysis.lint` — ``tracelint``, a rule-based static
  analyzer that walks a :class:`~repro.trace.trace.TraceSet` without
  simulating it (matching, deadlock, collective ordering, timestamps,
  engine applicability);
* :mod:`repro.analysis.srclint` — an AST linter enforcing repository
  invariants (seeded RNG discipline, no float time equality, exhaustive
  ``OpKind`` dispatch tables);
* :mod:`repro.analysis.detlint` — a CFG/dataflow analyzer
  (:mod:`repro.analysis.cfg`, :mod:`repro.analysis.dataflow`) catching
  determinism hazards (unordered iteration, wall-clock and ``hash()``
  taint reaching deterministic sinks), worker-pool concurrency hazards
  (shared-state mutation, unpicklable payloads, fork-shared RNGs) and
  resource leaks (``open()`` without close-on-all-paths).  Per-function
  summaries (:mod:`repro.analysis.summaries`) carry these flows across
  calls between functions of one module.

The unified CLI (:mod:`repro.analysis.cli`, installed as
``repro-lint``) runs all three in one per-module pass under the
baseline ratchet (:mod:`repro.analysis.baseline`).  Corpus audit findings
(:mod:`repro.workloads.audit`) are re-expressed in the same
:class:`~repro.analysis.diagnostics.Diagnostic` format, so trace
health, code health and corpus health read as one report.
"""

from repro.analysis.diagnostics import Diagnostic, LintReport, Severity
from repro.analysis.lint import LintGateError, TRACE_RULES, lint_trace


def __getattr__(name):
    # The source linters and the CLI are imported lazily so that
    # `python -m repro.analysis.<mod>` does not warn about the module
    # pre-existing in sys.modules.
    if name in ("lint_paths", "lint_source"):
        from repro.analysis import srclint

        return getattr(srclint, name)
    if name in ("detlint_paths", "detlint_source", "DETLINT_RULES"):
        from repro.analysis import detlint

        mapped = {
            "detlint_paths": "lint_paths",
            "detlint_source": "lint_source",
            "DETLINT_RULES": "DETLINT_RULES",
        }
        return getattr(detlint, mapped[name])
    if name == "run_lint":
        from repro.analysis import cli

        return cli.run_lint
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Diagnostic",
    "LintReport",
    "Severity",
    "LintGateError",
    "TRACE_RULES",
    "lint_trace",
    "lint_paths",
    "lint_source",
    "detlint_paths",
    "detlint_source",
    "DETLINT_RULES",
    "run_lint",
]
