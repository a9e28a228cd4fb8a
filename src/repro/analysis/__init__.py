"""Static analysis over traces and sources.

Two linting layers share one diagnostic vocabulary:

* :mod:`repro.analysis.lint` — ``tracelint``, a rule-based static
  analyzer that walks a :class:`~repro.trace.trace.TraceSet` without
  simulating it (matching, deadlock, collective ordering, timestamps,
  engine applicability);
* :mod:`repro.analysis.detlint` — a CFG/dataflow analyzer
  (:mod:`repro.analysis.cfg`, :mod:`repro.analysis.dataflow`) that
  guards the canonical-record contract in the repo's own sources:
  unordered iteration, wall-clock readings, builtin ``hash()`` values
  and unseeded randomness reaching deterministic sinks, and sockets
  without a timeout in ``repro.serve``.  Per-function summaries
  (:mod:`repro.analysis.summaries`) carry these flows across calls
  between functions of one module.

The CLI (:mod:`repro.analysis.cli`, installed as ``repro-lint``) runs
both in one per-module pass under the baseline ratchet
(:mod:`repro.analysis.baseline`).  Corpus audit findings
(:mod:`repro.workloads.audit`) are re-expressed in the same
:class:`~repro.analysis.diagnostics.Diagnostic` format, so trace
health, code health and corpus health read as one report.
"""

from repro.analysis.diagnostics import Diagnostic, LintReport, Severity
from repro.analysis.lint import LintGateError, TRACE_RULES, lint_trace

__all__ = [
    "Diagnostic",
    "LintReport",
    "Severity",
    "LintGateError",
    "TRACE_RULES",
    "lint_trace",
]
