"""Typed diagnostics shared by trace lint, source lint, and corpus audit.

Every analysis layer in :mod:`repro.analysis` — the trace-level static
analyzer (:mod:`repro.analysis.lint`), the source-level determinism
linter (:mod:`repro.analysis.detlint`) and the corpus health audit
(:mod:`repro.workloads.audit`) — reports through one record type so
findings can be merged, filtered, serialized and rendered uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterable, List, Optional

__all__ = ["Severity", "Diagnostic", "LintReport"]


class Severity(IntEnum):
    """Diagnostic severity; the integer value doubles as the exit code."""

    NOTE = 0
    WARNING = 1
    ERROR = 2


@dataclass(frozen=True)
class Diagnostic:
    """One analysis finding.

    Attributes
    ----------
    rule:
        Stable rule identifier, namespaced by layer
        (``trace/unmatched-p2p``, ``src/unseeded-rng``, ``corpus/rank bins``).
    severity:
        :class:`Severity` of the finding.
    message:
        Human-readable description of the violation.
    rank:
        World rank the finding anchors to (``-1`` when not rank-specific).
    op_index:
        Position in the rank's op stream (``-1`` when not op-specific).
    location:
        Free-form source anchor: trace name for trace rules,
        ``file:line`` for source rules, check name for audit findings.
    hint:
        Optional suggestion for fixing the violation.
    """

    rule: str
    severity: Severity
    message: str
    rank: int = -1
    op_index: int = -1
    location: str = ""
    hint: str = ""

    def to_json(self) -> dict:
        """JSON-ready representation (severity by name)."""
        return {
            "rule": self.rule,
            "severity": self.severity.name,
            "message": self.message,
            "rank": self.rank,
            "op_index": self.op_index,
            "location": self.location,
            "hint": self.hint,
        }

    def __str__(self) -> str:
        where = []
        if self.location:
            where.append(self.location)
        if self.rank >= 0:
            where.append(f"rank {self.rank}")
        if self.op_index >= 0:
            where.append(f"op {self.op_index}")
        prefix = f" ({', '.join(where)})" if where else ""
        tail = f"  [fix: {self.hint}]" if self.hint else ""
        return f"{self.severity.name:7s} {self.rule}{prefix}: {self.message}{tail}"


@dataclass
class LintReport:
    """All diagnostics one analysis pass produced for one subject."""

    subject: str
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def extend(self, diags: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diags)

    @property
    def max_severity(self) -> Optional[Severity]:
        """Worst severity present, or ``None`` for a clean report."""
        if not self.diagnostics:
            return None
        return Severity(max(d.severity for d in self.diagnostics))

    @property
    def ok(self) -> bool:
        """True when no diagnostic reaches :attr:`Severity.ERROR`."""
        return all(d.severity < Severity.ERROR for d in self.diagnostics)

    def exit_code(self) -> int:
        """Process exit code: the max severity value (0 when clean)."""
        worst = self.max_severity
        return 0 if worst is None else int(worst)

    def by_rule(self, rule: str) -> List[Diagnostic]:
        """Diagnostics emitted by one rule."""
        return [d for d in self.diagnostics if d.rule == rule]

    def counts(self) -> dict:
        """``{severity name: count}`` over all diagnostics."""
        out = {s.name: 0 for s in Severity}
        for d in self.diagnostics:
            out[d.severity.name] += 1
        return out

    def to_json(self) -> dict:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "max_severity": None if self.max_severity is None else self.max_severity.name,
            "counts": self.counts(),
            "diagnostics": [d.to_json() for d in self.diagnostics],
        }

    def render(self) -> str:
        """Multi-line human-readable report."""
        lines = []
        for diag in sorted(
            self.diagnostics, key=lambda d: (-int(d.severity), d.rule, d.rank, d.op_index)
        ):
            lines.append(str(diag))
        counts = self.counts()
        summary = ", ".join(
            f"{counts[s.name]} {s.name.lower()}{'s' if counts[s.name] != 1 else ''}"
            for s in sorted(Severity, reverse=True)
            if counts[s.name]
        )
        lines.append(f"{self.subject}: {summary if summary else 'clean'}")
        return "\n".join(lines)
