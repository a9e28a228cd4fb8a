"""``repro-lint`` — the one lint entry point.

Runs detlint (:mod:`repro.analysis.detlint`) over each Python module
under the given roots, one parse and one pass per module, and tracelint
over any trace files given, merging everything into one
:class:`~repro.analysis.diagnostics.LintReport` with one exit code
(0 clean / 1 worst-is-warning / 2 worst-is-error, matching
:class:`~repro.analysis.diagnostics.Severity`).

The source layers pass through the baseline ratchet
(:mod:`repro.analysis.baseline`): findings within the checked-in
``lint-baseline.json`` allowances are suppressed (counted in the
summary), anything beyond them fails, and per-``(rule, file)`` drift
against the allowances is reported as new/fixed deltas.
``--update-baseline`` rewrites the baseline to exactly the current
findings of the whole default tree, carrying over documented reasons —
run it after paying down debt, then commit the file.  It takes no
paths: a baseline written from part of the tree would drop every
allowance outside it.

Usage::

    repro-lint                         # lint src/repro with ./lint-baseline.json
    repro-lint src/repro traces/a.dmp  # sources + a trace in one report
    repro-lint --json                  # machine-readable report + baseline info
    repro-lint --changed-only          # only findings in files changed vs HEAD
    repro-lint --no-baseline           # raw findings, ratchet off
    repro-lint --update-baseline       # regenerate lint-baseline.json

Also callable as ``python -m repro.analysis.cli``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Set, Tuple

from repro.analysis import detlint
from repro.analysis.baseline import Baseline, BaselineResult, canonical_path
from repro.analysis.diagnostics import Diagnostic, LintReport, Severity

__all__ = ["main", "run_lint", "changed_paths"]

#: Default baseline file, resolved against the working directory.
DEFAULT_BASELINE = "lint-baseline.json"

_TRACE_SUFFIXES = (".dmp", ".bin", ".trace")


def _default_source_root() -> Path:
    src = Path("src") / "repro"
    if src.is_dir():
        return src
    import repro

    return Path(repro.__file__).resolve().parent


def _split_paths(paths: List[Path]) -> Tuple[List[Path], List[Path]]:
    """(python paths, trace paths); directories count as python roots."""
    py_paths: List[Path] = []
    trace_paths: List[Path] = []
    for path in paths:
        if path.is_file() and path.suffix in _TRACE_SUFFIXES:
            trace_paths.append(path)
        else:
            py_paths.append(path)
    return py_paths, trace_paths


def _python_files(roots: List[Path]) -> List[Path]:
    """Every ``*.py`` under ``roots``, sorted per root, each file once."""
    files: List[Path] = []
    for root in roots:
        found = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        files.extend(p for p in found if "__pycache__" not in p.parts)
    return list(dict.fromkeys(files))


def _lint_trace_file(path: Path) -> List[Diagnostic]:
    from repro.analysis.lint import lint_trace
    from repro.trace.binary import read_trace_binary
    from repro.trace.dumpi import read_trace

    try:
        if path.suffix == ".bin":
            trace = read_trace_binary(path)
        else:
            trace = read_trace(path)
    except (OSError, ValueError) as exc:
        return [
            Diagnostic(
                "trace/unreadable", Severity.ERROR,
                f"cannot load trace: {exc}",
                location=str(path),
            )
        ]
    report = lint_trace(trace)
    return [
        Diagnostic(
            d.rule, d.severity, d.message, rank=d.rank, op_index=d.op_index,
            location=d.location or str(path), hint=d.hint,
        )
        for d in report.diagnostics
    ]


def changed_paths(ref: str = "HEAD") -> Set[str]:
    """Canonical paths of ``.py`` files changed vs ``ref`` (plus untracked).

    Uses ``git diff --name-only`` and ``git ls-files --others`` in the
    working directory; raises ``RuntimeError`` when git is unavailable
    or the ref does not resolve.
    """
    names: List[str] = []
    for cmd in (
        ["git", "diff", "--name-only", ref, "--"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, check=True
            )
        except (OSError, subprocess.CalledProcessError) as exc:
            raise RuntimeError(
                f"--changed-only needs git ({' '.join(cmd)} failed): {exc}"
            ) from exc
        names.extend(line.strip() for line in proc.stdout.splitlines())
    return {
        canonical_path(name) for name in names
        if name.endswith(".py")
    }


def run_lint(
    paths: Optional[List[Path]] = None,
    baseline: Optional[Baseline] = None,
    *,
    changed: Optional[Set[str]] = None,
) -> Tuple[LintReport, List[Diagnostic], Optional[BaselineResult]]:
    """Run every layer; returns (report, source findings, baseline result).

    ``report`` holds the *unbaselined* findings (trace findings are
    never baselined — traces are inputs, not debt).  The raw source
    findings come back separately so ``--update-baseline`` can record
    them.  Stale allowances and deltas are reported only for files
    under the linted ``paths``.

    ``changed`` (a set of canonical paths, see :func:`changed_paths`)
    restricts the *reported* findings to those files.  Every module is
    still linted and the baseline is applied to the full finding set,
    so suppression counts, stale allowances and deltas stay whole-repo
    accurate.
    """
    py_paths, trace_paths = _split_paths([Path(p) for p in (paths or [])])
    if not py_paths and not trace_paths:
        py_paths = [_default_source_root()]

    source_diags: List[Diagnostic] = []
    files = _python_files(py_paths)
    for path in files:
        source_diags.extend(
            detlint.lint_source(path.read_text(), path.as_posix())
        )
    subjects = [str(p) for p in py_paths]

    result: Optional[BaselineResult] = None
    kept = source_diags
    if baseline is not None:
        result = baseline.apply(source_diags)
        kept = result.kept
        # A run over part of the tree found nothing in the files it did
        # not lint because it did not look: their allowances are
        # neither stale nor fixed.
        linted = {canonical_path(f.as_posix()) for f in files}
        roots = [canonical_path(r.as_posix() + "/") for r in py_paths if r.is_dir()]

        def in_scope(path: str) -> bool:
            return path in linted or any(path.startswith(r) for r in roots)

        result.stale = [a for a in result.stale if in_scope(a.path)]
        result.deltas = [d for d in result.deltas if in_scope(d.path)]
    if changed is not None:
        kept = [d for d in kept if canonical_path(d.location) in changed]

    report = LintReport(subject=", ".join(subjects) or "repro-lint")
    report.extend(kept)
    for path in trace_paths:
        subjects.append(str(path))
        report.extend(_lint_trace_file(path))
    report.subject = ", ".join(subjects)
    return report, source_diags, result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="detlint over Python sources and tracelint over "
                    "traces, under a baseline ratchet.",
    )
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="Python files/directories and/or trace files "
             "(default: src/repro)",
    )
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the merged report as JSON")
    parser.add_argument("--baseline", type=Path, default=None,
                        help=f"baseline file (default: ./{DEFAULT_BASELINE} "
                             "when present)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore any baseline; report raw findings")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline to the current findings "
                             "of the whole default tree and exit 0 (takes "
                             "no paths)")
    parser.add_argument("--changed-only", action="store_true",
                        help="report only findings in .py files changed vs "
                             "--changed-ref (the whole tree is still linted "
                             "so the baseline sees every finding)")
    parser.add_argument("--changed-ref", default="HEAD", metavar="REF",
                        help="git ref --changed-only diffs against "
                             "(default: HEAD)")
    args = parser.parse_args(argv)
    if args.update_baseline and args.paths:
        parser.error("--update-baseline rewrites the baseline from the whole "
                     "default tree; it takes no paths")

    baseline_path = args.baseline or Path(DEFAULT_BASELINE)
    baseline: Optional[Baseline] = None
    if not args.no_baseline and not args.update_baseline and baseline_path.exists():
        baseline = Baseline.load(baseline_path)

    changed: Optional[Set[str]] = None
    if args.changed_only:
        try:
            changed = changed_paths(args.changed_ref)
        except RuntimeError as exc:
            print(f"repro-lint: {exc}", file=sys.stderr)
            return 2

    report, source_diags, result = run_lint(
        args.paths or None, baseline, changed=changed
    )

    if args.update_baseline:
        previous = Baseline.load(baseline_path) if baseline_path.exists() else None
        Baseline.from_diagnostics(source_diags, previous=previous).save(
            baseline_path
        )
        print(f"baseline written: {baseline_path} "
              f"({len(source_diags)} findings allowed)")
        return 0

    if args.as_json:
        payload = report.to_json()
        if changed is not None:
            payload["changed_only"] = {
                "ref": args.changed_ref,
                "files": sorted(changed),
            }
        if result is not None:
            payload["baseline"] = {
                "file": str(baseline_path),
                "suppressed": result.suppressed,
                "stale": [a.to_json() for a in result.stale],
                "deltas": [d.to_json() for d in result.deltas],
            }
        print(json.dumps(payload, indent=2))
    else:
        print(report.render())
        if changed is not None:
            print(f"changed-only: {len(changed)} file(s) changed vs "
                  f"{args.changed_ref}")
        if result is not None and result.suppressed:
            print(f"baseline: {result.suppressed} known finding(s) "
                  f"suppressed by {baseline_path}")
        for delta in (result.deltas if result is not None else []):
            sign = "+" if delta.delta > 0 else ""
            print(f"baseline: {delta.status} {delta.rule} in {delta.path} "
                  f"({sign}{delta.delta}: allowed {delta.allowed}, "
                  f"found {delta.found})")
        for stale in (result.stale if result is not None else []):
            print(f"baseline: stale allowance {stale.rule} in {stale.path} "
                  f"(allowed {stale.count}, fewer found) — run "
                  "`repro-lint --update-baseline` to tighten")
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
