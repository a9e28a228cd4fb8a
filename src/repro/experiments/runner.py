"""Experiment CLI.

Run ``repro-experiments all`` (or ``python -m repro.experiments.runner``)
to regenerate every table and figure of the paper.  Individual targets:
``table1 table3 table4 fig1 fig2 fig3 fig4 fig5 section5b section6``
plus the special targets ``table2`` (times the tools live), ``report``
and ``audit``.

The first run builds the 235-trace corpus and simulates it with all
four tools; ``--jobs/-j N`` spreads that work over N processes
(``-j 1``, the default, stays in-process).  Records come from
:func:`repro.core.executor.execute_study` over the per-record
content-addressed cache ``.cache/records/``, keyed by (trace
fingerprint, machine config hash, engine suite, code version): later
runs read their records back from it, interrupted runs resume, and a
change to the measurement code re-measures instead of serving stale
records.  Each run writes ``.cache/records/last_run_manifest.json``
describing per-record timing, cache hits and failures.  ``--no-cache``
runs without the record cache and recomputes everything.

``--metrics-out FILE`` enables run telemetry (:mod:`repro.obs`) for the
whole invocation and writes the final merged snapshot as Prometheus
text to ``FILE`` plus a JSON image to ``FILE.json``; ``--profile``
prints the top span timings instead of (or in addition to) writing
them.  Either flag covers everything the run did — corpus measurement,
MCCV, the experiment computations — at a few counters' cost.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, List, Optional

from repro.core.executor import DEFAULT_RECORD_CACHE, RecordOutcome, execute_study
from repro.experiments import (
    fig1,
    fig2,
    fig3,
    fig4,
    fig5,
    section5b,
    section6,
    table1,
    table3,
    table4,
)
from repro.util.rng import DEFAULT_SEED
from repro.workloads.suite import corpus_specs

__all__ = ["main", "run_experiment", "progress_printer", "EXPERIMENTS"]

#: Experiments driven by study records: name -> (compute, render).
EXPERIMENTS: Dict[str, tuple] = {
    "table1": (table1.compute, table1.render),
    "fig1": (fig1.compute, fig1.render),
    "fig2": (fig2.compute, fig2.render),
    "fig3": (fig3.compute, fig3.render),
    "fig4": (fig4.compute, fig4.render),
    "fig5": (fig5.compute, fig5.render),
    "section5b": (section5b.compute, section5b.render),
    "table3": (table3.compute, table3.render),
    "table4": (table4.compute, table4.render),
    "section6": (section6.compute, section6.render),
}


def run_experiment(name: str, records) -> str:
    """Compute and render one record-driven experiment."""
    compute, render = EXPERIMENTS[name]
    return render(compute(records))


def progress_printer() -> Callable[[int, RecordOutcome], None]:
    """An :func:`execute_study` ``progress`` callback printing one line
    per measured record: elapsed time, DIFFtotal and MFACT class."""
    t0 = time.time()

    def progress(index: int, outcome: RecordOutcome) -> None:
        record = outcome.record
        if record is None:
            return
        diff = record.diff_total()
        diff_text = f"{100 * diff:6.2f}%" if diff is not None else "   n/a"
        print(
            f"[{time.time() - t0:7.1f}s] {index + 1:3d} {record.name:34s} "
            f"DIFF={diff_text} class={record.mfact_class}",
            flush=True,
        )

    return progress


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "targets",
        nargs="*",
        default=["all"],
        help="experiments to run (default: all). 'table2' times the tools live.",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--limit", type=int, default=None, help="only first N corpus traces")
    parser.add_argument("--quiet", action="store_true")
    parser.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="measurement processes for a cold study run (default 1: in-process)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="run without the per-record cache; recompute everything",
    )
    parser.add_argument(
        "--record-timeout", type=float, default=None, metavar="SEC",
        help="wall-clock budget per record on a cold run; over-budget replays "
             "degrade down the engine ladder (annotated, never silently mixed)",
    )
    parser.add_argument(
        "--event-budget", type=int, default=None, metavar="N",
        help="engine event budget per record on a cold run",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="collect run telemetry and write the snapshot: Prometheus text "
             "to FILE, JSON image to FILE.json",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="collect run telemetry and print the top span timings at the end",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    collect_metrics = bool(args.metrics_out or args.profile)
    if collect_metrics:
        from repro import obs

        obs.enable()
    targets = args.targets
    if targets == ["all"] or "all" in targets:
        targets = list(EXPERIMENTS) + ["table2"]
    special = {"table2", "report", "audit"}
    needs_records = [t for t in targets if t in EXPERIMENTS or t in ("report", "audit")]
    unknown = [t for t in targets if t not in EXPERIMENTS and t not in special]
    if unknown:
        parser.error(
            f"unknown targets: {unknown}; known: {sorted(EXPERIMENTS) + sorted(special)}"
        )
    records = None
    if needs_records:
        records = execute_study(
            corpus_specs(args.seed)[: args.limit],
            jobs=args.jobs,
            cache_root=None if args.no_cache else DEFAULT_RECORD_CACHE,
            progress=None if args.quiet else progress_printer(),
            seed=args.seed,
            record_timeout=args.record_timeout,
            event_budget=args.event_budget,
        ).records
    table2_result = None
    for target in targets:
        print()
        if target == "table2":
            from repro.experiments import table2

            table2_result = table2.compute()
            print(table2.render(table2_result))
        elif target == "report":
            from repro.experiments.report import write_experiments_md

            path = write_experiments_md(records, table2_result=table2_result)
            print(f"wrote {path}")
        elif target == "audit":
            from repro.workloads.audit import audit_report

            print(audit_report(records).render())
        else:
            print(run_experiment(target, records))
    if collect_metrics:
        from repro import obs
        from repro.obs.report import render_top_spans, write_metrics

        snap = obs.snapshot()
        if args.metrics_out:
            write_metrics(snap, args.metrics_out)
            print(f"\nmetrics written to {args.metrics_out} (+ .json)", file=sys.stderr)
        if args.profile:
            print()
            print(render_top_spans(snap))
    return 0


if __name__ == "__main__":
    sys.exit(main())
