"""Zero-replay analytics benchmark: recorded tape vs per-point replays.

Prices a fixed 100-point network design grid (10 latency x 10
bandwidth factors) for each trace of a seeded mini-corpus two ways:

* **replayed** — one :class:`~repro.mfact.logical_clock.LogicalClockReplay`
  per grid point, on the machine with that point's latency, bandwidth
  and compute scale: what pricing a grid costs without a tape.
* **analytic** — record the max-plus dependency graph once (one
  replay at the machine's own configuration with a
  :class:`~repro.sensitivity.GraphRecorder` attached) and price all 100 points
  with a single :meth:`~repro.sensitivity.DependencyGraph.evaluate`
  call.  The timed pass includes the recording replay, so the speedup
  is end-to-end, not marginal.

Both passes are best-of-``repeats`` with GC disabled (noise only
adds time, so the minimum is the cleanest estimate).  Every run doubles
as an accuracy check — the analytic totals must agree with the
replayed totals within the sensitivity package's documented ``1e-6``
relative band on every point, or the bench raises.

Output schema (``repro.bench.sensitivity/v1``)::

    {
      "schema": "repro.bench.sensitivity/v1",
      "pr": 10,
      "corpus": {"count": 3, "nranks": 8},
      "grid": {"points": 100, "latency_factors": 10, "bandwidth_factors": 10},
      "repeats": 3,
      "traces": {
        "<trace>": {
          "points": 100,
          "graph_nodes": <int>,
          "graph_edges": <int>,
          "replayed_seconds": <float>,   # 100 single-config replays
          "analytic_seconds": <float>,   # record once + one evaluate
          "speedup": <float>,            # replayed / analytic
          "max_rel_err": <float>         # worst point, both passes
        }
      },
      "speedup_min": <float>,            # slowest trace's speedup
      "speedup_geomean": <float>
    }
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.machines.presets import get_machine
from repro.mfact.logical_clock import LogicalClockReplay
from repro.sensitivity.graph import GraphRecorder
from repro.workloads.suite import build_trace, mini_corpus_specs

__all__ = [
    "BENCH_COUNT",
    "BENCH_NRANKS",
    "BW_FACTORS",
    "DEFAULT_REPEATS",
    "LAT_FACTORS",
    "MIN_SPEEDUP",
    "SCHEMA",
    "bench_corpus",
    "check_report",
    "main",
    "run_bench",
]

SCHEMA = "repro.bench.sensitivity/v1"

#: Standard seeded mini-corpus at its default shape; three traces keep
#: the replayed side of the bench (300 full replays per repeat) under
#: a minute while still mixing p2p- and collective-heavy apps.
BENCH_COUNT = 3
BENCH_NRANKS = 8

#: The 10 x 10 network grid.  Both axes contain the baseline factor
#: 1.0 so the grid includes the measured machine.
LAT_FACTORS = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0)
BW_FACTORS = (0.125, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)

DEFAULT_REPEATS = 3

#: CI gate: pricing the grid off the recorded tape must beat pricing
#: it with per-point replays by at least this factor on every trace.
MIN_SPEEDUP = 10.0

#: Inline accuracy gate: worst-point relative disagreement between the
#: analytic and replayed totals (the package's documented band).
MAX_REL_ERR = 1e-6


def bench_corpus() -> List[Tuple[object, object, object]]:
    """Build the fixed (spec, trace, machine) bench corpus."""
    corpus = []
    for spec in mini_corpus_specs(count=BENCH_COUNT, nranks=BENCH_NRANKS):
        trace = build_trace(spec)
        corpus.append((spec, trace, get_machine(trace.machine)))
    return corpus


def _grid_configs(machine) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 100 (latency, bandwidth, compute_scale) grid points."""
    lats, bws, scales = [], [], []
    for lf in LAT_FACTORS:
        for bf in BW_FACTORS:
            lats.append(machine.latency / lf)
            bws.append(machine.bandwidth * bf)
            scales.append(machine.compute_scale)
    return np.asarray(lats), np.asarray(bws), np.asarray(scales)


def _time_pass(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` (see module docstring)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
    return best


def run_bench(repeats: int = DEFAULT_REPEATS) -> Dict:
    """Measure replayed vs analytic grid pricing over the bench corpus.

    Returns the ``repro.bench.sensitivity/v1`` report dict.  Raises
    ``AssertionError`` if the two pricings disagree beyond the
    documented band on any grid point — a bench run doubles as an
    accuracy smoke test.
    """
    with obs.span("bench.sensitivity"):
        corpus = bench_corpus()
        report: Dict = {
            "schema": SCHEMA,
            "pr": 10,
            "corpus": {"count": BENCH_COUNT, "nranks": BENCH_NRANKS},
            "grid": {
                "points": len(LAT_FACTORS) * len(BW_FACTORS),
                "latency_factors": len(LAT_FACTORS),
                "bandwidth_factors": len(BW_FACTORS),
            },
            "repeats": repeats,
            "traces": {},
        }

        speedups = []
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _, trace, machine in corpus:
                lats, bws, scales = _grid_configs(machine)
                replayed: List[np.ndarray] = []
                analytic: List[np.ndarray] = []
                graph_shape = [0, 0]

                def replay_pass(out=replayed, trace=trace, machine=machine,
                                lats=lats, bws=bws, scales=scales):
                    del out[:]
                    totals = np.empty(len(lats))
                    for i in range(len(lats)):
                        point = replace(machine, latency=float(lats[i]),
                                        bandwidth=float(bws[i]),
                                        compute_scale=float(scales[i]))
                        totals[i] = LogicalClockReplay(trace, point).run().baseline_total_time
                    out.append(totals)

                def analytic_pass(out=analytic, shape=graph_shape, trace=trace,
                                  machine=machine, lats=lats, bws=bws,
                                  scales=scales):
                    del out[:]
                    recorder = GraphRecorder(trace.nranks, machine)
                    LogicalClockReplay(trace, machine, recorder=recorder).run()
                    graph = recorder.finish()
                    shape[0], shape[1] = graph.n_nodes, graph.n_edges
                    out.append(graph.evaluate(lats, bws, scales))

                with obs.span("bench.sensitivity.replayed"):
                    replayed_seconds = _time_pass(replay_pass, repeats)
                with obs.span("bench.sensitivity.analytic"):
                    analytic_seconds = _time_pass(analytic_pass, repeats)

                rel_err = float(
                    np.max(np.abs(analytic[0] - replayed[0]) / replayed[0])
                )
                assert rel_err <= MAX_REL_ERR, (
                    f"{trace.name}: analytic grid disagrees with replays "
                    f"(max rel err {rel_err:.3g} > {MAX_REL_ERR:g})"
                )
                speedup = replayed_seconds / analytic_seconds
                speedups.append(speedup)
                report["traces"][trace.name] = {
                    "points": len(lats),
                    "graph_nodes": graph_shape[0],
                    "graph_edges": graph_shape[1],
                    "replayed_seconds": round(replayed_seconds, 6),
                    "analytic_seconds": round(analytic_seconds, 6),
                    "speedup": round(speedup, 3),
                    "max_rel_err": rel_err,
                }
        finally:
            if gc_was_enabled:
                gc.enable()

        report["speedup_min"] = round(min(speedups), 3)
        report["speedup_geomean"] = round(
            float(np.exp(np.mean(np.log(speedups)))), 3
        )
        return report


def check_report(report: Dict, min_speedup: float = MIN_SPEEDUP) -> List[str]:
    """Return gate violations: traces whose analytic pricing beats the
    replayed grid by less than ``min_speedup`` (CI fails on any)."""
    problems = []
    for name, row in report["traces"].items():
        if row["speedup"] < min_speedup:
            problems.append(
                f"{name}: analytic pricing only {row['speedup']:.2f}x faster "
                f"than per-point replays (< {min_speedup:g}x)"
            )
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.sensitivity",
        description="Benchmark recorded-tape grid pricing vs per-point replays.",
    )
    parser.add_argument(
        "--out", default=None, help="write the JSON report here (default: stdout)"
    )
    parser.add_argument(
        "--repeats", type=int, default=DEFAULT_REPEATS,
        help=f"best-of-N repeats per pass (default {DEFAULT_REPEATS})",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless the analytic path is at least "
        f"{MIN_SPEEDUP:g}x faster on every trace",
    )
    args = parser.parse_args(argv)

    report = run_bench(repeats=args.repeats)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

    for name, row in sorted(report["traces"].items()):
        print(
            f"{name:24s} replayed {row['replayed_seconds']:.3f}s "
            f"analytic {row['analytic_seconds']:.3f}s "
            f"-> {row['speedup']:.1f}x "
            f"(max rel err {row['max_rel_err']:.2g})",
            file=sys.stderr,
        )

    if args.check:
        problems = check_report(report)
        if problems:
            for problem in problems:
                print(f"bench-sensitivity gate: {problem}", file=sys.stderr)
            return 2
        print("bench-sensitivity gate: ok", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
