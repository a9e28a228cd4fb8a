"""Simulation engine benchmark: scalar vs vectorized, same run.

Replays a fixed seeded mini-corpus through every simulation engine
(packet, packet-flow, flow) twice — once on the scalar reference path,
once on the vectorized path — plus the MFACT analytic model, and
reports records/sec and events/sec per engine.  The two paths produce
bit-identical results (enforced inline here and by the differential
equivalence suite), so the comparison is pure performance.  They share
one event drain (:class:`~repro.sim.engine.EventEngine` pops one heap
entry per event on both), so what the speedups measure is the flow and
packet-flow state and the compiled op streams.  The packet model has a
single implementation, so its ratio comes only from the compiled op
streams and the per-trace prep that each scalar pass rebuilds.

Methodology, chosen for a noisy shared machine:

* **best-of-N**: each (engine, mode) pass replays the whole corpus
  ``repeats`` times and keeps the minimum wall time.  The minimum is
  the right statistic for throughput on a machine with background
  load — noise only ever adds time.
* **GC off** during timed passes (re-enabled after), so collection
  pauses don't land inside one mode's timing.
* **prep measured separately**: the vectorized pipeline's shared
  per-trace precomputation (collective expansion, fabric, compiled op
  streams — :class:`~repro.sim.mpi_replay.ReplayShared`) is built once
  and reused across engines and repeats, exactly as the study executor
  shares it across a record's engines.  Its one-time cost is reported
  as ``prep_seconds``, not smeared into any engine's steady-state
  number; the scalar path has no sharable prep and its timings are
  end-to-end by construction.
* **same run**: scalar and vectorized passes for an engine run
  back-to-back in one process, so machine drift degrades both sides
  equally.

The harness runs inside :func:`repro.obs.span` markers (``bench.sim``,
``bench.sim.<engine>.<mode>``) so a metrics-enabled invocation can be
broken down by span; the checked-in artifact is produced with metrics
off, which also keeps the replay layer on its zero-overhead fast path.

Output schema (``repro.bench.sim/v1``)::

    {
      "schema": "repro.bench.sim/v1",
      "pr": 8,
      "corpus": {"count": 4, "scale": 0.3, "nranks": 16},
      "repeats": 5,
      "prep_seconds": <float>,
      "engines": {
        "<engine>": {
          "records": 4,
          "events": <int>,                  # per corpus pass, identical both modes
          "scalar_seconds": <float>,        # best-of-N corpus pass
          "vectorized_seconds": <float>,
          "scalar_records_per_sec": <float>,
          "vectorized_records_per_sec": <float>,
          "scalar_events_per_sec": <float>,
          "vectorized_events_per_sec": <float>,
          "speedup": <float>               # scalar_seconds / vectorized_seconds
        },
        "mfact": {...}                     # single analytic path: no speedup
      }
    }
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.pipeline import SIM_MODELS
from repro.machines.presets import get_machine
from repro.mfact.logical_clock import model_trace
from repro.sim.mpi_replay import ReplayShared, simulate_trace
from repro.workloads.suite import build_trace, mini_corpus_specs

__all__ = [
    "BENCH_COUNT",
    "BENCH_NRANKS",
    "BENCH_SCALE",
    "DEFAULT_REPEATS",
    "SCHEMA",
    "bench_corpus",
    "main",
    "run_bench",
]

SCHEMA = "repro.bench.sim/v1"

#: Fixed seeded bench corpus: the first mini-corpus apps scaled up and
#: spread over 16 ranks, 4 per node.  This shape keeps the active flow
#: count in the small water-fill regime while producing enough
#: cross-node contention that the network models dominate the replay —
#: the regime the vectorized paths target.
BENCH_COUNT = 4
BENCH_SCALE = 0.3
BENCH_NRANKS = 16

DEFAULT_REPEATS = 5

#: CI regression gate: the vectorized path must never be slower than
#: the scalar path by more than this fraction on any engine.
MAX_REGRESSION = 0.10


def bench_corpus() -> List[Tuple[object, object, object]]:
    """Build the fixed (spec, trace, machine) bench corpus.

    Specs come from the standard seeded mini-corpus generator, so the
    workload mix (CG/EP/IS/MG-style apps, machine cycling) matches the
    study corpus; only scale and rank count are raised.
    """
    specs = [
        dataclasses.replace(s, scale=BENCH_SCALE, nranks=BENCH_NRANKS)
        for s in mini_corpus_specs(count=BENCH_COUNT)
    ]
    corpus = []
    for spec in specs:
        trace = build_trace(spec)
        corpus.append((spec, trace, get_machine(trace.machine)))
    return corpus


def _canonical(result) -> Tuple:
    """The deterministic fields of a :class:`SimResult` (walltime is
    the simulator's own execution time and legitimately differs)."""
    return (
        result.trace_name,
        result.total_time,
        result.comm_time,
        result.compute_time,
        result.events,
        result.messages,
        result.bytes_sent,
    )


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


def run_bench(
    engines: Sequence[str] = SIM_MODELS,
    repeats: int = DEFAULT_REPEATS,
    include_mfact: bool = True,
) -> Dict:
    """Measure every engine scalar vs vectorized over the bench corpus.

    Returns the ``repro.bench.sim/v1`` report dict.  Raises
    ``AssertionError`` if any engine's scalar and vectorized replays
    disagree on a deterministic result field — a bench run doubles as
    an equivalence smoke test.
    """
    with obs.span("bench.sim"):
        corpus = bench_corpus()
        traces = [trace for _, trace, _ in corpus]
        machines = [machine for _, _, machine in corpus]

        t0 = time.perf_counter()
        shareds = [ReplayShared(tr, m) for tr, m in zip(traces, machines)]
        prep_seconds = time.perf_counter() - t0

        report: Dict = {
            "schema": SCHEMA,
            "pr": 8,
            "corpus": {
                "count": BENCH_COUNT,
                "scale": BENCH_SCALE,
                "nranks": BENCH_NRANKS,
            },
            "repeats": repeats,
            "prep_seconds": round(prep_seconds, 6),
            "engines": {},
        }

        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for engine in engines:
                scalar_results: List = []
                vec_results: List = []

                def scalar_pass(engine=engine, out=scalar_results):
                    del out[:]
                    for tr, m in zip(traces, machines):
                        out.append(
                            simulate_trace(tr, m, model=engine, vectorized=False)
                        )

                def vec_pass(engine=engine, out=vec_results):
                    del out[:]
                    for tr, m, sh in zip(traces, machines, shareds):
                        out.append(
                            simulate_trace(
                                tr, m, model=engine, vectorized=True, shared=sh
                            )
                        )

                with obs.span(f"bench.sim.{engine}.scalar"):
                    scalar_seconds = _time_pass(scalar_pass, repeats)
                with obs.span(f"bench.sim.{engine}.vectorized"):
                    vec_seconds = _time_pass(vec_pass, repeats)

                for s_res, v_res in zip(scalar_results, vec_results):
                    assert _canonical(s_res) == _canonical(v_res), (
                        f"{engine}: scalar and vectorized replays diverged on "
                        f"{s_res.trace_name}: {_canonical(s_res)} != {_canonical(v_res)}"
                    )
                events = sum(r.events for r in scalar_results)
                records = len(corpus)
                report["engines"][engine] = {
                    "records": records,
                    "events": events,
                    "scalar_seconds": round(scalar_seconds, 6),
                    "vectorized_seconds": round(vec_seconds, 6),
                    "scalar_records_per_sec": round(records / scalar_seconds, 3),
                    "vectorized_records_per_sec": round(records / vec_seconds, 3),
                    "scalar_events_per_sec": round(events / scalar_seconds, 1),
                    "vectorized_events_per_sec": round(events / vec_seconds, 1),
                    "speedup": round(scalar_seconds / vec_seconds, 3),
                }

            if include_mfact:
                def mfact_pass():
                    for tr, m in zip(traces, machines):
                        model_trace(tr, m)

                with obs.span("bench.sim.mfact"):
                    mfact_seconds = _time_pass(mfact_pass, repeats)
                events = sum(tr.op_count() for tr in traces)
                report["engines"]["mfact"] = {
                    "records": len(corpus),
                    "events": events,
                    "seconds": round(mfact_seconds, 6),
                    "records_per_sec": round(len(corpus) / mfact_seconds, 3),
                    "events_per_sec": round(events / mfact_seconds, 1),
                }
        finally:
            if gc_was_enabled:
                gc.enable()
        return report


def check_report(report: Dict, max_regression: float = MAX_REGRESSION) -> List[str]:
    """Return gate violations: engines where vectorized is slower than
    scalar by more than ``max_regression`` (CI fails on any)."""
    problems = []
    for engine, row in report["engines"].items():
        speedup = row.get("speedup")
        if speedup is None:
            continue  # single-path engines (mfact) have no gate
        if speedup < 1.0 - max_regression:
            problems.append(
                f"{engine}: vectorized is {1.0 / speedup:.2f}x slower than scalar "
                f"(speedup {speedup:.3f} < {1.0 - max_regression:.2f})"
            )
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Benchmark the simulation engines (scalar vs vectorized).",
    )
    parser.add_argument(
        "--out", default=None, help="write the JSON report here (default: stdout)"
    )
    parser.add_argument(
        "--repeats", type=int, default=DEFAULT_REPEATS,
        help=f"best-of-N repeats per (engine, mode) pass (default {DEFAULT_REPEATS})",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero if any engine's vectorized path is slower "
        f"than scalar by more than {MAX_REGRESSION * 100:.0f}%%",
    )
    args = parser.parse_args(argv)

    report = run_bench(repeats=args.repeats)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

    for engine, row in sorted(report["engines"].items()):
        if "speedup" in row:
            print(
                f"{engine:12s} scalar {row['scalar_seconds']:.3f}s "
                f"vectorized {row['vectorized_seconds']:.3f}s "
                f"-> {row['speedup']:.2f}x "
                f"({row['vectorized_events_per_sec']:,.0f} events/s)",
                file=sys.stderr,
            )
        else:
            print(
                f"{engine:12s} {row['seconds']:.3f}s "
                f"({row['events_per_sec']:,.0f} events/s)",
                file=sys.stderr,
            )

    if args.check:
        problems = check_report(report)
        if problems:
            for problem in problems:
                print(f"bench-sim gate: {problem}", file=sys.stderr)
            return 2
        print("bench-sim gate: ok", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
