"""Command line: ``python -m studybench run`` and ``python -m studybench compare``.

``run`` measures each workload and prints every metric by name with its
unit; its last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` runs the timed passes
(end-to-end metrics), ``--trace 1`` the traced passes (per-layer
metrics); without ``--trace`` both run.  Each run appends one JSON line
to ``--out`` and writes the traced spans beside it.  The exit code is 0
when every output checked out, 1 when some item failed, and 2 when the
benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

from studybench import runner

SRC = runner.ROOT / "src"


def _print_result(result: dict, pinned: bool) -> None:
    workload = result["workload"]
    kind = "traced" if result["traced"] else "timed"
    print(
        f"# {workload} {kind}: {result['passes']} passes, "
        f"{result['attempted']} items attempted, {result['failed']} failed"
    )
    wall = result["wall_s"]
    print(
        f"# {workload} wall-clock medians: setup {wall['setup']:.4g} s, "
        f"study {wall['study']:.4g} s, speed probe {wall['probe']:.4g} s"
    )
    for name, m in result["metrics"].items():
        print(
            f"{workload} {name} = {m['value']:.6g} {m['unit']} "
            f"(q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n {m['n']})"
        )
    for boundary in result.get("absent", ()):
        print(f"{workload} absent boundary {boundary}")
    for error in result["errors"]:
        print(f"{workload} FAILED {error}")
    if not pinned:
        for item, digest in result["digests"].items():
            print(f"{workload} digest {item} {digest}")


def run(args) -> int:
    sys.path.insert(0, str(SRC))
    try:
        from repro.util.rng import DEFAULT_SEED
        from studybench.workloads import WORKLOADS
    except ImportError as exc:
        print(f"studybench: cannot import the repro package from {SRC}: {exc}", file=sys.stderr)
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    names = args.workload or list(WORKLOADS)
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        print(f"studybench: unknown workload(s) {unknown}; choose from {list(WORKLOADS)}", file=sys.stderr)
        return 2
    phases = (False, True) if args.trace is None else (bool(args.trace),)
    # On SIGTERM, unwind like Ctrl-C: the running child is killed and
    # waited for, and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    results = []
    try:
        for name in names:
            pinned = runner.load_golden(name, seed, args.size) is not None
            for traced in phases:
                result = runner.run_workload(name, seed, args.size, args.seconds, traced)
                _print_result(result, pinned)
                results.append(result)
    except runner.ChildFailed as exc:
        print(f"studybench: {exc}", file=sys.stderr)
        return 2

    args.out.parent.mkdir(parents=True, exist_ok=True)
    spans = {r["workload"]: r.pop("spans") for r in results if "spans" in r}
    if spans:
        args.out.with_suffix(".spans.json").write_text(json.dumps(spans))
    record = {
        "seed": seed,
        "size": args.size,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "results": results,
    }
    with args.out.open("a") as handle:
        handle.write(json.dumps(record) + "\n")

    metrics = {}
    for r in results:
        prefix = "" if len(names) == 1 else f"{r['workload']}/"
        for metric, m in r["metrics"].items():
            metrics[prefix + metric] = {"value": m["value"], "unit": m["unit"]}
    failed = sum(r["failed"] for r in results)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(r["attempted"] for r in results),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m studybench")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="measure workloads")
    run_p.add_argument("--workload", action="append", help="repeatable; default: all four")
    run_p.add_argument("--seed", type=int, help="input seed (default: the repro default seed)")
    run_p.add_argument("--seconds", type=float, default=20.0, help="how long passes repeat")
    run_p.add_argument("--trace", type=int, choices=(0, 1), help="0 timed, 1 traced; default both")
    run_p.add_argument("--size", choices=("full", "smoke"), default="full")
    run_p.add_argument("--out", type=Path, default=runner.WORK / "results.jsonl")
    cmp_p = sub.add_parser("compare", help="compare two result files")
    cmp_p.add_argument("a", type=Path)
    cmp_p.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "compare":
        from studybench.compare import main as compare_main

        return compare_main(args.a, args.b)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
