"""Medians, quartiles and the better/worse/same verdict between two result files.

``python -m studybench compare A.jsonl B.jsonl`` reads every run in each
file (one JSON line per ``run`` invocation).  For each (workload,
end-to-end metric) a side's samples are its runs' reported values, or,
when the file holds a single run, that run's per-pass samples.  The
verdict follows the metric's bound in ``BENCHMARK.json``:

* ``unresolved`` when either side's interquartile spread, as a share of
  its median, exceeds the bound, unless every B sample beats (or loses
  to) every A sample;
* ``worse`` when B's median is worse than A's by more than the bound;
* with 10 or more pairs (run i of A against run i of B), ``better`` only
  when B wins at least 9 in 10 pairs and the medians differ by more than
  A's interquartile distance; without pairs, when B's median is better
  by more than the bound;
* ``same`` otherwise.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles (``statistics.quantiles(n=4)``) and count."""
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"value": median, "q1": q1, "q3": q3, "n": len(values)}


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    s = summarize(values)
    return (s["q3"] - s["q1"]) / abs(s["value"]) if s["value"] else float("inf")


def verdict(a: Sequence[float], b: Sequence[float], bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    sa, sb = summarize(a), summarize(b)
    if max(spread(a), spread(b)) > bound:
        if all(sign * y < sign * x for x in a for y in b):
            return "better"
        if all(sign * y > sign * x for x in a for y in b):
            return "worse"
        return "unresolved"
    worse_by = sign * (sb["value"] - sa["value"]) / abs(sa["value"])
    if worse_by > bound:
        return "worse"
    pairs = min(len(a), len(b))
    if pairs >= 10:
        wins = sum(sign * (y - x) < 0 for x, y in zip(a, b))
        moved = abs(sb["value"] - sa["value"]) > sa["q3"] - sa["q1"]
        return "better" if wins >= 0.9 * pairs and moved else "same"
    return "better" if -worse_by > bound else "same"


def load_runs(path: Path) -> List[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def side_samples(runs: List[dict]) -> Dict[tuple, List[float]]:
    """(workload, metric) -> samples, from the untraced results of ``runs``."""
    out: Dict[tuple, List[float]] = {}
    for run in runs:
        for result in run["results"]:
            if result["traced"]:
                continue
            for metric, m in result["metrics"].items():
                values = m["samples"] if len(runs) == 1 else [m["value"]]
                out.setdefault((result["workload"], metric), []).extend(values)
    return out


def compare(a_path: Path, b_path: Path) -> List[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    a, b = side_samples(load_runs(a_path)), side_samples(load_runs(b_path))
    rows = []
    for key in sorted(set(a) & set(b)):
        metric = metrics.get(key[1])
        if metric is None:
            continue
        rows.append(
            {
                "workload": key[0],
                "metric": key[1],
                "unit": metric["unit"],
                "a": summarize(a[key]),
                "b": summarize(b[key]),
                "verdict": verdict(a[key], b[key], metric["bound"], metric["better"]),
            }
        )
    return rows


def main(a_path: Path, b_path: Path) -> int:
    rows = compare(a_path, b_path)
    if not rows:
        print("no (workload, metric) pair is present in both files")
        return 2

    def cell(s):
        return f"{s['value']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] n={s['n']}"

    for row in rows:
        print(
            f"{row['workload']:12s} {row['metric']:12s} {row['unit']:4s} "
            f"A {cell(row['a']):36s} B {cell(row['b']):36s} {row['verdict']}"
        )
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0
