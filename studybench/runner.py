"""Runs a workload: setup processes, then timed or traced passes.

The load is one closed-loop client.  Every setup and every pass is its
own fresh Python process (:mod:`studybench.child`), launched one at a
time, so process-wide memos start empty as in a user's run.  Timed
passes repeat until ``seconds`` have gone by (at least ``MIN_PASSES``);
a traced run alternates untraced and traced passes so the tracing
overhead is measured in the same run.

Times are reported at reference machine speed: each process's wall
times are scaled by ``PROBE_REF_S`` over its own speed-probe time.  On
a shared host the same pass can run 1.5x slower from one minute to the
next; the probe slows with it, the code under test does not move it.
The raw wall-clock medians are printed and kept in the result file.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from studybench import tracer
from studybench.compare import summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
GOLDEN = HERE / "golden"

#: Setup processes per timed run (setup_s is their median), and the
#: least number of timed passes.  Traced and smoke runs use one of each.
SETUP_REPS = 3
MIN_PASSES = 3

#: Median :func:`studybench.child.speed_probe` time on the reference
#: host (2 vCPU x86-64 VM, Python 3.11), measured while it was quiet.
PROBE_REF_S = 0.14

#: Kill a setup or pass process that runs longer than this (seconds).
CHILD_TIMEOUT = 150

#: End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "study_s": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
    "item_max_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


class ChildFailed(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    # One client on one core: keep numpy's BLAS from starting threads.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(request: dict, out: Path) -> dict:
    """Run one child to completion and return its result."""
    request = dict(request, out=str(out), spawned=time.monotonic())
    proc = subprocess.run(
        [sys.executable, "-m", "studybench.child", json.dumps(request)],
        cwd=ROOT,
        env=_child_env(),
        stdout=subprocess.DEVNULL,
        timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        raise ChildFailed(
            f"{request['workload']} {request['mode']} process exited with {proc.returncode}"
        )
    return json.loads(out.read_text())


def load_golden(workload: str, seed: int, size: str) -> Optional[Dict[str, str]]:
    """Pinned item digests for ``seed`` and ``size``, or None."""
    path = GOLDEN / f"{workload}.json"
    if not path.exists():
        return None
    golden = json.loads(path.read_text())
    return golden.get(size) if golden["seed"] == seed else None


def evaluate(passes: List[dict], golden: Optional[Dict[str, str]]) -> dict:
    """Count attempted and failed items over ``passes``.

    An item fails when its output is missing, fails the workload's own
    check, or hashes differently from the pinned digest, or (unpinned)
    from the first pass's digest.
    """
    reference = golden
    if reference is None:
        reference = {i["name"]: i["digest"] for i in passes[0]["items"] if not i["error"]}
    attempted = failed = 0
    errors = []
    for n, result in enumerate(passes):
        for item in result["items"]:
            attempted += 1
            error = item["error"]
            if not error and reference.get(item["name"]) != item["digest"]:
                error = "digest mismatch"
            if error:
                failed += 1
                errors.append(f"pass {n} {item['name']}: {error}")
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "digests": {i["name"]: i["digest"] for i in passes[0]["items"]},
    }


def _metric(samples: List[float], unit: str) -> dict:
    return dict(summarize(samples), unit=unit, samples=samples)


def speed(result: dict) -> float:
    """Reference-speed seconds per wall second in one child process."""
    return PROBE_REF_S / statistics.mean(result["probe_s"])


def timed_metrics(setups: List[dict], passes: List[dict]) -> Dict[str, dict]:
    study = [p["study_s"] * speed(p) for p in passes]
    items = len(passes[0]["items"])
    rss = [p["peak_rss_mb"] for p in passes]
    # Each item's latencies across passes; the slowest item is the one
    # with the highest median, so one slow pass of a short item does not
    # set the makespan.
    per_item = zip(*([t * speed(p) for t in p["latencies"]] for p in passes))
    samples = {
        "setup_s": [s["ready_s"] * speed(s) for s in setups],
        "study_s": study,
        "items_per_s": [items / s for s in study],
        "item_max_s": list(max(per_item, key=statistics.median)),
        "peak_rss_mb": rss,
    }
    out = {name: _metric(samples[name], unit) for name, (unit, _) in END_TO_END.items()}
    out["peak_rss_mb"]["value"] = max(rss)
    return out


def traced_metrics(passes: List[dict]) -> Dict[str, dict]:
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    samples = {name: [p["layers"][name] for p in traced] for name in tracer.LAYER_METRICS}
    samples["trace.overhead"] = [
        t["study_s"] * speed(t) / (u["study_s"] * speed(u)) - 1.0
        for t, u in zip(traced, untraced)
    ]
    return {
        name: _metric(samples[name], unit)
        for name, (unit, _) in tracer.LAYER_METRICS.items()
    }


def run_workload(
    workload: str, seed: int, size: str, seconds: float, traced: bool
) -> dict:
    """Set up, then run passes for ``seconds``; returns the result."""
    work = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    base = {"workload": workload, "seed": seed, "size": size}
    single = traced or size == "smoke"
    try:
        setups = []
        for rep in range(1 if single else SETUP_REPS):
            setup_dir = work / f"setup{rep}"
            setup_dir.mkdir()
            setups.append(_spawn(dict(base, mode="setup", work=str(setup_dir)), work / "out.json"))
        passes: List[dict] = []
        start = time.monotonic()
        while True:
            round_start = time.monotonic()
            for pass_traced in (False, True) if traced else (False,):
                pass_dir = work / "pass"
                shutil.copytree(work / "setup0", pass_dir)
                request = dict(
                    base, mode="pass", work=str(pass_dir), traced=pass_traced, pass_id=len(passes)
                )
                result = _spawn(request, work / "out.json")
                result["traced"] = pass_traced
                passes.append(result)
                shutil.rmtree(pass_dir)
            now = time.monotonic()
            rounds = len(passes) // (2 if traced else 1)
            # Start no round that would end past ``seconds``.
            if rounds >= (1 if single else MIN_PASSES) and now + (now - round_start) - start > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = dict(
        workload=workload,
        traced=traced,
        passes=len(passes),
        **evaluate(passes, load_golden(workload, seed, size)),
    )
    if traced:
        result["metrics"] = traced_metrics(passes)
        result["absent"] = passes[-1]["absent"]
        result["spans"] = [span for p in passes if p["traced"] for span in p["spans"]]
    else:
        result["metrics"] = timed_metrics(setups, passes)
    result["wall_s"] = {
        "setup": statistics.median(s["ready_s"] for s in setups),
        "study": statistics.median(p["study_s"] for p in passes),
        "probe": statistics.median(t for r in setups + passes for t in r["probe_s"]),
    }
    return result
