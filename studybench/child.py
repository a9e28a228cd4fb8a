"""One setup or one pass of a workload, in a fresh Python process.

Run by :mod:`studybench.runner` as
``python -m studybench.child '<request JSON>'``; the result is written
as JSON to the request's ``out`` path.  The request carries the
runner's ``time.monotonic()`` reading taken just before the spawn
(a system-wide clock on Linux), so ``ready_s`` counts interpreter
start-up and imports too.

Every process also times :func:`speed_probe` next to what it measures
(after set-up; before and after a pass), so the runner can tell a slow
machine from slow code.
"""

from __future__ import annotations

import heapq
import json
import resource
import sys
import time
from pathlib import Path


def speed_probe() -> float:
    """Seconds taken by a fixed pure-Python job that shares no code with repro.

    Heap and dict updates on small, fixed-size containers (so the probe
    adds nothing to peak memory): the kind of work the event engines and
    replays spend their time on.
    """
    t0 = time.perf_counter()
    heap, counts = [(k, k) for k in range(1024)], {}
    for i in range(160_000):
        heapq.heappush(heap, ((i * 7919) % 100_003, i))
        heapq.heappop(heap)
        counts[i & 511] = counts.get(i & 511, 0) + 1
    return time.perf_counter() - t0


def _run(request: dict) -> dict:
    from studybench import tracer
    from studybench.workloads import WORKLOADS

    workload = WORKLOADS[request["workload"]]
    seed, size, work = request["seed"], request["size"], Path(request["work"])
    if request["mode"] == "setup":
        workload.setup(seed, size, work)
        ready_s = time.monotonic() - request["spawned"]
        return {"ready_s": ready_s, "probe_s": [speed_probe()]}

    items = workload.items(seed, size)
    trace = None
    if request["traced"]:
        trace = tracer.Tracer(request["pass_id"])
        trace.install()
    else:
        wrapped = tracer.wrapped_boundaries()
        if wrapped:
            raise RuntimeError(f"timed pass has boundary wrappers: {wrapped}")
    ready_s = time.monotonic() - request["spawned"]
    probe_before = speed_probe()

    marks = []
    if trace is not None:
        trace.active = True
    t0 = time.perf_counter()
    outputs = workload.run(seed, size, work, lambda: marks.append(time.perf_counter()))
    study_s = time.perf_counter() - t0
    if trace is not None:
        trace.active = False
    probe_s = [probe_before, speed_probe()]

    results = []
    for name in items:
        output = outputs.get(name)
        if output is None:
            results.append({"name": name, "digest": "", "error": "no output"})
        else:
            results.append(
                {"name": name, "digest": workload.digest(output), "error": workload.check(output)}
            )
    result = {
        "ready_s": ready_s,
        "study_s": study_s,
        "probe_s": probe_s,
        "latencies": [b - a for a, b in zip([t0] + marks, marks)],
        "items": results,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace is not None:
        result["layers"] = tracer.layer_metrics(trace.spans, study_s)
        result["spans"] = trace.span_dicts(t0)
        result["absent"] = trace.absent
    return result


def main(argv) -> int:
    request = json.loads(argv[1])
    result = _run(request)
    Path(request["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
