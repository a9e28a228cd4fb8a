"""The four study workloads: inputs from a seed, one-time setup, one pass.

Every workload calls only production entry points with their default
arguments (never ``vectorized=`` or ``sim_vectorized=``) and ``jobs=1``.
A workload has three parts, each run in a fresh process by
:mod:`studybench.child`:

* ``setup(seed, size, work)`` prepares the artifacts a pass needs in
  ``work``;
* ``run(seed, size, work, done)`` is the timed pass; it calls ``done()``
  as each item completes and returns ``{item name: output}``;
* ``check(output)`` and ``digest(output)`` judge and hash one item's
  output after the timer stops.

``size`` is ``"full"`` or ``"smoke"`` (the first two items, for tests).
Why each workload exists, and the layer it stresses, is in README.md and
``BENCHMARK.json``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Callable, List

from repro.core.executor import execute_study
from repro.experiments import fig2, fig3, fig4, fig5, section6, table1, table3
from repro.machines.presets import get_machine
from repro.mfact import logical_clock, whatif
from repro.sensitivity import analysis
from repro.trace import binary, features
from repro.workloads.suite import build_trace, corpus_specs, mini_corpus_specs

#: Items per workload at each size (None: all of them).
SIZES = {"full": None, "smoke": 2}

#: The 64-rank corpus apps whose records the packet engine dominates.
#: At 16 ranks the five take about 3.5 s per cold pass, 85% of it packet.
PACKET_APPS = ("IS", "FT", "BT", "BIGFFT", "CR")

#: Rank count the corpus specs are rebuilt at: at their own 64 ranks
#: one cold pass would take about 80 s, past what a measured run affords.
CORPUS_RANKS = 16

#: Mini-corpus size for ``cold-mini`` and the ``classify`` cache.  It
#: covers the three pinned golden records (indices 0, 5 and 10).  At 16
#: records the cross-validation cost is bimodal across seeds (about 3 s
#: or 5 s); at 24 it varies by about 15%.
MINI_COUNT = 24

#: What-if grid priced per trace by ``model-query``.
GRID = {
    "bandwidth_factors": (0.5, 1.0, 2.0, 4.0),
    "latency_factors": (1.0, 2.0, 4.0, 8.0),
    "compute_factors": (1.0, 2.0),
}

#: The experiments ``classify`` computes.  ``fig1`` and ``section5b``
#: bucket records by walltime and raise on 8-rank records.  ``table4``
#: repeats ``section6``'s Monte Carlo cross-validation exactly (same X,
#: y, seed and variable cap), doubling the pass for no new code path.
EXPERIMENTS = {
    "table1": table1,
    "table3": table3,
    "fig2": fig2,
    "fig3": fig3,
    "fig4": fig4,
    "fig5": fig5,
    "section6": section6,
}

def corpus_subset(seed: int, apps=None) -> List:
    """The lowest-index 64-rank spec of each app, rebuilt at 16 ranks."""
    first = {}
    for spec in corpus_specs(seed):
        if spec.nranks == 64 and (apps is None or spec.app in apps):
            first.setdefault(spec.app, dataclasses.replace(spec, nranks=CORPUS_RANKS))
    return list(first.values())


def mini_specs(seed: int, size: str) -> List:
    return mini_corpus_specs(count=MINI_COUNT, seed=seed)[: SIZES[size]]


def sha256_json(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


class ColdStudy:
    """Fresh records through ``execute_study`` into an empty cache."""

    def __init__(self, name: str, specs: Callable[[int, str], List]):
        self.name = name
        self.specs = specs

    def items(self, seed, size):
        return [spec.name for spec in self.specs(seed, size)]

    def setup(self, seed, size, work):
        pass

    def run(self, seed, size, work, done):
        run = execute_study(
            self.specs(seed, size),
            jobs=1,
            cache_root=work / "records",
            progress=lambda index, outcome: done(),
        )
        return {record.name: record for record in run.records}

    def check(self, record):
        # Packet-flow handles every trace; packet and flow may refuse some.
        if not record.mfact.completed or not record.sims["packet-flow"].completed:
            return "mfact or packet-flow did not complete"
        return ""

    def digest(self, record):
        """Same recipe as the golden-trace tests: canonical record JSON."""
        return sha256_json(record.to_json(canonical=True))


class Classify:
    name = "classify"

    def items(self, seed, size):
        return list(EXPERIMENTS)[: SIZES[size]]

    def setup(self, seed, size, work):
        specs = mini_specs(seed, size)
        run = execute_study(specs, jobs=1, cache_root=work / "records")
        if len(run.records) != len(specs):
            raise RuntimeError(f"priming measured {len(run.records)} of {len(specs)} records")

    def run(self, seed, size, work, done):
        specs = mini_specs(seed, size)
        run = execute_study(specs, jobs=1, cache_root=work / "records")
        if len(run.records) != len(specs) or not all(e.cache_hit for e in run.manifest.entries):
            raise RuntimeError("the primed cache did not serve every record")
        out = {}
        for name in self.items(seed, size):
            module = EXPERIMENTS[name]
            out[name] = module.render(module.compute(run.records))
            done()
        return out

    def check(self, text):
        return ""

    def digest(self, text):
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ModelQuery:
    name = "model-query"

    def items(self, seed, size):
        return [spec.name for spec in corpus_subset(seed)][: SIZES[size]]

    def setup(self, seed, size, work):
        for spec in corpus_subset(seed)[: SIZES[size]]:
            binary.write_trace_binary(build_trace(spec), work / f"{spec.name}.bin")

    def run(self, seed, size, work, done):
        out = {}
        for name in self.items(seed, size):
            trace = binary.read_trace_binary(work / f"{name}.bin")
            machine = get_machine(trace.machine)
            report = logical_clock.model_trace(trace, machine)
            feats = dict(features.extract_features(trace))
            feats.update(analysis.analyze_trace(trace, machine).features())
            grid = whatif.explore_design_space(trace, machine, analytic=True, **GRID)
            out[name] = {
                "total": report.baseline_total_time,
                "class": report.classification.value,
                "features": feats,
                "grid": [float(t) for t in grid.total_time],
                "grid_baseline": float(grid.total_time[grid.baseline_index]),
            }
            done()
        return out

    def check(self, output):
        # The analytic grid's baseline point re-prices the MFACT replay.
        if abs(output["grid_baseline"] - output["total"]) > 1e-9 * abs(output["total"]):
            return "what-if baseline disagrees with the MFACT total"
        return ""

    def digest(self, output):
        return sha256_json(
            {
                "total": _round12(output["total"]),
                "class": output["class"],
                "features": {k: _round12(v) for k, v in output["features"].items()},
                "grid": [_round12(t) for t in output["grid"]],
            }
        )


WORKLOADS = {
    w.name: w
    for w in (
        ColdStudy(
            "cold-corpus", lambda seed, size: corpus_subset(seed, PACKET_APPS)[: SIZES[size]]
        ),
        ColdStudy("cold-mini", mini_specs),
        Classify(),
        ModelQuery(),
    )
}
