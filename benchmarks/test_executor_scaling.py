"""Executor scaling benchmark: serial vs 2/4 workers, cold vs warm cache.

Runs the 16-trace mini corpus through the executor at ``-j 1/2/4`` (the
best of three alternating runs each) and once more against a warm
per-record cache, printing a wall-clock table.
The parallel-speedup assertions are gated on the machine actually
having the cores (CI boxes with one core still run the benchmark and
report, but only the cache-speedup invariant is enforced there).
"""

import os
import time

import pytest

from repro.core.executor import execute_study
from repro.workloads.suite import mini_corpus_specs

SEED = 31
CORPUS = 16
ROUNDS = 3


@pytest.fixture(scope="module")
def specs():
    return mini_corpus_specs(CORPUS, seed=SEED)


def _timed(specs, jobs, cache_root):
    t0 = time.perf_counter()
    run = execute_study(specs, jobs=jobs, cache_root=cache_root, seed=SEED)
    elapsed = time.perf_counter() - t0
    assert len(run.records) == CORPUS and not run.failures
    return elapsed, run


class TestExecutorScaling:
    def test_parallel_and_cache_speedups(self, specs, tmp_path):
        cores = os.cpu_count() or 1
        # Best of ROUNDS alternating runs per setting: a single sub-second
        # run is decided by pool start-up and by whatever else holds the
        # CPUs at that moment.
        best = {}
        for _ in range(ROUNDS):
            for jobs in (1, 2, 4):
                elapsed, _ = _timed(specs, jobs=jobs, cache_root=None)
                best[jobs] = min(elapsed, best.get(jobs, elapsed))
        serial, two, four = best[1], best[2], best[4]

        root = tmp_path / "records"
        cold, cold_run = _timed(specs, jobs=1, cache_root=root)
        warm, warm_run = _timed(specs, jobs=1, cache_root=root)

        print(f"\nexecutor scaling over {CORPUS} traces ({cores} cores):")
        print(f"  -j 1 cold        {serial:8.2f}s")
        print(f"  -j 2 cold        {two:8.2f}s   ({serial / two:4.1f}x)")
        print(f"  -j 4 cold        {four:8.2f}s   ({serial / four:4.1f}x)")
        print(f"  -j 1 cold cached {cold:8.2f}s")
        print(f"  -j 1 warm cache  {warm:8.2f}s   ({cold / warm:4.1f}x, "
              f"{100 * warm_run.manifest.hit_rate():.0f}% hits)")

        # Cache invariants hold on any machine.
        assert cold_run.manifest.misses == CORPUS
        assert warm_run.manifest.hit_rate() == 1.0
        assert warm < cold, "a fully warm cache must beat recomputation"

        # Parallel speedup claims only where the hardware can deliver them.
        if cores >= 2:
            assert two < serial * 0.95, (
                f"-j 2 ({two:.2f}s) should beat serial ({serial:.2f}s) on {cores} cores"
            )
        if cores >= 4:
            assert four < serial / 2, (
                f"-j 4 ({four:.2f}s) should be >= 2x serial ({serial:.2f}s) on {cores} cores"
            )

    def test_warm_cache_is_order_of_magnitude_cheaper_per_record(self, specs, tmp_path):
        """Per-record cost: a cache hit vs a full four-tool measurement."""
        root = tmp_path / "records"
        _, cold_run = _timed(specs, jobs=1, cache_root=root)
        _, warm_run = _timed(specs, jobs=1, cache_root=root)
        cold_cost = cold_run.manifest.total_walltime / CORPUS
        warm_cost = warm_run.manifest.total_walltime / CORPUS
        print(f"\nper-record cost: cold {1e3 * cold_cost:.1f}ms, "
              f"warm {1e3 * warm_cost:.1f}ms ({cold_cost / warm_cost:.0f}x)")
        assert warm_cost * 10 <= cold_cost, (
            f"cache hits ({1e3 * warm_cost:.1f}ms) should be >= 10x cheaper than "
            f"measurement ({1e3 * cold_cost:.1f}ms)"
        )
