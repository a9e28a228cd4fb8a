"""Ablation: MFACT's one-replay pricing of the configuration grid.

MFACT's design choice is to price the whole configuration grid from one
trace replay: the replay runs at the machine's own configuration,
records its max-plus tape, and the tape prices every other
configuration.  The ablation compares that against the naive
alternative — one replay per grid point — and verifies the predictions
agree while the one-replay pricing is substantially cheaper.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.machines import CIELITO
from repro.mfact import ConfigGrid, LogicalClockReplay
from repro.sensitivity import record_graph
from repro.workloads import generate_doe, synthesize_ground_truth


@pytest.fixture(scope="module")
def trace():
    t = generate_doe("Nekbone", 64, CIELITO, seed=21, compute_per_iter=0.001,
                     ranks_per_node=1)
    return synthesize_ground_truth(t, CIELITO, seed=21)


@pytest.fixture(scope="module")
def grid():
    return ConfigGrid.sweep(CIELITO)


def vectorized(trace, grid):
    """MFACT's sweep (the ``grid`` fixture): one recorded replay, its tape
    sealed and the grid priced off it."""
    return record_graph(trace, CIELITO)[1].total_time


def per_config(trace, grid):
    totals = []
    for i in range(len(grid)):
        point = replace(CIELITO, latency=float(grid.latency[i]),
                        bandwidth=float(grid.bandwidth[i]),
                        compute_scale=float(grid.compute_scale[i]))
        totals.append(LogicalClockReplay(trace, point).run().baseline_total_time)
    return np.array(totals)


def test_vectorized_replay(benchmark, trace, grid):
    totals = benchmark(vectorized, trace, grid)
    assert totals.shape == (len(grid),)


def test_per_config_replay(benchmark, trace, grid):
    totals = benchmark.pedantic(per_config, args=(trace, grid), rounds=2, iterations=1)
    assert totals.shape == (len(grid),)


def test_identical_predictions(trace, grid):
    np.testing.assert_allclose(vectorized(trace, grid), per_config(trace, grid), rtol=1e-12)


def test_vectorized_cheaper(trace, grid):
    import time

    t0 = time.perf_counter()
    vectorized(trace, grid)
    tv = time.perf_counter() - t0
    t0 = time.perf_counter()
    per_config(trace, grid)
    ts = time.perf_counter() - t0
    # 21 configurations off one replay should beat 21 replays clearly.
    assert tv < ts / 2
