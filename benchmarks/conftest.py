"""Shared fixtures for the benchmark harness.

``study`` measures the 235-trace campaign through
:func:`repro.core.executor.execute_study` over the per-record cache
``.cache/records/`` (the first pass simulates every trace with all four
tools and takes tens of minutes; later runs read the cached records).
"""

import pytest

from repro.core.executor import execute_study
from repro.experiments.runner import progress_printer
from repro.util.rng import DEFAULT_SEED
from repro.workloads.suite import corpus_specs


@pytest.fixture(scope="session")
def study():
    """All 235 study records (cached)."""
    return execute_study(
        corpus_specs(DEFAULT_SEED), progress=progress_printer(), seed=DEFAULT_SEED
    ).records


@pytest.fixture(scope="session")
def labelled(study):
    """Records with a packet-flow DIFFtotal label (all 235 by design)."""
    return [r for r in study if r.requires_simulation() is not None]
