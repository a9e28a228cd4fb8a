"""Benchmark harnesses tracking the repo's performance trajectory.

Each PR that claims a performance win checks in a ``BENCH_<pr>.json``
artifact, so the trajectory is a series of committed, schema-stable
measurements rather than numbers in commit messages.
:mod:`repro.bench.sensitivity` covers zero-replay design-grid pricing
off the recorded dependency graph.  End-to-end study timing,
including the simulation engines, is ``python -m studybench``.

Run the sensitivity bench with ``make bench-sensitivity`` or::

    python -m repro.bench.sensitivity --out BENCH_10.json --check
"""
