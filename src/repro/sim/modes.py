"""Scalar/vectorized simulation-path selection.

The flow and packet-flow model state and the replay's op dispatch
exist twice in this package: a *scalar* reference implementation (the
straightforward per-event, per-object code the engines shipped with)
and a *vectorized* implementation (numpy flow state, cached routes and
compiled op streams).  The event engine has one drain for both.  Both produce byte-identical canonical
:class:`~repro.core.pipeline.StudyRecord` output — enforced by
``tests/test_vectorized_equivalence.py`` — so the scalar path serves as
the executable specification the fast path is differentially tested
against, and as the baseline ``repro.bench`` measures speedups from.

The default mode is vectorized; set ``REPRO_SIM_SCALAR=1`` in the
environment (read once at import) or call :func:`set_default_vectorized`
to flip the process default.  Call sites that need an explicit mode
(the executor ships the parent's resolved choice to its workers; the
bench harness runs both) pass ``vectorized=True/False`` down through
:func:`~repro.sim.mpi_replay.simulate_trace` to the network model and
resolve it with :func:`resolve`.
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = ["SCALAR_ENV", "default_vectorized", "resolve", "set_default_vectorized"]

#: Environment switch: a truthy value selects the scalar reference path.
SCALAR_ENV = "REPRO_SIM_SCALAR"

_default_vectorized = os.environ.get(SCALAR_ENV, "").strip().lower() not in (
    "1",
    "true",
    "yes",
)


def default_vectorized() -> bool:
    """Process-wide default mode (True = vectorized paths)."""
    return _default_vectorized


def set_default_vectorized(flag: bool) -> None:
    """Override the process default (tests and the bench harness)."""
    global _default_vectorized
    _default_vectorized = bool(flag)


def resolve(vectorized: Optional[bool]) -> bool:
    """An explicit mode wins; ``None`` falls back to the process default."""
    return _default_vectorized if vectorized is None else bool(vectorized)
