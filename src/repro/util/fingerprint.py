"""Content-addressed identities for the per-record result cache.

The executor (:mod:`repro.core.executor`) memoizes one measurement
record per (trace, machine, engine suite, code version) combination.
Each component gets a stable hexadecimal digest here:

* :func:`trace_fingerprint` — SHA-256 of the trace's canonical binary
  serialization.  Both trace formats round-trip losslessly (hex floats
  in ASCII, fixed-width records in binary), so the fingerprint is
  invariant under save/load cycles and changes whenever any event
  field, communicator, flag or metadata entry changes.
* :func:`machine_config_hash` — SHA-256 of the machine dataclass's
  sorted JSON image; any network or node parameter change invalidates
  cached records for that machine.
* :func:`code_version` — SHA-256 over the *measurement stack* sources
  (modeling, simulation, collectives, topologies, machines, feature
  extraction and the pipeline itself).  Workload generators are
  deliberately excluded: editing one generator changes the fingerprints
  of the traces it produces, so only those records recompute, while a
  change to any replay engine invalidates everything it measured.
* :func:`record_cache_key` — the composite digest naming the cache
  file for one study record.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (trace -> util)
    from repro.machines.config import MachineConfig
    from repro.trace.trace import TraceSet

__all__ = [
    "trace_fingerprint",
    "machine_config_hash",
    "code_version",
    "workloads_code_version",
    "record_cache_key",
]

#: Subtrees / modules of ``repro`` whose source participates in
#: :func:`code_version`.  Everything that can change a measurement —
#: and nothing that only changes which traces get generated.
MEASUREMENT_STACK = (
    "core/difftotal.py",
    "core/pipeline.py",
    "collectives",
    "machines",
    "mfact",
    "sensitivity",
    "sim",
    "topology",
    "trace/events.py",
    "trace/features.py",
    "trace/trace.py",
)

#: Sources that determine what trace a :class:`TraceSpec` builds into —
#: the generators plus the seeded RNG machinery they draw from.  Hashed
#: by :func:`workloads_code_version` for the executor's spec-level
#: cache index: editing any of these invalidates the index (forcing a
#: rebuild-and-fingerprint pass), while records of traces that come
#: out unchanged still hit the fingerprint-keyed layer.
WORKLOADS_STACK = ("workloads", "util/rng.py")


def _hash_sources(entries) -> str:
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for entry in entries:
        path = package_root / entry
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for file in files:
            digest.update(str(file.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(file.read_bytes())
            digest.update(b"\0")
    return digest.hexdigest()


def trace_fingerprint(trace: "TraceSet") -> str:
    """Content hash of a trace (hex digest).

    Computed over the canonical binary serialization
    (:func:`repro.trace.binary.dumps_binary`), which covers every op
    field including measured timestamps, the communicator table, flags
    and metadata.  Round-tripping through either trace format preserves
    the fingerprint bit-for-bit.
    """
    from repro.trace.binary import dumps_binary

    return hashlib.sha256(dumps_binary(trace)).hexdigest()


def machine_config_hash(machine: "MachineConfig") -> str:
    """Content hash of a machine configuration (hex digest)."""
    image = json.dumps(asdict(machine), sort_keys=True)
    return hashlib.sha256(image.encode("utf-8")).hexdigest()


@lru_cache(maxsize=1)
def code_version() -> str:
    """Hash of the measurement-stack sources (hex digest, cached).

    Editing any replay engine, cost model, topology, machine preset or
    the pipeline itself yields a new version and therefore a cold
    cache; editing workload generators does not (their effect is
    already captured by the trace fingerprint).
    """
    return _hash_sources(MEASUREMENT_STACK)


@lru_cache(maxsize=1)
def workloads_code_version() -> str:
    """Hash of the workload-generation sources (hex digest, cached)."""
    return _hash_sources(WORKLOADS_STACK)


def record_cache_key(
    fingerprint: str,
    machine_hash: str,
    engines: Sequence[str],
    version: str,
) -> str:
    """Composite cache key for one study record (hex digest).

    ``engines`` is the ordered tuple of simulation engine names the
    record covers (MFACT always runs and is implied by ``version``).
    """
    digest = hashlib.sha256()
    for part in (fingerprint, machine_hash, "+".join(engines), version):
        digest.update(part.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()
