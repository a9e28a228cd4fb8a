"""Table III candidate features.

Extracts the 35 candidate features the paper feeds to the statistical
model (Table III).  34 of them are computed directly from the measured
trace; the 35th, ``CL`` (sensitivity to communication), comes from
MFACT's classification and is attached by :mod:`repro.core`.

Time-valued features are means over ranks of the measured in-call
durations; percentage features are relative to the measured total
application time.
"""

from __future__ import annotations

from typing import Dict, List

from repro.trace.events import COLLECTIVE_KINDS, P2P_KINDS, SEND_LIKE_KINDS, OpKind
from repro.trace.trace import TraceSet

__all__ = [
    "FEATURE_NAMES",
    "NUMERIC_FEATURE_NAMES",
    "SENSITIVITY_FEATURE_NAMES",
    "extract_features",
    "FEATURE_DESCRIPTIONS",
]

#: All numeric feature names, in Table III order.
NUMERIC_FEATURE_NAMES: List[str] = [
    # Application
    "R", "RN", "N",
    # Execution
    "T", "Tcp", "PoCP", "Tc", "PoC",
    # Collective
    "Tbr", "PoBR", "Tfbr", "PoFBR", "Tcoll", "PoCOLL", "Tfcoll", "PoFCOLL",
    # Point-to-point
    "Tp2p", "PoTp2p", "Tsyn", "PoSYN", "Tasyn", "PoASYN",
    # Message
    "TB", "NoM", "TBp2p", "CR", "CRComm",
    # MPI
    "NoCALL", "NoS", "NoIS", "NoR", "NoIR", "NoB", "NoC",
]

#: Full candidate list including the MFACT classification feature.
FEATURE_NAMES: List[str] = NUMERIC_FEATURE_NAMES + ["CL"]

#: Zero-replay sensitivity features.  Unlike the Table III numerics
#: they are not computable from the measured trace alone — they come
#: from the dependency graph recorded during MFACT's modeling replay
#: (:mod:`repro.sensitivity`) and are attached to ``record.features``
#: by the study pipeline, never by :func:`extract_features`.  All three
#: are guaranteed finite, including on pure-compute traces.
SENSITIVITY_FEATURE_NAMES: List[str] = [
    "lat_tolerance",
    "bw_sensitivity",
    "critical_path_frac",
]

FEATURE_DESCRIPTIONS: Dict[str, str] = {
    "R": "Number of ranks",
    "RN": "Ranks per node",
    "N": "Number of nodes deployed",
    "T": "Total execution time",
    "Tcp": "Computation time",
    "PoCP": "% of computation time",
    "Tc": "Communication time",
    "PoC": "% of communication time",
    "Tbr": "Barrier time",
    "PoBR": "% of barrier time",
    "Tfbr": "First barrier time",
    "PoFBR": "% of first barrier time",
    "Tcoll": "Collective time",
    "PoCOLL": "% of collective time",
    "Tfcoll": "First all-to-all collective time",
    "PoFCOLL": "% of Tfcoll",
    "Tp2p": "Point-to-point time",
    "PoTp2p": "% of peer-to-peer time",
    "Tsyn": "Synchronous peer-to-peer time",
    "PoSYN": "% of synchronous peer-to-peer time",
    "Tasyn": "Asynchronous peer-to-peer time",
    "PoASYN": "% of asynchronous peer-to-peer time",
    "TB": "Total bytes sent",
    "NoM": "Number of messages sent",
    "TBp2p": "Total peer-to-peer bytes sent",
    "CR": "Number of destination ranks per source",
    "CRComm": "Average peer-to-peer comm. per dest.",
    "NoCALL": "Number of MPI calls",
    "NoS": "Number of blocking sends",
    "NoIS": "Number of non-blocking sends",
    "NoR": "Number of blocking receives",
    "NoIR": "Number of non-blocking receives",
    "NoB": "Number of barriers",
    "NoC": "Number of collectives",
    "CL": "Sensitivity to communication (cs / ncs)",
    "lat_tolerance": "log10 of the latency multiplier tolerated within a 5% slowdown",
    "bw_sensitivity": "Relative slowdown when bandwidth halves",
    "critical_path_frac": "Non-compute fraction of the critical path",
}

# Enum attribute lookups cost ~0.1 us each; the scan compares kinds
# against these module constants instead.
_COMPUTE, _SEND, _ISEND, _RECV, _IRECV, _BARRIER = (
    OpKind.COMPUTE,
    OpKind.SEND,
    OpKind.ISEND,
    OpKind.RECV,
    OpKind.IRECV,
    OpKind.BARRIER,
)
_P2P_OR_WAIT = P2P_KINDS | {OpKind.WAIT}
_SYNC_KINDS = frozenset({OpKind.SEND, OpKind.RECV})
_FIRST_A2A_KINDS = frozenset({OpKind.ALLTOALL, OpKind.ALLGATHER})


def extract_features(trace: TraceSet) -> Dict[str, float]:
    """Compute the 34 numeric Table III features for ``trace``.

    Requires measured timestamps (the ground-truth synthesizer must have
    stamped the trace).  The ``CL`` feature is *not* included; it is an
    MFACT output attached by the study pipeline.
    """
    nranks = trace.nranks
    total = trace.measured_total_time()

    comp = 0.0
    comm = 0.0
    barrier = 0.0
    first_barrier = 0.0
    collective = 0.0
    first_a2a = 0.0
    p2p = 0.0
    syn = 0.0
    asyn = 0.0
    total_bytes = 0
    p2p_bytes = 0
    # MPI calls per kind code; every non-compute op is one call.
    calls = [0] * len(OpKind)
    dests_per_src: List[int] = []
    bytes_per_dest: List[float] = []

    for stream in trace.ranks:
        seen_first_barrier = False
        seen_first_a2a = False
        dests: Dict[int, int] = {}
        for op in stream:
            kind = op.kind
            dur = op.t_exit - op.t_entry
            if kind == _COMPUTE:
                comp += dur
                continue
            calls[kind] += 1
            comm += dur
            if kind in _P2P_OR_WAIT:
                p2p += dur
                if kind in _SYNC_KINDS:
                    syn += dur
                else:
                    asyn += dur
                if kind in SEND_LIKE_KINDS:
                    nbytes = op.nbytes
                    total_bytes += nbytes
                    p2p_bytes += nbytes
                    dests[op.peer] = dests.get(op.peer, 0) + nbytes
            elif kind == _BARRIER:
                barrier += dur
                collective += dur
                if not seen_first_barrier:
                    first_barrier += dur
                    seen_first_barrier = True
            else:
                # Every other kind is a collective (OpKind is closed).
                collective += dur
                # Every member contributes bytes to the fabric.
                total_bytes += op.nbytes
                if kind in _FIRST_A2A_KINDS and not seen_first_a2a:
                    first_a2a += dur
                    seen_first_a2a = True
        if dests:
            dests_per_src.append(len(dests))
            bytes_per_dest.append(sum(dests.values()) / len(dests))

    nmsg = calls[_SEND] + calls[_ISEND]
    nc = sum(calls[kind] for kind in COLLECTIVE_KINDS)

    def mean(x: float) -> float:
        return x / nranks

    def pct(x: float) -> float:
        return 100.0 * mean(x) / total if total > 0 else 0.0

    return {
        "R": float(nranks),
        "RN": float(trace.ranks_per_node),
        "N": float(trace.nnodes),
        "T": total,
        "Tcp": mean(comp),
        "PoCP": pct(comp),
        "Tc": mean(comm),
        "PoC": pct(comm),
        "Tbr": mean(barrier),
        "PoBR": pct(barrier),
        "Tfbr": mean(first_barrier),
        "PoFBR": pct(first_barrier),
        "Tcoll": mean(collective),
        "PoCOLL": pct(collective),
        "Tfcoll": mean(first_a2a),
        "PoFCOLL": pct(first_a2a),
        "Tp2p": mean(p2p),
        "PoTp2p": pct(p2p),
        "Tsyn": mean(syn),
        "PoSYN": pct(syn),
        "Tasyn": mean(asyn),
        "PoASYN": pct(asyn),
        "TB": float(total_bytes),
        "NoM": float(nmsg),
        "TBp2p": float(p2p_bytes),
        "CR": float(sum(dests_per_src) / len(dests_per_src)) if dests_per_src else 0.0,
        "CRComm": float(sum(bytes_per_dest) / len(bytes_per_dest)) if bytes_per_dest else 0.0,
        "NoCALL": float(sum(calls)),
        "NoS": float(calls[_SEND]),
        "NoIS": float(calls[_ISEND]),
        "NoR": float(calls[_RECV]),
        "NoIR": float(calls[_IRECV]),
        "NoB": float(calls[_BARRIER]),
        "NoC": float(nc),
    }
