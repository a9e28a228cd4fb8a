"""Per-op reference trace codec and feature scanner.

The production :func:`~repro.trace.binary.loads_binary` checks each
rank's records as one numpy block and builds the ops without
``Op.__init__``; :func:`~repro.trace.binary.dumps_binary` packs a rank
with one join; :func:`~repro.trace.features.extract_features` compares
raw kind codes.  The functions below are the straightforward versions
those replaced: one ``Op(OpKind(kind), ...)`` per record (so every
check runs per op), one ``write`` per record, and a scan through the
``Op`` convenience properties.  Production must match them field for
field, byte for byte and bit for bit, and must raise the same error on
every corrupt record.
"""

import io
import json
import struct
from typing import Dict, List

from repro.trace.events import Op, OpKind
from repro.trace.trace import TraceSet

MAGIC = b"REPROTR1"
_OP = struct.Struct("<Biqiiiddd")
_U32 = struct.Struct("<I")


def _pack_header(trace: TraceSet) -> bytes:
    header = {
        "name": trace.name,
        "app": trace.app,
        "machine": trace.machine,
        "ranks_per_node": trace.ranks_per_node,
        "uses_comm_split": trace.uses_comm_split,
        "uses_threads": trace.uses_threads,
        "metadata": trace.metadata,
        "comms": {str(cid): list(members) for cid, members in trace.comms.items()},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    return _U32.pack(len(blob)) + blob


def oracle_dumps(trace: TraceSet) -> bytes:
    out = io.BytesIO()
    out.write(MAGIC)
    out.write(_pack_header(trace))
    out.write(_U32.pack(trace.nranks))
    for stream in trace.ranks:
        out.write(_U32.pack(len(stream)))
        for op in stream:
            out.write(
                _OP.pack(
                    int(op.kind),
                    op.peer,
                    op.nbytes,
                    op.tag,
                    op.comm,
                    op.req,
                    op.duration,
                    op.t_entry,
                    op.t_exit,
                )
            )
    return out.getvalue()


def oracle_loads(data: bytes) -> TraceSet:
    view = memoryview(data)
    if bytes(view[: len(MAGIC)]) != MAGIC:
        raise ValueError("not a REPROTR1 binary trace")
    offset = len(MAGIC)
    (hlen,) = _U32.unpack_from(view, offset)
    offset += _U32.size
    header = json.loads(bytes(view[offset : offset + hlen]).decode("utf-8"))
    offset += hlen
    (nranks,) = _U32.unpack_from(view, offset)
    offset += _U32.size
    ranks: List[List[Op]] = []
    for _ in range(nranks):
        (nops,) = _U32.unpack_from(view, offset)
        offset += _U32.size
        stream: List[Op] = []
        for _ in range(nops):
            kind, peer, nbytes, tag, comm, req, dur, entry, exit_ = _OP.unpack_from(
                view, offset
            )
            offset += _OP.size
            stream.append(
                Op(
                    OpKind(kind),
                    peer=peer,
                    nbytes=nbytes,
                    tag=tag,
                    comm=comm,
                    req=req,
                    duration=dur,
                    t_entry=entry,
                    t_exit=exit_,
                )
            )
        ranks.append(stream)
    return TraceSet(
        name=header["name"],
        app=header["app"],
        ranks=ranks,
        machine=header["machine"],
        ranks_per_node=header["ranks_per_node"],
        comms={int(cid): tuple(members) for cid, members in header["comms"].items()},
        uses_comm_split=header["uses_comm_split"],
        uses_threads=header["uses_threads"],
        metadata=header["metadata"],
    )


_SYNC_KINDS = (OpKind.SEND, OpKind.RECV)


def oracle_features(trace: TraceSet) -> Dict[str, float]:
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
    nmsg = 0
    p2p_bytes = 0
    ncall = ns = nis = nr = nir = nb = nc = 0
    dests_per_src: List[int] = []
    bytes_per_dest: List[float] = []

    for stream in trace.ranks:
        seen_first_barrier = False
        seen_first_a2a = False
        dests: Dict[int, int] = {}
        for op in stream:
            dur = op.measured_duration
            if op.kind == OpKind.COMPUTE:
                comp += dur
                continue
            ncall += 1
            comm += dur
            if op.is_p2p or op.kind == OpKind.WAIT:
                p2p += dur
                if op.kind in _SYNC_KINDS:
                    syn += dur
                else:
                    asyn += dur
                if op.kind == OpKind.SEND:
                    ns += 1
                elif op.kind == OpKind.ISEND:
                    nis += 1
                elif op.kind == OpKind.RECV:
                    nr += 1
                elif op.kind == OpKind.IRECV:
                    nir += 1
                if op.is_send_like:
                    nmsg += 1
                    total_bytes += op.nbytes
                    p2p_bytes += op.nbytes
                    dests[op.peer] = dests.get(op.peer, 0) + op.nbytes
            elif op.kind == OpKind.BARRIER:
                nb += 1
                nc += 1
                barrier += dur
                collective += dur
                if not seen_first_barrier:
                    first_barrier += dur
                    seen_first_barrier = True
            elif op.is_collective:
                nc += 1
                collective += dur
                total_bytes += op.nbytes
                if op.kind in (OpKind.ALLTOALL, OpKind.ALLGATHER) and not seen_first_a2a:
                    first_a2a += dur
                    seen_first_a2a = True
        if dests:
            dests_per_src.append(len(dests))
            bytes_per_dest.append(sum(dests.values()) / len(dests))

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
        "NoCALL": float(ncall),
        "NoS": float(ns),
        "NoIS": float(nis),
        "NoR": float(nr),
        "NoIR": float(nir),
        "NoB": float(nb),
        "NoC": float(nc),
    }
