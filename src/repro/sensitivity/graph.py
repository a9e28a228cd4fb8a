"""The recorded happens-before graph and its max-plus evaluator.

Graph model
-----------

Every node is one *clock value* produced during the replay — a rank's
clock after an op, a NIC injection/ejection milestone, a message's
availability time, or a collective's completion.  A node's value is

``value(v) = max over incoming edges (u, c) of  value(u) + cost(c)``

where each edge cost is affine in the network configuration::

    cost = const + alpha_count * latency + bytes / bandwidth
                 + compute_seconds * compute_scale

``const`` carries the software overhead ``o``; ``alpha_count`` counts
wire latencies; ``bytes`` are the bytes serialized through a NIC or a
collective's on-wire volume; ``compute_seconds`` are unscaled measured
compute durations.  Because ``max`` and ``+`` are monotone, evaluating
the recorded tape bottom-up (nodes are created in topological order)
reproduces the replay's clocks for any configuration.  The evaluator
groups nodes by topological level — longest-path depth from the epoch,
computed once when the graph is sealed — and prices a whole level, for
a whole batch of configurations, in a few array operations.

Two deliberate reassociations keep the tape small and fast — they are
the only sources of float divergence from a real replay, both bounded
by a few ulps per op (see the package docstring's accuracy contract):

* consecutive additive advances on one rank (compute ops, ISEND/WAIT
  overheads) are *folded* into the next edge that reads the clock
  instead of materializing a node each;
* the replay's ``max(a, b) + c`` is recorded as ``max(a + c, b + c)``.

The recorder keeps its own per-``(src, dst, tag)`` token FIFOs and its
own request table, mirroring the replay's matching: the replay consumes
messages per channel strictly FIFO, so popping the recorder's deque at
binding time pairs each completion with the right send's availability
node without sharing any state with the replay.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Sequence, Tuple

import numpy as np

from repro import obs
from repro.machines.config import MachineConfig
from repro.trace.events import OpKind

__all__ = ["CriticalPath", "DependencyGraph", "GraphRecorder"]

#: Collectives where every member completes at the shared rendezvous
#: time (mirrors the replay's ``_SYNC_COLLECTIVES``).
_SYNC_COLLECTIVES = frozenset(
    {
        OpKind.BARRIER,
        OpKind.ALLREDUCE,
        OpKind.ALLGATHER,
        OpKind.ALLTOALL,
        OpKind.REDUCE_SCATTER,
    }
)

#: Hook-log entry codes (see GraphRecorder).
_COMPUTE, _OVERHEAD, _SEND, _RECV, _BIND, _WAIT, _COLLECTIVE = range(7)

#: Configs per evaluation chunk are sized so one value matrix stays
#: around 32 MB regardless of graph size.
_CHUNK_FLOATS = 4_000_000


@dataclass(frozen=True)
class CriticalPath:
    """The binding chain from the epoch to the terminal node.

    Along the chain every node's value equals its predecessor's value
    plus the edge cost (the max was achieved there), so ``total`` is
    exactly the sum of the traversed edge costs and decomposes into the
    four components with no slack term.
    """

    total: float
    compute_time: float
    latency_time: float
    bandwidth_time: float
    overhead_time: float
    alpha_count: float
    bytes_on_wire: float
    n_edges: int

    @property
    def comm_time(self) -> float:
        """Non-compute time on the path (latency + bandwidth + overhead)."""
        return self.latency_time + self.bandwidth_time + self.overhead_time

    def to_json(self) -> dict:
        return {
            "total": self.total,
            "compute_time": self.compute_time,
            "latency_time": self.latency_time,
            "bandwidth_time": self.bandwidth_time,
            "overhead_time": self.overhead_time,
            "alpha_count": self.alpha_count,
            "bytes_on_wire": self.bytes_on_wire,
            "n_edges": self.n_edges,
        }


class DependencyGraph:
    """Frozen max-plus tape of one recorded replay."""

    def __init__(
        self,
        pred: np.ndarray,
        const: np.ndarray,
        alpha: np.ndarray,
        nbytes: np.ndarray,
        compute: np.ndarray,
        starts: np.ndarray,
        node_rank: np.ndarray,
        terminal: int,
        baseline: Tuple[float, float, float],
    ):
        self.pred = pred
        self.const = const
        self.alpha = alpha
        self.nbytes = nbytes
        self.compute = compute
        self.starts = starts  # len n_nodes + 1; edges of node i are starts[i]:starts[i+1]
        self.node_rank = node_rank  # -1 epoch/terminal, -2 shared collective completion
        self.terminal = int(terminal)
        self.baseline = baseline  # (latency, bandwidth, compute_scale)
        self._seal_levels()

    def _seal_levels(self) -> None:
        """Group nodes by topological level for :meth:`_level_pass`.

        A node's level is its longest-path depth from the epoch, so all
        its predecessors sit in lower levels.  Nodes are renumbered level
        by level (node order within a level; ``_pos`` maps a node to its
        position) and the edge arrays are permuted to match, so level
        ``lv`` holds positions ``_level_nodes[lv]:_level_nodes[lv + 1]``
        and edges ``_level_edges[lv]:_level_edges[lv + 1]``, and
        ``_lpred`` names predecessors by position.
        """
        # Memoryviews: the depth loop indexes element-wise, several times
        # cheaper than ndarray indexing and with no list of int objects.
        starts, pred = memoryview(self.starts), memoryview(self.pred)
        n = self.n_nodes
        depth = [0] * n
        i = 0
        for s, e in zip(starts, starts[1:]):
            # Most nodes have one or two edges; spell those out.
            width = e - s
            if width == 1:
                depth[i] = depth[pred[s]] + 1
            elif width == 2:
                a, b = depth[pred[s]], depth[pred[s + 1]]
                depth[i] = (a if a > b else b) + 1
            elif width:
                depth[i] = max([depth[p] for p in pred[s:e]]) + 1
            i += 1
        depth_arr = np.asarray(depth, dtype=np.int64)
        order = np.argsort(depth_arr, kind="stable")
        pos = np.empty(n, dtype=np.int64)
        pos[order] = np.arange(n, dtype=np.int64)
        lens = np.diff(self.starts)[order]
        edge_starts = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lens, out=edge_starts[1:])
        eperm = np.repeat(self.starts[:-1][order] - edge_starts[:-1], lens) + np.arange(
            self.n_edges, dtype=np.int64
        )
        self._pos = pos
        self._terminal_pos = int(pos[self.terminal])
        self._lstarts = edge_starts
        self._lpred = pos[self.pred[eperm]]
        self._lconst = self.const[eperm]
        self._lalpha = self.alpha[eperm]
        self._lbytes = self.nbytes[eperm]
        self._lcompute = self.compute[eperm]
        counts = np.bincount(depth_arr)
        node_bounds = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=node_bounds[1:])
        level_edges = edge_starts[node_bounds]
        # Each node's first edge, relative to its level's first edge.
        self._offsets = edge_starts[:-1] - np.repeat(level_edges[:-1], counts)
        self._level_nodes = node_bounds.tolist()
        self._level_edges = level_edges.tolist()

    @property
    def n_nodes(self) -> int:
        return int(self.node_rank.size)

    @property
    def n_edges(self) -> int:
        return int(self.pred.size)

    # -- evaluation --------------------------------------------------------

    def _broadcast(self, latency, bandwidth, compute_scale):
        lat = np.atleast_1d(np.asarray(latency, dtype=float))
        bw = np.atleast_1d(np.asarray(bandwidth, dtype=float))
        scale = np.atleast_1d(np.asarray(compute_scale, dtype=float))
        lat, bw, scale = np.broadcast_arrays(lat, bw, scale)
        return np.ascontiguousarray(lat), np.ascontiguousarray(bw), np.ascontiguousarray(scale)

    def _level_pass(self, lat: np.ndarray, bw: np.ndarray, scale: np.ndarray) -> np.ndarray:
        """Level-ordered (n_nodes, K) value matrix for one configuration
        batch: row ``_pos[i]`` holds the values of node ``i``.

        Each level costs one gather of its predecessors' rows, one add
        of its edge costs and one ``np.maximum.reduceat`` over each
        node's edge segment.  ``max`` is exact and every edge keeps its
        ``value + cost`` operands, so the result is bitwise the
        node-by-node evaluation's.
        """
        # cost = ((const + alpha*lat) + bytes/bw) + compute*scale, built
        # in place so at most one (n_edges, K) temporary is alive.
        inv_bw = 1.0 / bw
        cost = np.multiply(self._lalpha[:, None], lat[None, :])
        cost += self._lconst[:, None]
        term = np.multiply(self._lbytes[:, None], inv_bw[None, :])
        cost += term
        np.multiply(self._lcompute[:, None], scale[None, :], out=term)
        cost += term
        del term
        vals = np.zeros((self.n_nodes, lat.size))  # level 0 (the epoch) stays 0
        lpred, offsets = self._lpred, self._offsets
        nodes, edges = self._level_nodes, self._level_edges
        for lv in range(1, len(nodes) - 1):
            nlo, nhi, elo, ehi = nodes[lv], nodes[lv + 1], edges[lv], edges[lv + 1]
            x = np.take(vals, lpred[elo:ehi], axis=0)
            x += cost[elo:ehi]
            np.maximum.reduceat(x, offsets[nlo:nhi], axis=0, out=vals[nlo:nhi])
        return vals

    def values(self, latency, bandwidth, compute_scale) -> np.ndarray:
        """Full (n_nodes, K) value matrix, rows in node order."""
        lat, bw, scale = self._broadcast(latency, bandwidth, compute_scale)
        return self._level_pass(lat, bw, scale)[self._pos]

    def evaluate(self, latency, bandwidth, compute_scale) -> np.ndarray:
        """Predicted application total for each configuration.

        Arguments broadcast against each other: scalars price one
        configuration, equal-length arrays price a batch in one pass.
        Always returns a 1-D array aligned with the broadcast shape.
        """
        lat, bw, scale = self._broadcast(latency, bandwidth, compute_scale)
        k = lat.size
        chunk = max(1, _CHUNK_FLOATS // max(self.n_nodes, 1))
        totals = np.empty(k)
        with obs.span("sensitivity_solve"):
            for lo in range(0, k, chunk):
                hi = min(lo + chunk, k)
                vals = self._level_pass(lat[lo:hi], bw[lo:hi], scale[lo:hi])
                totals[lo:hi] = vals[self._terminal_pos]
        if obs.enabled():
            obs.counter("repro_sensitivity_configs_total").inc(k)
        return totals

    def critical_path(
        self, latency=None, bandwidth=None, compute_scale=None
    ) -> CriticalPath:
        """Backtrack the binding chain at one configuration (default:
        the recorded machine's baseline) and decompose its cost.

        Ties between equally-binding edges keep the lowest edge index,
        so the path is deterministic.
        """
        lat0, bw0, scale0 = self.baseline
        lat = float(latency) if latency is not None else lat0
        bw = float(bandwidth) if bandwidth is not None else bw0
        scale = float(compute_scale) if compute_scale is not None else scale0
        # The walk runs in level order: a node's edges keep their
        # relative order there, so ties resolve as in node order.
        vals = self._level_pass(*self._broadcast(lat, bw, scale))[:, 0]
        inv_bw = 1.0 / bw
        const, alpha, nbytes, compute = self._lconst, self._lalpha, self._lbytes, self._lcompute
        starts, pred = self._lstarts, self._lpred

        def through(j):  # the value edge j offers: the same operations as _level_pass
            return vals[pred[j]] + (const[j] + alpha[j] * lat + nbytes[j] * inv_bw + compute[j] * scale)

        node = self._terminal_pos
        comp_t = lat_t = bw_t = ovh_t = 0.0
        alphas = wire_bytes = 0.0
        n_edges = 0
        while True:
            s, e = starts[node], starts[node + 1]
            if e == s:
                break  # reached the epoch
            best_j = s
            best_val = through(s)
            for j in range(s + 1, e):
                v = through(j)
                if v > best_val:
                    best_val = v
                    best_j = j
            j = best_j
            comp_t += compute[j] * scale
            lat_t += alpha[j] * lat
            bw_t += nbytes[j] * inv_bw
            ovh_t += const[j]
            alphas += alpha[j]
            wire_bytes += nbytes[j]
            n_edges += 1
            node = pred[j]
        return CriticalPath(
            total=float(vals[self._terminal_pos]),
            compute_time=comp_t,
            latency_time=lat_t,
            bandwidth_time=bw_t,
            overhead_time=ovh_t,
            alpha_count=alphas,
            bytes_on_wire=wire_bytes,
            n_edges=n_edges,
        )


class GraphRecorder:
    """Builds a :class:`DependencyGraph` from replay hook calls.

    :class:`~repro.mfact.logical_clock.LogicalClockReplay` calls the
    ``on_*`` hooks (duck-typed; the replay never imports this module)
    at every clock update.  A hook only appends its code and arguments
    to a flat log, so the replay — whose wall time is MFACT's tool cost
    — pays one list extend per hook; :meth:`finish` applies the log in
    order to build the graph.  Per-rank pending additive costs
    (``_pend_const`` / ``_pend_comp``) fold chains of compute and
    overhead advances into the next edge that reads the clock.
    """

    def __init__(self, nranks: int, machine: MachineConfig):
        self.nranks = int(nranks)
        self._o = machine.software_overhead
        self._baseline = (machine.latency, machine.bandwidth, machine.compute_scale)
        # Edges as one flat list, five entries each (predecessor, const,
        # alpha, bytes, compute): one extend per node, and a flat list of
        # numbers gives the garbage collector nothing to track.  Node i's
        # entries are _flat[_starts[i]:_starts[i+1]].
        self._flat: List[float] = []
        self._starts: List[int] = [0]
        self._rank_of: List[int] = []
        epoch = self._new_node(-1, ())
        self._clk = [epoch] * self.nranks
        self._inj = [epoch] * self.nranks
        self._ej = [epoch] * self.nranks
        self._pend_const = [0.0] * self.nranks
        self._pend_comp = [0.0] * self.nranks
        self._chan: Dict[Tuple[int, int, int], Deque[int]] = {}
        self._req: List[Dict[int, int]] = [dict() for _ in range(self.nranks)]
        self._log: list = []  # hook codes and arguments, flat

    # -- node construction -------------------------------------------------

    def _new_node(self, rank: int, edges: Sequence[float]) -> int:
        """Append a node; ``edges`` is flat, five entries per edge."""
        self._flat += edges
        self._starts.append(len(self._flat))
        self._rank_of.append(rank)
        return len(self._rank_of) - 1

    def _clk_edge(
        self, rank: int, const: float = 0.0, alpha: float = 0.0, nbytes: float = 0.0
    ) -> Tuple[int, float, float, float, float]:
        """Edge from ``rank``'s current clock plus extra cost, with the
        rank's pending additive advances folded in."""
        return (
            self._clk[rank],
            const + self._pend_const[rank],
            alpha,
            nbytes,
            self._pend_comp[rank],
        )

    def _set_clk(self, rank: int, node: int) -> None:
        self._clk[rank] = node
        self._pend_const[rank] = 0.0
        self._pend_comp[rank] = 0.0

    # -- replay hooks: log only --------------------------------------------

    def on_compute(self, rank: int, duration: float) -> None:
        self._log += (_COMPUTE, rank, duration)

    def on_overhead(self, rank: int) -> None:
        self._log += (_OVERHEAD, rank)

    def on_send(self, rank: int, dst: int, tag: int, nbytes: int, blocking: bool) -> None:
        self._log += (_SEND, rank, dst, tag, nbytes, blocking)

    def on_recv_complete(self, rank: int, src: int, tag: int, nbytes: int) -> None:
        self._log += (_RECV, rank, src, tag, nbytes)

    def on_irecv_bind(self, rank: int, src: int, tag: int, req: int) -> None:
        self._log += (_BIND, rank, src, tag, req)

    def on_wait_complete(self, rank: int, req: int, nbytes: int) -> None:
        self._log += (_WAIT, rank, req, nbytes)

    def on_collective(
        self,
        kind: OpKind,
        members: Sequence[int],
        root: int,
        nbytes: int,
        alpha_count: float,
        bytes_on_wire: float,
    ) -> None:
        self._log += (_COLLECTIVE, kind, members, root, nbytes, alpha_count, bytes_on_wire)

    # -- graph construction from the log -----------------------------------

    def _send(self, rank: int, dst: int, tag: int, nbytes: int, blocking: bool) -> None:
        b = float(nbytes)
        inj_start = self._new_node(
            rank, (self._inj[rank], 0.0, 0.0, 0.0, 0.0) + self._clk_edge(rank, const=self._o)
        )
        inj_done = self._new_node(rank, (inj_start, 0.0, 0.0, b, 0.0))
        self._inj[rank] = inj_done
        avail = self._new_node(rank, (inj_start, 0.0, 1.0, 0.0, 0.0))
        self._chan.setdefault((rank, dst, tag), deque()).append(avail)
        if blocking:
            self._set_clk(rank, inj_done)
        else:
            self._pend_const[rank] += self._o

    def _finish_recv(self, rank: int, avail: int, nbytes: int) -> None:
        b = float(nbytes)
        arrived = self._new_node(rank, (avail, 0.0, 0.0, b, 0.0, self._ej[rank], 0.0, 0.0, b, 0.0))
        self._ej[rank] = arrived
        done = self._new_node(
            rank, self._clk_edge(rank, const=self._o) + (arrived, 0.0, 0.0, 0.0, 0.0)
        )
        self._set_clk(rank, done)

    def _recv_complete(self, rank: int, src: int, tag: int, nbytes: int) -> None:
        self._finish_recv(rank, self._chan[(src, rank, tag)].popleft(), nbytes)

    def _irecv_bind(self, rank: int, src: int, tag: int, req: int) -> None:
        self._req[rank][req] = self._chan[(src, rank, tag)].popleft()

    def _wait_complete(self, rank: int, req: int, nbytes: int) -> None:
        self._finish_recv(rank, self._req[rank].pop(req), nbytes)

    def _collective(
        self,
        kind: OpKind,
        members: Sequence[int],
        root: int,
        nbytes: int,
        alpha_count: float,
        bytes_on_wire: float,
    ) -> None:
        o = self._o
        a = float(alpha_count)
        b = float(bytes_on_wire)
        if kind in _SYNC_COLLECTIVES:
            # Every member completes at max over members of
            # clk + o + alpha_count*L + bytes/B: one shared node.
            done = self._new_node(
                -2, [x for m in members for x in self._clk_edge(m, const=o, alpha=a, nbytes=b)]
            )
            for m in members:
                self._set_clk(m, done)
        elif kind in (OpKind.BCAST, OpKind.SCATTER):
            root_done = self._new_node(root, self._clk_edge(root, const=o, alpha=a, nbytes=b))
            for m in members:
                if m == root:
                    self._set_clk(m, root_done)
                else:
                    done = self._new_node(
                        m, self._clk_edge(m, const=o) + (root_done, 0.0, 0.0, 0.0, 0.0)
                    )
                    self._set_clk(m, done)
        else:  # REDUCE / GATHER
            root_done = self._new_node(
                -2, [x for m in members for x in self._clk_edge(m, const=o, alpha=a, nbytes=b)]
            )
            for m in members:
                if m == root:
                    self._set_clk(m, root_done)
                else:
                    done = self._new_node(
                        m, self._clk_edge(m, const=o, alpha=1.0, nbytes=float(nbytes))
                    )
                    self._set_clk(m, done)

    def _build(self) -> None:
        """Apply the logged hook calls, in order, to the graph."""
        log = self._log
        i, n = 0, len(log)
        while i < n:
            code = log[i]
            if code == _SEND:
                self._send(log[i + 1], log[i + 2], log[i + 3], log[i + 4], log[i + 5])
                i += 6
            elif code == _OVERHEAD:
                self._pend_const[log[i + 1]] += self._o
                i += 2
            elif code == _WAIT:
                self._wait_complete(log[i + 1], log[i + 2], log[i + 3])
                i += 4
            elif code == _BIND:
                self._irecv_bind(log[i + 1], log[i + 2], log[i + 3], log[i + 4])
                i += 5
            elif code == _RECV:
                self._recv_complete(log[i + 1], log[i + 2], log[i + 3], log[i + 4])
                i += 5
            elif code == _COMPUTE:
                self._pend_comp[log[i + 1]] += log[i + 2]
                i += 3
            else:
                self._collective(*log[i + 1 : i + 7])
                i += 7
        self._log = []

    # -- finalization ------------------------------------------------------

    def finish(self) -> DependencyGraph:
        """Build the graph from the hook log, add the terminal node (the
        application's total is the max over every rank's final clock) and
        freeze the arrays."""
        self._build()
        terminal = self._new_node(
            -1, [x for r in range(self.nranks) for x in self._clk_edge(r)]
        )
        # One (n_edges, 5) array; the cost columns are views into it and
        # predecessor ids are exact in float64.  The lists go before the
        # graph is sealed, which keeps the recording's peak memory down.
        edges = np.asarray(self._flat, dtype=float).reshape(-1, 5)
        starts = np.asarray(self._starts, dtype=np.int64) // 5
        node_rank = np.asarray(self._rank_of, dtype=np.int64)
        self._flat, self._starts, self._rank_of = [], [], []
        return DependencyGraph(
            pred=edges[:, 0].astype(np.int64),
            const=edges[:, 1],
            alpha=edges[:, 2],
            nbytes=edges[:, 3],
            compute=edges[:, 4],
            starts=starts,
            node_rank=node_rank,
            terminal=terminal,
            baseline=self._baseline,
        )
