"""Level-at-a-time tape pricing against the node-by-node loops it replaced.

:class:`~repro.sensitivity.graph.DependencyGraph` prices its tape one
topological level at a time: one gather, one add and one
``np.maximum.reduceat`` per level.  The oracle below keeps the two
evaluators it replaced verbatim — the batched per-node loop (one numpy
call per edge) and the plain-float loop for a single configuration —
together with the evaluate/critical-path bodies that used them.  ``max``
is exact and every edge keeps its ``value + cost`` operands, so value
matrices, totals, critical paths (ties included) and latency
tolerances must agree bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.machines import CIELITO
from repro.machines.presets import get_machine
from repro.mfact import LogicalClockReplay
from repro.sensitivity import analysis
from repro.sensitivity import graph as graph_mod
from repro.sensitivity.graph import CriticalPath, DependencyGraph, GraphRecorder
from repro.util.rng import DEFAULT_SEED
from repro.workloads.suite import build_trace, mini_corpus_specs
from studybench.workloads import corpus_subset
from tests.test_property_based import ring_trace_strategy


class OracleGraph(DependencyGraph):
    """The node-by-node evaluators, as they were before level pricing."""

    def __init__(self, *args):
        super().__init__(*args)
        self._starts_list = self.starts.tolist()
        self._pred_list = self.pred.tolist()

    def _values(self, lat: np.ndarray, bw: np.ndarray, scale: np.ndarray) -> np.ndarray:
        """Full (n_nodes, K) value matrix for one configuration batch."""
        k = lat.size
        if k == 1:
            return self._values_scalar(float(lat[0]), float(bw[0]), float(scale[0]))
        inv_bw = 1.0 / bw
        cost = (
            self.const[:, None]
            + self.alpha[:, None] * lat[None, :]
            + self.nbytes[:, None] * inv_bw[None, :]
            + self.compute[:, None] * scale[None, :]
        )
        vals = np.zeros((self.n_nodes, k))
        starts = self._starts_list
        pred = self._pred_list
        for i in range(self.n_nodes):
            s, e = starts[i], starts[i + 1]
            if e == s:  # the epoch node: value 0
                continue
            row = vals[i]
            np.add(vals[pred[s]], cost[s], out=row)
            for j in range(s + 1, e):
                np.maximum(row, vals[pred[j]] + cost[j], out=row)
        return vals

    def _values_scalar(self, lat: float, bw: float, scale: float) -> np.ndarray:
        """Single-configuration value pass on plain Python floats."""
        cost = (
            self.const
            + self.alpha * lat
            + self.nbytes * (1.0 / bw)
            + self.compute * scale
        ).tolist()
        vals = [0.0] * self.n_nodes
        starts = self._starts_list
        pred = self._pred_list
        for i in range(self.n_nodes):
            s, e = starts[i], starts[i + 1]
            if e == s:  # the epoch node: value 0
                continue
            best = vals[pred[s]] + cost[s]
            for j in range(s + 1, e):
                v = vals[pred[j]] + cost[j]
                if v > best:
                    best = v
            vals[i] = best
        return np.asarray(vals)[:, None]

    def evaluate(self, latency, bandwidth, compute_scale) -> np.ndarray:
        lat, bw, scale = self._broadcast(latency, bandwidth, compute_scale)
        return self._values(lat, bw, scale)[self.terminal]

    def critical_path(self, latency=None, bandwidth=None, compute_scale=None) -> CriticalPath:
        lat0, bw0, scale0 = self.baseline
        lat = float(latency) if latency is not None else lat0
        bw = float(bandwidth) if bandwidth is not None else bw0
        scale = float(compute_scale) if compute_scale is not None else scale0
        vals = self._values(np.array([lat]), np.array([bw]), np.array([scale]))[:, 0]
        inv_bw = 1.0 / bw
        cost = (
            self.const
            + self.alpha * lat
            + self.nbytes * inv_bw
            + self.compute * scale
        ).tolist()
        starts = self._starts_list
        pred = self._pred_list
        node = self.terminal
        comp_t = lat_t = bw_t = ovh_t = 0.0
        alphas = wire_bytes = 0.0
        n_edges = 0
        while True:
            s, e = starts[node], starts[node + 1]
            if e == s:
                break  # reached the epoch
            best_j = s
            best_val = vals[pred[s]] + cost[s]
            for j in range(s + 1, e):
                v = vals[pred[j]] + cost[j]
                if v > best_val:
                    best_val = v
                    best_j = j
            j = best_j
            comp_t += self.compute[j] * scale
            lat_t += self.alpha[j] * lat
            bw_t += self.nbytes[j] * inv_bw
            ovh_t += self.const[j]
            alphas += self.alpha[j]
            wire_bytes += self.nbytes[j]
            n_edges += 1
            node = pred[j]
        return CriticalPath(
            total=float(vals[self.terminal]),
            compute_time=comp_t,
            latency_time=lat_t,
            bandwidth_time=bw_t,
            overhead_time=ovh_t,
            alpha_count=alphas,
            bytes_on_wire=wire_bytes,
            n_edges=n_edges,
        )


def oracle_of(graph):
    return OracleGraph(
        graph.pred, graph.const, graph.alpha, graph.nbytes, graph.compute,
        graph.starts, graph.node_rank, graph.terminal, graph.baseline,
    )


def recorded(trace, machine):
    recorder = GraphRecorder(trace.nranks, machine)
    LogicalClockReplay(trace, machine, recorder=recorder).run()
    return recorder.finish()


def configs(machine, k):
    """``k`` spread (latency, bandwidth, compute_scale) points; the first
    is the machine's own configuration."""
    t = np.linspace(0.0, 1.0, k)
    lat = machine.latency * np.geomspace(1.0, 300.0, k)
    bw = machine.bandwidth * 2.0 ** (-4.0 * ((5.0 * t) % 1.0))
    scale = machine.compute_scale * (1.0 + 0.5 * np.sin(7.0 * t))
    return lat, bw, scale


def bitwise(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


K_VALUES = (1, 3, 19, 32, 100)

#: The 24-spec mini corpus (8 ranks) and the 19 model-query apps at 16 ranks.
SPECS = mini_corpus_specs(count=24) + corpus_subset(DEFAULT_SEED)


@pytest.fixture(scope="module")
def graphs():
    out = {}
    for spec in SPECS:
        trace = build_trace(spec)
        machine = get_machine(trace.machine)
        out[spec.name] = (recorded(trace, machine), machine)
    return out


def assert_matches_oracle(graph, machine, k_values=K_VALUES):
    oracle = oracle_of(graph)
    for k in k_values:
        lat, bw, scale = configs(machine, k)
        expected = oracle._values(lat, bw, scale)
        assert bitwise(graph.values(lat, bw, scale), expected), k
        assert bitwise(graph.evaluate(lat, bw, scale), expected[graph.terminal]), k
    for lat_f, bw_f in ((1.0, 1.0), (16.0, 1.0), (1.0, 0.125), (256.0, 0.5)):
        args = (machine.latency * lat_f, machine.bandwidth * bw_f, machine.compute_scale)
        assert graph.critical_path(*args) == oracle.critical_path(*args)
    assert analysis.latency_tolerance(graph, machine) == analysis.latency_tolerance(
        oracle, machine
    )


class TestLevelsMatchOracle:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    def test_corpus_bitwise(self, graphs, spec):
        graph, machine = graphs[spec.name]
        assert_matches_oracle(graph, machine)

    @given(trace=ring_trace_strategy())
    @settings(max_examples=25, deadline=None)
    def test_ring_traces_bitwise(self, trace):
        assert_matches_oracle(recorded(trace, CIELITO), CIELITO)

    def test_chunked_batch_bitwise(self, graphs, monkeypatch):
        graph, machine = graphs[SPECS[5].name]
        lat, bw, scale = configs(machine, 32)
        expected = oracle_of(graph)._values(lat, bw, scale)[graph.terminal]
        # Three configurations per chunk: 32 split as 3 + 3 + ... + 2.
        monkeypatch.setattr(graph_mod, "_CHUNK_FLOATS", 3 * graph.n_nodes)
        assert bitwise(graph.evaluate(lat, bw, scale), expected)


class TestLevelStructure:
    def test_levels_respect_every_edge(self, graphs):
        for graph, _ in graphs.values():
            bounds = graph._level_nodes
            depth = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))[graph._pos]
            owner = np.repeat(np.arange(graph.n_nodes), np.diff(graph.starts))
            assert (depth[graph.pred] < depth[owner]).all()
            # Longest path: every node above level 0 has an edge from the
            # level just below it.
            tight = np.zeros(graph.n_nodes, dtype=bool)
            tight[owner[depth[graph.pred] == depth[owner] - 1]] = True
            assert tight[depth > 0].all()

    def test_lowest_edge_wins_ties(self):
        # Node 1 and node 2 both hang off the epoch at cost 1; the
        # terminal (node 3) reads both at cost 0, so its two edges bind
        # equally and the path must take the first (edge 2, via node 1).
        graph = DependencyGraph(
            pred=np.array([0, 0, 1, 2]),
            const=np.array([1.0, 0.0, 0.0, 0.0]),
            alpha=np.array([0.0, 1.0, 0.0, 0.0]),
            nbytes=np.zeros(4),
            compute=np.zeros(4),
            starts=np.array([0, 0, 1, 2, 4]),
            node_rank=np.array([-1, 0, 1, -1]),
            terminal=3,
            baseline=(1.0, 1.0, 1.0),
        )
        cp = graph.critical_path()
        assert cp == oracle_of(graph).critical_path()
        assert (cp.total, cp.overhead_time, cp.latency_time) == (1.0, 1.0, 0.0)
        assert graph._level_nodes == [0, 1, 3, 4]
