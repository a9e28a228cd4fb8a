"""Scalar logical clocks against the 2-D in-place reference replay.

:class:`~repro.mfact.logical_clock.LogicalClockReplay` keeps each rank's
clock, NIC horizons and counters as one value per rank (a float on a
one-configuration grid, a 1-D row on a sweep) and rebinds them instead
of updating in place.  The oracle below is the replay it replaced:
``(nranks, nconfigs)`` arrays updated in place, ``np.clip`` for the
latency share and copied collective snapshots.  Both run the same
operations in the same order, so every output must agree bit for bit.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings

from repro.collectives.cost_models import collective_cost
from repro.machines import CIELITO
from repro.machines.presets import get_machine
from repro.mfact import ConfigGrid, LogicalClockReplay, ReplayDeadlockError
from repro.mfact.counters import CounterSet
from repro.mfact.report import MFACTReport
from repro.sensitivity.graph import GraphRecorder
from repro.trace.events import OpKind
from repro.util.rng import DEFAULT_SEED
from repro.workloads import generate_npb, inject_defect
from repro.workloads.suite import build_trace, mini_corpus_specs
from studybench.workloads import corpus_subset
from tests.test_property_based import ring_trace_strategy

_SYNC = frozenset(
    {OpKind.BARRIER, OpKind.ALLREDUCE, OpKind.ALLGATHER, OpKind.ALLTOALL, OpKind.REDUCE_SCATTER}
)


class OracleReplay:
    """Reference replay: 2-D clock/counter arrays updated in place."""

    def __init__(self, trace, machine, grid, recorder=None):
        self.trace, self.machine, self.grid, self._rec = trace, machine, grid, recorder
        n, k = trace.nranks, len(grid)
        self._lat = grid.latency.copy()
        self._inv_bw = 1.0 / grid.bandwidth
        self._scale = grid.compute_scale.copy()
        self._o = machine.software_overhead
        self.clk = np.zeros((n, k))
        self._inj = np.zeros((n, k))
        self._ej = np.zeros((n, k))
        self.counters = CounterSet(n, k)
        self._ip = [0] * n
        self._channels = {}
        self._requests = [{} for _ in range(n)]
        self._blocked = [None] * n
        self._coll = {}
        self._coll_instance = [{} for _ in range(n)]
        self._runnable = deque()
        self._queued = [False] * n

    def _channel(self, key):
        return self._channels.setdefault(key, (deque(), deque()))  # (messages, slots)

    def _wake(self, rank):
        if not self._queued[rank]:
            self._queued[rank] = True
            self._runnable.append(rank)

    def _complete_recv(self, rank, avail, nbytes):
        ready = self.clk[rank] + self._o
        bw_term = nbytes * self._inv_bw
        arrived = np.maximum(avail, self._ej[rank]) + bw_term
        self._ej[rank] = arrived
        new = np.maximum(ready, arrived)
        delta = new - ready
        bw_part = np.minimum(delta, bw_term)
        lat_part = np.clip(delta - bw_term, 0.0, self._lat)
        c = self.counters
        c.bandwidth[rank] += bw_part
        c.latency[rank] += lat_part
        c.wait[rank] += delta - bw_part - lat_part
        self.clk[rank] = new

    def _unpark(self, rank):
        self._blocked[rank] = None
        self._ip[rank] += 1
        self._wake(rank)

    def _deliver(self, src, dst, tag, avail, nbytes):
        messages, slots = self._channel((src, dst, tag))
        if not slots:
            messages.append(avail)
            return
        kind, ident = slots.popleft()
        rec = self._rec
        if kind == "recv":
            self._complete_recv(dst, avail, nbytes)
            rec and rec.on_recv_complete(dst, src, tag, nbytes)
            self._unpark(dst)
            return
        nbytes = self._requests[dst][ident][2]
        self._requests[dst][ident] = ("irecv", avail, nbytes)
        rec and rec.on_irecv_bind(dst, src, tag, ident)
        if self._blocked[dst] == ("wait", ident):
            self._complete_recv(dst, avail, nbytes)
            rec and rec.on_wait_complete(dst, ident, nbytes)
            del self._requests[dst][ident]
            self._unpark(dst)

    def _collective(self, rank, op):
        members = self.trace.comm_ranks(op.comm)
        inst = self._coll_instance[rank].get(op.comm, 0)
        key = (op.comm, inst)
        arrived = self._coll.setdefault(key, {})
        arrived[rank] = self.clk[rank].copy()
        if len(arrived) < len(members):
            self._blocked[rank] = ("coll", key)
            return False
        self._fire(op, members, arrived)
        del self._coll[key]
        for r in members:
            self._coll_instance[r][op.comm] = inst + 1
            self._blocked[r] = None
            self._ip[r] += 1
            if r != rank:
                self._wake(r)
        return True

    def _fire(self, op, members, arrived):
        cost = collective_cost(op.kind, len(members), op.nbytes)
        o, c = self._o, self.counters
        lat_share = cost.alpha_count * self._lat
        bw_share = cost.bytes_on_wire * self._inv_bw
        total = lat_share + bw_share
        if self._rec is not None:
            self._rec.on_collective(
                op.kind, members, op.peer, op.nbytes, cost.alpha_count, cost.bytes_on_wire
            )
        peak = None
        for clk in arrived.values():
            peak = clk if peak is None else np.maximum(peak, clk)
        root = op.peer
        bcast = op.kind in (OpKind.BCAST, OpKind.SCATTER)
        root_done = arrived[root] + o + total if bcast else None
        for r in members:
            start = arrived[r] + o
            if op.kind in _SYNC or (r == root and not bcast):
                done = np.maximum(peak + o, start) + total
                c.wait[r] += done - start - total
                c.latency[r] += lat_share
                c.bandwidth[r] += bw_share
            elif r == root:
                done = root_done
                c.latency[r] += lat_share
                c.bandwidth[r] += bw_share
            elif bcast:
                done = np.maximum(start, root_done)
                delta = done - start
                bw_part = np.minimum(delta, bw_share)
                lat_part = np.clip(delta - bw_share, 0.0, lat_share)
                c.bandwidth[r] += bw_part
                c.latency[r] += lat_part
                c.wait[r] += delta - bw_part - lat_part
            else:
                done = start + (self._lat + op.nbytes * self._inv_bw)
                c.latency[r] += self._lat
                c.bandwidth[r] += op.nbytes * self._inv_bw
            self.clk[r] = done

    def _deadlock_message(self, stuck):
        reasons = []
        for r in stuck[:8]:
            why = self._blocked[r]
            if why is None:
                reasons.append(f"rank {r} runnable but unfinished")
            elif why[0] == "recv":
                src, dst, tag = why[1]
                reasons.append(
                    f"rank {r} in blocking recv on channel (src={src}, dst={dst}, tag={tag})"
                )
            elif why[0] == "wait":
                reasons.append(f"rank {r} waiting on request {why[1]}")
            else:
                reasons.append(f"rank {r} at collective rendezvous on comm {why[1][0]}")
        oldest = ""
        for (src, dst, tag), (messages, slots) in self._channels.items():
            if messages or slots:
                oldest = (
                    f"; oldest unmatched channel (src={src}, dst={dst}, tag={tag}): "
                    f"{len(messages)} queued send(s), {len(slots)} posted receive(s)"
                )
                break
        return (
            f"replay of {self.trace.name} deadlocked with ranks {stuck[:8]} blocked: "
            + "; ".join(reasons)
            + oldest
        )

    def _step(self, rank):
        op = self.trace.ranks[rank][self._ip[rank]]
        kind, o, rec, c = op.kind, self._o, self._rec, self.counters
        if kind == OpKind.COMPUTE:
            work = op.duration * self._scale
            self.clk[rank] += work
            c.compute[rank] += work
            rec and rec.on_compute(rank, op.duration)
        elif kind in (OpKind.SEND, OpKind.ISEND):
            bw_term = op.nbytes * self._inv_bw
            start = self.clk[rank] + o
            inj_start = np.maximum(self._inj[rank], start)
            self._inj[rank] = inj_start + bw_term
            if kind == OpKind.SEND:
                c.bandwidth[rank] += bw_term
                c.wait[rank] += inj_start - start
                self.clk[rank] = self._inj[rank].copy()
            else:
                self.clk[rank] += o
                self._requests[rank][op.req] = ("isend", None, 0)
            rec and rec.on_send(rank, op.peer, op.tag, op.nbytes, blocking=kind == OpKind.SEND)
            self._deliver(rank, op.peer, op.tag, inj_start + self._lat, op.nbytes)
        elif kind == OpKind.RECV:
            messages, slots = self._channel((op.peer, rank, op.tag))
            if not messages:
                slots.append(("recv", rank))
                self._blocked[rank] = ("recv", (op.peer, rank, op.tag))
                return False
            self._complete_recv(rank, messages.popleft(), op.nbytes)
            rec and rec.on_recv_complete(rank, op.peer, op.tag, op.nbytes)
        elif kind == OpKind.IRECV:
            self.clk[rank] += o
            rec and rec.on_overhead(rank)
            messages, slots = self._channel((op.peer, rank, op.tag))
            if messages:
                self._requests[rank][op.req] = ("irecv", messages.popleft(), op.nbytes)
                rec and rec.on_irecv_bind(rank, op.peer, op.tag, op.req)
            else:
                slots.append(("irecv", op.req))
                self._requests[rank][op.req] = ("irecv", None, op.nbytes)
        elif kind == OpKind.WAIT:
            entry = self._requests[rank].get(op.req)
            if entry is None:
                raise ReplayDeadlockError(
                    f"rank {rank} waits on unknown request {op.req} in {self.trace.name}"
                )
            state, avail, nbytes = entry
            if state == "isend":
                self.clk[rank] += o
                rec and rec.on_overhead(rank)
            elif avail is not None:
                self._complete_recv(rank, avail, nbytes)
                rec and rec.on_wait_complete(rank, op.req, nbytes)
            else:
                self._blocked[rank] = ("wait", op.req)
                return False
            del self._requests[rank][op.req]
        else:
            return self._collective(rank, op)
        self._ip[rank] += 1
        return True

    def run(self):
        n = self.trace.nranks
        lengths = [len(ops) for ops in self.trace.ranks]
        for rank in range(n):
            self._wake(rank)
        done = [False] * n
        while self._runnable:
            rank = self._runnable.popleft()
            self._queued[rank] = False
            if done[rank] or self._blocked[rank] is not None:
                continue
            while self._ip[rank] < lengths[rank]:
                if not self._step(rank):
                    break
            if self._ip[rank] >= lengths[rank]:
                done[rank] = True
        stuck = [r for r in range(n) if not done[r]]
        if stuck:
            raise ReplayDeadlockError(self._deadlock_message(stuck))
        return MFACTReport.from_replay(self, 0.0)


GRAPH_ARRAYS = ("pred", "const", "alpha", "nbytes", "compute", "starts", "node_rank")


def _bits(a):
    a = np.asarray(a)
    return (a.dtype.str, a.shape, a.tobytes())


def outcome(replay_cls, trace, machine, grid):
    """Every replay output as bytes (or the deadlock text)."""
    recorder = GraphRecorder(trace.nranks, machine)
    replay = replay_cls(trace, machine, grid, recorder=recorder)
    try:
        report = replay.run()
    except ReplayDeadlockError as exc:
        return ("deadlock", str(exc))
    graph = recorder.finish()
    c = replay.counters
    return (
        _bits(replay.clk),
        *(_bits(getattr(c, name)) for name in ("compute", "latency", "bandwidth", "wait")),
        _bits(report.total_time),
        _bits(report.comm_time),
        {k: float(v).hex() for k, v in report.baseline_counters.items()},
        report.classification,
        report.communication_sensitive,
        _bits(report.per_rank_total),
        *(_bits(getattr(graph, name)) for name in GRAPH_ARRAYS),
        graph.terminal,
        graph.baseline,
    )


def grids(machine):
    return {
        "single": ConfigGrid.single(machine),
        "sweep": ConfigGrid.sweep(machine),
        "mixed-scale": ConfigGrid(
            [machine.latency, machine.latency / 8.0, machine.latency * 2.0],
            [machine.bandwidth, machine.bandwidth * 4.0, machine.bandwidth / 8.0],
            compute_scale=[1.0, 2.0, 0.5],
        ),
    }


GRIDS = pytest.mark.parametrize("grid_name", ["single", "sweep", "mixed-scale"])

#: The 24-spec mini corpus (8 ranks) and every corpus app at 16 ranks.
SPECS = mini_corpus_specs(count=24) + corpus_subset(DEFAULT_SEED)


@pytest.fixture(scope="module")
def traces():
    return {spec.name: build_trace(spec) for spec in SPECS}


class TestScalarClocksMatchOracle:
    @GRIDS
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    def test_corpus_bitwise(self, traces, spec, grid_name):
        trace = traces[spec.name]
        machine = get_machine(trace.machine)
        grid = grids(machine)[grid_name]
        expected = outcome(OracleReplay, trace, machine, grid)
        assert expected[0] != "deadlock"
        assert outcome(LogicalClockReplay, trace, machine, grid) == expected

    @GRIDS
    @given(trace=ring_trace_strategy())
    @settings(max_examples=15, deadline=None)
    def test_ring_traces_bitwise(self, grid_name, trace):
        grid = grids(CIELITO)[grid_name]
        expected = outcome(OracleReplay, trace, CIELITO, grid)
        assert outcome(LogicalClockReplay, trace, CIELITO, grid) == expected

    @GRIDS
    @pytest.mark.parametrize("app,nranks", [("CG", 4), ("MG", 8), ("EP", 2)])
    @pytest.mark.parametrize("kind", ["deadlock", "unmatched-recv"])
    def test_deadlock_text_identical(self, grid_name, app, nranks, kind):
        trace = generate_npb(app, nranks, CIELITO, seed=11, compute_per_iter=0.001,
                             ranks_per_node=2)
        bad = inject_defect(trace, kind, seed=11)
        grid = grids(CIELITO)[grid_name]
        expected = outcome(OracleReplay, bad, CIELITO, grid)
        assert expected[0] == "deadlock"
        assert outcome(LogicalClockReplay, bad, CIELITO, grid) == expected


class TestValueRepresentation:
    def test_single_grid_holds_floats(self):
        trace = generate_npb("CG", 4, CIELITO, seed=3, compute_per_iter=0.001)
        replay = LogicalClockReplay(trace, CIELITO, ConfigGrid.single(CIELITO))
        replay.run()
        assert all(type(v) is float for v in replay._clk + replay._wait)
        assert replay.clk.shape == (4, 1)

    def test_sweep_holds_rows(self):
        trace = generate_npb("CG", 4, CIELITO, seed=3, compute_per_iter=0.001)
        grid = ConfigGrid.sweep(CIELITO)
        replay = LogicalClockReplay(trace, CIELITO, grid)
        replay.run()
        assert all(v.shape == (len(grid),) for v in replay._clk + replay._latency)
        assert replay.clk.shape == (4, len(grid))
