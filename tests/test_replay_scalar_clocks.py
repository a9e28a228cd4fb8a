"""The one-configuration replay and its tape against the lane replay.

:class:`~repro.mfact.logical_clock.LogicalClockReplay` replays at one
configuration, the machine's own, on plain floats, and MFACT's sweep is
priced off the tape its recorder builds
(:func:`~repro.sensitivity.analysis.record_graph`).  The oracle below is
the replay that priced a grid before: ``(nranks, nconfigs)`` arrays
updated in place, one lane per configuration, ``np.clip`` for the
latency share and copied collective snapshots.

* Each oracle lane runs the same operations in the same order as a
  production replay at that lane's configuration, so clocks, counters,
  the rank means, the deadlock text and the recorded graph must agree
  bit for bit.
* The record-facing report fields (baseline total, comm time and
  counters, per-rank totals, class and ``cs``) must equal the lane
  report's bit for bit.  The other totals of the grid come off the
  tape, which agrees with the lanes within ``1e-12`` relative.
"""

from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

from repro.collectives.cost_models import collective_cost
from repro.machines import CIELITO
from repro.machines.presets import get_machine
from repro.mfact import ConfigGrid, LogicalClockReplay, ReplayDeadlockError, model_trace
from repro.mfact.classify import classify, is_communication_sensitive
from repro.sensitivity.analysis import record_graph
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

COUNTERS = ("compute", "latency", "bandwidth", "wait")


class LaneCounters:
    """The four counters as ``(nranks, nconfigs)`` arrays."""

    def __init__(self, n, k):
        for name in COUNTERS:
            setattr(self, name, np.zeros((n, k)))


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
        self.counters = LaneCounters(n, k)
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


GRAPH_ARRAYS = ("pred", "const", "alpha", "nbytes", "compute", "starts", "node_rank")


def _bits(a):
    a = np.asarray(a)
    return (a.dtype.str, a.shape, a.tobytes())


def _hex(counters):
    return {name: float(value).hex() for name, value in counters.items()}


def graph_bits(graph):
    return (*(_bits(getattr(graph, name)) for name in GRAPH_ARRAYS), graph.terminal,
            graph.baseline)


def at(machine, grid, i):
    """The machine at grid configuration ``i``."""
    return replace(machine, latency=float(grid.latency[i]),
                   bandwidth=float(grid.bandwidth[i]),
                   compute_scale=float(grid.compute_scale[i]))


def oracle(trace, machine, grid):
    """One lane replay: (per-lane bytes, graph bytes, lane report), or
    ``("deadlock", text)``."""
    recorder = GraphRecorder(trace.nranks, machine)
    replay = OracleReplay(trace, machine, grid, recorder=recorder)
    try:
        replay.run()
    except ReplayDeadlockError as exc:
        return ("deadlock", str(exc))
    c, clk = replay.counters, replay.clk
    total = clk.max(axis=0)
    # The rank mean of comm time is a left fold over ranks, as the
    # sweep's ``(nranks, 21).mean(axis=0)`` was; records pin those bits.
    comm = 0.0
    for row in c.latency + c.bandwidth + c.wait:
        comm = comm + row
    comm = comm / trace.nranks
    means = [{name: float(getattr(c, name)[:, i].mean()) for name in COUNTERS}
             for i in range(len(grid))]
    lanes = [
        (_bits(clk[:, i]), *(_bits(getattr(c, name)[:, i]) for name in COUNTERS),
         float(total[i]).hex(), float(comm[i]).hex(), _hex(means[i]))
        for i in range(len(grid))
    ]
    base = grid.baseline
    try:
        label = classify(machine, grid, total, means[base]["wait"])
        cs = is_communication_sensitive(machine, grid, total)
    except KeyError:
        label, cs = None, False
    record = (float(total[base]).hex(), float(comm[base]).hex(), _hex(means[base]),
              _bits(clk[:, base]), label, cs)
    return lanes, graph_bits(recorder.finish()), (record, total)


def per_point(trace, machine, grid):
    """One production replay per grid configuration, laid out like
    :func:`oracle`'s lanes; the graph is recorded at the baseline."""
    recorder = GraphRecorder(trace.nranks, machine)
    lanes = []
    try:
        for i in range(len(grid)):
            replay = LogicalClockReplay(
                trace, at(machine, grid, i), recorder=recorder if i == grid.baseline else None
            )
            report = replay.run()
            c = replay.counters
            lanes.append(
                (_bits(replay.clk), *(_bits(getattr(c, name)) for name in COUNTERS),
                 float(report.baseline_total_time).hex(),
                 float(report.baseline_comm_time).hex(), _hex(report.baseline_counters))
            )
    except ReplayDeadlockError as exc:
        return ("deadlock", str(exc))
    return lanes, graph_bits(recorder.finish())


def priced(trace, machine, grid_name):
    """The production report on a grid: the record's own trace model for
    the sweep, ``model_trace``'s tape pricing for the other grids."""
    if grid_name == "sweep":
        return record_graph(trace, machine)[1]
    return model_trace(trace, machine, grids(machine)[grid_name])


def check_against_oracle(trace, machine, grid_name):
    grid = grids(machine)[grid_name]
    expected = oracle(trace, machine, grid)
    assert expected[0] != "deadlock"
    lanes, graph, (record, totals) = expected
    assert per_point(trace, machine, grid) == (lanes, graph)
    report = priced(trace, machine, grid_name)
    assert (
        float(report.baseline_total_time).hex(), float(report.baseline_comm_time).hex(),
        _hex(report.baseline_counters), _bits(report.per_rank_total),
        report.classification, report.communication_sensitive,
    ) == record
    np.testing.assert_allclose(report.total_time, totals, rtol=1e-12, atol=0.0)


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
        check_against_oracle(trace, get_machine(trace.machine), grid_name)

    @GRIDS
    @given(trace=ring_trace_strategy())
    @settings(max_examples=15, deadline=None)
    def test_ring_traces_bitwise(self, grid_name, trace):
        check_against_oracle(trace, CIELITO, grid_name)

    @GRIDS
    @pytest.mark.parametrize("app,nranks", [("CG", 4), ("MG", 8), ("EP", 2)])
    @pytest.mark.parametrize("kind", ["deadlock", "unmatched-recv"])
    def test_deadlock_text_identical(self, grid_name, app, nranks, kind):
        trace = generate_npb(app, nranks, CIELITO, seed=11, compute_per_iter=0.001,
                             ranks_per_node=2)
        bad = inject_defect(trace, kind, seed=11)
        grid = grids(CIELITO)[grid_name]
        expected = oracle(bad, CIELITO, grid)
        assert expected[0] == "deadlock"
        assert per_point(bad, CIELITO, grid) == expected


class TestValueRepresentation:
    def test_single_grid_holds_floats(self):
        trace = generate_npb("CG", 4, CIELITO, seed=3, compute_per_iter=0.001)
        replay = LogicalClockReplay(trace, CIELITO)
        replay.run()
        c = replay.counters
        values = replay.clk + c.compute + c.latency + c.bandwidth + c.wait
        assert len(replay.clk) == 4
        assert all(type(v) is float for v in values)
