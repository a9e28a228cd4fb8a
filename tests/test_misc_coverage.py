"""Additional coverage: fat-tree machines, CLI error paths, report APIs."""

import pytest

from repro.machines import CIELITO, MachineConfig
from repro.mfact import ConfigGrid, model_trace
from repro.sim import Fabric, simulate_trace
from repro.trace import write_trace
from repro.trace.cli import main as trace_cli
from repro.trace.events import Op, OpKind, make_compute
from repro.trace.trace import TraceSet
from repro.workloads import generate_npb

FATTREE_MACHINE = MachineConfig(
    name="cluster-ft",
    bandwidth=12.5e9 / 8,
    latency=1.5e-6,
    topology="fattree",
    cores_per_node=8,
)


def ring(n=8, nbytes=65536):
    ranks = []
    for r in range(n):
        ranks.append([
            make_compute(0.001),
            Op(OpKind.IRECV, peer=(r - 1) % n, nbytes=nbytes, tag=1, req=1),
            Op(OpKind.ISEND, peer=(r + 1) % n, nbytes=nbytes, tag=1, req=2),
            Op(OpKind.WAIT, req=1),
            Op(OpKind.WAIT, req=2),
        ])
    return TraceSet("ring", "RING", ranks, machine="cluster-ft", ranks_per_node=2)


class TestFatTreeMachine:
    def test_simulation_on_fattree(self):
        for model in ("packet", "flow", "packet-flow"):
            res = simulate_trace(ring(), FATTREE_MACHINE, model)
            assert res.total_time > 0.001

    def test_fabric_routes_have_four_resources_cross_leaf(self):
        trace = ring(16)
        fabric = Fabric(trace, FATTREE_MACHINE)
        # ranks 0 and 15 live on different leaves
        route = fabric.route(0, 15)
        assert len(route) >= 4

    def test_mfact_blind_to_topology(self):
        """MFACT only sees (alpha, B): same trace, same parameters,
        different topology family -> identical prediction."""
        trace = ring()
        torus_machine = MachineConfig(
            name="cluster-torus",
            bandwidth=FATTREE_MACHINE.bandwidth,
            latency=FATTREE_MACHINE.latency,
            topology="torus3d",
            cores_per_node=8,
        )
        a = model_trace(trace, FATTREE_MACHINE, ConfigGrid.single(FATTREE_MACHINE))
        b = model_trace(trace, torus_machine, ConfigGrid.single(torus_machine))
        assert a.baseline_total_time == pytest.approx(b.baseline_total_time)


class TestReportAccessors:
    def test_time_at_and_totals(self):
        trace = ring()
        machine = FATTREE_MACHINE
        report = model_trace(trace, machine)
        assert report.baseline_total_time == report.time_at(1.0, 1.0, machine)
        assert report.per_rank_total.shape == (trace.nranks,)
        assert report.trace_name == "ring"

    def test_counters_dict_keys(self):
        report = model_trace(ring(), FATTREE_MACHINE)
        assert set(report.baseline_counters) == {"compute", "latency", "bandwidth", "wait"}


class TestCLIErrorPaths:
    def test_features_on_unstamped_trace(self, tmp_path, capsys):
        trace = generate_npb("CG", 8, CIELITO, seed=1, compute_per_iter=0.001)
        path = write_trace(trace, tmp_path / "t.dmp")
        assert trace_cli(["features", str(path)]) == 1
        assert "unstamped" in capsys.readouterr().err

    def test_validate_reports_invalid(self, tmp_path, capsys):
        bad = TraceSet("bad", "B", [[Op(OpKind.SEND, peer=1, nbytes=4, tag=1)], []])
        path = write_trace(bad, tmp_path / "bad.dmp")
        # error-level findings exit 2 (shared severity convention)
        assert trace_cli(["validate", str(path)]) == 2
        assert "INVALID" in capsys.readouterr().out

    def test_info_on_unstamped(self, tmp_path, capsys):
        trace = generate_npb("CG", 8, CIELITO, seed=1, compute_per_iter=0.001)
        path = write_trace(trace, tmp_path / "t.dmp")
        assert trace_cli(["info", str(path)]) == 0
        assert "unstamped" in capsys.readouterr().out


class TestSendSemantics:
    def test_blocking_send_waits_for_own_nic(self):
        machine = CIELITO
        nbytes = 8 << 20
        ranks = [
            [
                Op(OpKind.SEND, peer=1, nbytes=nbytes, tag=1),
                Op(OpKind.SEND, peer=1, nbytes=nbytes, tag=2),
            ],
            [
                Op(OpKind.RECV, peer=0, nbytes=nbytes, tag=1),
                Op(OpKind.RECV, peer=0, nbytes=nbytes, tag=2),
            ],
        ]
        trace = TraceSet("t", "T", ranks, machine="cielito", ranks_per_node=1)
        report = model_trace(trace, machine, ConfigGrid.single(machine))
        # Sender's clock carries both serializations.
        assert report.per_rank_total[0] >= 2 * nbytes / machine.bandwidth

    def test_compute_scale_in_grid(self):
        trace = TraceSet("t", "T", [[make_compute(1.0)]])
        grid = ConfigGrid([CIELITO.latency] * 3, [CIELITO.bandwidth] * 3,
                          compute_scale=[0.5, 1.0, 2.0], baseline=1)
        report = model_trace(trace, CIELITO, grid)
        assert report.total_time[0] == pytest.approx(0.5)
        assert report.total_time[2] == pytest.approx(2.0)


class TestCLIConvert:
    def test_ascii_to_binary_and_back(self, tmp_path, capsys):
        from repro.trace.binary import read_trace_binary

        trace = generate_npb("CG", 8, CIELITO, seed=2, compute_per_iter=0.001)
        ascii_path = write_trace(trace, tmp_path / "t.dmp")
        bin_path = tmp_path / "t.bin"
        assert trace_cli(["convert", str(ascii_path), str(bin_path)]) == 0
        again = read_trace_binary(bin_path)
        assert again.op_count() == trace.op_count()
        back_path = tmp_path / "t2.dmp"
        assert trace_cli(["convert", str(bin_path), str(back_path)]) == 0
        assert trace_cli(["validate", str(back_path)]) == 0

    def test_convert_requires_output(self, tmp_path, capsys):
        trace = generate_npb("CG", 8, CIELITO, seed=2, compute_per_iter=0.001)
        path = write_trace(trace, tmp_path / "t.dmp")
        assert trace_cli(["convert", str(path)]) == 1
