"""Tests for the binary trace format, the dumpi2ascii importer, and
scaling projection."""

import math
import struct

import numpy as np
import pytest

from repro.machines import CIELITO
from repro.mfact.scaling import ScalingFit, fit_scaling, project_scaling
from repro.trace.binary import (
    dumps_binary,
    loads_binary,
    read_trace_binary,
    write_trace_binary,
)
from repro.trace.dumpi import dumps as dumps_ascii
from repro.trace.dumpi import loads as loads_ascii
from repro.trace.dumpi_import import DATATYPE_SIZES, import_dumpi_ascii, parse_rank_stream
from repro.trace.events import Op, OpKind
from repro.trace.trace import TraceSet
from repro.workloads import generate_doe, generate_npb, synthesize_ground_truth


@pytest.fixture(scope="module")
def stamped():
    trace = generate_doe("AMG", 16, CIELITO, seed=55, compute_per_iter=0.001,
                         ranks_per_node=2, use_comm_split=True)
    return synthesize_ground_truth(trace, CIELITO, seed=55)


class TestBinaryFormat:
    def test_roundtrip_ops(self, stamped):
        again = loads_binary(dumps_binary(stamped))
        assert again.op_count() == stamped.op_count()
        for s1, s2 in zip(stamped.ranks, again.ranks):
            assert s1 == s2

    def test_roundtrip_timestamps_exact(self, stamped):
        again = loads_binary(dumps_binary(stamped))
        op1 = stamped.ranks[0][0]
        op2 = again.ranks[0][0]
        assert op1.t_entry == op2.t_entry
        assert op1.t_exit == op2.t_exit

    def test_roundtrip_header(self, stamped):
        again = loads_binary(dumps_binary(stamped))
        assert again.name == stamped.name
        assert again.uses_comm_split
        assert again.comms == stamped.comms
        assert again.metadata == stamped.metadata

    def test_nan_timestamps_survive(self):
        trace = generate_npb("CG", 4, CIELITO, seed=1, compute_per_iter=0.001)
        again = loads_binary(dumps_binary(trace))
        assert math.isnan(again.ranks[0][0].t_entry)

    def test_smaller_than_ascii(self, stamped):
        binary = dumps_binary(stamped)
        ascii_ = dumps_ascii(stamped).encode()
        assert len(binary) < 0.8 * len(ascii_)

    def test_file_roundtrip(self, stamped, tmp_path):
        path = write_trace_binary(stamped, tmp_path / "t.bin")
        again = read_trace_binary(path)
        assert again.op_count() == stamped.op_count()

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="REPROTR1"):
            loads_binary(b"NOTATRACE" + b"\x00" * 100)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_duration_rejected(self, bad):
        """A corrupted duration field fails the load instead of turning
        every predicted total into NaN."""
        marker = 0.123456789
        trace = TraceSet("t", "T", [[Op(OpKind.COMPUTE, duration=marker)]])
        data = dumps_binary(trace)
        assert data.count(struct.pack("<d", marker)) == 1
        corrupt = data.replace(struct.pack("<d", marker), struct.pack("<d", bad))
        with pytest.raises(ValueError, match="duration must be finite"):
            loads_binary(corrupt)

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_duration_rejected_ascii(self, bad):
        marker = 0.123456789
        trace = TraceSet("t", "T", [[Op(OpKind.COMPUTE, duration=marker)]])
        text = dumps_ascii(trace)
        assert text.count(marker.hex()) == 1
        with pytest.raises(ValueError, match="duration must be finite"):
            loads_ascii(text.replace(marker.hex(), bad))


SAMPLE_RANK0 = """\
MPI_Init entering at walltime 100.000000, cputime 0.01
MPI_Init returning at walltime 100.001000, cputime 0.01
MPI_Isend entering at walltime 100.101000, cputime 0.02
int count=1024
int datatype=1 (MPI_DOUBLE)
int dest=1
int tag=7
MPI_Isend returning at walltime 100.101100, cputime 0.02
MPI_Wait entering at walltime 100.102000, cputime 0.02
MPI_Wait returning at walltime 100.103000, cputime 0.02
MPI_Allreduce entering at walltime 100.200000, cputime 0.03
int count=2
int datatype=1 (MPI_DOUBLE)
MPI_Allreduce returning at walltime 100.200500, cputime 0.03
MPI_Finalize entering at walltime 100.300000, cputime 0.04
MPI_Finalize returning at walltime 100.300100, cputime 0.04
"""

SAMPLE_RANK1 = """\
MPI_Init entering at walltime 100.000000, cputime 0.01
MPI_Init returning at walltime 100.001000, cputime 0.01
MPI_Recv entering at walltime 100.050000, cputime 0.02
int count=1024
int datatype=1 (MPI_DOUBLE)
int source=0
int tag=7
MPI_Recv returning at walltime 100.104000, cputime 0.02
MPI_Allreduce entering at walltime 100.199000, cputime 0.03
int count=2
int datatype=1 (MPI_DOUBLE)
MPI_Allreduce returning at walltime 100.200500, cputime 0.03
MPI_Finalize entering at walltime 100.300000, cputime 0.04
MPI_Finalize returning at walltime 100.300100, cputime 0.04
"""


class TestDumpiImport:
    def test_parse_single_rank(self):
        ops = parse_rank_stream(SAMPLE_RANK0)
        kinds = [op.kind for op in ops]
        assert OpKind.ISEND in kinds
        assert OpKind.WAIT in kinds
        assert OpKind.ALLREDUCE in kinds
        assert OpKind.COMPUTE in kinds

    def test_payload_uses_datatype(self):
        ops = parse_rank_stream(SAMPLE_RANK0)
        isend = next(op for op in ops if op.kind == OpKind.ISEND)
        assert isend.nbytes == 1024 * DATATYPE_SIZES["MPI_DOUBLE"]
        assert isend.peer == 1
        assert isend.tag == 7

    def test_gaps_become_compute(self):
        ops = parse_rank_stream(SAMPLE_RANK0)
        compute = [op for op in ops if op.kind == OpKind.COMPUTE]
        assert compute
        assert all(op.duration > 0 for op in compute)

    def test_timestamps_relative_to_start(self):
        ops = parse_rank_stream(SAMPLE_RANK0)
        assert ops[0].t_entry >= 0.0
        assert ops[-1].t_exit <= 0.31

    def test_full_trace_validates_and_replays(self):
        trace = import_dumpi_ascii(
            [SAMPLE_RANK0, SAMPLE_RANK1], name="imported.2", app="SAMPLE",
            machine="cielito", ranks_per_node=1,
        )
        assert trace.nranks == 2
        assert trace.message_count() == 1
        from repro.mfact import ConfigGrid, model_trace

        report = model_trace(trace, CIELITO, ConfigGrid.single(CIELITO))
        assert report.baseline_total_time > 0

    def test_overflowing_walltime_rejected(self):
        """A walltime that overflows to inf would make an infinite gap."""
        text = (
            "MPI_Barrier entering at walltime 1.0, cputime 0\n"
            "MPI_Barrier returning at walltime 1.5, cputime 0\n"
            "MPI_Barrier entering at walltime 1e999, cputime 0\n"
            "MPI_Barrier returning at walltime 1e999, cputime 0\n"
        )
        with pytest.raises(ValueError, match="duration must be finite"):
            parse_rank_stream(text)

    def test_unknown_calls_preserved_as_compute(self):
        text = (
            "MPI_Cart_create entering at walltime 5.0, cputime 0\n"
            "MPI_Cart_create returning at walltime 5.5, cputime 0\n"
        )
        ops = parse_rank_stream(text)
        assert len(ops) == 1
        assert ops[0].kind == OpKind.COMPUTE
        assert ops[0].duration == pytest.approx(0.5)

    def test_waitall_consumes_requests(self):
        text = (
            "MPI_Irecv entering at walltime 1.0, cputime 0\n"
            "int count=8\n"
            "int source=0\n"
            "int tag=1\n"
            "MPI_Irecv returning at walltime 1.1, cputime 0\n"
            "MPI_Irecv entering at walltime 1.2, cputime 0\n"
            "int count=8\n"
            "int source=0\n"
            "int tag=2\n"
            "MPI_Irecv returning at walltime 1.3, cputime 0\n"
            "MPI_Waitall entering at walltime 1.4, cputime 0\n"
            "int count=2\n"
            "MPI_Waitall returning at walltime 1.5, cputime 0\n"
        )
        ops = parse_rank_stream(text)
        waits = [op for op in ops if op.kind == OpKind.WAIT]
        assert len(waits) == 2
        assert {w.req for w in waits} == {1, 2}

    def test_file_paths_accepted(self, tmp_path):
        p0 = tmp_path / "rank0.txt"
        p1 = tmp_path / "rank1.txt"
        p0.write_text(SAMPLE_RANK0)
        p1.write_text(SAMPLE_RANK1)
        trace = import_dumpi_ascii([p0, p1], ranks_per_node=1)
        assert trace.nranks == 2


class TestScaling:
    @pytest.fixture(scope="class")
    def family(self):
        traces = []
        for n in (16, 32, 64, 128):
            traces.append(
                generate_doe(
                    "MiniFE", n, CIELITO, seed=88, compute_per_iter=0.64 / n,
                    ranks_per_node=1, iters=4,
                )
            )
        return traces

    def test_fit_shapes(self, family):
        fit = fit_scaling(family, CIELITO)
        assert fit.parallel > 0
        assert fit.ranks == (16, 32, 64, 128)

    def test_prediction_interpolates(self, family):
        fit = fit_scaling(family, CIELITO)
        # Interpolated sizes land between the bracketing fitted sizes.
        t32, t64 = fit.predict(32), fit.predict(64)
        t48 = fit.predict(48)
        assert min(t32, t64) * 0.8 <= t48 <= max(t32, t64) * 1.2

    def test_strong_scaling_decreases_then_flattens(self, family):
        fit = fit_scaling(family, CIELITO)
        t = fit.predict([16, 64, 256, 4096])
        assert t[1] < t[0]  # more ranks help at first
        # Gains shrink: the last doublings buy less than the first.
        assert (t[0] - t[1]) > (t[2] - t[3])

    def test_efficiency_declines(self, family):
        fit = fit_scaling(family, CIELITO)
        eff = fit.efficiency([16, 128, 1024])
        assert eff[0] == pytest.approx(1.0)
        assert eff[2] < eff[0] + 1e-9

    def test_sweet_spot_among_candidates(self, family):
        fit = fit_scaling(family, CIELITO)
        spot = fit.sweet_spot([16, 64, 1024, 16384])
        assert spot in (16, 64, 1024)

    def test_project_helper(self, family):
        projection = project_scaling(family, CIELITO, targets=[256, 512])
        assert set(projection) == {256, 512}
        assert all(v > 0 for v in projection.values())

    def test_needs_three_sizes(self, family):
        with pytest.raises(ValueError):
            fit_scaling(family[:2], CIELITO)

    def test_distinct_sizes_required(self, family):
        with pytest.raises(ValueError):
            fit_scaling([family[0], family[0], family[1]], CIELITO)
