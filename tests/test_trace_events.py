"""Tests for the trace event model."""

import math

import pytest

from repro.trace.events import COLLECTIVE_KINDS, P2P_KINDS, Op, OpKind, make_compute


class TestOpConstruction:
    def test_compute(self):
        op = make_compute(0.5)
        assert op.kind == OpKind.COMPUTE
        assert op.duration == 0.5
        assert math.isnan(op.t_entry)

    def test_send_requires_peer(self):
        with pytest.raises(ValueError, match="peer"):
            Op(OpKind.SEND, nbytes=10)

    def test_rooted_collective_requires_root(self):
        with pytest.raises(ValueError, match="root"):
            Op(OpKind.BCAST, nbytes=10)

    def test_allreduce_needs_no_root(self):
        op = Op(OpKind.ALLREDUCE, nbytes=8)
        assert op.peer == -1

    def test_nonblocking_requires_request(self):
        with pytest.raises(ValueError, match="request"):
            Op(OpKind.ISEND, peer=1, nbytes=10)
        with pytest.raises(ValueError, match="request"):
            Op(OpKind.WAIT)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            Op(OpKind.SEND, peer=0, nbytes=-1)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Op(OpKind.COMPUTE, duration=-0.1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_duration_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Op(OpKind.COMPUTE, duration=bad)
        with pytest.raises(ValueError, match="finite"):
            make_compute(bad)

    def test_nan_timestamps_still_allowed(self):
        op = Op(OpKind.COMPUTE, duration=0.25, t_entry=float("nan"), t_exit=float("nan"))
        assert op.duration == 0.25


class TestOpProperties:
    def test_p2p_flags(self):
        assert Op(OpKind.SEND, peer=1).is_p2p
        assert Op(OpKind.IRECV, peer=1, req=1).is_recv_like
        assert Op(OpKind.ISEND, peer=1, req=1).is_send_like
        assert not Op(OpKind.BARRIER).is_p2p

    def test_collective_flags(self):
        assert Op(OpKind.ALLTOALL, nbytes=4).is_collective
        assert not Op(OpKind.SEND, peer=1).is_collective

    def test_kind_sets_are_disjoint(self):
        assert not (P2P_KINDS & COLLECTIVE_KINDS)

    def test_measured_duration(self):
        op = Op(OpKind.SEND, peer=0, nbytes=8, t_entry=1.0, t_exit=1.5)
        assert op.measured_duration == pytest.approx(0.5)

    def test_equality_ignores_timestamps(self):
        a = Op(OpKind.SEND, peer=1, nbytes=8, t_entry=0.0, t_exit=1.0)
        b = Op(OpKind.SEND, peer=1, nbytes=8)
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_on_metadata(self):
        assert Op(OpKind.SEND, peer=1, nbytes=8) != Op(OpKind.SEND, peer=2, nbytes=8)

    def test_repr_mentions_kind(self):
        assert "SEND" in repr(Op(OpKind.SEND, peer=1, nbytes=8))
        assert "duration" in repr(make_compute(1.0))
