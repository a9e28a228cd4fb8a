"""Block trace ingest against the per-op oracles in ``trace_oracles``.

``loads_binary`` checks each rank's records as one block and builds the
ops without ``Op.__init__``; ``dumps_binary`` packs a rank with one
join; ``extract_features`` and the ``TraceSet`` scans compare raw kind
codes.  Every result must equal the per-op reference: the same op field
values and builtin types, the same bytes, bitwise-equal features, and
the same exception type and message for every corrupt record.
"""

import math
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.cli import main as lint_main
from repro.trace import binary
from repro.trace.binary import dumps_binary, loads_binary
from repro.trace.cli import EXIT_ERROR
from repro.trace.cli import main as trace_cli_main
from repro.trace.events import _ROOTED, P2P_KINDS, REQUEST_KINDS, Op, OpKind
from repro.trace.features import extract_features
from repro.trace.trace import TraceSet
from repro.util.rng import DEFAULT_SEED
from repro.workloads.suite import build_trace, mini_corpus_specs
from studybench.workloads import corpus_subset

from tests.trace_oracles import oracle_dumps, oracle_features, oracle_loads

FIELDS = ("kind", "peer", "nbytes", "tag", "comm", "req", "duration", "t_entry", "t_exit")
_OP = struct.Struct("<Biqiiiddd")
_U32 = struct.Struct("<I")
NAN = float("nan")
INF = float("inf")


def bits(value):
    """A float by its bit pattern (NaN-safe, sign of zero kept)."""
    return struct.pack("<d", value) if isinstance(value, float) else value


def op_image(op: Op):
    return tuple((type(v), bits(v)) for v in (getattr(op, f) for f in FIELDS))


def trace_image(trace: TraceSet):
    header = (
        trace.name, trace.app, trace.machine, trace.ranks_per_node, trace.comms,
        trace.uses_comm_split, trace.uses_threads, trace.metadata,
    )
    return header, [[op_image(op) for op in stream] for stream in trace.ranks]


def outcome(fn, *args):
    """``fn(*args)`` as a comparable value: its result or its error."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return ("raised", type(exc), str(exc))


def feature_image(features):
    return {name: (type(v), bits(v)) for name, v in features.items()}


def assert_codec_matches(trace: TraceSet):
    data = dumps_binary(trace)
    assert data == oracle_dumps(trace)
    assert trace_image(loads_binary(data)) == trace_image(oracle_loads(data))
    for stream in loads_binary(data).ranks:
        for op in stream:
            assert type(op.kind) is OpKind
            assert all(type(getattr(op, f)) is int for f in FIELDS[1:6])
            assert all(type(getattr(op, f)) is float for f in FIELDS[6:])


@pytest.fixture(scope="module")
def mini_traces():
    return [build_trace(spec) for spec in mini_corpus_specs(count=24)]


@pytest.fixture(scope="module")
def corpus_traces():
    return [build_trace(spec) for spec in corpus_subset(DEFAULT_SEED)]


def small_trace() -> TraceSet:
    """Three ranks, one of them empty, with NaN and finite timestamps."""
    return TraceSet(
        name="small",
        app="T",
        ranks=[
            [
                Op(OpKind.COMPUTE, duration=0.5, t_entry=0.0, t_exit=0.5),
                Op(OpKind.ISEND, peer=2, nbytes=64, req=0, t_entry=0.5, t_exit=0.6),
                Op(OpKind.WAIT, req=0, t_entry=0.6, t_exit=0.7),
            ],
            [],
            [
                Op(OpKind.RECV, peer=0, nbytes=64),
                Op(OpKind.BCAST, peer=0, nbytes=8, t_entry=1.0, t_exit=1.5),
            ],
        ],
        ranks_per_node=2,
    )


def record_offset(data: bytes, rank: int, index: int) -> int:
    """Byte offset of op record ``index`` of ``rank`` in ``data``."""
    (hlen,) = _U32.unpack_from(data, len(binary.MAGIC))
    offset = len(binary.MAGIC) + _U32.size + hlen + _U32.size
    for _ in range(rank):
        (nops,) = _U32.unpack_from(data, offset)
        offset += _U32.size + nops * _OP.size
    (nops,) = _U32.unpack_from(data, offset)
    assert 0 <= index < nops
    return offset + _U32.size + index * _OP.size


def replace_record(data: bytes, rank: int, index: int, record) -> bytes:
    at = record_offset(data, rank, index)
    return data[:at] + _OP.pack(*record) + data[at + _OP.size :]


class TestCodecMatchesOracle:
    def test_op_record_layout(self):
        assert binary._OP_DTYPE.itemsize == binary._OP.size == 49
        assert binary._OP_DTYPE.names == FIELDS
        assert all(kind == code for code, kind in enumerate(binary._KINDS))

    def test_mini_specs(self, mini_traces):
        assert len(mini_traces) == 24
        for trace in mini_traces:
            assert_codec_matches(trace)

    def test_corpus_subset(self, corpus_traces):
        assert len(corpus_traces) == 19
        for trace in corpus_traces:
            assert trace.nranks == 16
            assert_codec_matches(trace)

    def test_empty_ranks_and_nan_timestamps(self):
        trace = small_trace()
        assert_codec_matches(trace)
        again = loads_binary(dumps_binary(trace))
        assert again.ranks[1] == []
        assert math.isnan(again.ranks[2][0].t_entry)

    def test_reencoding_gives_the_file_bytes(self, corpus_traces):
        for trace in corpus_traces:
            data = dumps_binary(trace)
            assert dumps_binary(loads_binary(data)) == data


_TIMES = st.floats(allow_nan=True, allow_infinity=True, width=64)


@st.composite
def ops(draw, nranks):
    kind = draw(st.sampled_from(list(OpKind)))
    needs_peer = kind in P2P_KINDS or kind in _ROOTED
    return Op(
        kind,
        peer=draw(st.integers(0 if needs_peer else -1, nranks - 1)),
        nbytes=draw(st.integers(0, 2**63 - 1)),
        tag=draw(st.integers(-(2**31), 2**31 - 1)),
        comm=draw(st.integers(0, 3)),
        req=draw(st.integers(0 if kind in REQUEST_KINDS else -1, 2**31 - 1)),
        duration=draw(st.floats(0.0, 1e300, allow_nan=False)),
        t_entry=draw(_TIMES),
        t_exit=draw(_TIMES),
    )


@st.composite
def traces(draw):
    nranks = draw(st.integers(1, 5))
    ranks = [draw(st.lists(ops(nranks), max_size=12)) for _ in range(nranks)]
    return TraceSet("drawn", "H", ranks, ranks_per_node=draw(st.integers(1, 4)))


drawn = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestDrawnTraces:
    @drawn
    @given(trace=traces())
    def test_codec(self, trace):
        assert_codec_matches(trace)

    @drawn
    @given(trace=traces())
    def test_features(self, trace):
        new = outcome(extract_features, trace)
        old = outcome(oracle_features, trace)
        if new[0] == "ok" and old[0] == "ok":
            assert feature_image(new[1]) == feature_image(old[1])
        else:
            assert new == old

    @drawn
    @given(trace=traces())
    def test_trace_scans(self, trace):
        assert outcome(trace.has_timestamps) == outcome(oracle_has_timestamps, trace)
        assert trace.message_count() == oracle_message_count(trace)
        assert trace.total_send_bytes() == oracle_total_send_bytes(trace)
        new = outcome(trace.measured_comm_time)
        old = outcome(oracle_measured_comm_time, trace)
        if new[0] == "ok" and old[0] == "ok":
            assert bits(new[1]) == bits(old[1])
        else:
            assert new == old


def oracle_has_timestamps(trace):
    return all(
        not math.isnan(op.t_entry) and not math.isnan(op.t_exit)
        for stream in trace.ranks
        for op in stream
    )


def oracle_message_count(trace):
    return sum(1 for stream in trace.ranks for op in stream if op.is_send_like)


def oracle_total_send_bytes(trace):
    return sum(op.nbytes for stream in trace.ranks for op in stream if op.is_send_like)


def oracle_measured_comm_time(trace):
    per_rank = []
    for stream in trace.ranks:
        total = 0.0
        for op in stream:
            if op.kind != OpKind.COMPUTE:
                d = op.measured_duration
                if math.isnan(d):
                    raise ValueError(f"trace {trace.name!r} has no measured timestamps")
                total += d
        per_rank.append(total)
    return sum(per_rank) / len(per_rank)


class TestFeaturesMatchOracle:
    def test_stored_traces(self, mini_traces, corpus_traces):
        for trace in mini_traces + corpus_traces:
            assert feature_image(extract_features(trace)) == feature_image(oracle_features(trace))

    def test_trace_scans_on_stored_traces(self, mini_traces, corpus_traces):
        for trace in mini_traces + corpus_traces:
            assert trace.has_timestamps() is oracle_has_timestamps(trace) is True
            assert bits(trace.measured_comm_time()) == bits(oracle_measured_comm_time(trace))
            assert trace.message_count() == oracle_message_count(trace)
            assert trace.total_send_bytes() == oracle_total_send_bytes(trace)

    def test_pure_compute_trace(self):
        trace = TraceSet("compute", "C", [
            [Op(OpKind.COMPUTE, duration=0.25, t_entry=0.0, t_exit=0.25)],
            [Op(OpKind.COMPUTE, duration=0.5, t_entry=0.0, t_exit=0.5)],
        ])
        feats = extract_features(trace)
        assert feature_image(feats) == feature_image(oracle_features(trace))
        assert feats["NoCALL"] == 0.0 and feats["CR"] == 0.0

    def test_zero_total_trace(self):
        trace = TraceSet("zero", "Z", [
            [Op(OpKind.BARRIER, t_entry=0.0, t_exit=0.0),
             Op(OpKind.SEND, peer=1, nbytes=8, t_entry=0.0, t_exit=0.0)],
            [Op(OpKind.BARRIER, t_entry=0.0, t_exit=0.0),
             Op(OpKind.RECV, peer=0, nbytes=8, t_entry=0.0, t_exit=0.0)],
        ])
        feats = extract_features(trace)
        assert feature_image(feats) == feature_image(oracle_features(trace))
        assert feats["T"] == 0.0 and feats["PoC"] == 0.0


#: (label, record) corruptions; a record is the op tuple
#: ``(kind, peer, nbytes, tag, comm, req, duration, t_entry, t_exit)``.
CORRUPTIONS = [
    ("kind-15", (15, -1, 0, 0, 0, -1, 0.0, 0.0, 0.0)),
    ("kind-255", (255, -1, 0, 0, 0, -1, 0.0, 0.0, 0.0)),
    ("negative-nbytes", (int(OpKind.SEND), 1, -1, 0, 0, -1, 0.0, 0.0, 0.0)),
    ("nan-duration", (int(OpKind.COMPUTE), -1, 0, 0, 0, -1, NAN, 0.0, 0.0)),
    ("inf-duration", (int(OpKind.COMPUTE), -1, 0, 0, 0, -1, INF, 0.0, 0.0)),
    ("minus-inf-duration", (int(OpKind.COMPUTE), -1, 0, 0, 0, -1, -INF, 0.0, 0.0)),
    ("negative-duration", (int(OpKind.COMPUTE), -1, 0, 0, 0, -1, -1e-9, 0.0, 0.0)),
    ("two-faults", (int(OpKind.SEND), -1, -5, 0, 0, -1, NAN, 0.0, 0.0)),
]
CORRUPTIONS += [
    (f"no-peer-{kind.name}", (int(kind), -1, 8, 0, 0, 3, 0.0, 0.0, 0.0))
    for kind in sorted(P2P_KINDS | _ROOTED)
]
CORRUPTIONS += [
    (f"no-req-{kind.name}", (int(kind), 1, 8, 0, 0, -1, 0.0, 0.0, 0.0))
    for kind in sorted(REQUEST_KINDS)
]


def raised(fn, data):
    with pytest.raises(Exception) as info:
        fn(data)
    return type(info.value), str(info.value)


class TestCorruptRecords:
    @pytest.fixture(scope="class")
    def clean(self):
        trace = build_trace(mini_corpus_specs(count=24)[5])
        return dumps_binary(trace), trace

    @pytest.mark.parametrize("label,record", CORRUPTIONS, ids=[c[0] for c in CORRUPTIONS])
    def test_same_error_as_oracle(self, clean, label, record):
        data, trace = clean
        rank = trace.nranks // 2
        nops = len(trace.ranks[rank])
        assert nops >= 3
        for index in (0, nops // 2, nops - 1):
            bad = replace_record(data, rank, index, record)
            expected = raised(oracle_loads, bad)
            assert expected[0] is ValueError
            assert raised(loads_binary, bad) == expected

    def test_first_failing_record_in_file_order_wins(self, clean):
        data, trace = clean
        rank = trace.nranks // 2
        nops = len(trace.ranks[rank])
        bad = replace_record(data, rank, nops - 1, CORRUPTIONS[0][1])
        bad = replace_record(bad, rank, nops // 2, CORRUPTIONS[3][1])
        bad = replace_record(bad, rank + 1, 0, CORRUPTIONS[2][1])
        expected = raised(oracle_loads, bad)
        assert "duration must be finite" in expected[1]
        assert raised(loads_binary, bad) == expected


class TestTruncatedAndTrailing:
    def test_every_prefix_raises_value_error(self):
        data = dumps_binary(small_trace())
        for cut in range(len(data)):
            with pytest.raises(ValueError):
                loads_binary(data[:cut])

    def test_cut_records_name_rank_and_missing_bytes(self):
        data = dumps_binary(small_trace())
        cut = record_offset(data, 2, 1) + 10
        with pytest.raises(ValueError, match=r"rank 2's 2 op records: 98 bytes needed .* 39 missing"):
            loads_binary(data[:cut])

    def test_trailing_bytes_raise(self):
        data = dumps_binary(small_trace())
        with pytest.raises(ValueError, match="3 trailing bytes"):
            loads_binary(data + b"\0\0\0")

    def test_trace_cli_reports_invalid_trace(self, tmp_path, capsys):
        path = tmp_path / "cut.bin"
        path.write_bytes(dumps_binary(small_trace())[:-20])
        assert trace_cli_main(["lint", str(path)]) == EXIT_ERROR
        assert "invalid trace: truncated binary trace" in capsys.readouterr().err

    def test_repro_lint_reports_unreadable(self, tmp_path, capsys):
        path = tmp_path / "long.bin"
        path.write_bytes(dumps_binary(small_trace()) + b"\0")
        assert lint_main([str(path), "--no-baseline"]) == 2
        out = capsys.readouterr().out
        assert "trace/unreadable" in out and "trailing bytes" in out
