"""Tests for the tracelint static analyzer (repro.analysis.lint)."""

import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import Diagnostic, LintReport, Severity, lint_trace
from repro.analysis.lint import LintGateError
from repro.core.pipeline import measure_trace
from repro.machines.presets import get_machine
from repro.sim.mpi_replay import expand_collectives, simulate_trace
from repro.trace.cli import main as trace_cli
from repro.trace.dumpi import write_trace
from repro.trace.events import Op, OpKind
from repro.trace.trace import TraceSet
from repro.workloads.base import ProgramBuilder
from repro.workloads.doe import DOE_APPS, generate_doe
from repro.workloads.npb import NPB_APPS, generate_npb
from repro.workloads.synthesis import (
    DEFECT_KINDS,
    inject_defect,
    synthesize_ground_truth,
)

MACHINE = get_machine("cielito")

#: Structural defects (injectable pre-synthesis) -> the rule that must fire.
STRUCTURAL_DEFECTS = {
    "deadlock": "trace/deadlock",
    "unmatched-send": "trace/unmatched-p2p",
    "unmatched-recv": "trace/unmatched-p2p",
    "byte-mismatch": "trace/byte-asymmetry",
    "lost-wait": "trace/request-discipline",
    "reordered-collectives": "trace/collective-order",
    "root-divergence": "trace/collective-args",
}


def small_trace(app="CG", nranks=8, seed=3):
    gen = generate_npb if app.upper() in NPB_APPS else generate_doe
    return gen(app, nranks, MACHINE, seed=seed, compute_per_iter=1e-4)


class TestCleanTraces:
    @pytest.mark.parametrize("app", sorted(NPB_APPS) + sorted(DOE_APPS))
    def test_every_generator_is_lint_clean(self, app):
        report = lint_trace(small_trace(app))
        assert report.diagnostics == [], report.render()

    def test_stamped_trace_stays_clean(self):
        trace = synthesize_ground_truth(small_trace(), MACHINE, seed=3)
        report = lint_trace(trace)
        assert report.diagnostics == [], report.render()
        assert report.exit_code() == 0
        assert report.max_severity is None


class TestDefectInjection:
    @pytest.mark.parametrize("kind", sorted(STRUCTURAL_DEFECTS))
    def test_each_defect_trips_its_rule(self, kind):
        bad = inject_defect(small_trace(), kind, seed=11)
        report = lint_trace(bad)
        fired = {d.rule for d in report.diagnostics}
        assert STRUCTURAL_DEFECTS[kind] in fired, report.render()
        assert report.exit_code() == 2
        assert not report.ok

    @pytest.mark.parametrize("kind", sorted(STRUCTURAL_DEFECTS))
    def test_injection_does_not_mutate_input(self, kind):
        trace = small_trace()
        before = trace.op_count()
        bad = inject_defect(trace, kind, seed=11)
        assert bad is not trace
        assert trace.op_count() == before
        assert lint_trace(trace).diagnostics == []
        assert bad.metadata["injected_defect"] == kind

    def test_time_travel_needs_stamps(self):
        with pytest.raises(ValueError, match="stamped"):
            inject_defect(small_trace(), "time-travel", seed=1)

    def test_time_travel_trips_timestamp_rule(self):
        stamped = synthesize_ground_truth(small_trace(), MACHINE, seed=3)
        bad = inject_defect(stamped, "time-travel", seed=5)
        fired = {d.rule for d in lint_trace(bad).diagnostics}
        assert "trace/timestamps" in fired

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown defect kind"):
            inject_defect(small_trace(), "gremlins", seed=0)

    def test_all_kinds_documented(self):
        assert set(STRUCTURAL_DEFECTS) | {"time-travel"} == set(DEFECT_KINDS)


class TestIndividualRules:
    def test_deadlock_reports_wait_for_cycle(self):
        bad = inject_defect(small_trace(), "deadlock", seed=11)
        diags = lint_trace(bad).by_rule("trace/deadlock")
        assert any("cycle" in d.message for d in diags)

    def test_unmatched_tag_mismatch_hint(self):
        # Send on tag 7 answered by a recv posted on tag 8.
        ranks = [
            [Op(OpKind.SEND, peer=1, nbytes=64, tag=7)],
            [Op(OpKind.RECV, peer=0, nbytes=64, tag=8)],
        ]
        trace = TraceSet("t", "T", ranks)
        diags = lint_trace(trace).by_rule("trace/unmatched-p2p")
        assert len(diags) == 2
        assert any("tag/comm mismatch" in d.hint for d in diags)

    def test_invalid_peer(self):
        trace = TraceSet("t", "T", [[Op(OpKind.SEND, peer=5, nbytes=8, tag=1)], []])
        fired = {d.rule for d in lint_trace(trace).diagnostics}
        assert "trace/invalid-peer" in fired

    def test_collective_on_unknown_comm(self):
        trace = TraceSet(
            "t", "T", [[Op(OpKind.BARRIER, comm=9)], [Op(OpKind.BARRIER, comm=9)]]
        )
        diags = lint_trace(trace).by_rule("trace/comm-membership")
        assert diags and all(d.severity == Severity.ERROR for d in diags)

    def test_rooted_collective_root_outside_comm(self):
        comms = {1: (0, 1)}
        ranks = [
            [Op(OpKind.BCAST, peer=2, nbytes=8, comm=1)],
            [Op(OpKind.BCAST, peer=2, nbytes=8, comm=1)],
            [],
        ]
        trace = TraceSet("t", "T", ranks, comms=comms, uses_comm_split=True)
        diags = lint_trace(trace).by_rule("trace/comm-membership")
        assert any("not a member" in d.message for d in diags)

    def test_request_reuse_before_wait(self):
        ranks = [
            [
                Op(OpKind.IRECV, peer=1, nbytes=8, tag=1, req=1),
                Op(OpKind.IRECV, peer=1, nbytes=8, tag=2, req=1),
                Op(OpKind.WAIT, req=1),
                Op(OpKind.WAIT, req=1),
            ],
            [
                Op(OpKind.SEND, peer=0, nbytes=8, tag=1),
                Op(OpKind.SEND, peer=0, nbytes=8, tag=2),
            ],
        ]
        diags = lint_trace(TraceSet("t", "T", ranks)).by_rule("trace/request-discipline")
        assert any("reissued" in d.message for d in diags)

    def test_threads_and_grouping_notes(self):
        trace = small_trace()
        trace.uses_threads = True
        trace.uses_comm_split = True
        report = lint_trace(trace)
        notes = report.by_rule("trace/model-support")
        assert len(notes) == 2
        assert all(d.severity == Severity.NOTE for d in notes)
        assert report.exit_code() == 0  # notes do not fail a lint run

    def test_undeclared_subcommunicator_warns(self):
        trace = small_trace()
        trace.comms[1] = (0, 1)
        trace.uses_comm_split = False
        report = lint_trace(trace)
        warns = report.by_rule("trace/model-support")
        assert warns and warns[0].severity == Severity.WARNING
        assert report.exit_code() == 1

    def test_partial_stamping_detected(self):
        trace = synthesize_ground_truth(small_trace(), MACHINE, seed=3)
        trace.ranks[0][0].t_entry = float("nan")
        fired = {d.rule for d in lint_trace(trace).diagnostics}
        assert "trace/timestamps" in fired


class TestReportFormat:
    def test_json_roundtrip_fields(self):
        bad = inject_defect(small_trace(), "unmatched-send", seed=11)
        payload = lint_trace(bad).to_json()
        assert payload["ok"] is False
        assert payload["max_severity"] == "ERROR"
        diag = payload["diagnostics"][0]
        assert set(diag) == {
            "rule", "severity", "message", "rank", "op_index", "location", "hint"
        }

    def test_render_mentions_rule_and_summary(self):
        bad = inject_defect(small_trace(), "unmatched-send", seed=11)
        text = lint_trace(bad).render()
        assert "trace/unmatched-p2p" in text
        assert "error" in text

    def test_clean_report_renders_clean(self):
        assert "clean" in lint_trace(small_trace()).render()


class TestCliLint:
    def _write(self, tmp_path, trace):
        path = tmp_path / "trace.dmp"
        write_trace(trace, path)
        return str(path)

    def test_clean_trace_exits_zero(self, tmp_path, capsys):
        assert trace_cli(["lint", self._write(tmp_path, small_trace())]) == 0
        assert "clean" in capsys.readouterr().out

    def test_defective_trace_exits_two(self, tmp_path, capsys):
        bad = inject_defect(small_trace(), "deadlock", seed=11)
        assert trace_cli(["lint", self._write(tmp_path, bad)]) == 2
        assert "trace/deadlock" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        import json

        bad = inject_defect(small_trace(), "byte-mismatch", seed=11)
        assert trace_cli(["lint", "--json", self._write(tmp_path, bad)]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_severity"] == "ERROR"

    def test_missing_file_exit_code(self, capsys):
        assert trace_cli(["lint", "/nonexistent/trace.dmp"]) == 1


class TestPipelineGate:
    def test_gate_rejects_defective_trace(self):
        stamped = synthesize_ground_truth(small_trace(), MACHINE, seed=3)
        bad = inject_defect(stamped, "time-travel", seed=5)
        with pytest.raises(LintGateError) as excinfo:
            measure_trace(bad, lint_gate=True)
        assert excinfo.value.report.exit_code() == 2

    def test_gate_passes_clean_trace(self):
        stamped = synthesize_ground_truth(small_trace(), MACHINE, seed=3)
        record = measure_trace(stamped, lint_gate=True)
        assert record.mfact.completed

    def test_gate_off_by_default(self):
        stamped = synthesize_ground_truth(small_trace(), MACHINE, seed=3)
        bad = inject_defect(stamped, "time-travel", seed=5)
        record = measure_trace(bad)  # no gate: tools still run
        assert record.mfact.completed


class TestAuditDiagnostics:
    def test_findings_share_diagnostic_format(self, fabricate):
        from repro.workloads.audit import audit_report

        lint = audit_report(fabricate(n=30))
        assert isinstance(lint, LintReport)
        assert all(d.rule.startswith("corpus/") for d in lint.diagnostics)
        assert all(isinstance(d, Diagnostic) for d in lint.diagnostics)
        # 30 records cannot satisfy the 235-record corpus checks.
        assert lint.exit_code() == 2
        assert "corpus size" in lint.render()


@st.composite
def collective_programs(draw):
    """A ProgramBuilder filled with a random collective sequence."""
    nranks = draw(st.integers(min_value=2, max_value=6))
    b = ProgramBuilder(nranks, "prop", "prop-trace", ranks_per_node=2)
    kinds = st.sampled_from(
        [
            OpKind.BARRIER,
            OpKind.BCAST,
            OpKind.REDUCE,
            OpKind.ALLREDUCE,
            OpKind.ALLGATHER,
            OpKind.ALLTOALL,
            OpKind.GATHER,
            OpKind.SCATTER,
            OpKind.REDUCE_SCATTER,
        ]
    )
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(kinds)
        nbytes = draw(st.integers(min_value=1, max_value=1 << 16))
        root = draw(st.integers(min_value=0, max_value=nranks - 1))
        if kind == OpKind.BARRIER:
            b.barrier()
        elif kind in (OpKind.BCAST, OpKind.REDUCE, OpKind.GATHER, OpKind.SCATTER):
            b._collective(kind, nbytes, 0, root)
        else:
            b._collective(kind, nbytes, 0)
    return b.build()


class TestExpandCollectivesProperty:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(collective_programs())
    def test_expansion_is_always_lint_clean(self, trace):
        expanded = expand_collectives(trace)
        report = lint_trace(expanded)
        assert report.diagnostics == [], report.render()


class TestLintIsCheap:
    def test_64_rank_lint_beats_flow_replay(self):
        trace = generate_npb("CG", 64, MACHINE, seed=9, compute_per_iter=1e-4)
        synthesize_ground_truth(trace, MACHINE, seed=9)
        assert lint_trace(trace).diagnostics == []
        # Best of three on both sides: a GC pause or a busy neighbour
        # only adds time, and one such pause can exceed the margin.
        lint_times = []
        for _ in range(3):
            t0 = time.perf_counter()
            lint_trace(trace)
            lint_times.append(time.perf_counter() - t0)
        flow_time = min(simulate_trace(trace, MACHINE, "flow").walltime for _ in range(3))
        # The acceptance bar is "well under" a flow replay; the margin is
        # about 2x on a quiet host, asserted loosely to stay robust on
        # slow CI.
        assert min(lint_times) < flow_time, (lint_times, flow_time)
