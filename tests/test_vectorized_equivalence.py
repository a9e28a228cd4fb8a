"""Differential equivalence: production engines vs their oracles.

The reference flow and packet-flow models and the reference dispatch
loop (``tests/sim_oracles.py``) are the executable specification; the
production engines are an optimization of them.  These tests hold the
two to the strongest possible standard — *byte-identical* canonical
:class:`~repro.core.pipeline.StudyRecord` JSON — over the full seeded
mini-corpus, every simulation engine, every degradation-ladder step,
and serial vs parallel execution.  Any relaxation here (tolerances,
field subsets) would let the production path drift from the reference;
keep it exact.
"""

import dataclasses
import json

import pytest

from repro.core.executor import execute_study
from repro.core.pipeline import SIM_MODELS, measure_trace
from repro.core.resilience import LADDER, step_engines
from repro.machines.presets import get_machine
from repro.sim.mpi_replay import simulate_trace
from repro.workloads.suite import build_trace, mini_corpus_specs
from tests.sim_oracles import reference_engines

#: Production replays must take the compiled dispatch.
pytestmark = pytest.mark.usefixtures("metrics_off")

SPECS = mini_corpus_specs()


def canonical_json(record) -> str:
    """The byte string both paths must agree on (walltimes dropped)."""
    return json.dumps(record.to_json(canonical=True), sort_keys=True)


def oracle_measure(trace, **kwargs):
    with reference_engines():
        return measure_trace(trace, **kwargs)


@pytest.fixture(scope="module")
def corpus():
    """spec -> stamped trace, built once for the whole module."""
    return {spec.index: build_trace(spec) for spec in SPECS}


class TestFullCorpusEquivalence:
    """Every mini-corpus spec, all engines at once, production vs oracle."""

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    def test_canonical_record_is_byte_identical(self, corpus, spec):
        trace = corpus[spec.index]
        oracle = oracle_measure(trace, spec_index=spec.index)
        production = measure_trace(trace, spec_index=spec.index)
        assert canonical_json(oracle) == canonical_json(production)

    @pytest.mark.parametrize("engine", SIM_MODELS)
    def test_single_engine_results_match_bitwise(self, corpus, engine):
        """Engine-level check with exact field attribution on failure."""
        for spec in SPECS[:4]:
            trace = corpus[spec.index]
            machine = get_machine(trace.machine)
            with reference_engines():
                s = simulate_trace(trace, machine, model=engine)
            v = simulate_trace(trace, machine, model=engine)
            for field in ("total_time", "comm_time", "compute_time",
                          "events", "messages", "bytes_sent"):
                assert getattr(s, field) == getattr(v, field), (
                    f"{spec.name}/{engine}: {field} diverged: "
                    f"oracle={getattr(s, field)!r} production={getattr(v, field)!r}"
                )


class TestLadderStepEquivalence:
    """Equivalence must hold at every engine-degradation ladder step,
    not just at full detail — degraded records are still records."""

    @pytest.mark.parametrize("step", range(len(LADDER) + 1))
    def test_each_ladder_step_is_byte_identical(self, corpus, step):
        engines = step_engines(step, SIM_MODELS)
        for spec in SPECS[:3]:
            trace = corpus[spec.index]
            kwargs = dict(spec_index=spec.index, engines=engines, ladder_step=step)
            oracle = oracle_measure(trace, **kwargs)
            production = measure_trace(trace, **kwargs)
            assert canonical_json(oracle) == canonical_json(production), (
                f"{spec.name} diverged at ladder step {step} ({engines})"
            )


class TestExecutorEquivalence:
    """The full executor path: serial and parallel, production and
    oracle, all four combinations produce the same canonical record set."""

    def test_jobs_and_modes_all_agree(self, tmp_path):
        specs = [dataclasses.replace(s) for s in mini_corpus_specs(count=4)]
        payloads = {}
        for oracle in (True, False):
            for jobs in (1, 4):
                if oracle:
                    with reference_engines():
                        run = execute_study(specs, jobs=jobs, cache_root=None)
                else:
                    run = execute_study(specs, jobs=jobs, cache_root=None)
                assert not run.failures
                records = sorted(run.records, key=lambda r: r.spec_index)
                payloads[(oracle, jobs)] = "\n".join(
                    canonical_json(r) for r in records
                )
        reference = payloads[(True, 1)]
        for key, payload in payloads.items():
            assert payload == reference, (
                f"(oracle={key[0]}, jobs={key[1]}) diverged from (oracle=True, jobs=1)"
            )
