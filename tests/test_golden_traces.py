"""Golden-trace regression tests.

Three seeded mini-corpus specs — one per machine preset, spanning a
communication-light (CG), communication-heavy (IS) and DOE (CR)
workload — are pinned down to the SHA-256 of their canonical
:class:`~repro.core.pipeline.StudyRecord` JSON and the trace
fingerprint of the stamped trace.  Any change to trace synthesis,
calibration, feature extraction, MFACT, or *any* simulation engine
(production or the reference engines of ``tests/sim_oracles.py`` —
canonical records are byte-identical across the two) shows up here as
a hash flip.

If a hash changes because the model intentionally changed, re-pin it
in the same commit and say why in the commit message; a flip in an
optimization-only PR means the fast path diverged from the reference
and is a bug, full stop.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.pipeline import measure_trace
from repro.util.fingerprint import trace_fingerprint
from repro.workloads.suite import build_trace, mini_corpus_specs
from tests.sim_oracles import reference_engines

#: Production replays must take the compiled dispatch.
pytestmark = pytest.mark.usefixtures("metrics_off")

#: spec index -> (trace fingerprint, canonical-record sha256).
#: Record digests re-pinned in PR 10: records gained the three
#: zero-replay sensitivity features (trace fingerprints unchanged).
GOLDEN = {
    0: (  # cg.8.cielito.i000
        "e8a16e420235b915a48f21c643a3ee0e9b4c63dbd468bd8dc1b0cbc1cfd028cc",
        "5bf86488d02a91794c4dbc375a753e405f268001aed0af49e0351abcdc0f0a51",
    ),
    5: (  # cr.8.hopper.i005
        "03c807a632347e8ef87bee492a89879788291c99a416ba90805aff22a8ae3cb6",
        "ca9f99efd68f7503fa945b880b787f188fc5977c96bf4d89660098ca3b8cc474",
    ),
    10: (  # is.8.edison.i010
        "22fc7f6531aafaec696eafde449e4c9949a6a8392ecd847ef6d7a73927a1846d",
        "21cd3876330b8f885874ddec9dad50515f2bdea283210f94874e881921310b9c",
    ),
}


#: The studybench ``cold-mini`` goldens: every canonical-record digest of
#: the 24-spec mini study at the file's seed (read only here).
COLD_MINI = Path(__file__).resolve().parent.parent / "studybench" / "golden" / "cold-mini.json"


def record_digest(record) -> str:
    payload = json.dumps(record.to_json(canonical=True), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("index", sorted(GOLDEN))
def test_golden_trace_and_record_fingerprints(index):
    spec = mini_corpus_specs()[index]
    trace = build_trace(spec)
    expected_trace, expected_record = GOLDEN[index]
    assert trace_fingerprint(trace) == expected_trace, (
        f"{spec.name}: trace synthesis changed — the stamped trace no longer "
        "matches its pinned fingerprint"
    )
    record = measure_trace(trace, spec_index=spec.index)
    assert record_digest(record) == expected_record, (
        f"{spec.name}: canonical StudyRecord changed — a model, feature or "
        "engine now produces different numbers for a pinned golden trace"
    )


@pytest.mark.parametrize("index", sorted(GOLDEN))
def test_golden_records_identical_in_both_sim_modes(index):
    """The pinned hash holds on both sides of the oracle suite: the
    reference engines and the production engines measure a golden trace
    to the same canonical bytes."""
    spec = mini_corpus_specs()[index]
    trace = build_trace(spec)
    with reference_engines():
        oracle = measure_trace(trace, spec_index=spec.index)
    production = measure_trace(trace, spec_index=spec.index)
    for side, record in (("reference engines", oracle), ("production", production)):
        assert record_digest(record) == GOLDEN[index][1], (
            f"{spec.name}: {side} diverged from the golden hash"
        )


def test_cold_mini_records_match_studybench_goldens():
    """All 24 mini-study records, not only the three pinned above: a
    change that moves the last bits of a few records (a rank mean
    summed in another order, say) cannot hide behind the sample."""
    golden = json.loads(COLD_MINI.read_text())
    specs = mini_corpus_specs(count=len(golden["full"]), seed=golden["seed"])
    digests = {
        spec.name: record_digest(measure_trace(build_trace(spec), spec_index=spec.index))
        for spec in specs
    }
    assert digests == golden["full"]
