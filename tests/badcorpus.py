"""Seeded known-bad source corpus for detlint precision/recall.

:func:`repro.workloads.synthesis.inject_defect` validates tracelint by
planting defects in traces it is known to catch; this module does the
same for detlint (:mod:`repro.analysis.detlint`): every rule gets at
least one *bad* module with a planted defect and a paired *clean*
variant that does the same job correctly.  :func:`evaluate_corpus` runs detlint over both sides and
reports per-rule recall (did the planted defect fire?) and precision
(did the clean variant stay silent?).

Sources are generated, not checked in: identifier names are drawn from
a seeded substream so the linter cannot pattern-match on fixed names,
while the same seed always yields the same corpus (the tests pin
``DEFAULT_SEED`` behavior).  The templates never execute — they only
have to parse — so they are free to use the real repo idioms
(``repro.util.rng.substream``, ``socket.create_connection``) without
importing anything at evaluation time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.util.rng import DEFAULT_SEED, substream

__all__ = ["CorpusCase", "DEFECT_KINDS", "corpus_cases", "evaluate_corpus"]


@dataclass(frozen=True)
class CorpusCase:
    """One planted defect and its clean twin."""

    kind: str   # defect kind identifier (stable across seeds)
    rule: str   # detlint rule expected to fire on ``bad``
    rel: str    # path label (drives scope-sensitive rules)
    bad: str    # module source with the planted defect
    clean: str  # paired module source doing the same job correctly
    note: str   # what the defect breaks at runtime


_FN_POOL = ("ingest", "bundle", "assemble", "collect", "summarize", "publish")
_VAR_POOL = ("entries", "tokens", "parts", "fields", "items", "labels")
_WORKER_POOL = ("crunch", "measure_task", "replay_task", "grind", "evaluate")
_METRIC_POOL = ("dispatch", "replay", "ingest", "flush", "probe")


def _names(rng, *pools: Sequence[str]) -> List[str]:
    """One distinct name per pool (seeded, collision-free)."""
    out: List[str] = []
    for pool in pools:
        name = pool[int(rng.integers(len(pool)))]
        while name in out:
            name = pool[(pool.index(name) + 1) % len(pool)]
        out.append(name)
    return out


def corpus_cases(seed: int = DEFAULT_SEED) -> List[CorpusCase]:
    """The full corpus: every detlint rule planted at least once."""
    cases: List[CorpusCase] = []

    def rng_for(kind: str):
        return substream(seed, "detlint-corpus", kind)

    # -- det/unordered-iter (ERROR: order reaches a digest) -----------
    rng = rng_for("unordered-fingerprint")
    fn, tokens = _names(rng, _FN_POOL, _VAR_POOL)
    cases.append(CorpusCase(
        kind="unordered-fingerprint",
        rule="det/unordered-iter",
        rel="src/repro/util/corpus_mod.py",
        bad=(
            "import hashlib\n\n\n"
            f"def {fn}(flags):\n"
            f"    {tokens} = list({{flag.strip() for flag in flags}})\n"
            "    digest = hashlib.sha256()\n"
            f"    digest.update(\",\".join({tokens}).encode())\n"
            "    return digest.hexdigest()\n"
        ),
        clean=(
            "import hashlib\n\n\n"
            f"def {fn}(flags):\n"
            f"    {tokens} = sorted({{flag.strip() for flag in flags}})\n"
            "    digest = hashlib.sha256()\n"
            f"    digest.update(\",\".join({tokens}).encode())\n"
            "    return digest.hexdigest()\n"
        ),
        note="set iteration order changes the fingerprint between runs",
    ))

    # -- det/unordered-iter (WARNING: order captured in critical pkg) -
    rng = rng_for("unordered-listcomp")
    fn, order = _names(rng, _FN_POOL, _VAR_POOL)
    cases.append(CorpusCase(
        kind="unordered-listcomp",
        rule="det/unordered-iter",
        rel="src/repro/sim/corpus_mod.py",
        bad=(
            f"def {fn}(active):\n"
            "    pending = {index for index in range(len(active))}\n"
            f"    {order} = [index for index in pending if active[index]]\n"
            f"    return {order}\n"
        ),
        clean=(
            f"def {fn}(active):\n"
            "    pending = {index for index in range(len(active))}\n"
            f"    {order} = [index for index in sorted(pending) if active[index]]\n"
            f"    return {order}\n"
        ),
        note="list built from set order diverges across interpreters",
    ))

    # -- det/wall-clock ------------------------------------------------
    rng = rng_for("wallclock-serialized")
    fn, = _names(rng, _FN_POOL)
    cases.append(CorpusCase(
        kind="wallclock-serialized",
        rule="det/wall-clock",
        rel="src/repro/core/corpus_mod.py",
        bad=(
            "import json\n"
            "import time\n\n\n"
            f"def {fn}(record):\n"
            "    record[\"measured_at\"] = time.time()\n"
            "    return json.dumps(record, sort_keys=True)\n"
        ),
        clean=(
            "import json\n"
            "import time\n\n\n"
            f"def {fn}(record):\n"
            "    t0 = time.perf_counter()\n"
            "    payload = json.dumps(record, sort_keys=True)\n"
            "    walltime = time.perf_counter() - t0\n"
            "    return payload, walltime\n"
        ),
        note="wall-clock stamp makes the canonical payload nondeterministic",
    ))

    # -- det/builtin-hash ---------------------------------------------
    rng = rng_for("builtin-hash-key")
    fn, = _names(rng, _FN_POOL)
    cases.append(CorpusCase(
        kind="builtin-hash-key",
        rule="det/builtin-hash",
        rel="src/repro/core/corpus_key.py",
        bad=(
            "import json\n\n\n"
            f"def {fn}(spec):\n"
            "    key = hash(spec)\n"
            "    return json.dumps({\"key\": key})\n"
        ),
        clean=(
            "import hashlib\n"
            "import json\n\n\n"
            f"def {fn}(spec):\n"
            "    key = hashlib.sha256(repr(spec).encode()).hexdigest()\n"
            "    return json.dumps({\"key\": key})\n"
        ),
        note="hash() is salted per process; persisted keys never match again",
    ))

    # ------------------------------------------------------------------
    # Cross-function defects: the source and the sink live in different
    # functions, so only the interprocedural summary layer can connect
    # them.  Each bad module is invisible to a purely intraprocedural
    # pass.
    # ------------------------------------------------------------------

    # -- det/wall-clock through one call hop --------------------------
    rng = rng_for("wallclock-one-hop")
    helper, fn = _names(rng, _WORKER_POOL, _FN_POOL)
    cases.append(CorpusCase(
        kind="wallclock-one-hop",
        rule="det/wall-clock",
        rel="src/repro/core/corpus_hop1.py",
        bad=(
            "import json\n"
            "import time\n\n\n"
            f"def {helper}():\n"
            "    return time.time()\n\n\n"
            f"def {fn}(record):\n"
            f"    record[\"stamp\"] = {helper}()\n"
            "    return json.dumps(record, sort_keys=True)\n"
        ),
        clean=(
            "import json\n\n\n"
            f"def {helper}(step):\n"
            "    return float(step)\n\n\n"
            f"def {fn}(record, step):\n"
            f"    record[\"stamp\"] = {helper}(step)\n"
            "    return json.dumps(record, sort_keys=True)\n"
        ),
        note="the clock read hides one call away from the serializer",
    ))

    # -- det/wall-clock through two call hops -------------------------
    rng = rng_for("wallclock-two-hop")
    helper, fn, mid = _names(rng, _WORKER_POOL, _FN_POOL, _FN_POOL)
    cases.append(CorpusCase(
        kind="wallclock-two-hop",
        rule="det/wall-clock",
        rel="src/repro/core/corpus_hop2.py",
        bad=(
            "import json\n"
            "import time\n\n\n"
            f"def {helper}():\n"
            "    return time.time()\n\n\n"
            f"def {mid}():\n"
            f"    return {helper}()\n\n\n"
            f"def {fn}(record):\n"
            f"    record[\"measured_at\"] = {mid}()\n"
            "    return json.dumps(record, sort_keys=True)\n"
        ),
        clean=(
            "import json\n"
            "import time\n\n\n"
            f"def {helper}(clock):\n"
            "    return clock\n\n\n"
            f"def {mid}(clock):\n"
            f"    return {helper}(clock)\n\n\n"
            f"def {fn}(record, clock):\n"
            "    t0 = time.perf_counter()\n"
            f"    record[\"measured_at\"] = {mid}(clock)\n"
            "    payload = json.dumps(record, sort_keys=True)\n"
            "    return payload, time.perf_counter() - t0\n"
        ),
        note="two hops between the clock read and the persisted record",
    ))

    # -- det/unordered-iter: tainted argument sunk inside a helper ----
    rng = rng_for("unordered-arg-hop")
    helper, fn = _names(rng, _WORKER_POOL, _FN_POOL)
    cases.append(CorpusCase(
        kind="unordered-arg-hop",
        rule="det/unordered-iter",
        rel="src/repro/util/corpus_hop_digest.py",
        bad=(
            "import hashlib\n\n\n"
            f"def {helper}(values):\n"
            "    digest = hashlib.sha256()\n"
            "    digest.update(\",\".join(values).encode())\n"
            "    return digest.hexdigest()\n\n\n"
            f"def {fn}(flags):\n"
            f"    return {helper}({{flag.strip() for flag in flags}})\n"
        ),
        clean=(
            "import hashlib\n\n\n"
            f"def {helper}(values):\n"
            "    digest = hashlib.sha256()\n"
            "    digest.update(\",\".join(values).encode())\n"
            "    return digest.hexdigest()\n\n\n"
            f"def {fn}(flags):\n"
            f"    return {helper}(sorted({{flag.strip() for flag in flags}}))\n"
        ),
        note="the set's order reaches a digest through the helper's param",
    ))

    # -- det/seed-provenance: seed laundered through a helper ---------
    rng = rng_for("seed-laundering")
    helper, fn = _names(rng, _WORKER_POOL, _FN_POOL)
    label = _METRIC_POOL[int(rng.integers(len(_METRIC_POOL)))]
    cases.append(CorpusCase(
        kind="seed-laundering",
        rule="det/seed-provenance",
        rel="src/repro/core/corpus_seed.py",
        bad=(
            "import json\n\n"
            "import numpy.random as nr\n\n\n"
            f"def {helper}():\n"
            "    return nr.default_rng()\n\n\n"
            f"def {fn}(spec):\n"
            f"    rng = {helper}()\n"
            "    jitter = float(rng.random())\n"
            "    return json.dumps({\"spec\": spec, \"jitter\": jitter})\n"
        ),
        clean=(
            "import json\n\n"
            "from repro.util.rng import substream\n\n\n"
            f"def {helper}(seed):\n"
            f"    return substream(seed, \"{label}\")\n\n\n"
            f"def {fn}(spec, seed):\n"
            f"    rng = {helper}(seed)\n"
            "    jitter = float(rng.random())\n"
            "    return json.dumps({\"spec\": spec, \"jitter\": jitter})\n"
        ),
        note="an aliased numpy import inside a helper still resolves: "
             "provenance follows the alias and the call",
    ))

    # -- conc/socket-no-timeout: blocking socket in repro.serve -------
    rng = rng_for("socket-no-timeout")
    fn, sockname = _names(rng, _FN_POOL, _VAR_POOL)
    cases.append(CorpusCase(
        kind="socket-no-timeout",
        rule="conc/socket-no-timeout",
        rel="src/repro/serve/corpus_sock.py",
        bad=(
            "import socket\n\n\n"
            f"def {fn}(host, port):\n"
            f"    {sockname} = socket.create_connection((host, port))\n"
            f"    {sockname}.sendall(b\"ping\")\n"
            f"    return {sockname}.recv(4)\n"
        ),
        clean=(
            "import socket\n\n\n"
            f"def {fn}(host, port):\n"
            f"    {sockname} = socket.create_connection((host, port))\n"
            f"    {sockname}.settimeout(10.0)\n"
            f"    {sockname}.sendall(b\"ping\")\n"
            f"    return {sockname}.recv(4)\n"
        ),
        note="a peer that dies between connect and reply blocks recv() "
             "forever; the serve package requires a deadline on every "
             "socket",
    ))

    return cases


#: Stable defect-kind identifiers (mirrors synthesis.DEFECT_KINDS).
DEFECT_KINDS = tuple(case.kind for case in corpus_cases())


def evaluate_corpus(
    cases: Optional[Sequence[CorpusCase]] = None,
    seed: int = DEFAULT_SEED,
) -> Dict:
    """Run detlint over the corpus; per-kind outcomes + per-rule metrics.

    Recall counts a kind as detected when its expected rule fires on
    the bad module; precision charges a rule with every finding it
    emits on any *clean* module.  A healthy rule pack scores 1.0/1.0.
    """
    from repro.analysis import detlint

    cases = list(cases) if cases is not None else corpus_cases(seed)
    kinds: List[Dict] = []
    planted: Dict[str, int] = {}
    detected: Dict[str, int] = {}
    false_pos: Dict[str, int] = {}
    for case in cases:
        bad_diags = detlint.lint_source(case.bad, case.rel)
        clean_diags = detlint.lint_source(case.clean, case.rel)
        fired = any(d.rule == case.rule for d in bad_diags)
        planted[case.rule] = planted.get(case.rule, 0) + 1
        if fired:
            detected[case.rule] = detected.get(case.rule, 0) + 1
        for diag in clean_diags:
            false_pos[diag.rule] = false_pos.get(diag.rule, 0) + 1
        kinds.append({
            "kind": case.kind,
            "rule": case.rule,
            "fired": fired,
            "bad_findings": [d.rule for d in bad_diags],
            "clean_findings": [d.rule for d in clean_diags],
        })
    rules: Dict[str, Dict] = {}
    for rule in sorted(set(planted) | set(false_pos)):
        tp = detected.get(rule, 0)
        fp = false_pos.get(rule, 0)
        total = planted.get(rule, 0)
        rules[rule] = {
            "planted": total,
            "detected": tp,
            "false_positives": fp,
            "recall": (tp / total) if total else 1.0,
            "precision": (tp / (tp + fp)) if (tp + fp) else 1.0,
        }
    return {"seed": seed, "kinds": kinds, "rules": rules}
