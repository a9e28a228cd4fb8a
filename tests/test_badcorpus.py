"""Tests for the seeded known-bad corpus (tests/badcorpus.py)."""

import ast

from repro.analysis.detlint import DETLINT_RULES
from tests.badcorpus import DEFECT_KINDS, corpus_cases, evaluate_corpus


class TestCorpusShape:
    def test_every_rule_is_planted_at_least_once(self):
        assert {c.rule for c in corpus_cases()} == set(DETLINT_RULES)

    def test_kinds_are_unique_and_stable(self):
        cases = corpus_cases()
        kinds = [c.kind for c in cases]
        assert len(kinds) == len(set(kinds))
        assert tuple(kinds) == DEFECT_KINDS

    def test_both_sides_parse(self):
        for case in corpus_cases():
            ast.parse(case.bad)
            ast.parse(case.clean)

    def test_bad_and_clean_differ(self):
        for case in corpus_cases():
            assert case.bad != case.clean, case.kind

    def test_every_case_is_annotated(self):
        for case in corpus_cases():
            assert case.note
            assert case.rel.endswith(".py")

    def test_same_seed_same_corpus(self):
        first = corpus_cases(seed=123)
        second = corpus_cases(seed=123)
        assert [(c.kind, c.bad, c.clean) for c in first] == [
            (c.kind, c.bad, c.clean) for c in second
        ]

    def test_different_seed_same_kinds(self):
        # The defect set is stable; only identifier names vary.
        assert [c.kind for c in corpus_cases(seed=1)] == list(DEFECT_KINDS)


class TestEvaluation:
    def test_every_planted_defect_fires(self):
        outcome = evaluate_corpus()
        assert all(k["fired"] for k in outcome["kinds"]), outcome["kinds"]

    def test_clean_variants_stay_silent(self):
        outcome = evaluate_corpus()
        for kind in outcome["kinds"]:
            assert kind["clean_findings"] == [], kind

    def test_perfect_precision_and_recall(self):
        outcome = evaluate_corpus()
        assert set(outcome["rules"]) == set(DETLINT_RULES)
        for rule, stats in outcome["rules"].items():
            assert stats["recall"] == 1.0, (rule, stats)
            assert stats["precision"] == 1.0, (rule, stats)
            assert stats["false_positives"] == 0

    def test_alternate_seed_still_perfect(self):
        # Rules must key on structure, not on the default names.
        outcome = evaluate_corpus(seed=987654)
        for rule, stats in outcome["rules"].items():
            assert stats["recall"] == 1.0, (rule, stats)
            assert stats["precision"] == 1.0, (rule, stats)
