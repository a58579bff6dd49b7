"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  The random-game criteria share one 200-game seeded corpus.
"""

import pytest

from dominia import check_tdi, gallery, mixed, suite


@pytest.fixture(scope="module")
def games():
    return suite.build_suite(suite.DEFAULT_SEED, suite.DEFAULT_COUNT)


def _report(result):
    print(result.line())
    assert result.ok, result.detail


def test_criterion_01_two_normal_form_regression():
    _report(suite.criterion_1())


def test_criterion_02_inherent_dominance_regression():
    _report(suite.criterion_2())


def test_criterion_03_strict_elimination(games):
    _report(suite.criterion_3(games))


def test_criterion_04_arrow_equivalence(games):
    _report(suite.criterion_4(games))


def test_criterion_05_mixed_theorems(games):
    _report(suite.criterion_5(games))


def test_criterion_05_on_the_one_game_corpus(monkeypatch):
    # the gallery game alone re-verifies witnesses; a run that re-verifies
    # none fails the criterion
    _report(suite.criterion_5(suite.build_suite(suite.DEFAULT_SEED, 1)))
    before = mixed.verified_witness_count
    _report(suite.criterion_5([]))
    assert mixed.verified_witness_count > before
    monkeypatch.setattr(mixed, "verify_witness", lambda *args: None)
    result = suite.criterion_5([])
    assert not result.ok and "no witness was re-verified" in result.detail


def test_criterion_06_renaming_unique_normal_forms(games):
    _report(suite.criterion_6(games))


def test_criterion_07_left_commutativity(games):
    _report(suite.criterion_7(games))


def test_criterion_08_structured_elimination(games):
    _report(suite.criterion_8(games))


def test_criterion_08_on_the_one_game_corpus():
    # the one-game corpus at the default seed holds no TDI game of its own
    assert check_tdi(gallery.nonconfluent_weak_2x2()).ok
    _report(suite.criterion_8(suite.build_suite(suite.DEFAULT_SEED, 1)))


def test_criterion_09_regularity_algebra():
    _report(suite.criterion_9())


def test_criterion_10_lp_oracle_cross_check():
    _report(suite.criterion_10())


def test_criterion_10_fails_on_planted_cheap_refutations(monkeypatch):
    # a "no" certificate planted on every query, and accepted, turns every
    # yes of find_dominator into a no: holding find_dominator against the
    # oracles alone catches what a third, cheap-test-only comparison would
    monkeypatch.setattr(mixed, "_by_masks", lambda tag, i, s, *masks: (None, (0, i), None))
    monkeypatch.setattr(mixed, "_certificate_holds", lambda *query: True)
    result = suite.criterion_10()
    assert not result.ok and "disagreements" in result.detail
