import itertools
from fractions import Fraction

import pytest

from dominia import (
    DuplicateLabel,
    EmptyRestriction,
    EmptyStrategySet,
    Game,
    S,
    SM,
    W,
    IndexOutOfRange,
    InherentQuery,
    MissingPayoff,
    ParseError,
    dominates,
    find_dominator,
    is_inherently_dominated,
    new_game,
    restrict,
)
from dominia.gallery import mixable_middle_3x2, nonconfluent_weak_2x2, trivial_1x1


def test_new_game_validates_and_stores_exact_payoffs():
    g = nonconfluent_weak_2x2()
    assert g.n == 2
    assert g.strategies == (("T", "B"), ("L", "R"))
    assert g.payoff((1, 1), 0) == Fraction(1)
    assert g.payoff((1, 1), 1) == Fraction(0)
    assert g.payoff((0, 1), 0) == Fraction(2)


def test_smallest_legal_game():
    g = trivial_1x1()
    assert g.shape == (1,)
    assert g.payoff((0,), 0) == 0


def test_missing_payoff_rejected():
    with pytest.raises(MissingPayoff):
        new_game([["T", "B"], ["L"]], {("T", "L"): (1, 1)})


def test_payoff_entry_out_of_range_rejected():
    # the game is 2x1: no strategy 5 for the first player
    with pytest.raises(IndexOutOfRange, match=r"\(5, 0\)"):
        new_game([["a", "b"], ["x"]], {(0, 0): (1, 1), (1, 0): (2, 2), (5, 0): (9, 9)})


def test_payoff_entry_of_wrong_arity_rejected():
    with pytest.raises(IndexOutOfRange, match=r"\(0, 0, 0\)"):
        Game((("a", "b"), ("x",)), {(0, 0): (1, 1), (1, 0): (2, 2), (0, 0, 0): (9, 9)})


def test_duplicate_labels_rejected_within_and_across_players():
    with pytest.raises(DuplicateLabel):
        new_game([["T", "T"], ["L"]], {})
    with pytest.raises(DuplicateLabel):
        new_game([["T"], ["T"]], {("T", "T"): (0, 0)})


def test_empty_strategy_set_rejected_without_flag():
    with pytest.raises(EmptyStrategySet):
        Game((("T",), ()), {})
    g = Game((("T",), ()), {}, allow_degenerate=True)
    assert g.degenerate


@pytest.mark.parametrize("value", [True, False, "1/0", "abc", "1e1000000", "2E-3", 1.5, None], ids=repr)
def test_new_game_refuses_payoffs_that_parse_game_refuses(value):
    # booleans, zero denominators, malformed strings, exponent notation (read
    # in time that grows with the exponent) and floats are not exact payoffs
    with pytest.raises(ParseError):
        new_game([["a", "b"], ["x"]], {("a", "x"): (value, 0), ("b", "x"): (0, 0)})


@pytest.mark.parametrize("row", ["12", {1: 0, 2: 0}], ids=["string", "mapping"])
def test_payoff_row_that_is_no_sequence_refused(row):
    # read as a sequence, "12" would pay (1, 2) and {1: 0, 2: 0} its keys
    with pytest.raises(ParseError, match=r"\('a', 'c'\)"):
        new_game([["a", "b"], ["c"]], {("a", "c"): row, ("b", "c"): (3, 4)})


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda g: is_inherently_dominated(g, InherentQuery(W, 0, 0, ("x",))), id="must-survive-str"),
        pytest.param(lambda g: dominates(g, S, 0, 0, 1, columns=[[-1, 0]]), id="list-column"),
        pytest.param(lambda g: dominates(g, S, 0, 0, 1, columns=[(-1, True)]), id="bool-in-column"),
        pytest.param(lambda g: find_dominator(g, SM, 0, 0, [1, 2], columns=[5]), id="int-column"),
        pytest.param(lambda g: find_dominator(g, SM, 0, False, [1, 2]), id="bool-strategy"),
        pytest.param(lambda g: find_dominator(g, SM, 0, 0, [0, 1.5, 2]), id="float-in-support"),
        pytest.param(lambda g: find_dominator(g, SM, 0, 0, [1, "a"]), id="str-in-support"),
        pytest.param(lambda g: g.payoff((0, 0), "a"), id="str-player"),
        pytest.param(lambda g: g.payoff((0, 0), True), id="bool-player"),
        pytest.param(lambda g: g.payoff([0, 0], 0), id="list-profile"),
        pytest.param(lambda g: g.payoff_vector(5), id="int-profile"),
    ],
)
def test_malformed_indices_and_columns_refused(call):
    with pytest.raises(IndexOutOfRange):
        call(mixable_middle_3x2())


def test_payoff_bounds_checked():
    g = nonconfluent_weak_2x2()
    with pytest.raises(IndexOutOfRange):
        g.payoff((0, 0), 2)
    with pytest.raises(IndexOutOfRange):
        g.payoff((2, 0), 0)


def test_restrict_preserves_payoffs_and_order():
    g = nonconfluent_weak_2x2()
    top = restrict(g, [(0,), (0, 1)])
    assert top.shape == (1, 2)
    assert top.strategies == (("T",), ("L", "R"))
    assert top.payoff((0, 0), 0) == 2 and top.payoff((0, 1), 1) == 1


def test_restrict_identity_is_structural_equality():
    g = nonconfluent_weak_2x2()
    assert restrict(g, [(0, 1), (0, 1)]) == g


def test_restrict_empty_needs_flag():
    g = nonconfluent_weak_2x2()
    with pytest.raises(EmptyRestriction):
        restrict(g, [(), (0,)])
    degenerate = restrict(g, [(), (0,)], allow_degenerate=True)
    assert degenerate.degenerate


def test_games_hash_consistently():
    g1 = nonconfluent_weak_2x2()
    g2 = nonconfluent_weak_2x2()
    assert g1 == g2 and hash(g1) == hash(g2)
    assert g1 != trivial_1x1()


def test_game_is_immutable():
    g = trivial_1x1()
    with pytest.raises(AttributeError):
        g.n = 3


def _fractional_3x2x2():
    labels = [["a0", "a1", "a2"], ["b0", "b1"], ["c0", "c1"]]
    payoffs = {
        p: [Fraction((7 * sum(p) + 3 * p[0] + j) % 5 - 2, 1 + (p[1] + j) % 3) for j in range(3)]
        for p in itertools.product(range(3), range(2), range(2))
    }
    return new_game(labels, payoffs)


@pytest.mark.parametrize("kept, allow", [([(2, 0), (1,), (0, 1)], False), ([(2,), (), (0, 1)], True)])
def test_restrict_equals_a_checked_build(kept, allow):
    g = _fractional_3x2x2()
    sub = restrict(g, kept, allow_degenerate=allow)
    idx = [sorted(k) for k in kept]
    labels = [[g.strategies[i][s] for s in idx[i]] for i in range(g.n)]
    table = {
        local: g.payoff_vector(tuple(idx[i][x] for i, x in enumerate(local)))
        for local in itertools.product(*(range(len(k)) for k in idx))
    }
    built = Game(labels, table, allow_degenerate=allow)
    if not allow:
        assert built == new_game(labels, table)
    assert sub == built and hash(sub) == hash(built)
    assert (sub.shape, sub.degenerate) == (built.shape, built.degenerate) == (tuple(map(len, idx)), allow)
    for i, j in itertools.product(range(g.n), repeat=2):
        assert sub._int_rows(i, j) == built._int_rows(i, j)
    with pytest.raises(AttributeError):
        sub.n = 4


def test_restrict_still_checks_indices_and_empty_sets():
    g = _fractional_3x2x2()
    for kept in ([(0,), (0,)], [(0, 3), (0,), (0,)], [(-1,), (0,), (0,)], [(0,), (2,), (0,)]):
        with pytest.raises(IndexOutOfRange):
            restrict(g, kept)
    with pytest.raises(EmptyRestriction):
        restrict(g, [(0,), (0,), ()])


def test_restrict_checks_indices_before_sorting_them():
    # a label among the indices is out of range, not an unorderable set
    with pytest.raises(IndexOutOfRange):
        restrict(mixable_middle_3x2(), [(0, "a"), (0,)])
