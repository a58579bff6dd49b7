import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from dominia import (
    COMPAT,
    NW,
    PE,
    S,
    SM,
    VW,
    W,
    WM,
    Inherent,
    check_iiia,
    check_tdi,
    check_tdi_plus,
    check_tdi_plus_plus,
    dominates,
    generator_params,
    is_hereditary,
    is_strict_partial_order,
    new_game,
    random_game,
    restrict,
    union,
)
from dominia.errors import IndexOutOfRange, SizeBoundExceeded
from dominia.gallery import (
    nonconfluent_weak_2x2,
    trivial_1x1,
)
from dominia.pure import CheckOutcome, DominanceWitness, _checked_columns, _column_bits, _masks, _met, restrictions

G11 = nonconfluent_weak_2x2()


def _iiia_by_enumeration(game, relation):
    """IIIA by its definition, the reference for check_iiia: for every player
    and every subset of that player's strategies, each ordered pair in the
    subset is related in the restriction iff it is in the game."""
    for i, labels in enumerate(game.strategies):
        for size in range(1, len(labels) + 1):
            for subset in itertools.combinations(range(len(labels)), size):
                kept = [range(len(other)) for other in game.strategies]
                kept[i] = subset
                sub = restrict(game, kept)
                for (ls, s), (lt, t) in itertools.product(enumerate(subset), repeat=2):
                    if dominates(game, relation, i, s, t) != dominates(sub, relation, i, ls, lt):
                        return False
    return True


def seeded_game(seed, players=2, strats=(2, 2)):
    return random_game(generator_params(players, strats, -3, 3, Fraction(1, 4), seed))


games_strategy = st.integers(min_value=0, max_value=10_000).map(
    lambda seed: seeded_game(seed, 2 + seed % 2, tuple(2 + (seed + j) % 3 for j in range(2 + seed % 2)))
)


class TestDominates:
    def test_weak_on_reference_game(self):
        assert dominates(G11, W, 0, 1, 0)  # B weakly dominated by T
        assert not dominates(G11, S, 0, 1, 0)  # tie at the left column

    def test_irreflexive_relations_never_self_dominate(self):
        for rel in (S, W, NW):
            for i in range(G11.n):
                for s in range(len(G11.strategies[i])):
                    assert not dominates(G11, rel, i, s, s)

    def test_reflexive_relations_self_relate(self):
        assert dominates(G11, VW, 0, 0, 0)
        assert dominates(G11, PE, 0, 0, 0)

    def test_nice_weak_on_reference_game(self):
        # oracle: exhaust all opponent profiles and all players
        assert helpers.naive_nice_weak(G11, 0, 1, 0)
        assert dominates(G11, NW, 0, 1, 0)

    def test_union_is_member_or(self):
        rel = union(S, PE)
        for i in range(G11.n):
            for a in range(2):
                for b in range(2):
                    expected = dominates(G11, S, i, a, b) or dominates(G11, PE, i, a, b)
                    assert dominates(G11, rel, i, a, b) == expected

    @pytest.mark.parametrize("columns", [[(-1, 2)], [(-1, -1)], [(-1,)]])
    def test_out_of_range_columns_rejected(self, columns):
        with pytest.raises(IndexOutOfRange):
            dominates(G11, W, 0, 1, 0, columns=columns)

    @settings(max_examples=40, deadline=None)
    @given(games_strategy)
    def test_matches_naive_definitions(self, g):
        oracles = {
            "S": helpers.naive_strict,
            "W": helpers.naive_weak,
            "VW": helpers.naive_very_weak,
            "NW": helpers.naive_nice_weak,
            "PE": helpers.naive_payoff_equivalent,
        }
        rels = {"S": S, "W": W, "VW": VW, "NW": NW, "PE": PE}
        for i in range(g.n):
            for a in range(len(g.strategies[i])):
                for b in range(len(g.strategies[i])):
                    for tag, fn in oracles.items():
                        assert dominates(g, rels[tag], i, a, b) == fn(g, i, a, b)

    @settings(max_examples=40, deadline=None)
    @given(games_strategy)
    def test_inclusion_chain(self, g):
        for i in range(g.n):
            k = len(g.strategies[i])
            for a in range(k):
                for b in range(k):
                    if dominates(g, S, i, a, b):
                        assert dominates(g, NW, i, a, b)
                    if dominates(g, NW, i, a, b):
                        assert dominates(g, W, i, a, b)
                    if dominates(g, W, i, a, b):
                        assert dominates(g, VW, i, a, b)


class TestCompatible:
    def test_reference_columns_compatible(self):
        # equality only at the top row, where the row player also ties
        assert dominates(G11, COMPAT, 1, 0, 1)

    def test_uniform_game_all_compatible(self):
        g = new_game([["T", "B"], ["L"]], {("T", "L"): (1, 1), ("B", "L"): (1, 1)})
        assert dominates(g, COMPAT, 0, 0, 1)

    def test_violation_in_2x1_game(self):
        g = new_game([["T", "B"], ["L"]], {("T", "L"): (0, 1), ("B", "L"): (0, 0)})
        assert not dominates(g, COMPAT, 0, 0, 1)


class TestTdiFamily:
    def test_reference_game_satisfies_all(self):
        assert check_tdi(G11).ok
        assert check_tdi_plus(G11).ok
        assert check_tdi_plus_plus(G11).ok

    def test_tdi_counterexample_is_lexicographically_first(self):
        g = new_game([["T", "B"], ["L"]], {("T", "L"): (0, 1), ("B", "L"): (0, 0)})
        out = check_tdi(g)
        assert not out.ok
        assert out.counterexample == (0, 1, 0, 1, (-1, 0))

    def test_trivial_game_vacuous(self):
        t = trivial_1x1()
        assert check_tdi(t).ok and check_tdi_plus(t).ok and check_tdi_plus_plus(t).ok

    def test_tdi_plus_violated_only_in_proper_restriction(self):
        # search a seeded pool for a game that satisfies "W implies
        # compatible" at the top level but not in some proper restriction
        found = None
        for seed in range(400):
            g = seeded_game(seed, 2, (3, 2))
            top_ok = all(
                not dominates(g, W, i, a, b) or dominates(g, COMPAT, i, a, b)
                for i in range(g.n)
                for a in range(len(g.strategies[i]))
                for b in range(len(g.strategies[i]))
            )
            plus = check_tdi_plus(g)
            if top_ok and not plus.ok:
                found = (g, plus.counterexample)
                break
        assert found is not None, "seeded search found no witness game"
        g, (kept, witness) = found
        sub = restrict(g, kept)
        assert sub.shape != g.shape
        a, b = kept[witness.player].index(witness.dominated), kept[witness.player].index(witness.dominator)
        assert dominates(sub, W, witness.player, a, b)
        assert not dominates(sub, COMPAT, witness.player, a, b)

    def test_tdi_plus_plus_counterexample(self):
        g = new_game([["T", "B"], ["L"]], {("T", "L"): (0, 1), ("B", "L"): (0, 0)})
        out = check_tdi_plus_plus(g)
        assert not out.ok

    def test_tdi_plus_plus_witness_in_root_indices(self):
        g = random_game(generator_params(2, (3, 3), -2, 2, 0, 0))
        out = check_tdi_plus_plus(g)
        assert out.counterexample == (((0,), (0, 2)), DominanceWitness(1, 0, 2, "VW"))

    def test_tdi_plus_counterexamples_hold_on_kept_profiles(self, small_games):
        # W and not COMPAT for TDI+; VW and neither W nor PE for TDI++
        seen = 0
        for g in small_games:
            for check, holds, fails in ((check_tdi_plus, W, COMPAT), (check_tdi_plus_plus, VW, union(W, PE))):
                out = check(g)
                if out.ok:
                    continue
                seen += 1
                kept, w = out.counterexample
                i = w.player
                assert w.dominated in kept[i] and w.dominator in kept[i]
                cols = list(itertools.product(*kept[:i], (-1,), *kept[i + 1 :]))
                assert dominates(g, holds, i, w.dominated, w.dominator, columns=cols)
                assert not dominates(g, fails, i, w.dominated, w.dominator, columns=cols)
        assert seen

    def test_tdi_iff_all_pairs_compatible(self, small_games):
        for g in small_games:
            all_compat = all(
                dominates(g, COMPAT, i, a, b)
                for i in range(g.n)
                for a in range(len(g.strategies[i]))
                for b in range(len(g.strategies[i]))
            )
            assert check_tdi(g).ok == all_compat

    def test_size_bound(self):
        g = seeded_game(7, 2, (4, 4))
        with pytest.raises(SizeBoundExceeded):
            check_tdi_plus(g, bound=6)


class TestStructuralProperties:
    def test_strict_partial_orders(self, small_games):
        for g in small_games:
            assert is_strict_partial_order(g, S)
            assert is_strict_partial_order(g, NW)
            assert is_strict_partial_order(g, W)

    def test_pe_not_a_strict_partial_order(self):
        assert not is_strict_partial_order(G11, PE)

    def test_pe_symmetric_and_transitive(self, small_games):
        for g in small_games:
            for i in range(g.n):
                k = len(g.strategies[i])
                for a in range(k):
                    for b in range(k):
                        if dominates(g, PE, i, a, b):
                            assert dominates(g, PE, i, b, a)
                        for c in range(k):
                            if dominates(g, PE, i, a, b) and dominates(g, PE, i, b, c):
                                assert dominates(g, PE, i, a, c)

    def test_weak_dominance_not_hereditary_on_reference(self):
        out = is_hereditary(G11, W)
        assert not out.ok
        kept, witness = out.counterexample
        assert kept == ((0,), (0, 1))  # the top-row restriction
        assert (witness.player, witness.dominated, witness.dominator) == (1, 1, 0)

    def test_strict_and_pe_hereditary(self, small_games):
        for g in small_games[:10]:
            assert is_hereditary(g, S).ok
            assert is_hereditary(g, PE).ok

    def test_iiia_holds_for_all_relations(self, small_games):
        for g in small_games[:10]:
            for rel in (S, W, NW, PE, VW, COMPAT, union(W, PE)):
                assert check_iiia(g, rel).ok
                assert _iiia_by_enumeration(g, rel)

    def test_iiia_rejects_mixed_relations(self):
        with pytest.raises(ValueError):
            check_iiia(G11, SM)

    @pytest.mark.parametrize(
        "check, relation",
        [
            pytest.param(is_hereditary, WM, id="hereditary-mixed"),
            pytest.param(is_hereditary, Inherent(W), id="hereditary-inherent"),
            pytest.param(is_strict_partial_order, WM, id="spo-mixed"),
            pytest.param(is_strict_partial_order, Inherent(W), id="spo-inherent"),
            pytest.param(check_iiia, Inherent(W), id="iiia-inherent"),
        ],
    )
    def test_pure_properties_reject_mixed_and_inherent_relations(self, check, relation):
        # WM would otherwise be answered for pure dominators under W
        with pytest.raises(ValueError, match="pure relations"):
            check(G11, relation)

    def test_trivial_game_vacuous_everywhere(self):
        t = trivial_1x1()
        assert check_iiia(t, W).ok
        assert is_hereditary(t, W).ok
        assert is_strict_partial_order(t, S)
        assert not is_strict_partial_order(t, PE)  # the lone strategy relates to itself


def test_columns_on_root_match_restriction(small_games):
    # asked of the root over the kept profiles, in root indices, dominance
    # answers as it does on the materialized restriction in local indices
    seen = set()
    for g in small_games[:10]:
        for kept in restrictions(g):
            sub = restrict(g, kept)
            for i in range(g.n):
                cols = list(itertools.product(*kept[:i], (-1,), *kept[i + 1 :]))
                for (ls, s), (lt, t) in itertools.product(enumerate(kept[i]), repeat=2):
                    for rel in (W, NW, S, VW, PE, COMPAT, union(NW, PE)):
                        on_root = dominates(g, rel, i, s, t, columns=cols)
                        assert on_root == dominates(sub, rel, i, ls, lt)
                        seen.add(on_root)
                    # the same column set, in another order and with a repeat
                    assert on_root == dominates(g, rel, i, s, t, columns=cols[::-1] + cols[:1])
    assert seen == {True, False}


def test_column_bits_pick_the_kept_profiles(small_games):
    # and a column keeps its bit in every set: masks over the kept profiles
    # are those over all of them, on the kept bits
    def on(bits, masks):
        return [(fail & bits, need if need < 0 else need & bits) for fail, need in masks]

    for g in small_games[:10]:
        for kept in restrictions(g):
            for i in range(g.n):
                bits = _column_bits(g, kept, i)
                picked = [col for k, col in enumerate(g.opponent_profiles(i)) if bits >> k & 1]
                assert picked == list(itertools.product(*kept[:i], (-1,), *kept[i + 1 :]))
                every = _checked_columns(g, i)
                assert every.subset(bits) == tuple(picked) and _checked_columns(g, i, picked[::-1]).bits == bits
                for s, t in itertools.permutations(range(len(g.strategies[i])), 2):
                    tags = ("S", "W", "NW", "PE")
                    assert on(bits, _masks(g, tags, i, s, t, every.subset(bits))) == on(bits, _masks(g, tags, i, s, t, every))


def _first_in_materialized(g, tag, fails):
    """check_tdi_plus's question on each materialized restriction, in local
    indices: the first pair under ``tag`` and under no tag of ``fails``."""
    for kept in restrictions(g):
        sub = restrict(g, kept)
        for i in range(g.n):
            for a, b in itertools.permutations(range(len(kept[i])), 2):
                naive = helpers.NAIVE_PURE
                if naive[tag](sub, i, a, b) and not any(naive[f](sub, i, a, b) for f in fails):
                    return CheckOutcome(False, (kept, DominanceWitness(i, kept[i][a], kept[i][b], tag)))
    return CheckOutcome(True)


def _hereditary_materialized(g, tags):
    """is_hereditary by asking each full-game pair on each materialized
    restriction that keeps it, in local indices."""

    def first(game, i, s, t):
        return next((tag for tag in tags if helpers.NAIVE_PURE[tag](game, i, s, t)), None)

    pairs = [
        (i, s, t, first(g, i, s, t))
        for i in range(g.n)
        for s, t in itertools.permutations(range(len(g.strategies[i])), 2)
    ]
    for kept in restrictions(g):
        sub = restrict(g, kept)
        for i, s, t, tag in pairs:
            if tag and s in kept[i] and t in kept[i] and not first(sub, i, kept[i].index(s), kept[i].index(t)):
                return CheckOutcome(False, (kept, DominanceWitness(i, s, t, tag)))
    return CheckOutcome(True)


@settings(max_examples=30, deadline=None)
@given(helpers.small_games())
def test_restriction_checks_match_materialized_restrictions(g):
    assert check_tdi_plus(g) == _first_in_materialized(g, "W", ("COMPAT",))
    assert check_tdi_plus_plus(g) == _first_in_materialized(g, "VW", ("W", "PE"))
    for rel in (W, NW, union(S, W), union(NW, PE)):
        assert is_hereditary(g, rel) == _hereditary_materialized(g, rel.tags)


# -- pure masks on the integer rows ------------------------------------------------


def _vectors(g, i, s, t, rests):
    """(s's, t's) Fraction payoff vectors at each opponent profile of ``rests``."""
    return [tuple(g.payoff_vector(helpers.with_choice(r, i, x)) for x in (s, t)) for r in rests]


def _by_definition(tag, i, pairs):
    """Does t TAG-dominate s for player i, given their Fraction payoff
    vectors ``pairs`` (:func:`_vectors`) over some opponent profiles?"""
    at_most = all(a[i] <= b[i] for a, b in pairs)
    weak = at_most and any(a[i] < b[i] for a, b in pairs)
    compatible = all(a == b for a, b in pairs if a[i] == b[i])
    return {
        "S": all(a[i] < b[i] for a, b in pairs),
        "W": weak,
        "VW": at_most,
        "NW": weak and compatible,
        "PE": all(a == b for a, b in pairs),
        "COMPAT": compatible,
    }[tag]


def _check_masks_against_definition(g, data):
    for i in range(g.n):
        rests = list(helpers.others(g, i))  # bit k is rests[k], as in opponent_profiles
        full = _checked_columns(g, i)
        subset = data.draw(st.integers(0, (1 << len(rests)) - 1))
        cols = _checked_columns(g, i, [c for k, c in enumerate(full) if subset >> k & 1])
        for s, t in itertools.product(range(g.shape[i]), repeat=2):
            pairs = _vectors(g, i, s, t, rests)
            better = sum(1 << k for k, (a, b) in enumerate(pairs) if a[i] < b[i])
            worse = sum(1 << k for k, (a, b) in enumerate(pairs) if a[i] > b[i])
            split = sum(1 << k for k, (a, b) in enumerate(pairs) if a[i] == b[i] and a != b)
            assert _masks(g, ("W", "COMPAT"), i, s, t, full) == ((worse, better), (split, -1))
            picked = [pair for k, pair in enumerate(pairs) if subset >> k & 1]
            for tag in ("S", "W", "VW", "NW", "PE", "COMPAT"):
                assert _met(_masks(g, (tag,), i, s, t, cols), cols.bits) == _by_definition(tag, i, picked)


@settings(max_examples=60, deadline=None)
@given(helpers.small_games(fractional=True), st.data())
def test_int_row_masks_match_the_definition_on_fractional_games(g, data):
    # per-player denominators 1, 2 and 3: the players' scales differ
    _check_masks_against_definition(g, data)


@settings(max_examples=30, deadline=None)
@given(helpers.small_games(), st.data())
def test_int_row_masks_match_the_definition_on_integer_games(g, data):
    _check_masks_against_definition(g, data)


def test_tie_split_only_by_the_other_player():
    # at L the row player ties 1/2 with 1/2 and the column player's 1/3 and
    # 2/3 split it; at R, B is better for the row player
    half, third = Fraction(1, 2), Fraction(1, 3)
    g = new_game(
        [["T", "B"], ["L", "R"]],
        {("T", "L"): (half, third), ("B", "L"): (half, 2 * third), ("T", "R"): (1, 5), ("B", "R"): (3 * half, 5)},
    )
    full = _checked_columns(g, 0)
    assert _masks(g, ("W", "COMPAT", "PE"), 0, 0, 1, full) == ((0, 0b10), (0b01, -1), (0b11, -1))
    assert dominates(g, W, 0, 0, 1) and not dominates(g, NW, 0, 0, 1) and not dominates(g, PE, 0, 0, 1)
    assert dominates(g, NW, 0, 0, 1, columns=[(-1, 1)])
    assert not dominates(g, union(NW, PE), 0, 0, 1, columns=[(-1, 0)])
