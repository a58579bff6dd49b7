import hashlib
import itertools
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

import helpers
from dominia import (
    NWM,
    PEM,
    SM,
    VWM,
    W,
    WM,
    Game,
    RelationSpec,
    check_left_commutes,
    check_tdi,
    find_dominator,
    generator_params,
    inherent_dominated_set,
    mixed_dominated_set,
    mixed_strategy,
    new_game,
    normal_forms,
    random_game,
    restrict,
    shrink_self_weight,
    substitute,
    witness_holds,
)
from dominia.errors import DegenerateSubstitution, DominiaError, EmptySupport, IndexOutOfRange, SizeBoundExceeded
from dominia.gallery import (
    mixable_middle_3x2,
    nonconfluent_weak_2x2,
    redundant_middle_3x2,
    trivial_1x1,
)
from dominia import engine, lp, mixed
from dominia.engine import _IMPLIES, _ONE_TAG
from dominia.pure import _checked_columns, _masks, restrictions
from dominia.relations import MIXED_TAGS, PURE_TAGS
from dominia.mixed import MixedStrategy, WitnessVerificationError, lp_dominator

G11 = nonconfluent_weak_2x2()


def _fresh(g):
    """A copy of g, another game object: on it a query starts on a layer of
    its own, apart from every answer left on g's."""
    return restrict(g, [range(k) for k in g.shape])


def _draw_query(g, data):
    """A player, a strategy s, an allowed support with or without s, and
    the columns: every opponent profile (None) or a random subset."""
    i = data.draw(st.integers(0, g.n - 1))
    k = len(g.strategies[i])
    s = data.draw(st.integers(0, k - 1))
    allowed = data.draw(st.sets(st.integers(0, k - 1), min_size=1))
    every = g.opponent_profiles(i)
    keep = data.draw(st.none() | st.lists(st.booleans(), min_size=len(every), max_size=len(every)))
    cols = None if keep is None else [c for c, kept in zip(every, keep) if kept]
    return i, s, allowed, cols


def _scrambled(g, i, cols, data):
    """The column set ``cols`` (None: every opponent profile of player i)
    listed in a drawn order with one column repeated."""
    cols = g.opponent_profiles(i) if cols is None else cols
    return data.draw(st.permutations(cols + [data.draw(st.sampled_from(cols))])) if cols else cols


def _certificate(g, tag, player, s, allowed, certificate):
    """:func:`mixed._certificate_holds` over every column of the player."""
    return mixed._certificate_holds(g, tag, player, s, allowed, certificate, _checked_columns(g, player))


def _rule(g, tag, i, s, allowed, columns=None):
    """:func:`mixed._by_masks` as :func:`find_dominator` puts it, from the
    integer rows over ``columns``; ``allowed`` is the member's support."""
    cols = _checked_columns(g, i, columns)
    return mixed._by_masks(tag, i, s, tuple(sorted(allowed)), mixed._row_masks(cols, i, s, allowed), cols)


def _nwm_by_enumeration(pay, i, s, allowed):
    """Nice weak mixed dominance by enumerating tie sets, the reference for
    the package's implicit-equality decider.  Columns where no allowed t
    beats s always tie; the other columns where some allowed t is no better
    than s are tried as extra ties, smallest sets first.  One LP per set
    maximizes a margin over the untied columns while every player's payoff
    matches s's on the tied ones; the first positive margin gives the
    witness.  ``pay[j]`` holds player j's payoff rows, one per column."""
    mine = pay[i]
    forced_tie, ambiguous = [], []
    for c, row in enumerate(mine):
        vals = [row[t] for t in allowed]
        if max(vals) == row[s]:
            forced_tie.append(c)
        elif min(vals) <= row[s]:
            ambiguous.append(c)
    k = len(allowed)
    by_column = list(zip(*pay))
    for size in range(len(ambiguous) + 1):
        for extra in itertools.combinations(ambiguous, size):
            ties = forced_tie + list(extra)
            if len(ties) == len(mine):
                continue
            # the margin may be negative: it is the difference of two columns
            cons = [([*(row[t] for t in allowed), 0, 0, row[s]], lp.EQ) for c in ties for row in by_column[c]]
            cons.extend(
                ([*(row[t] for t in allowed), -1, 1, row[s]], lp.GE) for c, row in enumerate(mine) if c not in ties
            )
            cons.append(([1] * k + [0, 0, 1], lp.EQ))
            rows, ops = zip(*cons)
            out = lp.solve(lp.LpProblem(rows, ops, [0] * k + [1, -1]))
            if out.optimal and out.value > 0:
                return {t: v for t, v in zip(allowed, out.point) if v != 0}
    return None


class TestMixedStrategy:
    def test_weights_validate(self):
        m = mixed_strategy(0, {0: F(1, 3), 2: F(2, 3)})
        assert m.support == (0, 2)
        assert m.weight(1) == 0

    def test_zero_weights_dropped(self):
        m = mixed_strategy(0, {0: F(1), 1: F(0)})
        assert m.support == (0,)

    def test_bad_mass_rejected(self):
        with pytest.raises(Exception):
            mixed_strategy(0, {0: F(1, 2)})

    @pytest.mark.parametrize(
        "make",
        [
            # 0.1 + 0.9 == 1.0 in floats, and the float 0.1 exceeds 1/10: in
            # a 3x1 game paying 1, 0 and 1/10, witness_holds said this mix of
            # the first two SM-dominates the third, which it only matches
            pytest.param(lambda: MixedStrategy(0, ((0, 0.1), (1, 0.9))), id="float-weights"),
            pytest.param(lambda: MixedStrategy(0, ((0, True),)), id="bool-weight"),
            pytest.param(lambda: MixedStrategy(0, ((True, F(1)),)), id="bool-atom"),
            pytest.param(lambda: mixed_strategy(0, {0: 0.5, 1: 0.5}), id="read-float"),
            pytest.param(lambda: mixed_strategy(0, {0: True}), id="read-bool"),
            pytest.param(lambda: mixed_strategy(0, {0: "abc"}), id="read-bad-string"),
            pytest.param(lambda: mixed_strategy(0, {0: "1/0"}), id="read-zero-denominator"),
            pytest.param(lambda: mixed_strategy(0, {1.7: 1}), id="float-atom"),
            pytest.param(lambda: mixed_strategy(0, {True: 1}), id="bool-atom-read"),
            pytest.param(lambda: mixed_strategy(0, {"1": 1}), id="string-atom"),
            pytest.param(lambda: mixed_strategy(0, {"1": F(1, 2), 0: F(1, 2)}), id="string-beside-int-atom"),
        ],
    )
    def test_inexact_input_refused(self, make):
        with pytest.raises(DominiaError):
            make()

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: mixed_strategy(0, {0: 0.5, 1: 0.5}), "weight 0.5 of strategy 0 "),
            (lambda: mixed_strategy(0, {0: True}), "weight True of strategy 0 "),
            (lambda: MixedStrategy(0, ((-1, F(1)),)), "atom -1 is not a strategy index"),
        ],
        ids=["float-weight", "bool-weight", "negative-atom"],
    )
    def test_refusal_names_the_weight_or_the_atom(self, make, message):
        with pytest.raises(DominiaError, match=message):
            make()

    @pytest.mark.parametrize(
        "weights, error",
        [
            (((1, F(1, 2)), (0, F(1, 2))), IndexOutOfRange),
            (((0, F(1, 2)), (0, F(1, 2))), IndexOutOfRange),
            (((0, F(0)), (1, F(1))), DominiaError),
            (((0, F(-1)), (1, F(2))), DominiaError),
        ],
        ids=["unsorted", "repeated", "zero", "negative"],
    )
    def test_stored_form_checked(self, weights, error):
        with pytest.raises(error):
            MixedStrategy(0, weights)


class TestSubstitution:
    def test_collapse_to_point_mass(self):
        m2 = mixed_strategy(0, {0: F(1, 2), 1: F(1, 2)})
        assert substitute(m2, 0, mixed_strategy(0, {1: 1})) == mixed_strategy(0, {1: 1})

    def test_no_occurrence_is_identity(self):
        m2 = mixed_strategy(0, {1: F(1)})
        m1 = mixed_strategy(0, {2: F(1)})
        assert substitute(m2, 0, m1) == m2

    def test_degenerate_substitution(self):
        with pytest.raises(DegenerateSubstitution):
            substitute(mixed_strategy(0, {0: 1}), 0, mixed_strategy(0, {0: 1}))

    def test_mass_renormalizes(self):
        m2 = mixed_strategy(0, {0: F(1, 2), 1: F(1, 2)})
        m1 = mixed_strategy(0, {0: F(1, 4), 2: F(3, 4)})
        out = substitute(m2, 0, m1)
        assert sum(w for _, w in out.weights) == 1
        assert 0 not in out.support

    def test_player_mismatch(self):
        with pytest.raises(IndexOutOfRange):
            substitute(mixed_strategy(0, {0: 1}), 0, mixed_strategy(1, {0: 1}))


@st.composite
def mix_strategy(draw, atoms=4):
    weights = draw(
        st.lists(st.integers(min_value=0, max_value=5), min_size=atoms, max_size=atoms).filter(sum)
    )
    total = sum(weights)
    return mixed_strategy(0, {s: F(w, total) for s, w in enumerate(weights) if w})


class TestSubstitutionAlgebra:
    @settings(max_examples=80, deadline=None)
    @given(mix_strategy(), mix_strategy(), st.integers(min_value=0, max_value=3))
    def test_substitute_normalizes_and_drops_target(self, m2, m1, t1):
        if m2.weight(t1) * m1.weight(t1) == 1:
            with pytest.raises(DegenerateSubstitution):
                substitute(m2, t1, m1)
            return
        out = substitute(m2, t1, m1)
        assert sum(w for _, w in out.weights) == 1
        assert t1 not in out.support
        assert all(w > 0 for _, w in out.weights)

    @settings(max_examples=80, deadline=None)
    @given(mix_strategy(), st.integers(min_value=0, max_value=3))
    def test_shrink_reverses_self_blend(self, m, s):
        # blending s into m and shrinking it out must recover m exactly
        # whenever m itself has no weight on s
        if m.weight(s) != 0:
            return
        blended = mixed_strategy(0, {**{t: w * F(2, 3) for t, w in m.weights}, s: F(1, 3)})
        assert shrink_self_weight(s, blended) == m


class TestShrinkSelfWeight:
    def test_single_residual_atom(self):
        m = mixed_strategy(0, {0: F(1, 4), 1: F(3, 4)})
        assert shrink_self_weight(0, m) == mixed_strategy(0, {1: 1})

    def test_noop_without_self_weight(self):
        m = mixed_strategy(0, {1: F(1, 2), 2: F(1, 2)})
        assert shrink_self_weight(0, m) == m

    def test_point_mass_errors(self):
        with pytest.raises(DegenerateSubstitution):
            shrink_self_weight(0, mixed_strategy(0, {0: 1}))


class TestFindDominator:
    def test_strict_mixed_witness_with_margin(self):
        g = mixable_middle_3x2()
        w = find_dominator(g, SM, 0, 1, [0, 2])
        assert w is not None and w.relation == "SM"
        # oracle: the two-variable system solved exactly gives margin 1/2 at
        # the half-half mix; any returned witness must beat M on both columns
        for c in (0, 1):
            assert helpers.mix_payoff(g, 0, dict(w.dominator.weights), (c,), 0) > g.payoff((1, c), 0)

    def test_no_strict_witness_with_tie(self):
        # bottom row of the reference game ties the top row at the left column
        assert find_dominator(G11, SM, 0, 1, [0]) is None

    def test_empty_support_rejected(self):
        with pytest.raises(EmptySupport):
            find_dominator(G11, PEM, 0, 0, [])

    @pytest.mark.parametrize("columns", [[(-1, 2)], [(-1, -1)], [(-1,)]])
    def test_out_of_range_columns_rejected(self, columns):
        with pytest.raises(IndexOutOfRange):
            find_dominator(G11, SM, 0, 0, [1], columns=columns)

    @pytest.mark.parametrize("tag", ["SM", "WM", "VWM", "NWM", "PEM"])
    @pytest.mark.parametrize(
        "dominated, support, columns",
        [(2, 0, None), (-1, 0, None), (1, 2, None), (1, 0, [(-1, 2)]), (1, 0, [(-1,)])],
    )
    def test_witness_holds_rejects_bad_indices(self, tag, dominated, support, columns):
        with pytest.raises(IndexOutOfRange):
            witness_holds(G11, tag, 0, dominated, mixed_strategy(0, {support: 1}), columns)

    def test_witness_holds_rejects_another_players_mix(self):
        # player 1's strategy 0 is not player 0's strategy 0
        with pytest.raises(IndexOutOfRange):
            witness_holds(G11, "VWM", 0, 1, mixed_strategy(1, {0: 1}))

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(helpers.small_games(fractional=True), helpers.small_games()), st.data())
    def test_witness_holds_matches_naive_definitions(self, g, data):
        # weights in 0..2 give point masses, mixes with weight on s, and ties
        i, s, _, cols = _draw_query(g, data)
        k = len(g.strategies[i])
        raw = data.draw(st.lists(st.integers(0, 2), min_size=k, max_size=k).filter(any))
        weights = {t: F(w, sum(raw)) for t, w in enumerate(raw) if w}
        m = mixed_strategy(i, weights)
        if cols is None:
            rests = list(helpers.others(g, i))
        else:
            rests = [col[:i] + col[i + 1 :] for col in cols]
        scrambled = _scrambled(g, i, cols, data)
        for tag in ("SM", "WM", "VWM", "NWM", "PEM"):
            assert witness_holds(g, tag, i, s, m, cols) == helpers.naive_mixed(g, tag, i, s, weights, rests)
            assert witness_holds(g, tag, i, s, m, scrambled) == witness_holds(g, tag, i, s, m, cols)

    @settings(max_examples=150, deadline=None)
    @given(helpers.small_games(fractional=True), st.data())
    def test_scaling_one_player_keeps_every_verdict(self, g, data):
        # one positive factor per player keeps every inequality and equality
        # the tags test, so verdicts agree; witnesses may differ, since the
        # simplex's phase 1 weighs each row by its scale
        j = data.draw(st.integers(0, g.n - 1))
        factor = data.draw(st.builds(F, st.integers(1, 9), st.integers(1, 9)))
        scaled = new_game(
            g.strategies,
            {p: [v * factor if k == j else v for k, v in enumerate(g.payoff_vector(p))] for p in g.profiles()},
        )
        i, s, allowed, cols = _draw_query(g, data)
        for rel in (SM, WM, VWM, NWM, PEM):
            found = [find_dominator(game, rel, i, s, allowed, columns=cols) for game in (g, scaled)]
            assert (found[0] is None) == (found[1] is None)
            for w in filter(None, found):
                for game in (g, scaled):
                    assert witness_holds(game, w.relation, i, s, w.dominator, cols)

    def test_duplicate_row_is_randomized_redundant(self):
        g = new_game(
            [["T", "M"], ["L"]],
            {("T", "L"): (2, 2), ("M", "L"): (2, 2)},
        )
        w = find_dominator(g, PEM, 0, 1, [0, 1])
        assert w is not None and w.dominator == mixed_strategy(0, {0: 1})

    def test_average_row_is_randomized_redundant(self):
        g = redundant_middle_3x2()
        w = find_dominator(g, PEM, 0, 1, [0, 1, 2])
        assert w is not None
        assert dict(w.dominator.weights) == {0: F(1, 2), 2: F(1, 2)}
        assert 1 not in w.dominator.support

    def test_pem_excludes_self_support(self, small_games):
        # PEM by its definition, every other tag because a dominator is
        # drawn from the player's other strategies
        for g in small_games[:12]:
            for relation in (SM, WM, VWM, NWM, PEM):
                for per in mixed_dominated_set(g, relation):
                    for w in per:
                        assert w.dominated not in w.dominator.support

    def test_vwm_point_mass_on_self(self):
        w = find_dominator(G11, VWM, 0, 0, [0])
        assert w is not None  # a strategy very weakly dominates itself

    def test_nwm_needs_compatibility(self):
        # column R is weakly dominated by L and the pair is compatible
        w = find_dominator(G11, NWM, 1, 1, [0])
        assert w is not None and w.relation == "NWM"

    def test_nwm_equality_set_forces_unique_mix(self):
        # middle row ties every mix on column C, so the tie must transfer to
        # the column player's payoffs there: 4*(1-w) == 1 pins w = 3/4; L then
        # needs 4w > 2 and R is strict for free.  No pure dominator is
        # compatible and no strict mixed dominator exists at all.
        g = new_game(
            [["T", "M", "B"], ["L", "C", "R"]],
            {
                ("T", "L"): (4, 0), ("T", "C"): (1, 0), ("T", "R"): (3, 0),
                ("M", "L"): (2, 0), ("M", "C"): (1, 1), ("M", "R"): (2, 0),
                ("B", "L"): (0, 0), ("B", "C"): (1, 4), ("B", "R"): (3, 0),
            },
        )
        assert find_dominator(g, SM, 0, 1, [0, 2]) is None
        assert not witness_holds(g, "NWM", 0, 1, mixed_strategy(0, {0: 1}))
        w = find_dominator(g, NWM, 0, 1, [0, 2])
        assert w is not None
        assert dict(w.dominator.weights) == {0: F(3, 4), 2: F(1, 4)}

    def test_nwm_is_decided_by_its_margin_loop_alone(self, monkeypatch):
        # on the game above, one margin LP (ties on C) gives the witness; no
        # WM LP runs first
        g = new_game(
            [["T", "M", "B"], ["L", "C", "R"]],
            {
                ("T", "L"): (4, 0), ("T", "C"): (1, 0), ("T", "R"): (3, 0),
                ("M", "L"): (2, 0), ("M", "C"): (1, 1), ("M", "R"): (2, 0),
                ("B", "L"): (0, 0), ("B", "C"): (1, 4), ("B", "R"): (3, 0),
            },
        )
        problems = []
        solve = lp.solve
        monkeypatch.setattr(lp, "solve", lambda problem: problems.append(problem) or solve(problem))
        assert find_dominator(g, NWM, 0, 1, [0, 2]) is not None
        assert len(problems) == 1

    def test_every_mix_tying_everywhere_is_no_weak_dominator(self):
        # a mix of a = (2, 0) and b = (0, 2) is at least s = (1, 1) only at
        # the half-half mix, which ties s on both columns: the margin loop's
        # optimum is 0, both columns are implicit equalities, and no column
        # is left to be strict
        g = new_game(
            [["a", "b", "s"], ["L", "R"]],
            {
                ("a", "L"): (2, 0), ("a", "R"): (0, 0),
                ("b", "L"): (0, 0), ("b", "R"): (2, 0),
                ("s", "L"): (1, 0), ("s", "R"): (1, 0),
            },
        )
        for rel in (NWM, WM):
            (tag,) = rel.tags
            assert find_dominator(g, rel, 0, 2, [0, 1]) is None
            assert lp_dominator(g, tag, 0, 2, [0, 1]) is None

    @pytest.mark.parametrize("rel, dominated", [(SM, True), (VWM, True), (PEM, True), (WM, False), (NWM, False)])
    def test_over_no_columns(self, rel, dominated):
        # every mix dominates vacuously under SM, VWM and PEM; WM and NWM
        # need a column where the mix is strictly better
        (tag,) = rel.tags
        w = find_dominator(G11, rel, 0, 0, [1], columns=[])
        assert (w is not None) == dominated
        assert (lp_dominator(G11, tag, 0, 0, [1], columns=[]) is not None) == dominated

    def test_nwm_with_many_ambiguous_columns(self):
        # 14 of player 2's 16 columns could tie or be strict, too many to
        # enumerate tie sets; vertex enumeration (perfbench/known.py) also
        # finds no NWM dominator
        g = random_game(generator_params(3, (4, 4, 4), -1, 1, F(1, 4), 7034))
        assert find_dominator(g, NWM, 2, 0, (0, 1, 2, 3)) is None

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(helpers.small_games(), helpers.small_games(0, 1)), st.data())
    def test_nwm_matches_tie_set_enumeration(self, g, data):
        i, s, allowed, cols = _draw_query(g, data)
        allowed, _, pay = mixed._query(g, i, s, allowed, cols)
        assert lp_dominator(g, "NWM", i, s, allowed, columns=cols) == _nwm_by_enumeration(pay, i, s, allowed)

    @pytest.mark.parametrize("shape", [(3, 3), (3, 4), (2, 2, 3)])
    def test_nwm_matches_tie_set_enumeration_on_seeded_games(self, shape):
        # payoffs 0..1 with duplicated cells tie often enough that dozens of
        # these queries add implicit equalities in a second round, which
        # the hypothesis games above almost never need
        for seed in range(40):
            g = random_game(generator_params(len(shape), shape, 0, 1, F(1, 4), seed))
            for i, k in enumerate(shape):
                for s in range(k):
                    for allowed in (tuple(t for t in range(k) if t != s), tuple(range(k))):
                        _, _, pay = mixed._query(g, i, s, allowed, None)
                        assert lp_dominator(g, "NWM", i, s, allowed) == _nwm_by_enumeration(pay, i, s, allowed)


class TestCheapTests:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(helpers.small_games(), helpers.small_games(fractional=True)), st.data())
    def test_cheap_tests_agree_with_the_lp_deciders(self, g, data):
        # and a column set answers alike in any order, with repeats: the
        # witness, the LP's point, the verdict and the certificate's index
        i, s, allowed, cols = _draw_query(g, data)
        scrambled = _scrambled(g, i, cols, data)
        member = tuple(sorted(allowed))  # as find_dominator sees it
        for rel in (SM, WM, VWM, NWM, PEM):
            (tag,) = rel.tags
            w = find_dominator(g, rel, i, s, allowed, columns=cols)
            reference = lp_dominator(g, tag, i, s, allowed, columns=cols)
            assert (w is None) == (reference is None)
            assert find_dominator(g, rel, i, s, allowed, columns=scrambled) == w
            assert lp_dominator(g, tag, i, s, allowed, columns=scrambled) == reference
            seen = mixed._member_support(tag, member, s)
            if seen:  # a rule's answer, yes or no, is the LP decider's
                rule = _check_rule(g, tag, i, s, seen, cols)
                assert _rule(g, tag, i, s, seen, scrambled) == rule
                if rule == (None, None, None) and w is not None:  # an open query's witness is the LP's
                    assert dict(w.dominator.weights) == reference
            if w is not None:
                assert witness_holds(g, tag, i, s, w.dominator, cols)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(helpers.small_games(), helpers.small_games(0, 1)), st.data())
    def test_deciders_respect_the_inclusions(self, g, data):
        # over a non-empty column set a yes under a tag is a yes under every
        # tag it implies, and its witness is one there: the engine's layer
        # reuses answers across tags by exactly these inclusions
        i, s, allowed, cols = _draw_query(g, data)
        assume(cols != [])
        for tag, implied in _IMPLIES.items():
            w = find_dominator(g, _ONE_TAG[tag], i, s, allowed, columns=cols)
            if w is None:
                continue
            for other in implied:
                assert find_dominator(g, _ONE_TAG[other], i, s, allowed, columns=cols) is not None
                assert witness_holds(g, other, i, s, w.dominator, cols)

    # player 0's payoffs by row (s) and column (L, R), then player 1's
    CERTIFICATE_GAME = new_game(
        [["r0", "r1", "r2"], ["L", "R"]],
        {
            ("r0", "L"): (2, 5), ("r0", "R"): (0, 5),
            ("r1", "L"): (2, 4), ("r1", "R"): (1, 6),
            ("r2", "L"): (1, 6), ("r2", "R"): (3, 4),
        },
    )

    @pytest.mark.parametrize(
        "tag, s, allowed, certificate",
        [
            ("SM", 0, (1, 2), (0, 0)),  # r0 ties the best at L
            ("WM", 1, (0,), (1, 0)),  # r1 beats r0 at R
            ("NWM", 1, (0,), (1, 0)),
            ("WM", 1, (0,), (None, 0)),  # r1 is never worse than r0
            ("NWM", 1, (0,), (None, 0)),
            ("VWM", 1, (0,), (1, 0)),
            ("PEM", 0, (1, 2), (1, 0)),  # player 0 at R: 0 below [1, 3]
            ("PEM", 1, (0, 2), (0, 1)),  # player 1 at L: 4 below [5, 6]
            ("NWM", 1, (0,), (0, 1)),  # r1 ties r0 at L, but not for player 1
        ],
    )
    def test_certificates_hold(self, tag, s, allowed, certificate):
        g = self.CERTIFICATE_GAME
        assert _certificate(g, tag, 0, s, allowed, certificate)
        rel = {"SM": SM, "WM": WM, "VWM": VWM, "NWM": NWM, "PEM": PEM}[tag]
        assert find_dominator(g, rel, 0, s, allowed) is None
        assert _rule(g, tag, 0, s, allowed)[1] is not None

    @pytest.mark.parametrize(
        "tag, s, allowed, certificate",
        [
            ("SM", 0, (1, 2), (1, 0)),  # SM column moved to R
            ("SM", 0, (1, 2), (0, 1)),  # SM column read for the other player
            ("WM", 0, (1, 2), (0, 0)),  # a tie where a strict beat is needed
            ("WM", 1, (0,), (0, 0)),  # strict-beat column moved to L
            ("NWM", 1, (0,), (0, 0)),
            ("WM", 0, (1,), (None, 0)),  # never-worse, but r0 is worse at R
            ("NWM", 1, (0,), (None, 1)),  # never-worse for the other player
            ("SM", 1, (0,), (None, 0)),  # never-worse refutes no SM query
            ("VWM", 1, (0,), (0, 0)),  # VWM column moved to L
            ("VWM", 1, (0, 1), (1, 0)),  # s allowed: its point mass dominates
            ("PEM", 0, (1, 2), (1, 1)),  # PEM player changed
            ("PEM", 0, (1, 2), (0, 0)),  # PEM column changed
            ("PEM", 1, (0, 1, 2), (0, 1)),  # s allowed
            ("NWM", 1, (0, 2), (0, 1)),  # a tie split for player 1, but A' = {r0, r2}
            ("NWM", 1, (0,), (1, 1)),  # a tie split for player 1 moved to R, where r1 beats r0
        ],
    )
    def test_corrupted_certificates_rejected(self, tag, s, allowed, certificate):
        assert not _certificate(self.CERTIFICATE_GAME, tag, 0, s, allowed, certificate)

    @pytest.mark.parametrize(
        "check, args, expected",
        [
            pytest.param(lp_dominator, ("XX", 0, 1, (0,)), ValueError, id="lp-tag"),
            # R, read as Python's last column, would hold
            pytest.param(_certificate, ("WM", 0, 1, (0,), (-1, 0)), False, id="column-negative"),
            pytest.param(_certificate, ("WM", 0, 1, (0,), (2, 0)), False, id="column-past-end"),
            # player 1, read as Python's last player, would hold
            pytest.param(_certificate, ("PEM", 0, 1, (0, 2), (0, -1)), False, id="player-negative"),
            pytest.param(_certificate, ("PEM", 0, 1, (0, 2), (0, 2)), False, id="player-past-end"),
            pytest.param(lp_dominator, ("WM", 2, 1, (0,)), IndexOutOfRange, id="query-player"),
            pytest.param(lp_dominator, ("WM", 0, 3, (0,)), IndexOutOfRange, id="dominated"),
            pytest.param(lp_dominator, ("WM", 0, 1, (0, 3)), IndexOutOfRange, id="allowed"),
            pytest.param(find_dominator, (WM, 2, 1, (0,)), IndexOutOfRange, id="find-query-player"),
            pytest.param(find_dominator, (WM, 0, 3, (0,)), IndexOutOfRange, id="find-dominated"),
            pytest.param(find_dominator, (WM, 0, 1, (0, 3)), IndexOutOfRange, id="find-allowed"),
        ],
    )
    def test_mixed_checkers_reject_bad_arguments(self, check, args, expected):
        if isinstance(expected, bool):
            assert check(self.CERTIFICATE_GAME, *args) is expected
        else:
            with pytest.raises(expected):
                check(self.CERTIFICATE_GAME, *args)

    # player 0's rows s, t and u: t beats s at L and ties it at M and R,
    # where player 1's payoffs tie at M and not at R; u is below both
    SPLIT_GAME = new_game(
        [["s", "t", "u"], ["L", "M", "R"]],
        {
            ("s", "L"): (1, 0), ("s", "M"): (1, 0), ("s", "R"): (1, 5),
            ("t", "L"): (2, 0), ("t", "M"): (1, 0), ("t", "R"): (1, 0),
            ("u", "L"): (0, 0), ("u", "M"): (0, 0), ("u", "R"): (0, 0),
        },
    )

    @pytest.mark.parametrize(
        "allowed, certificate, holds",
        [
            ((1,), (2, 1), True),  # the rules' own certificate
            ((0, 1), (2, 1), True),  # s allowed: its weight changes nothing
            ((1,), (2, 0), False),  # j = i: a tie is no strict beat
            ((1, 2), (2, 1), False),  # |A'| = 2: a mix can split the tie
            ((1,), (1, 1), False),  # at M player 1 ties too
        ],
    )
    def test_nwm_one_strategy_certificate(self, allowed, certificate, holds):
        g = self.SPLIT_GAME
        assert _certificate(g, "NWM", 0, 0, allowed, certificate) is holds
        if allowed == (1,):
            assert _rule(g, "NWM", 0, 0, allowed) == (None, (2, 1), None)
            assert find_dominator(g, NWM, 0, 0, allowed) is None

    def test_find_dominator_checks_the_certificate(self, monkeypatch):
        monkeypatch.setattr(mixed, "_by_masks", lambda *query: (None, (1, 0), None))
        with pytest.raises(WitnessVerificationError):
            find_dominator(self.CERTIFICATE_GAME, SM, 0, 0, [1, 2])

    def test_find_dominator_checks_the_pure_dominator(self, monkeypatch):
        # r1 ties r0 at L, so it does not SM-dominate it
        monkeypatch.setattr(mixed, "_by_masks", lambda *query: ({1: F(1)}, None, None))
        with pytest.raises(WitnessVerificationError):
            find_dominator(self.CERTIFICATE_GAME, SM, 0, 0, [1, 2])

    def test_find_dominator_checks_the_lp_witness(self, monkeypatch):
        # only a proper mix of T and B weakly dominates M, so the rules leave
        # this WM query to the decider; B is worse than M at L
        g = mixable_middle_3x2()
        assert _rule(g, "WM", 0, 1, (0, 2)) == (None, None, None)
        monkeypatch.setitem(mixed._DECIDERS, "WM", lambda *query: {2: F(1)})
        with pytest.raises(WitnessVerificationError):
            find_dominator(g, WM, 0, 1, [0, 2])


def _rule_queries(g, data=None):
    """Every (tag, player, s, member support, columns) of a game: each
    allowed support with and without s, over all columns and every other
    one; with ``data``, one drawn query per tag."""
    for tag in mixed._DECIDERS:
        if data is not None:
            i, s, allowed, cols = _draw_query(g, data)
            queries = [(i, s, allowed, cols)]
        else:
            queries = [
                (i, s, allowed, cols)
                for i, k in enumerate(g.shape)
                for s in range(k)
                for allowed in (set(range(k)) - {s}, set(range(k)))
                for cols in (None, g.opponent_profiles(i)[::2])
            ]
        for i, s, allowed, cols in queries:
            member = mixed._member_support(tag, tuple(sorted(allowed)), s)
            if member:
                yield tag, i, s, member, cols


def _check_rule(g, tag, i, s, allowed, cols):
    """The rules' answer to one query, after checking it against the LP
    decider, the certificate and witness checks, and the same rules fed the
    better and worse masks of :func:`pure._masks` on the Fractions."""
    out = _rule(g, tag, i, s, allowed, cols)
    weights, certificate, refuted = out
    checked = _checked_columns(g, i, cols)
    fractions = {t: _masks(g, ("W",), i, s, t, checked)[0] for t in allowed if t != s}
    masks = {t: (need, fail) for t, (fail, need) in fractions.items()}
    assert mixed._by_masks(tag, i, s, allowed, masks, checked) == out
    if weights is None and certificate is None:
        # every point mass is the rules' to try: an open query needs a proper mix
        reference = lp_dominator(g, tag, i, s, allowed, columns=cols)
        assert reference is None or len(reference) > 1
        return out
    assert (weights is not None) == (lp_dominator(g, tag, i, s, allowed, columns=cols) is not None)
    if weights is not None:
        assert witness_holds(g, tag, i, s, mixed_strategy(i, weights), cols)
    else:
        assert mixed._certificate_holds(g, tag, i, s, allowed, certificate, checked)
        if refuted is not None:
            # a one-column refutation holds over that column alone
            one = _checked_columns(g, i, [checked[certificate[0]]])
            assert mixed._certificate_holds(g, refuted, i, s, allowed, (0, certificate[1]), one)
    return out


class TestMaskRules:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(helpers.small_games(), helpers.small_games(0, 1), helpers.small_games(fractional=True)), st.data())
    def test_rules_agree_with_the_lp_deciders(self, g, data):
        for query in _rule_queries(g, data):
            _check_rule(g, *query)

    def test_rules_on_seeded_games(self):
        # the rules report the lowest refuting column and the first pure
        # dominator; the digest pins every answer, so an answer that
        # depended on hash or dict order would fail under some hash seed
        answers = []
        for seed, shape in enumerate([(2, 2), (2, 3), (3, 3), (3, 4), (2, 2, 2), (2, 3, 2)] * 5):
            g = random_game(generator_params(len(shape), shape, -2, 2, F(1, 3), seed))
            answers += [(seed, *query[:4], _check_rule(g, *query)) for query in _rule_queries(g)]
        settled = sum(weights is not None or certificate is not None for *_, (weights, certificate, _) in answers)
        assert (len(answers), settled) == (3500, 3244)
        assert hashlib.sha256(repr(answers).encode()).hexdigest()[:16] == "8e6c8fd19110eb87"

    @settings(max_examples=100, deadline=None)
    @given(helpers.small_games(fractional=True), st.data())
    def test_point_mass_masks_are_its_strategys(self, g, data):
        # _masks reads a one-atom mix through its strategy, on the integer rows
        i, s, _, cols = _draw_query(g, data)
        checked = _checked_columns(g, i, cols)
        tags = PURE_TAGS + MIXED_TAGS
        for t in range(len(g.strategies[i])):
            assert _masks(g, tags, i, s, mixed_strategy(i, {t: 1}), checked) == _masks(g, tags, i, s, t, checked)


class TestMixedDominatedSet:
    def test_reference_witnesses_under_wm(self):
        per = mixed_dominated_set(G11, WM)
        assert [w.dominated for w in per[0]] == [1]
        assert [w.dominated for w in per[1]] == [1]

    def test_trivial_empty(self):
        assert mixed_dominated_set(trivial_1x1(), SM) == [[]]

    def test_pure_relation_refused(self):
        with pytest.raises(ValueError):
            mixed_dominated_set(G11, W)

    def test_only_mixable_middle_dominated(self):
        g = mixable_middle_3x2()
        per = mixed_dominated_set(g, SM)
        assert [w.dominated for w in per[0]] == [1]
        assert per[1] == []

    def test_no_strategy_dominates_itself(self):
        # the point mass on a strategy very weakly dominates it, but a
        # dominator is one of the player's other strategies
        per = mixed_dominated_set(mixable_middle_3x2(), VWM)
        assert [[w.dominated for w in found] for found in per] == [[1], [0, 1]]

    def test_witnesses_do_not_depend_on_earlier_searches(self, small_games):
        # witnesses are output: they come from find_dominator on the game,
        # never from the answers an engine search left on the game's layer,
        # which may be another tag's or another allowed set's.  Every fresh
        # copy's sets come first, so the searched game keeps its layer, and
        # the answers of both searches, through all five sets
        rels = (SM, WM, NWM, VWM, PEM)
        for g in small_games[:12] + [mixable_middle_3x2(), G11]:
            expected = [mixed_dominated_set(_fresh(g), rel) for rel in rels]
            searched = _fresh(g)
            normal_forms(searched, RelationSpec(SM))
            check_left_commutes(searched, RelationSpec(PEM), RelationSpec(WM))
            layer = engine._last
            assert [mixed_dominated_set(searched, rel) for rel in rels] == expected
            assert engine._last is layer and layer.root is searched

    def test_sets_after_a_search_are_read_off_its_layer(self, monkeypatch):
        # with no clones, an SM search asks every root question the SM set
        # asks, so the set needs no LP, and its witnesses are a fresh copy's
        g = mixable_middle_3x2()
        fresh = mixed_dominated_set(_fresh(g), SM)
        normal_forms(g, RelationSpec(SM))
        solves = []
        solve = lp.solve
        monkeypatch.setattr(lp, "solve", lambda *a: solves.append(a) or solve(*a))
        assert mixed_dominated_set(g, SM) == fresh
        assert solves == []
        assert [[w.dominated for w in found] for found in fresh] == [[1], []]

    def test_sets_answer_past_the_search_bound(self):
        # 15 strategies: every search refuses the game, but the set queries
        # are not exhaustive and still answer.  Player 0's middle strategy is
        # strictly below the even mix of the other two, and below neither
        shape = (3, 6, 6)
        payoffs = {
            (a, b, c): ((2 * (b % 2), 0, 2 - 2 * (b % 2))[a], (a + b * c) % 5, (a * c + b) % 7)
            for a, b, c in itertools.product(*map(range, shape))
        }
        g = Game([[f"{p}{k}" for k in range(n)] for p, n in zip("abc", shape)], payoffs)
        with pytest.raises(SizeBoundExceeded):
            normal_forms(g, RelationSpec(SM))
        per = mixed_dominated_set(g, SM)
        assert 1 in [w.dominated for w in per[0]]
        assert per == [
            [find_dominator(g, SM, w.player, w.dominated, [t for t in range(k) if t != w.dominated]) for w in found]
            for found, k in zip(per, shape)
        ]
        # inherent WM = SM, decided apart on a copy
        assert [[w.dominated for w in found] for found in per] == inherent_dominated_set(_fresh(g), WM)

    def test_sets_match_inherent_dominance(self, small_games):
        # for pointwise tags every subset of columns has the full game's
        # dominator, so inherent dominance is plain dominance.  The sets share
        # g's layer, each reading the answers the ones before it left; each
        # inherent side is decided on a copy of its own, since on g's layer
        # the chain's first link would read the set's answer to that question
        rels = (SM, VWM, PEM)
        for g in small_games[:12]:
            per = [mixed_dominated_set(g, rel) for rel in rels]
            inherent = [inherent_dominated_set(_fresh(g), rel) for rel in rels]
            assert [[[w.dominated for w in found] for found in sets] for sets in per] == inherent


class TestWitnessImplications:
    def test_self_weighted_witness_shrinks_and_requeries(self, small_games):
        # a dominator leaning on the dominated strategy itself can always be
        # replaced: excluding the strategy from the support still succeeds,
        # and shrinking the self weight out yields a valid witness
        for g in small_games[:10]:
            for i in range(g.n):
                k = len(g.strategies[i])
                if k < 2:
                    continue
                for s in range(k):
                    w = find_dominator(g, SM, i, s, range(k))
                    if w is None:
                        continue
                    others = [t for t in range(k) if t != s]
                    again = find_dominator(g, SM, i, s, others)
                    assert again is not None
                    if s in w.dominator.support:
                        shrunk = shrink_self_weight(s, w.dominator)
                        assert witness_holds(g, "SM", i, s, shrunk)

    def test_sm_wm_vwm_chain(self, small_games):
        for g in small_games[:10]:
            for per in mixed_dominated_set(g, SM):
                for w in per:
                    assert witness_holds(g, "WM", w.player, w.dominated, w.dominator)
                    assert witness_holds(g, "VWM", w.player, w.dominated, w.dominator)
            for per in mixed_dominated_set(g, WM):
                for w in per:
                    assert witness_holds(g, "VWM", w.player, w.dominated, w.dominator)


class TestMixedStructural:
    def test_sm_yes_stays_yes_in_every_restriction_keeping_its_support(self, small_games):
        # SM is defined column by column: a dominator over every column is
        # one over the kept columns, asked of the root or of the restriction
        for g in small_games[:6]:
            for kept in restrictions(g):
                sub = restrict(g, kept)
                for i, mine in enumerate(kept):
                    columns = [c for c in g.opponent_profiles(i) if all(c[j] in kept[j] for j in range(g.n) if j != i)]
                    for s in mine:
                        allowed = [t for t in mine if t != s]
                        if allowed and find_dominator(g, SM, i, s, allowed) is not None:
                            assert find_dominator(g, SM, i, s, allowed, columns=columns) is not None
                            local = [mine.index(t) for t in allowed]
                            assert find_dominator(sub, SM, i, mine.index(s), local) is not None

    def test_wm_not_hereditary_on_reference(self):
        # L WM-dominates R for player 1 only at row B: once B is gone they tie
        kept = ((0,), (0, 1))
        assert find_dominator(G11, WM, 1, 1, kept[1]) is not None
        assert find_dominator(G11, WM, 1, 1, kept[1], columns=[(0, -1)]) is None

    def test_nwm_equals_wm_under_tdi(self, small_games):
        for g in small_games:
            if not check_tdi(g).ok:
                continue
            for i in range(g.n):
                k = len(g.strategies[i])
                for s in range(k):
                    wm = find_dominator(g, WM, i, s, range(k)) is not None
                    nwm = find_dominator(g, NWM, i, s, range(k)) is not None
                    assert wm == nwm
