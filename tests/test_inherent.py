import hashlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from dominia import (
    NW,
    NWM,
    PE,
    PEM,
    S,
    SM,
    VW,
    VWM,
    W,
    WM,
    InherentQuery,
    dominates,
    find_dominator,
    generator_params,
    inherent_dominated_set,
    is_inherently_dominated,
    mixed_dominated_set,
    mixed_strategy,
    new_game,
    random_game,
    restrict,
    union,
    witness_holds,
)
from dominia.errors import IndexOutOfRange
from dominia.gallery import (
    inherently_dominated_middle_3x2,
    inherently_dominated_middle_3x4x4,
    trivial_1x1,
    weakly_but_not_inherently_dominated_2x2,
)
from dominia.pure import restrictions
from dominia.relations import Relation

G_INH = inherently_dominated_middle_3x2()
G_NOT = weakly_but_not_inherently_dominated_2x2()

BASES = [S, W, NW, VW, PE, SM, WM, VWM, NWM, PEM, union(W, PE), union(NW, PE), union(WM, PEM), union(SM, PEM)]


def _dominators(game, base, i, s, allowed, columns):
    """Every dominator of s over ``columns``: the strategies for a pure base,
    the one ``find_dominator`` witness (or none) for a mixed one."""
    if base.mixed:
        w = find_dominator(game, base, i, s, allowed, columns=columns) if allowed else None
        return [] if w is None else [w]
    return [t for t in allowed if dominates(game, base, i, s, t, columns)]


def _enumerated(game, query, columns=None):
    """Inherent dominance by enumeration: every non-empty subset of the
    columns must admit a dominator (vacuous over no columns)."""
    i, s = query.player, query.strategy
    pool = range(len(game.strategies[i])) if query.must_survive is None else sorted(set(query.must_survive))
    allowed = [t for t in pool if t != s]
    full = game.opponent_profiles(i) if columns is None else list(columns)
    subsets = [list(picked) for size in range(1, len(full) + 1) for picked in itertools.combinations(full, size)]
    return all(_dominators(game, query.base, i, s, allowed, d) for d in subsets)


def _dominator_of(chain, subset):
    """The dominator a chain gives a profile subset: that of the last chain
    set containing it."""
    return [d for c, d in chain if set(subset) <= set(c)][-1]


def _need(game, base, i, s, d, columns):
    """The columns of ``columns`` that dominator d needs: where it is strictly
    better for player i under a weak tag, all of them under a pointwise one."""
    if base.mixed:
        tag, weights = d.relation, dict(d.dominator.weights)
    else:
        tag = next(tg for tg in base.tags if dominates(game, Relation((tg,)), i, s, d, columns))
        weights = {d: 1}
    if tag not in ("W", "NW", "WM", "NWM"):
        return set(columns)
    rest = {c: c[:i] + c[i + 1 :] for c in columns}
    return {
        c
        for c in columns
        if helpers.mix_payoff(game, i, weights, rest[c], i) > game.payoff(helpers.with_choice(rest[c], i, s), i)
    }


@settings(max_examples=400, deadline=None)
@given(g=st.one_of(helpers.small_games(), helpers.clone_games()), data=st.data())
def test_chain_matches_enumeration(g, data):
    base = data.draw(st.sampled_from(BASES))
    i = data.draw(st.integers(0, g.n - 1))
    k = len(g.strategies[i])
    s = data.draw(st.integers(0, k - 1))
    survive = data.draw(st.none() | st.lists(st.integers(0, k - 1), max_size=k).map(tuple))
    every = g.opponent_profiles(i)
    # at most 6 columns keep the enumeration at 64 subsets
    picked = data.draw(st.sets(st.integers(0, len(every) - 1), max_size=6))
    columns = None if len(picked) == len(every) else [every[c] for c in sorted(picked)]
    query = InherentQuery(base, i, s, survive)
    res = is_inherently_dominated(g, query, columns=columns)
    assert res.dominated == _enumerated(g, query, columns)
    full = every if columns is None else columns
    # a column set: another order, with a repeat, gives the same chain
    scrambled = data.draw(st.permutations(full + full[:1]))
    assert is_inherently_dominated(g, query, columns=scrambled) == res
    allowed = [t for t in (range(k) if survive is None else sorted(set(survive))) if t != s]
    if not res.dominated:
        assert set(res.failing_subset) <= set(full)
        assert res.failing_subset or not full
        assert not _dominators(g, base, i, s, allowed, list(res.failing_subset))
        return
    left = list(full)
    for subset, d in res.chain:
        assert list(subset) == left
        if base.mixed:
            assert set(d.dominator.support) <= set(allowed)
            assert d.relation in base.tags and witness_holds(g, d.relation, i, s, d.dominator, list(subset))
        else:
            assert d in allowed and dominates(g, base, i, s, d, list(subset))
        need = _need(g, base, i, s, d, list(subset))
        left = [c for c in subset if c not in need]
    assert not left


def test_chains_on_seeded_games():
    # every base on 42 seeded games, with dominators from the player's other
    # strategies and from the even-indexed ones; the digest pins each result,
    # chain dominators and failing subsets included, so a chain that depended
    # on hash or dict order would fail under some hash seed
    answers = []
    for seed, shape in enumerate([(2, 2), (2, 3), (3, 3), (3, 4), (2, 2, 2), (2, 3, 2), (3, 2, 2)] * 6):
        g = random_game(generator_params(len(shape), shape, -2, 2, Fraction(1, 3), seed))
        for base, (i, k) in itertools.product(BASES, enumerate(g.shape)):
            for survive, s in itertools.product((None, tuple(range(0, k, 2))), range(k)):
                answers.append((seed, str(base), i, s, survive, is_inherently_dominated(g, InherentQuery(base, i, s, survive))))
    assert (len(answers), sum(res.dominated for *_, res in answers)) == (7056, 729)
    assert hashlib.sha256(repr(answers).encode()).hexdigest()[:16] == "b424c570689bad90"


def test_middle_row_inherently_weakly_dominated_with_table():
    res = is_inherently_dominated(G_INH, InherentQuery(W, 0, 1, None))
    assert res.dominated
    cols = G_INH.opponent_profiles(0)
    left, right = cols[0], cols[1]
    # B wins on both columns and is strictly better on the right one, so the
    # chain goes on to the left column alone, where T wins
    assert res.chain == (((left, right), 2), ((left,), 0))
    assert _dominator_of(res.chain, (left,)) == 0
    assert _dominator_of(res.chain, (right,)) == 2
    assert _dominator_of(res.chain, (left, right)) == 2


def test_mixed_chain_drops_only_the_columns_a_mix_beats():
    # every mix of T and B that weakly dominates M ties it on X, and there
    # only D beats it
    rows = {"T": (3, 0, 1), "M": (1, 1, 1), "B": (0, 3, 1), "D": (-5, -5, 2)}
    g = new_game([list(rows), ["L", "R", "X"]], {(r, c): (v[k], 0) for r, v in rows.items() for k, c in enumerate("LRX")})
    cols = g.opponent_profiles(0)
    res = is_inherently_dominated(g, InherentQuery(WM, 0, 1, (0, 2)))
    assert not res.dominated
    assert res.failing_subset == (cols[2],)
    res = is_inherently_dominated(g, InherentQuery(WM, 0, 1, None))
    assert [c for c, _ in res.chain] == [tuple(cols), tuple(cols[1:]), (cols[2],)]
    assert res.chain[-1][1].dominator == mixed_strategy(0, {3: 1})


def test_bottom_row_weak_but_not_inherent():
    assert dominates(G_NOT, W, 0, 1, 0)
    res = is_inherently_dominated(G_NOT, InherentQuery(W, 0, 1, None))
    assert not res.dominated
    # the failing subset is the right column alone, where the rows tie
    assert res.failing_subset == (G_NOT.opponent_profiles(0)[1],)


def test_strictly_dominated_implies_inherently_weakly(small_games):
    for g in small_games[:12]:
        for i, k in enumerate(g.shape):
            for s, t in itertools.permutations(range(k), 2):
                if dominates(g, S, i, s, t):
                    assert is_inherently_dominated(g, InherentQuery(W, i, s, None)).dominated


def test_inherently_weakly_implies_weakly(small_games):
    for g in small_games[:12]:
        for i, found in enumerate(inherent_dominated_set(g, W)):
            for s in found:
                assert any(dominates(g, W, i, s, t) for t in range(g.shape[i]) if t != s)


def test_hereditary_bases_coincide_with_plain_dominance(small_games):
    for g in small_games[:8]:
        for rel in (S, PE, VW):
            inh = inherent_dominated_set(g, rel)
            plain = [
                [s for s in range(k) if any(dominates(g, rel, i, s, t) for t in range(k) if t != s)]
                for i, k in enumerate(g.shape)
            ]
            assert [sorted(x) for x in inh] == plain


def test_mixed_inherent_weak_equals_strict_mixed(small_games):
    # each side on a game object of its own, so neither reads the answers
    # the other left on its game's layer
    for g in small_games[:8]:
        inh = inherent_dominated_set(restrict(g, [range(k) for k in g.shape]), WM)
        sm = [[w.dominated for w in per] for per in mixed_dominated_set(g, SM)]
        assert [sorted(x) for x in inh] == [sorted(x) for x in sm]


def test_mixed_base_dominator_excludes_the_strategy_itself():
    # neither row dominates the other, so only the point mass on the row
    # itself could very weakly dominate it; the columns tie everywhere
    g = new_game(
        [["T", "B"], ["L", "R"]],
        {("T", "L"): (3, 0), ("T", "R"): (0, 0), ("B", "L"): (0, 0), ("B", "R"): (3, 0)},
    )
    assert inherent_dominated_set(g, VWM) == [[], [0, 1]]


def test_trivial_game_nothing_inherent():
    assert inherent_dominated_set(trivial_1x1(), W) == [[]]


def test_must_survive_scope_restricts_dominators():
    # with only the middle row allowed as a dominator, nothing dominates it
    res = is_inherently_dominated(G_INH, InherentQuery(W, 0, 1, (1,)))
    assert not res.dominated
    # allowing the top and bottom rows recovers inherent dominance
    res = is_inherently_dominated(G_INH, InherentQuery(W, 0, 1, (0, 2)))
    assert res.dominated


def test_must_survive_out_of_range_rejected():
    with pytest.raises(IndexOutOfRange):
        is_inherently_dominated(G_INH, InherentQuery(W, 0, 1, (5,)))


def test_many_profiles_weakly_but_not_strictly():
    # 16 opponent profiles are 65,535 subsets; the chain takes two links
    g = inherently_dominated_middle_3x4x4()
    res = is_inherently_dominated(g, InherentQuery(W, 0, 1, None))
    cols = g.opponent_profiles(0)
    assert res.chain == ((tuple(cols), 0), (tuple(cols[8:]), 2))
    assert not any(dominates(g, S, 0, 1, t) for t in (0, 2))
    assert inherent_dominated_set(g, W) == [[1], [], []]
    assert inherent_dominated_set(g, S) == [[], [], []]


@pytest.mark.parametrize("base", [W, WM])
def test_no_columns_is_vacuous(base):
    # no non-empty subset of no columns needs a dominator, although over no
    # columns nothing W- or WM-dominates M (no column where it is beaten)
    res = is_inherently_dominated(G_INH, InherentQuery(base, 0, 1, None), columns=[])
    assert res.dominated and res.chain == ()


@pytest.mark.parametrize("base", [W, WM])
@pytest.mark.parametrize("columns", [[(-1, 2)], [(-1, -1)], [(-1,)]])
def test_out_of_range_columns_rejected(base, columns):
    with pytest.raises(IndexOutOfRange):
        is_inherently_dominated(G_INH, InherentQuery(base, 0, 1, None), columns=columns)


def _inherent_answer(game, query, columns=None):
    return is_inherently_dominated(game, query, columns=columns).dominated


def test_columns_on_root_match_restriction(small_games):
    # asked of the root over the kept profiles, in root indices, inherent
    # dominance answers as it does on the restriction in local indices
    seen = set()
    for g in small_games[:10]:
        for kept in restrictions(g):
            sub = restrict(g, kept)
            for i in range(g.n):
                cols = list(itertools.product(*kept[:i], (-1,), *kept[i + 1 :]))
                for ls, s in enumerate(kept[i]):
                    for base in (W, NW, WM, NWM):
                        on_root = _inherent_answer(g, InherentQuery(base, i, s, kept[i]), cols)
                        local = InherentQuery(base, i, ls, tuple(range(len(kept[i]))))
                        assert on_root == _inherent_answer(sub, local)
                        seen.add(on_root)
    assert seen == {True, False}
