import itertools

import pytest

from dominia import (
    NW,
    NWM,
    PE,
    S,
    SM,
    VW,
    VWM,
    W,
    WM,
    InherentQuery,
    dominated_set,
    dominates,
    inherent_dominated_set,
    is_inherently_dominated,
    mixed_dominated_set,
    new_game,
    restrict,
)
from dominia.errors import IndexOutOfRange, SizeBoundExceeded
from dominia.gallery import (
    inherently_dominated_middle_3x2,
    trivial_1x1,
    weakly_but_not_inherently_dominated_2x2,
)
from dominia.pure import restrictions

G_INH = inherently_dominated_middle_3x2()
G_NOT = weakly_but_not_inherently_dominated_2x2()


def test_middle_row_inherently_weakly_dominated_with_table():
    res = is_inherently_dominated(G_INH, InherentQuery(W, 0, 1, None), want_table=True)
    assert res.dominated
    cols = G_INH.opponent_profiles(0)
    left, right = cols[0], cols[1]
    # T wins on the left column alone, B on the right and on both
    assert res.witness_table[(left,)] == 0
    assert res.witness_table[(right,)] == 2
    assert res.witness_table[(left, right)] == 2


def test_bottom_row_weak_but_not_inherent():
    assert dominates(G_NOT, W, 0, 1, 0)
    res = is_inherently_dominated(G_NOT, InherentQuery(W, 0, 1, None), want_table=True)
    assert not res.dominated
    # the failing subset is the right column alone, where the rows tie
    assert res.failing_subset == (G_NOT.opponent_profiles(0)[1],)


def test_strictly_dominated_implies_inherently_weakly(small_games):
    for g in small_games[:12]:
        per = dominated_set(g, S)
        for witnesses in per:
            for w in witnesses:
                assert is_inherently_dominated(
                    g, InherentQuery(W, w.player, w.dominated, None)
                ).dominated


def test_inherently_weakly_implies_weakly(small_games):
    for g in small_games[:12]:
        for i, found in enumerate(inherent_dominated_set(g, W)):
            weak = {w.dominated for w in dominated_set(g, W)[i]}
            for s in found:
                assert s in weak


def test_hereditary_bases_coincide_with_plain_dominance(small_games):
    for g in small_games[:8]:
        for rel in (S, PE, VW):
            inh = inherent_dominated_set(g, rel)
            plain = [[w.dominated for w in per] for per in dominated_set(g, rel)]
            assert [sorted(x) for x in inh] == [sorted(x) for x in plain]


def test_mixed_inherent_weak_equals_strict_mixed(small_games):
    for g in small_games[:8]:
        inh = inherent_dominated_set(g, WM)
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


def test_subset_bound_enforced_on_enumeration():
    with pytest.raises(SizeBoundExceeded):
        is_inherently_dominated(
            G_INH, InherentQuery(W, 0, 1, None), want_table=True, subset_bound=2
        )


@pytest.mark.parametrize("base", [W, WM])
@pytest.mark.parametrize("columns", [[(-1, 2)], [(-1, -1)], [(-1,)]])
def test_out_of_range_columns_rejected(base, columns):
    with pytest.raises(IndexOutOfRange):
        is_inherently_dominated(G_INH, InherentQuery(base, 0, 1, None), columns=columns)


def _inherent_answer(game, query, columns=None):
    try:
        return is_inherently_dominated(game, query, columns=columns).dominated
    except SizeBoundExceeded:
        return SizeBoundExceeded


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
