import itertools

from dominia import (
    PEM,
    PE,
    RelationSpec,
    SINGLE,
    STRICT,
    canonical_signature,
    dominates,
    equivalent,
    find_dominator,
    fully_reduce,
    maximal_reduce,
    new_game,
    normal_forms,
    purely_reduce,
    restrict,
)
from dominia import equivalence
from dominia.equivalence import partition_by_equivalence
from dominia.gallery import nonconfluent_weak_2x2, redundant_middle_3x2

G11 = nonconfluent_weak_2x2()


def test_different_shapes_not_equivalent():
    a = restrict(G11, [(0,), (0, 1)])
    b = restrict(G11, [(0, 1), (0,)])
    assert equivalent(a, b) is None


def test_self_equivalence_is_identity_shaped():
    ren = equivalent(G11, G11)
    assert ren is not None
    assert ren.maps == ((0, 1), (0, 1))


def test_row_swap_found_by_search():
    g1 = new_game([["T", "B"], ["L"]], {("T", "L"): (2, 1), ("B", "L"): (3, 1)})
    g2 = new_game([["X", "Y"], ["L"]], {("X", "L"): (3, 1), ("Y", "L"): (2, 1)})
    ren = equivalent(g1, g2)
    assert ren is not None
    assert ren.maps[0] == (1, 0)


def test_equivalence_reflexive_symmetric_transitive(small_games):
    for g in small_games[:6]:
        assert equivalent(g, g) is not None
    g1 = new_game([["a", "b"], ["x"]], {("a", "x"): (1, 0), ("b", "x"): (2, 0)})
    g2 = new_game([["c", "d"], ["x2"]], {("c", "x2"): (2, 0), ("d", "x2"): (1, 0)})
    g3 = new_game([["e", "f"], ["x3"]], {("e", "x3"): (1, 0), ("f", "x3"): (2, 0)})
    assert equivalent(g1, g2) and equivalent(g2, g1)
    assert equivalent(g2, g3)
    r13 = equivalent(g1, g3)
    assert r13 is not None
    for profile in g1.profiles():
        image = tuple(r13.maps[i][profile[i]] for i in range(g1.n))
        assert g1.payoff_vector(profile) == g3.payoff_vector(image)


def test_signature_is_renaming_invariant():
    g1 = new_game([["a", "b"], ["x"]], {("a", "x"): (1, 0), ("b", "x"): (2, 0)})
    g2 = new_game([["c", "d"], ["y"]], {("c", "y"): (2, 0), ("d", "y"): (1, 0)})
    assert canonical_signature(g1) == canonical_signature(g2)
    assert canonical_signature(g1) != canonical_signature(G11)


def _relabel_reversed(g):
    import itertools

    perms = [tuple(reversed(range(k))) for k in g.shape]
    labels = [tuple(g.strategies[i][p] for p in perm) for i, perm in enumerate(perms)]
    table = {}
    for new_profile in itertools.product(*(range(k) for k in g.shape)):
        old = tuple(perms[i][new_profile[i]] for i in range(g.n))
        table[new_profile] = g.payoff_vector(old)
    return new_game(labels, table)


def test_signature_soundness_on_equivalent_pairs(small_games):
    for g in small_games[:8]:
        relabeled = _relabel_reversed(g)
        assert equivalent(g, relabeled) is not None
        assert canonical_signature(relabeled) == canonical_signature(g)


def test_signature_collision_does_not_fool_equivalent():
    # same payoff multisets per row set, but no bijection preserves profiles
    g1 = new_game(
        [["a", "b"], ["x", "y"]],
        {("a", "x"): (0, 0), ("a", "y"): (1, 0), ("b", "x"): (1, 0), ("b", "y"): (0, 0)},
    )
    g2 = new_game(
        [["c", "d"], ["u", "v"]],
        {("c", "u"): (0, 0), ("c", "v"): (1, 0), ("d", "u"): (0, 0), ("d", "v"): (1, 0)},
    )
    assert equivalent(g1, g2) is None


def _cycles(sizes):
    """A two-player game with payoff (1,1) on the edges of one even cycle per
    block of rows and columns (row r of a block of m meets its columns r and
    r+1 mod m) and (0,0) elsewhere: every strategy meets two edges."""
    block = [(b, m, r) for b, m in enumerate(sizes) for r in range(m)]
    labels = [[f"r{k}" for k in range(len(block))], [f"c{k}" for k in range(len(block))]]
    payoffs = {
        (labels[0][x], labels[1][y]): (1, 1) if bx == by and ry in (rx, (rx + 1) % m) else (0, 0)
        for (x, (bx, m, rx)), (y, (by, _, ry)) in itertools.product(enumerate(block), repeat=2)
    }
    return new_game(labels, payoffs)


def test_cycle_games_refuted_before_any_full_renaming(monkeypatch):
    # a 12-cycle against two 6-cycles: equal fingerprints, not equivalent;
    # each profile is checked once mapped, so no full renaming is tried
    # (720 * 720 of them are when only full renamings are verified)
    calls = []
    verify = equivalence._verify_renaming
    monkeypatch.setattr(equivalence, "_verify_renaming", lambda *a: calls.append(a) or verify(*a))
    one, two = _cycles([6]), _cycles([3, 3])
    assert canonical_signature(one) == canonical_signature(two)
    assert equivalent(one, two) is None and calls == []
    assert equivalent(two, _cycles([3, 3])) is not None and len(calls) == 1


def test_reductions_keep_a_degenerate_endpoint():
    # PE removes both of the column player's strategies at once: 2x0
    g = new_game(
        [["T", "B"], ["L", "R"]],
        {("T", "L"): (1, 0), ("T", "R"): (1, 0), ("B", "L"): (0, 0), ("B", "R"): (0, 0)},
    )
    end = maximal_reduce(g, PE).endpoint
    assert end.shape == (2, 0)
    assert purely_reduce(end).shape == (1, 0) and fully_reduce(end).shape == (1, 0)


def test_purely_reduce_removes_pe_classes():
    top = restrict(G11, [(0,), (0, 1)])  # L and R payoff equivalent here
    reduced = purely_reduce(top)
    assert reduced.shape == (1, 1)
    assert reduced.strategies[1] == ("L",)  # least index representative


def test_purely_reduce_idempotent_and_pe_free(small_games):
    for g in small_games[:10]:
        reduced = purely_reduce(g)
        assert purely_reduce(reduced) == reduced
        for i, k in enumerate(reduced.shape):
            assert not any(dominates(reduced, PE, i, s, t) for s in range(k) for t in range(k) if s != t)


def test_purely_reduce_endpoint_matches_enumerated_normal_forms(small_games):
    for g in small_games[:6]:
        rep = normal_forms(g, RelationSpec(PE, STRICT, SINGLE), up_to_renaming=True)
        reduced = purely_reduce(g)
        for nf in rep.normal_forms:
            assert equivalent(reduced, nf) is not None


def test_fully_reduce_removes_randomized_redundance():
    g = redundant_middle_3x2()
    reduced = fully_reduce(g)
    assert reduced.shape == (2, 2)
    assert reduced.strategies[0] == ("T", "B")


def test_fully_reduce_noop_without_redundancy():
    g = new_game([["T", "B"], ["L"]], {("T", "L"): (1, 0), ("B", "L"): (2, 0)})
    assert fully_reduce(g) == g


def test_fully_reduce_leaves_no_redundant_strategy(small_games):
    for g in small_games[:8]:
        reduced = fully_reduce(g)
        for i in range(reduced.n):
            k = len(reduced.strategies[i])
            if k < 2:
                continue
            for s in range(k):
                assert find_dominator(reduced, PEM, i, s, [t for t in range(k) if t != s]) is None


def test_partition_groups_equivalent_games():
    a = new_game([["a", "b"], ["x"]], {("a", "x"): (1, 0), ("b", "x"): (2, 0)})
    b = new_game([["c", "d"], ["y"]], {("c", "y"): (2, 0), ("d", "y"): (1, 0)})
    c = new_game([["e", "f"], ["z"]], {("e", "z"): (1, 0), ("f", "z"): (3, 0)})
    classes = partition_by_equivalence([a, b, c])
    assert sorted(map(sorted, classes)) == [[0, 1], [2]]


def test_partition_builds_fingerprints_only_to_compare(monkeypatch):
    # one game, or games of different shapes, are never compared
    def refuse(game):
        raise AssertionError("fingerprints built for a game nothing is compared with")

    monkeypatch.setattr(equivalence, "_fingerprints", refuse)
    assert partition_by_equivalence([G11]) == [[0]]
    assert partition_by_equivalence([G11, restrict(G11, [(0,), (0, 1)]), restrict(G11, [(0, 1), (1,)])]) == [[0], [1], [2]]
