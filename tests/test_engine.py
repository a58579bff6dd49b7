import itertools
import sys
import threading
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from dominia import (
    ANY,
    LOOSE,
    NW,
    NWM,
    PE,
    PEM,
    S,
    SINGLE,
    SM,
    STRICT,
    VW,
    VWM,
    W,
    WM,
    CheckOutcome,
    ConfluenceReport,
    Game,
    Inherent,
    InherentQuery,
    RelationSpec,
    check_left_commutes,
    check_one_at_a_time,
    check_one_step_closed,
    check_tdi_plus,
    check_tdi_plus_plus,
    check_weak_confluence,
    dominates,
    equivalent,
    find_dominator,
    fully_reduce,
    inherent_dominated_set,
    is_hereditary,
    is_inherently_dominated,
    maximal_reduce,
    new_game,
    normal_forms,
    partition_by_equivalence,
    purely_reduce,
    restrict,
    single_step_trace,
    structured_elimination_scenario,
    successors,
    union,
)
from dominia import engine, mixed
from dominia.engine import _searches
from dominia.mixed import WitnessVerificationError
from dominia.errors import SizeBoundExceeded
from dominia.gallery import (
    mixable_middle_3x2,
    nonconfluent_weak_2x2,
    trivial_1x1,
)

G11 = nonconfluent_weak_2x2()
NW_STRICT_ANY = RelationSpec(NW, STRICT, ANY)
NW_STRICT_SINGLE = RelationSpec(NW, STRICT, SINGLE)


class TestSuccessors:
    def test_reference_game_bulk_successors(self):
        succ = successors(G11, NW_STRICT_ANY)
        shapes = sorted(g.shape for g in succ)
        assert shapes == [(1, 1), (1, 2), (2, 1)]  # both single removals plus the joint one

    def test_reference_game_single_successors(self):
        succ = successors(G11, NW_STRICT_SINGLE)
        assert sorted(g.shape for g in succ) == [(1, 2), (2, 1)]

    def test_normal_form_has_no_successors(self):
        assert successors(trivial_1x1(), RelationSpec(S, STRICT, ANY)) == ()

    def test_loose_equals_strict_for_strict_dominance(self, small_games):
        for g in small_games[:10]:
            assert successors(g, RelationSpec(S, LOOSE, ANY)) == successors(g, RelationSpec(S, STRICT, ANY))

    def test_single_subset_of_bulk(self, small_games):
        for g in small_games[:10]:
            for rel in (S, W, PE):
                single = set(successors(g, RelationSpec(rel, STRICT, SINGLE)))
                bulk = set(successors(g, RelationSpec(rel, STRICT, ANY)))
                assert single <= bulk

    def test_strict_never_degenerate(self, small_games):
        for g in small_games[:10]:
            for rel in (W, PE, union(NW, PE)):
                for succ in successors(g, RelationSpec(rel, STRICT, ANY)):
                    assert not succ.degenerate

    def test_size_bound(self):
        g = nonconfluent_weak_2x2()
        with pytest.raises(SizeBoundExceeded):
            successors(g, NW_STRICT_ANY, bound=3)

    def test_pointwise_inherent_matches_base(self, small_games):
        # for pointwise bases the full opponent profile set decides inherent
        # dominance, so both relations step alike under either arrow
        for g in small_games:
            for rel in (S, VW, PE, SM, VWM, PEM):
                for arrow in (STRICT, LOOSE):
                    assert successors(g, RelationSpec(Inherent(rel), arrow, ANY)) == successors(
                        g, RelationSpec(rel, arrow, ANY)
                    )

    def test_strict_inherent_step_keeps_every_chain_dominator(self):
        # a1 weakly dominates the clones a2 and a3 given L, but given R alone
        # only the other clone dominates each (payoff equivalence): a strict
        # step may remove one clone, not both
        g = new_game(
            [["a1", "a2", "a3"], ["L", "R"]],
            {("a1", "L"): (1, 0), ("a1", "R"): (1, 1), ("a2", "L"): (0, 1), ("a2", "R"): (1, 0),
             ("a3", "L"): (0, 1), ("a3", "R"): (1, 0)},
        )
        spec = RelationSpec(Inherent(union(W, PE)), STRICT, ANY)
        assert [h.strategies[0] for h in successors(g, spec)] == [("a1", "a2"), ("a1", "a3")]


class TestSuccessorOracle:
    """Cross-check the engine against a direct reading of the step condition:
    enumerate every proper restriction and test each removed strategy for a
    dominator in the required set, using the naive per-definition helpers."""

    @staticmethod
    def _brute(g, naive, arrow):
        import itertools

        per_player = []
        for i in range(g.n):
            k = len(g.strategies[i])
            subsets = [
                combo
                for size in range(1, k + 1)
                for combo in itertools.combinations(range(k), size)
            ]
            per_player.append(subsets)
        out = []
        full = tuple(tuple(range(k)) for k in g.shape)
        for kept in itertools.product(*per_player):
            if kept == full:
                continue
            ok = True
            for i in range(g.n):
                removed = [s for s in range(len(g.strategies[i])) if s not in kept[i]]
                pool = kept[i] if arrow == STRICT else range(len(g.strategies[i]))
                for s in removed:
                    if not any(t != s and naive(g, i, s, t) for t in pool):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                from dominia import restrict

                out.append(restrict(g, kept))
        return sorted(out, key=lambda x: x.strategies)

    def test_pure_relations_match_brute_force(self, small_games):
        import helpers

        cases = {
            S: helpers.naive_strict,
            W: helpers.naive_weak,
            NW: helpers.naive_nice_weak,
            PE: helpers.naive_payoff_equivalent,
        }
        for g in small_games[:8]:
            for rel, naive in cases.items():
                for arrow in (STRICT, LOOSE):
                    mine = sorted(
                        successors(g, RelationSpec(rel, arrow, ANY)), key=lambda x: x.strategies
                    )
                    assert mine == self._brute(g, naive, arrow)

    def test_strict_mixed_matches_support_oracle(self, small_games):
        from dominia.oracles import sm_dominated_oracle

        for g in [x for x in small_games if x.total_strategies <= 8][:4]:
            import itertools

            from dominia import restrict

            per_player = []
            for i in range(g.n):
                k = len(g.strategies[i])
                per_player.append(
                    [c for size in range(1, k + 1) for c in itertools.combinations(range(k), size)]
                )
            full = tuple(tuple(range(k)) for k in g.shape)
            expected = []
            for kept in itertools.product(*per_player):
                if kept == full:
                    continue
                ok = True
                for i in range(g.n):
                    removed = [s for s in range(len(g.strategies[i])) if s not in kept[i]]
                    for s in removed:
                        if not sm_dominated_oracle(g, i, s, kept[i]):
                            ok = False
                            break
                    if not ok:
                        break
                if ok:
                    expected.append(restrict(g, kept))
            mine = sorted(successors(g, RelationSpec(SM, STRICT, ANY)), key=lambda x: x.strategies)
            assert mine == sorted(expected, key=lambda x: x.strategies)


class TestNormalForms:
    def test_reference_game_two_normal_forms_single_step(self):
        rep = normal_forms(G11, NW_STRICT_SINGLE)
        assert len(rep.normal_forms) == 2
        assert len(rep.classes) == 2
        assert not rep.unique
        assert rep.counterexample is not None

    def test_reference_game_three_normal_forms_bulk(self):
        # the joint removal reaches the 1x1 game in one bulk step
        rep = normal_forms(G11, NW_STRICT_ANY)
        assert sorted(nf.shape for nf in rep.normal_forms) == [(1, 1), (1, 2), (2, 1)]

    def test_combined_relation_single_class(self):
        rep = normal_forms(G11, RelationSpec(union(NW, PE), STRICT, SINGLE), up_to_renaming=True)
        assert rep.unique and len(rep.classes) == 1
        for nf in rep.normal_forms:
            assert nf.shape == (1, 1)
            assert nf.payoff_vector((0, 0)) == (F(2), F(1))

    def test_strict_unique_on_samples(self, small_games):
        for g in small_games[:12]:
            rep = normal_forms(g, RelationSpec(S, STRICT, ANY))
            assert rep.unique and len(rep.normal_forms) == 1

    def test_inherent_relations_unique_on_samples(self, small_games):
        picks = [g for g in small_games if g.total_strategies <= 7][:4]
        assert picks
        for g in picks:
            for rel in (Inherent(W), Inherent(NW), Inherent(NWM)):
                rep = normal_forms(g, RelationSpec(rel, STRICT, ANY))
                assert rep.unique and len(rep.normal_forms) == 1

    def test_explored_states_within_lattice_bound(self, small_games):
        for g in small_games[:6]:
            rep = normal_forms(g, RelationSpec(W, STRICT, ANY))
            lattice = 1
            for k in g.shape:
                lattice *= 2**k - 1
            assert rep.explored_states <= lattice


def _brute_force_renaming_failure(game, spec):
    """First pair of one-step reducts, in BFS order over the reachable
    games, whose reach sets hold no two renaming-equivalent games."""
    succ = {}

    def step(g):
        if g not in succ:
            succ[g] = successors(g, spec)
        return succ[g]

    order, seen = [game], {game}
    for g in order:
        for h in step(g):
            if h not in seen:
                seen.add(h)
                order.append(h)
    reach = {}

    def reach_of(g):
        if g not in reach:
            reach[g] = {g}.union(*(reach_of(h) for h in step(g)))
        return reach[g]

    for g in order:
        for b, c in itertools.combinations(step(g), 2):
            if all(equivalent(x, y) is None for x in reach_of(b) for y in reach_of(c)):
                return (b, c)
    return None


class TestWeakConfluence:
    def test_reference_counterexample_pair(self):
        out = check_weak_confluence(G11, NW_STRICT_SINGLE)
        assert not out.ok
        assert sorted(g.shape for g in out.counterexample) == [(1, 2), (2, 1)]

    def test_strict_dominance_weakly_confluent(self, small_games):
        for g in small_games[:10]:
            assert check_weak_confluence(g, RelationSpec(S, STRICT, ANY)).ok

    def test_pe_single_step_confluent_up_to_renaming(self, small_games):
        for g in small_games[:10]:
            assert check_weak_confluence(g, RelationSpec(PE, STRICT, SINGLE), up_to_renaming=True).ok

    def test_reference_fails_up_to_renaming(self):
        out = check_weak_confluence(G11, NW_STRICT_SINGLE, up_to_renaming=True)
        assert not out.ok
        assert sorted(g.shape for g in out.counterexample) == [(1, 2), (2, 1)]

    @pytest.mark.parametrize("relation", [PE, union(NW, PE), NW, W], ids=str)
    @pytest.mark.parametrize("step", [ANY, SINGLE])
    def test_up_to_renaming_matches_brute_force(self, small_games, relation, step):
        spec = RelationSpec(relation, STRICT, step)
        for g in [G11, *small_games]:
            out = check_weak_confluence(g, spec, up_to_renaming=True)
            expected = _brute_force_renaming_failure(g, spec)
            assert out.ok == (expected is None)
            if expected is not None:
                assert out.counterexample == expected


class TestOneStepClosed:
    def test_reference_game_fails_at_root(self):
        out = check_one_step_closed(G11, NW_STRICT_ANY)
        assert not out.ok
        assert out.counterexample == G11

    def test_strict_mixed_closed_on_samples(self, small_games):
        for g in small_games[:8]:
            assert check_one_step_closed(g, RelationSpec(SM, STRICT, ANY)).ok

    def test_trivial_game_closed(self):
        assert check_one_step_closed(trivial_1x1(), NW_STRICT_ANY).ok


class TestOneAtATime:
    def test_strict_dominance(self, small_games):
        for g in small_games[:10]:
            assert check_one_at_a_time(g, S)

    def test_payoff_equivalence(self, small_games):
        for g in small_games[:10]:
            assert check_one_at_a_time(g, PE)

    def test_inherent_weak(self, small_games):
        for g in small_games[:4]:
            assert check_one_at_a_time(g, Inherent(W))

    def test_nice_weak_can_fail(self):
        # bulk elimination reaches the 1x1 game; single steps cannot
        assert not check_one_at_a_time(G11, NW)


class TestLeftCommutes:
    def test_pe_with_nice_weak_and_strict(self, small_games):
        for g in small_games[:8]:
            for second in (NW, W, S):
                assert check_left_commutes(
                    g, RelationSpec(PE, STRICT, ANY), RelationSpec(second, STRICT, ANY)
                ).ok

    def test_vacuous_when_no_transitions(self):
        g = trivial_1x1()
        assert check_left_commutes(g, RelationSpec(PE, STRICT, ANY), RelationSpec(PE, STRICT, ANY)).ok

    def test_mixed_pairs(self, small_games):
        for g in small_games[:4]:
            for second in (NWM, WM):
                assert check_left_commutes(
                    g, RelationSpec(PEM, STRICT, ANY), RelationSpec(second, STRICT, ANY)
                ).ok


class TestMaximalReduce:
    def test_reference_game_one_step(self):
        path = maximal_reduce(G11, W)
        assert len(path.steps) == 1
        step = path.steps[0]
        assert step.removed == (("B",), ("R",))
        assert step.result.shape == (1, 1)
        assert step.strict_valid and not step.degenerate

    def test_no_dominated_strategies_empty_path(self):
        assert maximal_reduce(trivial_1x1(), W).steps == ()

    def test_matches_unique_strict_normal_form(self, small_games):
        for g in small_games[:10]:
            rep = normal_forms(g, RelationSpec(S, STRICT, ANY))
            assert maximal_reduce(g, S).endpoint == rep.normal_forms[0]

    def test_mixed_and_inherent_match_unique_strict_sm_normal_form(self, small_games):
        for g in small_games:
            [nf] = normal_forms(g, RelationSpec(SM, STRICT, ANY)).normal_forms
            for rel in (SM, Inherent(SM)):
                path = maximal_reduce(g, rel)
                assert all(step.strict_valid for step in path.steps)
                assert path.endpoint == nf

    def test_all_zero_game_degenerates_under_pe(self):
        g = new_game(
            [["T", "B"], ["L", "R"]],
            {p: (0, 0) for p in [("T", "L"), ("T", "R"), ("B", "L"), ("B", "R")]},
        )
        path = maximal_reduce(g, PE)
        assert path.steps[-1].degenerate
        assert path.endpoint.degenerate

    @pytest.mark.parametrize("base", [S, W, SM, WM], ids=str)
    def test_inherent_over_no_columns_removes_every_strategy(self, base):
        # the column player has no strategies left, so player 0 has no
        # columns: every strategy is vacuously inherently dominated, by an
        # empty chain, and one step removes them all
        d = restrict(
            new_game([["a", "b"], ["x"]], {("a", "x"): (1, 0), ("b", "x"): (0, 0)}),
            [[0, 1], []],
            allow_degenerate=True,
        )
        dominated = inherent_dominated_set(d, base)
        assert dominated == [[0, 1], []]
        [step] = maximal_reduce(d, Inherent(base)).steps
        assert step.removed == tuple(tuple(d.strategies[i][s] for s in found) for i, found in enumerate(dominated))
        assert step.strict_valid and step.degenerate


class TestSingleStepTrace:
    def test_trace_reaches_normal_form(self):
        path = single_step_trace(G11, NW_STRICT_SINGLE)
        assert path.steps
        final = path.endpoint
        assert successors(final, NW_STRICT_SINGLE) == ()


class TestStructuredElimination:
    def test_reference_game_scenario(self):
        rep = structured_elimination_scenario(G11, NW, PE)
        assert rep.all_equivalent and rep.closed_under_union
        for h in rep.endpoints:
            assert h.shape == (1, 1)
            assert h.payoff_vector((0, 0)) == (F(2), F(1))

    def test_unique_base_normal_form_no_pe(self):
        g = new_game([["T", "B"], ["L"]], {("T", "L"): (1, 0), ("B", "L"): (0, 0)})
        rep = structured_elimination_scenario(g, W, PE)
        assert len(rep.base_normal_forms) == 1
        assert rep.endpoints[0] == rep.base_normal_forms[0]


class TestBisimilarity:
    def test_transitions_transport_across_renamings(self, small_games):
        import itertools

        for g in small_games[:5]:
            perms = [tuple(reversed(range(k))) for k in g.shape]
            labels = [tuple(g.strategies[i][p] for p in perms[i]) for i in range(g.n)]
            table = {}
            for new_profile in itertools.product(*(range(k) for k in g.shape)):
                old = tuple(perms[i][new_profile[i]] for i in range(g.n))
                table[new_profile] = g.payoff_vector(old)
            twin = new_game(labels, table)
            ren = equivalent(g, twin)
            assert ren is not None
            succ_g = successors(g, RelationSpec(W, STRICT, SINGLE))
            succ_twin = set(successors(twin, RelationSpec(W, STRICT, SINGLE)))
            for child in succ_g:
                kept = tuple(
                    tuple(sorted(g.strategies[i].index(lab) for lab in child.strategies[i]))
                    for i in range(g.n)
                )
                image_kept = tuple(tuple(sorted(ren.maps[i][s] for s in kept[i])) for i in range(g.n))
                from dominia import restrict

                image = restrict(twin, image_kept)
                assert image in succ_twin
                assert equivalent(child, image) is not None


def _brute_successors(root, spec, kept):
    """One-step reducts of the restriction ``kept`` of ``root``, as sorted
    kept tuples, read straight off the step definition on the restricted
    game: a removal set R of player i is valid when it is non-empty, leaves
    the player a strategy, and every s in R is dominated from kept - {s}
    (loose) or from kept - R (strict)."""
    sub = restrict(root, kept)
    rel = spec.relation

    def dominated(i, s, allowed):
        if not allowed:
            return False
        if isinstance(rel, Inherent):
            return is_inherently_dominated(sub, InherentQuery(rel.base, i, s, allowed)).dominated
        if rel.mixed:
            return find_dominator(sub, rel, i, s, allowed) is not None
        return any(dominates(sub, rel, i, s, t) for t in allowed)

    options = []
    for i, k in enumerate(sub.shape):
        valid = [()]
        for size in range(1, k):
            for removed in itertools.combinations(range(k), size):
                if all(
                    dominated(i, s, tuple(t for t in range(k) if t not in (removed if spec.arrow == STRICT else (s,))))
                    for s in removed
                ):
                    valid.append(removed)
        options.append(valid)
    out = []
    for combo in itertools.product(*options):
        count = sum(map(len, combo))
        if count and not (spec.step == SINGLE and count > 1):
            out.append(tuple(tuple(r for ls, r in enumerate(kept[i]) if ls not in combo[i]) for i in range(root.n)))
    return sorted(out)


def _kept_tuple_bfs(game, spec):
    """BFS order, successors and reach sets of the reduction system, as kept
    tuples, from :func:`_brute_successors`."""
    start = tuple(tuple(range(k)) for k in game.shape)
    succ, order = {}, [start]
    for kept in order:
        succ[kept] = _brute_successors(game, spec, kept)
        order += [x for x in succ[kept] if x not in order]
    reach = {}
    for kept in sorted(order, key=lambda x: sum(map(len, x))):
        reach[kept] = {kept}.union(*(reach[x] for x in succ[kept]))
    return order, succ, reach


def _reference_failure(game, order, succ, reach, up_to_renaming):
    """The first pair of one-step reducts, in BFS order, whose reach sets
    share no state (or no renaming class), as games; None if none."""
    label = {x: x for x in order}
    if up_to_renaming:
        for cls in partition_by_equivalence(restrict(game, x) for x in order):
            label.update((order[k], cls[0]) for k in cls)
    for a in order:
        for b, c in itertools.combinations(succ[a], 2):
            if not {label[x] for x in reach[b]} & {label[x] for x in reach[c]}:
                return (restrict(game, b), restrict(game, c))
    return None


def _reference_report(game, up_to_renaming, order, succ, reach):
    nf_games = tuple(restrict(game, x) for x in sorted(x for x in order if not succ[x]))
    classes = tuple(tuple(c) for c in partition_by_equivalence(nf_games))
    unique = len(classes) == 1 if up_to_renaming else len(nf_games) == 1
    failure = None if unique else _reference_failure(game, order, succ, reach, up_to_renaming)
    return ConfluenceReport(nf_games, classes, len(order), unique, failure)


@pytest.mark.parametrize(
    "relation",
    [S, union(NW, PE), PE, SM, WM, NWM, PEM, union(NWM, PEM), Inherent(WM), Inherent(union(W, PE))],
    ids=str,
)
@settings(max_examples=40, deadline=None)
@given(game=helpers.small_games())
def test_bitmask_engine_matches_kept_tuple_bfs(relation, game):
    # successors in order, BFS order, reach sets, normal forms and weak
    # confluence of the bitmask engine against a BFS over kept tuples written
    # here; the BFS asks every mixed and inherent question afresh, the engine
    # reuses answers across states, and the reference pair scan labels every
    # state where the engine decides from the normal forms
    for arrow, step in itertools.product((STRICT, LOOSE), (ANY, SINGLE)):
        spec = RelationSpec(relation, arrow, step)
        order, succ, reach = _kept_tuple_bfs(game, spec)
        [search] = _searches(game, None, spec)
        states = search.states()
        assert [search.key(st) for st in states] == order
        for st in states:
            assert [search.key(x) for x in search.successors(st)] == succ[search.key(st)]
        reached = search.reach(states, {st: k for k, st in enumerate(states)})
        for st in states:
            assert {search.key(x) for k, x in enumerate(states) if reached[st] >> k & 1} == reach[search.key(st)]
        assert normal_forms(game, spec) == _reference_report(game, False, order, succ, reach)
        failure = _reference_failure(game, order, succ, reach, False)
        assert check_weak_confluence(game, spec) == CheckOutcome(failure is None, failure)


def test_dominance_layer_reuses_answers_monotone_in_the_allowed_set(monkeypatch):
    # over the same opponents' kept strategies, a "no" on allowed A refutes
    # every subset of A and a "yes" with support S answers every allowed set
    # that contains S; a pointwise "yes" also answers on fewer columns, and a
    # pointwise "no" on more columns; only other questions are decided
    # afresh (by the mask rules, then the LP), one tag at a time
    game = new_game(
        [["T", "M", "B", "X"], ["L", "R"]],
        {
            ("T", "L"): (3, 0), ("T", "R"): (0, 0),
            ("M", "L"): (1, 0), ("M", "R"): (1, 0),
            ("B", "L"): (0, 0), ("B", "R"): (3, 0),
            ("X", "L"): (0, 0), ("X", "R"): (0, 0),
        },
    )
    calls = _count_fresh_decisions(monkeypatch)
    layer = engine._Dominance(game)
    T, B, X = 1 << 0, 1 << 2, 1 << 3
    start = layer.start
    no_x = start & ~(1 << layer.off[0] + 3)  # same opponents' kept strategies
    no_r = start & ~(1 << layer.off[1] + 1)  # other columns
    assert layer.witness(SM, start, 0, 1, T | X) is None
    assert layer.witness(SM, start, 0, 1, T) is None
    assert layer.witness(SM, start, 0, 1, T | B) == T | B
    assert layer.witness(SM, start, 0, 1, T | B | X) == T | B
    assert layer.witness(SM, no_x, 0, 1, T | B) == T | B
    assert calls == [("SM", (0, 3)), ("SM", (0, 2))]
    assert layer.witness(SM, start, 0, 1, B) is None
    assert layer.witness(SM, no_r, 0, 1, T | B) == T | B
    assert layer.witness(SM, no_r, 0, 1, T) == T
    assert calls == [("SM", (0, 3)), ("SM", (0, 2)), ("SM", (2,)), ("SM", (0,))]
    # M beats T and X at R alone, so no mix of them dominates it there, under
    # any tag: a union asks its tags one at a time, and that one column's
    # refutation answers PEM, and both tags on more columns (a "no" that
    # holds only over all its columns is not reused on more columns:
    # test_one_column_refutations_are_reused_on_more_columns)
    no_l = start & ~(1 << layer.off[1])
    pem, nwm = ("PEM", (0, 3)), ("NWM", (0, 3))
    for relation, asked in ((PEM, [pem]), (union(NWM, PEM), [nwm])):
        del calls[:]
        layer = engine._Dominance(game)
        assert layer.witness(relation, no_l, 0, 1, T | X) is None
        assert layer.witness(relation, start, 0, 1, T | X) is None
        assert calls == asked
    # inherent answers are hereditary both ways: a yes (a chain with support
    # T and B) answers on fewer columns, a no (failing at R) on more
    chains = []
    chain = engine._chain

    def counted_chain(*args, **kwargs):
        chains.append(args[1].must_survive)
        return chain(*args, **kwargs)

    monkeypatch.setattr(engine, "_chain", counted_chain)
    layer = engine._Dominance(game)
    assert layer.witness(Inherent(WM), start, 0, 1, T | B) == T | B
    assert layer.witness(Inherent(WM), no_r, 0, 1, T | B) == T | B
    assert layer.witness(Inherent(WM), no_l, 0, 1, T | X) is None
    assert layer.witness(Inherent(WM), start, 0, 1, T | X) is None
    assert chains == [(0, 2), (0, 3)]


def _count_fresh_decisions(monkeypatch) -> list:
    """The (tag, allowed) of every mixed question the engine's layers decide
    afresh from here on: each goes to the mask rules first, and to its LP
    decider (:func:`mixed._decided`) only if they leave it open."""
    calls = []

    def counted(tag, i, s, allowed, *masks):
        calls.append((tag, allowed))
        return mixed._by_masks(tag, i, s, allowed, *masks)

    monkeypatch.setattr(engine, "_by_masks", counted)
    return calls


def _row_game(t, x):
    # the row player's payoffs from T and from X at L and at R; the column
    # player gets 0 throughout, so every tie of the row player is compatible
    return new_game(
        [["T", "X"], ["L", "R"]],
        {("T", "L"): (t[0], 0), ("T", "R"): (t[1], 0), ("X", "L"): (x[0], 0), ("X", "R"): (x[1], 0)},
    )


def _one_strict_column():
    # T weakly dominates X for the row player, strictly at L alone
    return _row_game((1, 0), (0, 0))


def test_weak_mixed_yes_is_checked_again_on_fewer_columns():
    # the WM witness over L and R is strict at L only: dropping L leaves a
    # tie, so the stored answer must fail its check and not be reused
    layer = engine._Dominance(_one_strict_column())
    no_l = layer.start & ~(1 << layer.off[1])
    assert layer.witness(WM, layer.start, 0, 1, 1) == 1
    assert layer.witness(WM, no_l, 0, 1, 1) is None


def test_weak_mixed_no_is_not_reused_on_more_columns():
    # X ties T at R, and T beats it at L: "no" over R alone, "yes" over both
    layer = engine._Dominance(_one_strict_column())
    no_l = layer.start & ~(1 << layer.off[1])
    assert layer.witness(WM, no_l, 0, 1, 1) is None
    assert layer.witness(WM, layer.start, 0, 1, 1) == 1


def test_one_layer_keeps_answers_per_relation():
    # T weakly dominates X, strictly at L alone: over the same columns a weak
    # "yes" does not answer the strict question, nor a strict "no" the weak
    # one, for mixed answers and for the pure masks alike
    for weak, strict in ((WM, SM), (W, S)):
        layer = engine._Dominance(_one_strict_column())
        assert layer.witness(weak, layer.start, 0, 1, 1) == 1
        assert layer.witness(strict, layer.start, 0, 1, 1) is None
        layer = engine._Dominance(_one_strict_column())
        assert layer.witness(strict, layer.start, 0, 1, 1) is None
        assert layer.witness(weak, layer.start, 0, 1, 1) == 1


def test_mixed_answers_are_reused_across_implied_tags(monkeypatch):
    # SM ⊆ NWM ⊆ WM ⊆ VWM and PEM ⊆ VWM over non-empty columns: a yes
    # answers every larger tag and a "no" every smaller one, with no
    # further fresh decision
    calls = _count_fresh_decisions(monkeypatch)
    for t, x, first, answer, implied in (
        ((1, 1), (0, 0), SM, 1, (NWM, WM, VWM)),
        ((1, 0), (0, 0), NWM, 1, (WM,)),
        ((1, 0), (0, 1), WM, None, (NWM, SM)),  # kept as X's VWM "no" at R
        ((1, 0), (1, 0), WM, None, (NWM, SM)),  # X is never worse: kept as WM's
        ((0, 0), (0, 0), PEM, 1, (VWM,)),
    ):
        del calls[:]
        layer = engine._Dominance(_row_game(t, x))
        assert layer.witness(first, layer.start, 0, 1, 1) == answer
        assert [layer.witness(rel, layer.start, 0, 1, 1) for rel in implied] == [answer] * len(implied)
        assert calls == [(str(first), (0,))]


def test_one_column_refutations_are_reused_on_more_columns(monkeypatch):
    # X beats T at R alone: that one column refutes every tag, so the
    # refutation, kept over R, answers every later question whose columns
    # hold R.  A never-worse WM "no", certificate (None, i), holds over its
    # own columns only: asked again over more columns, where T may beat X
    calls = _count_fresh_decisions(monkeypatch)
    layer = engine._Dominance(_row_game((1, 0), (0, 1)))
    no_l = layer.start & ~(1 << layer.off[1])
    assert layer.witness(WM, no_l, 0, 1, 1) is None
    assert [layer.witness(rel, layer.start, 0, 1, 1) for rel in (SM, WM, NWM, VWM, PEM)] == [None] * 5
    assert calls == [("WM", (0,))]
    layer = engine._Dominance(_row_game((1, 0), (1, 0)))
    no_r = layer.start & ~(1 << layer.off[1] + 1)
    del calls[:]
    assert layer.witness(WM, no_r, 0, 1, 1) is None
    assert layer.witness(WM, layer.start, 0, 1, 1) is None
    assert calls == [("WM", (0,))] * 2
    layer = engine._Dominance(_one_strict_column())
    del calls[:]
    assert layer.witness(WM, no_r, 0, 1, 1) == 1
    assert layer.witness(WM, layer.start & ~(1 << layer.off[1]), 0, 1, 1) is None
    assert layer.witness(WM, layer.start, 0, 1, 1) == 1
    assert calls == [("WM", (0,))] * 3


@pytest.mark.parametrize(
    "relation, certificate",
    [
        pytest.param(WM, (0, 0), id="beaten"),  # T beats X at L: no tag is refuted there
        pytest.param(SM, (1, 0), id="tied"),  # X ties T at R, which refutes SM there but not VWM
    ],
)
def test_engine_checks_the_rules_certificates(monkeypatch, relation, certificate):
    # a refutation the rules get wrong fails its check on the Fractions, as
    # the tag it would be kept under, before the layer keeps it
    monkeypatch.setattr(engine, "_by_masks", lambda *query: (None, certificate, "VWM"))
    layer = engine._Dominance(_one_strict_column())
    with pytest.raises(WitnessVerificationError):
        layer.witness(relation, layer.start, 0, 1, 1)


def test_mixed_answers_are_not_reused_against_the_inclusions():
    # X is payoff-equivalent to T: VWM-dominated but not WM-dominated, so a
    # WM "no" does not answer VWM, nor a VWM yes WM
    for order in ((WM, VWM), (VWM, WM)):
        layer = engine._Dominance(_row_game((0, 0), (0, 0)))
        assert {rel: layer.witness(rel, layer.start, 0, 1, 1) for rel in order} == {WM: None, VWM: 1}


def test_vacuous_strict_yes_answers_no_weak_tag():
    # once the column player keeps nothing, SM holds vacuously while WM and
    # NWM fail, each needing a strict column: an SM yes, there or over more
    # columns, must not answer them
    layer = engine._Dominance(_row_game((1, 1), (0, 0)))
    empty = layer.start & ~(layer.full[1] << layer.off[1])
    for first in (empty, layer.start):
        layer = engine._Dominance(layer.root)
        assert layer.witness(SM, first, 0, 1, 1) == 1
        assert [layer.witness(rel, empty, 0, 1, 1) for rel in (WM, NWM, SM)] == [None, None, 1]


def test_relations_on_one_game_object_build_each_game_once(monkeypatch):
    # normal forms under PE, then under S+PE, on one game object: the second
    # call reads the games of the states the first one built
    built = []

    def counted(game, kept, **kwargs):
        built.append(kept)
        return restrict(game, kept, **kwargs)

    monkeypatch.setattr(engine, "restrict", counted)
    game = new_game([["T", "B"], ["L", "R"]], {p: (0, 0) for p in itertools.product(range(2), repeat=2)})
    pe = normal_forms(game, RelationSpec(PE, STRICT, ANY))
    first = list(built)
    both = normal_forms(game, RelationSpec(union(S, PE), STRICT, ANY))
    assert len(pe.normal_forms) == 4 and all(a is b for a, b in zip(pe.normal_forms, both.normal_forms))
    assert built == first and len(set(built)) == len(built)


@pytest.mark.parametrize("relation", [SM, WM, NWM, PEM, union(NWM, PEM)], ids=str)
@settings(max_examples=60, deadline=None)
@given(game=helpers.small_games(lo=-2, hi=2, fractional=True), data=st.data())
def test_dominance_layer_answers_as_the_public_search(relation, game, data):
    # a fresh layer's witness support is that of find_dominator on the root
    # over the state's kept columns, listed here without the layer's bitsets
    layer = engine._Dominance(game)
    i = data.draw(st.sampled_from(range(game.n)))
    kept = [
        data.draw(st.sets(st.sampled_from(range(k)), min_size=2 if j == i else 1)) for j, k in enumerate(game.shape)
    ]
    state = sum(1 << layer.off[j] + t for j, ks in enumerate(kept) for t in ks)
    s = data.draw(st.sampled_from(sorted(kept[i])))
    allowed = data.draw(st.sets(st.sampled_from(sorted(kept[i] - {s})), min_size=1))
    cols = [col for col in game.opponent_profiles(i) if all(col[j] in kept[j] for j in range(game.n) if j != i)]
    support = layer.witness(relation, state, i, s, sum(1 << t for t in allowed))
    w = find_dominator(game, relation, i, s, allowed, columns=cols)
    assert support == (None if w is None else sum(1 << t for t in w.dominator.support))


def test_layers_are_reused_across_calls_on_one_game_object(monkeypatch):
    # a call on the game object the last call searched asks the LP deciders
    # only what that call left open; a call on another game object in
    # between drops the kept layers, and the count is the cold one again
    calls = []

    def counted(*args):
        calls.append(args)
        return mixed._decided(*args)

    monkeypatch.setattr(engine, "_decided", counted)
    sm = RelationSpec(SM, STRICT, ANY)

    def closed(game):
        del calls[:]
        return check_one_step_closed(game, sm), len(calls)

    cold = closed(mixable_middle_3x2())
    game = mixable_middle_3x2()
    normal_forms(game, sm)
    outcome, warm = closed(game)
    assert outcome == cold[0] and warm < cold[1]
    normal_forms(game, sm)
    normal_forms(trivial_1x1(), sm)
    assert closed(game) == cold


def _copy(game):
    return Game(game.strategies, {p: game.payoff_vector(p) for p in game.profiles()})


@pytest.mark.parametrize(
    "relation",
    [SM, WM, NWM, VWM, PEM, union(NWM, PEM), union(WM, PEM), union(SM, VWM), Inherent(WM), PE, union(NW, PE)],
    ids=str,
)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(game=helpers.small_games(), arrow=st.sampled_from((STRICT, LOOSE)), step=st.sampled_from((ANY, SINGLE)))
def test_warm_layers_answer_as_cold_ones(relation, game, arrow, step):
    # every entry point gives the same result, counterexamples included, on
    # a fresh copy of the game and on one game object that the other entry
    # points searched before it, in forward and in reverse order
    spec = RelationSpec(relation, arrow, step)
    first = RelationSpec(PEM, arrow, step)
    calls = [
        lambda g: normal_forms(g, spec),
        lambda g: normal_forms(g, spec, up_to_renaming=True),
        lambda g: check_weak_confluence(g, spec),
        lambda g: check_one_step_closed(g, spec),
        lambda g: check_left_commutes(g, first, spec),
        lambda g: check_one_at_a_time(g, relation),
        lambda g: maximal_reduce(g, relation),
        lambda g: single_step_trace(g, spec),
    ]
    cold = [call(_copy(game)) for call in calls]
    forward, backward = _copy(game), _copy(game)
    assert [call(forward) for call in calls] == cold
    assert [call(backward) for call in reversed(calls)] == cold[::-1]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(game=helpers.small_games(), arrow=st.sampled_from((STRICT, LOOSE)), step=st.sampled_from((ANY, SINGLE)))
def test_mixed_relations_on_one_game_object_answer_as_cold_ones(game, arrow, step):
    # every mixed tag and union asked of one game object, forward and in
    # reverse, reads the answers the others left on its one layer; each
    # result, counterexamples included, must be the one a fresh copy gives
    relations = [SM, NWM, WM, VWM, PEM, union(NWM, PEM), union(WM, PEM), union(SM, VWM)]

    def results(g, relation):
        spec = RelationSpec(relation, arrow, step)
        return normal_forms(g, spec), check_one_step_closed(g, spec), maximal_reduce(g, relation)

    cold = [results(_copy(game), relation) for relation in relations]
    forward, backward = _copy(game), _copy(game)
    assert [results(forward, relation) for relation in relations] == cold
    assert [results(backward, relation) for relation in reversed(relations)] == cold[::-1]


def test_concurrent_calls_answer_as_alone(small_games):
    # each call reads the slot once and keeps the layers it read, so threads
    # that replace the slot under one another, or share one game object,
    # still give every result a lone call on a fresh copy gives
    games = small_games[:6]
    specs = [RelationSpec(SM, STRICT, ANY), RelationSpec(union(NW, PE), LOOSE, SINGLE)]
    expected = {(k, spec): normal_forms(_copy(g), spec) for k, g in enumerate(games) for spec in specs}
    wrong = []

    def work(shift):
        try:
            for r in range(3 * len(games)):
                k = (r + shift) % len(games)
                for spec in specs:
                    if normal_forms(games[k], spec) != expected[k, spec]:
                        wrong.append((k, spec))
        except Exception as exc:  # reported by the assertion below
            wrong.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(shift,)) for shift in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and wrong == []


@pytest.mark.parametrize("relation", [S, PE, union(NW, PE), SM, Inherent(WM)], ids=str)
@settings(max_examples=25, deadline=None)
@given(game=helpers.clone_games())
def test_clone_quotient_matches_kept_tuple_bfs(relation, game):
    # normal forms and weak confluence, in both modes, explore one state per
    # exact-clone orbit; every field of their results, the order and the
    # counterexample included, must be the full search's; one-at-a-time
    # compares canonical states, the full search's reachable sets here
    reached = {}
    for arrow, step in itertools.product((STRICT, LOOSE), (ANY, SINGLE)):
        spec = RelationSpec(relation, arrow, step)
        bfs = _kept_tuple_bfs(game, spec)
        reached[arrow, step] = set(bfs[0])
        for up_to_renaming in (False, True):
            assert normal_forms(game, spec, up_to_renaming=up_to_renaming) == _reference_report(
                game, up_to_renaming, *bfs
            )
            failure = _reference_failure(game, *bfs, up_to_renaming)
            outcome = check_weak_confluence(game, spec, up_to_renaming=up_to_renaming)
            assert outcome == CheckOutcome(failure is None, failure)
    assert check_one_at_a_time(game, relation) == (reached[STRICT, ANY] == reached[STRICT, SINGLE])


def test_renaming_classes_are_partitioned_only_where_read(monkeypatch, small_games):
    # a report carries its classes and up-to-renaming confluence reads them,
    # once per call; plain weak confluence reads none
    calls = []

    def counted(games):
        calls.append(1)
        return partition_by_equivalence(games)

    monkeypatch.setattr(engine, "partition_by_equivalence", counted)
    for g in small_games[:10]:
        for spec in (RelationSpec(NW, STRICT, ANY), RelationSpec(PE, LOOSE, SINGLE)):
            for call, count in (
                (lambda: check_weak_confluence(g, spec), 0),
                (lambda: check_weak_confluence(g, spec, up_to_renaming=True), 1),
                (lambda: normal_forms(g, spec), 1),
                (lambda: normal_forms(g, spec, up_to_renaming=True), 1),
            ):
                del calls[:]
                call()
                assert len(calls) == count


def test_all_tie_7x7_payoff_equivalence_normal_forms_up_to_renaming():
    # 16,129 reachable states in 49 orbits, one per pair of kept counts
    game = new_game(
        [[f"a{k}" for k in range(7)], [f"b{k}" for k in range(7)]],
        {p: (0, 0) for p in itertools.product(range(7), repeat=2)},
    )
    rep = normal_forms(game, RelationSpec(PE, STRICT, ANY), up_to_renaming=True)
    assert len(rep.normal_forms) == 49 and all(nf.shape == (1, 1) for nf in rep.normal_forms)
    assert rep.classes == (tuple(range(49)),)
    assert rep.explored_states == 16129 and rep.unique and rep.counterexample is None


_GAMES = st.one_of(helpers.small_games(), helpers.clone_games())


@settings(max_examples=100, deadline=None)
@given(game=_GAMES)
def test_normal_forms_have_no_successors(game):
    for relation, arrow, step in itertools.product((S, W, PE, union(NW, PE), SM), (STRICT, LOOSE), (ANY, SINGLE)):
        spec = RelationSpec(relation, arrow, step)
        for nf in normal_forms(game, spec).normal_forms:
            assert successors(nf, spec) == ()


@settings(max_examples=100, deadline=None)
@given(game=_GAMES)
def test_strict_and_loose_successors_agree(game):
    # S, W, NW and SM are transitive: a removed dominator has a dominator of
    # its own, and the chain ends at a kept strategy
    for relation, step in itertools.product((S, W, NW, SM), (ANY, SINGLE)):
        assert successors(game, RelationSpec(relation, STRICT, step)) == successors(
            game, RelationSpec(relation, LOOSE, step)
        )


_EVERY_RELATION = (
    S, W, VW, NW, PE, union(NW, PE), SM, WM, VWM, NWM, PEM, Inherent(W), Inherent(SM)
)


@settings(max_examples=100, deadline=None)
@given(game=_GAMES)
def test_arrows_agree_on_single_steps(game):
    # a dominator is drawn from the other kept strategies, so removing one
    # strategy never removes its own dominator, whatever the relation
    for relation in _EVERY_RELATION:
        assert successors(game, RelationSpec(relation, LOOSE, SINGLE)) == successors(
            game, RelationSpec(relation, STRICT, SINGLE)
        )
        path = single_step_trace(game, RelationSpec(relation, LOOSE, SINGLE))
        assert path == single_step_trace(game, RelationSpec(relation, STRICT, SINGLE))


@settings(max_examples=100, deadline=None)
@given(game=_GAMES)
def test_maximal_strict_endpoint_is_the_unique_normal_form(game):
    [nf] = normal_forms(game, RelationSpec(S, STRICT, ANY)).normal_forms
    assert maximal_reduce(game, S).endpoint == nf


def test_fully_reduce_removes_the_least_redundant_index_first():
    # a and b are exact clones, so each is PEM-redundant; fully_reduce drops
    # the least index, purely_reduce keeps it, and the single-step trace's
    # first successor drops player 0's highest removable index
    g = new_game(
        [["a", "b", "c"], ["x", "y"]],
        {
            ("a", "x"): (1, 0), ("a", "y"): (0, 1),
            ("b", "x"): (1, 0), ("b", "y"): (0, 1),
            ("c", "x"): (0, 2), ("c", "y"): (1, 0),
        },
    )
    assert fully_reduce(g).strategies == (("b", "c"), ("x", "y"))
    assert purely_reduce(g).strategies == (("a", "c"), ("x", "y"))
    assert single_step_trace(g, RelationSpec(PEM, STRICT, SINGLE)).endpoint.strategies == (("a", "c"), ("x", "y"))


# every public entry point that takes bound=: the engine's, fully_reduce and
# the restriction-quantified checks
_BOUNDED = {
    "successors": lambda g, **kw: successors(g, NW_STRICT_ANY, **kw),
    "normal_forms": lambda g, **kw: normal_forms(g, NW_STRICT_ANY, **kw),
    "check_weak_confluence": lambda g, **kw: check_weak_confluence(g, NW_STRICT_ANY, **kw),
    "check_one_step_closed": lambda g, **kw: check_one_step_closed(g, NW_STRICT_ANY, **kw),
    "check_one_at_a_time": lambda g, **kw: check_one_at_a_time(g, NW, **kw),
    "check_left_commutes": lambda g, **kw: check_left_commutes(g, RelationSpec(PE), NW_STRICT_ANY, **kw),
    "maximal_reduce": lambda g, **kw: maximal_reduce(g, NW, **kw),
    "single_step_trace": lambda g, **kw: single_step_trace(g, NW_STRICT_SINGLE, **kw),
    "structured_elimination_scenario": lambda g, **kw: structured_elimination_scenario(g, W, PE, **kw),
    "fully_reduce": lambda g, **kw: fully_reduce(g, **kw),
    "check_tdi_plus": lambda g, **kw: check_tdi_plus(g, **kw),
    "check_tdi_plus_plus": lambda g, **kw: check_tdi_plus_plus(g, **kw),
    "is_hereditary": lambda g, **kw: is_hereditary(g, W, **kw),
}


@pytest.mark.parametrize("name", sorted(_BOUNDED))
def test_every_bounded_entry_point_refuses_a_game_past_its_bound(name):
    with pytest.raises(SizeBoundExceeded):
        _BOUNDED[name](nonconfluent_weak_2x2(), bound=3)


@pytest.mark.parametrize("name", ["normal_forms", "is_hereditary"])
def test_the_strategy_bound_is_read_from_the_environment(name, monkeypatch):
    # one engine entry point and one restriction-quantified check
    monkeypatch.setenv("DOMINIA_MAX_STRATEGIES", "3")
    with pytest.raises(SizeBoundExceeded):
        _BOUNDED[name](nonconfluent_weak_2x2())
    monkeypatch.setenv("DOMINIA_MAX_STRATEGIES", "4")
    _BOUNDED[name](nonconfluent_weak_2x2())
