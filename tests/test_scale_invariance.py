"""Metamorphic tests: multiplying each player's payoffs by its own positive
rational changes no answer.  Every pure tag compares one player's payoffs,
every mixed tag is linear in them, and a renaming maps payoffs of one player
to payoffs of the same player, so a positive per-player scale keeps them all;
the pure masks read the scaled integer rows on exactly this premise."""

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from dominia import (
    ANY,
    NW,
    PE,
    PEM,
    S,
    SINGLE,
    SM,
    STRICT,
    W,
    WM,
    Inherent,
    RelationSpec,
    check_one_step_closed,
    check_weak_confluence,
    find_dominator,
    new_game,
    normal_forms,
    parse_relation,
    partition_by_equivalence,
    restrict,
    union,
)
from dominia.equivalence import clone_classes

# one factor per player, below and above 1, with denominators other than the payoffs'
FACTORS = (Fraction(1, 6), Fraction(5), Fraction(2, 3))
RELATIONS = [S, W, PE, union(NW, PE), SM, union(WM, PEM), Inherent(WM)]
MIXED_TAGS = [parse_relation(tag) for tag in ("SM", "WM", "VWM", "NWM", "PEM")]


def scaled(g):
    return new_game(
        g.strategies,
        {p: [v * FACTORS[j] for j, v in enumerate(g.payoff_vector(p))] for p in itertools.product(*map(range, g.shape))},
    )


def labels(game):
    return None if game is None else game.strategies


def report(rep):
    return (
        [labels(nf) for nf in rep.normal_forms],
        rep.classes,
        rep.explored_states,
        rep.unique,
        rep.counterexample and tuple(map(labels, rep.counterexample)),
    )


def outcome(out):
    counterexample = out.counterexample
    if isinstance(counterexample, tuple):
        counterexample = tuple(map(labels, counterexample))
    elif counterexample is not None:
        counterexample = labels(counterexample)
    return out.ok, counterexample


def engine_answers(g):
    out = [clone_classes(g)]
    for rel, mode in itertools.product(RELATIONS, (ANY, SINGLE)):
        spec = RelationSpec(rel, STRICT, mode)
        out.append(report(normal_forms(g, spec)))
        out.append(report(normal_forms(g, spec, up_to_renaming=True)))
        out.append(outcome(check_weak_confluence(g, spec)))
        out.append(outcome(check_weak_confluence(g, spec, up_to_renaming=True)))
        out.append(outcome(check_one_step_closed(g, spec)))
    return out


def verdicts(g):
    return [
        find_dominator(g, rel, i, s, [t for t in range(k) if t != s or rel != PEM]) is not None
        for rel in MIXED_TAGS
        for i, k in enumerate(g.shape)
        for s in range(k)
    ]


@settings(max_examples=30, deadline=None)
@given(st.one_of(helpers.small_games(fractional=True), helpers.small_games(lo=-2, hi=2)))
def test_engine_answers_survive_a_per_player_scale(g):
    assert engine_answers(scaled(g)) == engine_answers(g)


@settings(max_examples=40, deadline=None)
@given(st.one_of(helpers.small_games(fractional=True), helpers.small_games(lo=-2, hi=2)))
def test_find_dominator_verdicts_survive_a_per_player_scale(g):
    assert verdicts(scaled(g)) == verdicts(g)


@settings(max_examples=20, deadline=None)
@given(helpers.clone_games(budget=6))
def test_clone_game_answers_survive_a_per_player_scale(g):
    assert engine_answers(scaled(g)) == engine_answers(g)


def _reversed(g):
    """g with every player's strategies in reverse order: an equivalent game."""
    return new_game(
        [labs[::-1] for labs in g.strategies],
        {p: g.payoff_vector(tuple(k - 1 - x for k, x in zip(g.shape, p))) for p in itertools.product(*map(range, g.shape))},
    )


@settings(max_examples=25, deadline=None)
@given(helpers.small_games(fractional=True), helpers.small_games(fractional=True))
def test_partition_survives_a_per_player_scale(g, h):
    games = [g, h, _reversed(g), restrict(g, [range(1, k) if k > 1 else range(k) for k in g.shape]), _reversed(h), g]
    assert partition_by_equivalence(map(scaled, games)) == partition_by_equivalence(games)
