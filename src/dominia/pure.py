"""Decision procedures for pure-strategy dominance and the structural
conditions (TDI family, IIIA, strict partial order, hereditarity) that the
order-independence results lean on.

Everything here is an exact quantifier evaluation over the finite payoff
table, except IIIA, which every pure relation has (:func:`check_iiia`).  The
restriction-quantified checks (TDI+, TDI++, hereditarity) enumerate every
non-degenerate restriction and are bounded by
:func:`dominia.config.max_total_strategies`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from . import config
from .errors import SizeBoundExceeded
from .game import Game
from .relations import COMPAT, Relation


@dataclass(frozen=True)
class DominanceWitness:
    """One (dominated, dominator) pair for one player, with the member
    relation that justified it."""

    player: int
    dominated: int
    dominator: int
    relation: str


@dataclass(frozen=True)
class CheckOutcome:
    """Result of a property check: ok, or the first counterexample found."""

    ok: bool
    counterexample: object = None

    def __bool__(self) -> bool:
        return self.ok


def _masks(game: Game, tags, i: int, s: int, t: int, columns) -> tuple[tuple[int, int], ...]:
    """Per tag, the (fail, need) bitsets over ``columns`` (bit k for
    ``columns[k]``) that decide whether t TAG-dominates s for player i: over
    a subset C of the columns it does iff C meets no fail bit and some need
    bit (need -1: nothing needed).  Every pure tag is defined here alone."""
    table = game._table
    better = worse = split = 0  # u_i(t) > u_i(s); u_i(t) < u_i(s); tie in u_i only
    for k, col in enumerate(columns):
        a = table[col[:i] + (s,) + col[i + 1 :]]
        b = table[col[:i] + (t,) + col[i + 1 :]]
        if a[i] < b[i]:
            better |= 1 << k
        elif a[i] > b[i]:
            worse |= 1 << k
        elif a != b:
            split |= 1 << k
    by_tag = {"S": (~better, -1), "W": (worse, better), "VW": (worse, -1), "NW": (worse | split, better),
              "PE": (better | worse | split, -1), "COMPAT": (split, -1)}
    try:
        return tuple(by_tag[tag] for tag in tags)
    except KeyError as err:
        raise ValueError(f"unknown pure tag {err.args[0]!r}") from None


def _met(masks, cols: int) -> bool:
    """Does some tag's (fail, need) pair hold over the column bitset ``cols``?"""
    for fail, need in masks:
        if not fail & cols and (need & cols or need < 0):
            return True
    return False


def _holds(game: Game, tag: str, i: int, dominated: int, dominator: int, columns) -> bool:
    """Does ``dominator`` TAG-dominate ``dominated`` for player i over ``columns``?"""
    return _met(_masks(game, (tag,), i, dominated, dominator, columns), (1 << len(columns)) - 1)


def dominates(game: Game, relation: Relation, player: int, dominated: int, dominator: int, columns=None) -> bool:
    """Exact evaluation of the quantified payoff conditions; unions hold when
    any member does.  ``columns`` restricts the opponents' joint profiles
    quantified over; by default all of them."""
    game._check_strategy(player, dominated)
    game._check_strategy(player, dominator)
    if columns is None:
        columns = game.opponent_profiles(player)
    else:
        columns = list(columns)
        for col in columns:
            game._check_profile(Game.fill(col, player, dominated))
    masks = _masks(game, relation.tags, player, dominated, dominator, columns)
    return _met(masks, (1 << len(columns)) - 1)


def compatible(game: Game, player: int, s: int, t: int) -> bool:
    """Whenever s and t tie in player's own payoff at some opponents' profile,
    they tie for every player there."""
    return dominates(game, COMPAT, player, s, t)


def dominated_set(game: Game, relation: Relation) -> list[list[DominanceWitness]]:
    """Per player, one witness for every strategy dominated by some *distinct*
    strategy; the dominator is the least index that works (deterministic)."""
    out: list[list[DominanceWitness]] = []
    for i in range(game.n):
        columns = game.opponent_profiles(i)
        found: list[DominanceWitness] = []
        for s in range(len(game.strategies[i])):
            for t in range(len(game.strategies[i])):
                if t == s:
                    continue
                tag = next((tg for tg in relation.tags if _holds(game, tg, i, s, t, columns)), None)
                if tag is not None:
                    found.append(DominanceWitness(i, s, t, tag))
                    break
        out.append(found)
    return out


# -- TDI family ------------------------------------------------------------


def check_tdi(game: Game) -> CheckOutcome:
    """Transference of decisionmaker indifference: a tie in the deciding
    player's payoff transfers to every player's payoff.

    The counterexample is the lexicographically first violating tuple
    (i, j, r_i, t_i, opponents-profile).
    """
    for i in range(game.n):
        columns = game.opponent_profiles(i)
        for j in range(game.n):
            for r in range(len(game.strategies[i])):
                for t in range(len(game.strategies[i])):
                    for col in columns:
                        a = Game.fill(col, i, r)
                        b = Game.fill(col, i, t)
                        if game.payoff(a, i) == game.payoff(b, i) and game.payoff(a, j) != game.payoff(b, j):
                            return CheckOutcome(False, (i, j, r, t, col))
    return CheckOutcome(True)


def _check_bound(game: Game, bound: Optional[int]) -> None:
    limit = bound if bound is not None else config.max_total_strategies()
    if game.total_strategies > limit:
        raise SizeBoundExceeded(
            f"game has {game.total_strategies} strategies, bound is {limit}"
        )


def restrictions(game: Game) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All non-degenerate restrictions as per-player kept index tuples, each
    player's subsets in (size, lex) order.  Includes the full game."""
    return itertools.product(*(
        [combo for size in range(1, len(labels) + 1) for combo in itertools.combinations(range(len(labels)), size)]
        for labels in game.strategies
    ))


def _kept_columns(kept, i: int) -> list[tuple[int, ...]]:
    """Player i's opponent profiles within the restriction ``kept``, in root
    indices with player i's slot -1: the columns a question about that
    restriction asks of the root game."""
    return list(itertools.product(*kept[:i], (-1,), *kept[i + 1 :]))


def _first_in_restrictions(game: Game, bound: Optional[int], tag: str, fails) -> CheckOutcome:
    """Over every restriction and ordered pair r != t of one player's kept
    strategies, the first (kept-sets, witness) where r is TAG-dominated by t
    and under no tag of ``fails``, asked of the root over the kept profiles."""
    _check_bound(game, bound)
    for kept in restrictions(game):
        for i in range(game.n):
            cols = _kept_columns(kept, i)
            for r, t in itertools.permutations(kept[i], 2):
                if _holds(game, tag, i, r, t, cols) and not any(_holds(game, f, i, r, t, cols) for f in fails):
                    return CheckOutcome(False, (kept, DominanceWitness(i, r, t, tag)))
    return CheckOutcome(True)


def check_tdi_plus(game: Game, bound: Optional[int] = None) -> CheckOutcome:
    """TDI+ : in every restriction, weak dominance implies compatibility.

    A counterexample is (kept-sets, witness) for the first restriction where
    some weakly dominating pair is incompatible.
    """
    return _first_in_restrictions(game, bound, "W", ("COMPAT",))


def check_tdi_plus_plus(game: Game, bound: Optional[int] = None) -> CheckOutcome:
    """TDI++ : in every restriction, very weak dominance is weak dominance or
    payoff equivalence."""
    return _first_in_restrictions(game, bound, "VW", ("W", "PE"))


# -- structural properties ---------------------------------------------------


def is_strict_partial_order(game: Game, relation: Relation) -> bool:
    """Irreflexivity and transitivity of the relation's instance on this game."""
    for i in range(game.n):
        k = len(game.strategies[i])
        cols = game.opponent_profiles(i)
        edge = [[dominates(game, relation, i, s, t, cols) for t in range(k)] for s in range(k)]
        if any(edge[s][s] for s in range(k)) or any(
            edge[s][t] and edge[t][u] and not edge[s][u] for s, t, u in itertools.product(range(k), repeat=3)
        ):
            return False
    return True


def is_hereditary(game: Game, relation: Relation, bound: Optional[int] = None) -> CheckOutcome:
    """Does every dominance instance of this game survive into every
    restriction containing both strategies?

    Counterexample: (kept-sets, witness); the pair dominates in the full game
    but not in that restriction.
    """
    _check_bound(game, bound)
    pairs: list[tuple[int, int, int, str]] = []
    for i in range(game.n):
        cols = game.opponent_profiles(i)
        for s, t in itertools.permutations(range(len(game.strategies[i])), 2):
            tag = next((tg for tg in relation.tags if _holds(game, tg, i, s, t, cols)), None)
            if tag is not None:
                pairs.append((i, s, t, tag))
    for kept in restrictions(game):
        for (i, s, t, tag) in pairs:
            if s in kept[i] and t in kept[i] and not dominates(game, relation, i, s, t, _kept_columns(kept, i)):
                return CheckOutcome(False, (kept, DominanceWitness(i, s, t, tag)))
    return CheckOutcome(True)


def check_iiia(game: Game, relation: Relation) -> CheckOutcome:
    """Individual independence of irrelevant alternatives: dominance between
    two surviving strategies is unaffected by dropping the same player's other
    strategies (an iff, over every subset containing the pair).

    Every pure relation has it, so no restriction is built.  Whether t
    TAG-dominates s for player i is read from the payoffs of s and t alone,
    over the opponents' joint profiles (:func:`_masks`).  Dropping some of
    player i's own strategies leaves the opponents' profiles, and those two
    strategies' payoffs on them, unchanged, so every pure tag answers the same
    before and after.  A relation that is not pure raises ValueError."""
    if relation.mixed:
        raise ValueError(f"IIIA is decided for pure relations, not {relation}")
    return CheckOutcome(True)
