"""Decision procedures for pure-strategy dominance and the structural
conditions (TDI family, IIIA, strict partial order, hereditarity) that the
order-independence results lean on.

Everything here is an exact quantifier evaluation over the finite payoff
table, except IIIA, which every pure relation has (:func:`check_iiia`).
Every tag, pure or mixed, is defined in :func:`_masks` alone, for a pure
dominator on the deciding player's scaled integer rows
(:meth:`Game._int_rows`) and for a mix on Fractions, as every tie split is,
so a mixed witness is checked apart from the rows the LP read.  The
restriction-quantified checks share one walk over every non-degenerate
restriction, :func:`_first_unheld`, bounded by
:func:`dominia.config.max_total_strategies`.  Its entries are pure pairs
(:class:`DominanceWitness`): one fails in a restriction that keeps both its
strategies where, over the kept-column bitset (:func:`_column_bits`, as the
engine answers its states), its premise masks hold and its conclusion masks
do not.  TDI+ is W => COMPAT, TDI++ is VW => W or PE, and hereditarity's
premise holds everywhere.

Column sets of every layer are defined and checked here (:class:`_Columns`):
bit k of player i's column bitsets is ``game.opponent_profiles(i)[k]`` in
every set, and a ``columns=`` argument is a set, taken in ascending order.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from . import config
from .errors import IndexOutOfRange, SizeBoundExceeded
from .game import Game
from .relations import Relation


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


@functools.lru_cache(maxsize=1 << 14)  # every strategy mask or column bitset of one player at the default bound
def _bits(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of ``mask``, ascending."""
    return tuple(k for k in range(mask.bit_length()) if mask >> k & 1)


class _Columns(tuple):
    """The opponent profiles of ``player`` in ``game`` at the set bits of
    ``bits``, ascending, checked once for the many questions asked over
    them.  ``pay``: every player's integer rows there (``mixed._Rows``), set
    by the first mixed query over them."""

    pay = None

    def subset(self, bits: int) -> _Columns:
        """The columns at the set bits of ``bits``, among these: unchecked."""
        if bits == self.bits:
            return self
        cols = _Columns(col for k, col in zip(_bits(self.bits), self) if bits >> k & 1)
        cols.game, cols.player, cols.bits = self.game, self.player, bits
        return cols


def _checked_columns(game: Game, player: int, columns=None) -> _Columns:
    """The set ``columns`` (default: every opponent profile) as checked
    :class:`_Columns` of ``game`` and ``player``.  The caller has checked
    that ``player`` has a strategy."""
    if isinstance(columns, _Columns) and columns.game is game and columns.player == player:
        return columns
    if columns is None:
        cols = _Columns(game.opponent_profiles(player))
        bits = (1 << len(cols)) - 1
    else:
        shape = game.shape
        at = {}  # position among the opponent profiles -> column
        for col in columns:
            if not isinstance(col, tuple):
                raise IndexOutOfRange(f"column {col!r} is not a tuple")
            game._check_profile(Game.fill(col, player, 0))
            k = 0
            for j, c in enumerate(col):
                if j != player:
                    k = k * shape[j] + c
            at[k] = Game.fill(col, player, -1)
        cols = _Columns(at[k] for k in sorted(at))
        bits = sum(1 << k for k in at)
    cols.game, cols.player, cols.bits = game, player, bits
    return cols


# the pure analog of each mixed tag: a mix TAG-dominates s as its pure
# analog would, judged on the mix's expected payoffs
PURE_OF = {"SM": "S", "WM": "W", "VWM": "VW", "NWM": "NW", "PEM": "PE"}

# each pure tag's (fail, need) from the columns where u_i(t) > u_i(s), where
# u_i(t) < u_i(s), and where these tie and another player's payoffs do not
_BY_TAG = {
    "S": lambda better, worse, split: (~better, -1), "W": lambda better, worse, split: (worse, better),
    "VW": lambda better, worse, split: (worse, -1), "NW": lambda better, worse, split: (worse | split, better),
    "PE": lambda better, worse, split: (better | worse | split, -1), "COMPAT": lambda better, worse, split: (split, -1),
}


def _analog(tag: str):
    """The (better, worse, split) -> (fail, need) rule of a tag, pure or mixed."""
    try:
        return _BY_TAG[PURE_OF.get(tag, tag)]
    except KeyError:
        raise ValueError(f"unknown tag {tag!r}") from None


def _masks(game: Game, tags, i: int, s: int, t, cols: _Columns) -> tuple[tuple[int, int], ...]:
    """Per tag, the (fail, need) bitsets over ``cols`` (bits as in
    ``cols.bits``) that decide whether t TAG-dominates s for player i: over
    a subset C of the columns it does iff C meets no fail bit and some need
    bit (need -1: nothing needed).  t is a strategy of player i, compared on
    i's integer rows (:meth:`Game._int_rows`), or a mix of them (a
    ``MixedStrategy``), on Fraction payoffs; the other players' payoffs are
    compared, as Fractions, only where player i's tie.  Each tag's pair is
    its :func:`_analog` of the better, worse and split bits."""
    table = game._table
    if not isinstance(t, int) and len(t.weights) == 1:  # a point mass pays what its strategy pays
        t = t.weights[0][0]
    mix = None if isinstance(t, int) else t.weights
    ints = game._int_rows(i, i) if mix is None else None
    better = worse = split = 0  # u_i(t) > u_i(s); u_i(t) < u_i(s); tie in u_i only
    for k, col in zip(_bits(cols.bits), cols):
        if mix is None:
            at_s, at_t = ints[k][s], ints[k][t]
        else:
            a = table[col[:i] + (s,) + col[i + 1 :]]
            rows = [(w, table[col[:i] + (x,) + col[i + 1 :]]) for x, w in mix]
            at_s, at_t = a[i], sum(w * row[i] for w, row in rows)
        if at_s < at_t:
            better |= 1 << k
        elif at_s > at_t:
            worse |= 1 << k
        elif (table[col[:i] + (s,) + col[i + 1 :]] != table[col[:i] + (t,) + col[i + 1 :]] if mix is None
              else a != tuple(sum(w * row[j] for w, row in rows) for j in range(len(a)))):
            split |= 1 << k
    return tuple(_analog(tag)(better, worse, split) for tag in tags)


# (fail, need) masks that every column bitset meets
_EVERYWHERE = ((0, -1),)


def _met(masks, cols: int) -> bool:
    """Does some tag's (fail, need) pair hold over the column bitset ``cols``?"""
    for fail, need in masks:
        if not fail & cols and (need & cols or need < 0):
            return True
    return False


def _pair_masks(game: Game, tags) -> dict[tuple[int, int, int], tuple[tuple[int, int], ...]]:
    """:func:`_masks` over all of player i's opponent profiles for every
    ordered pair s != t of each player i, keyed (i, s, t) in that order."""
    out = {}
    for i in range(game.n):
        cols = _checked_columns(game, i)
        for s, t in itertools.permutations(range(len(game.strategies[i])), 2):
            out[i, s, t] = _masks(game, tags, i, s, t, cols)
    return out


def _column_bits(game: Game, kept, i: int) -> int:
    """Player i's column bitset of the opponent profiles that use only the
    strategies in ``kept`` (per player; player i's own entry is ignored):
    the columns a question about the restriction ``kept`` asks of ``game``."""
    index = [0]
    for j, k in enumerate(game.shape):
        if j != i:
            index = [x * k + r for x in index for r in kept[j]]
    return sum(1 << x for x in index)


def dominates(game: Game, relation: Relation, player: int, dominated: int, dominator: int, columns=None) -> bool:
    """Exact evaluation of the quantified payoff conditions; unions hold when
    any member does.  ``columns`` is the set of opponents' joint profiles
    quantified over (order and repeats are ignored); by default all of them."""
    game._check_strategy(player, dominated)
    game._check_strategy(player, dominator)
    cols = _checked_columns(game, player, columns)
    return _met(_masks(game, relation.tags, player, dominated, dominator, cols), cols.bits)


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


def _first_unheld(game: Game, bound: Optional[int], entries) -> CheckOutcome:
    """The first (kept-sets, witness) over every restriction of the entries
    (premise, masks, :class:`DominanceWitness`) whose witness pair is kept
    and, over the kept profiles, premise met and masks unmet; read after the
    bound check."""
    _check_bound(game, bound)
    entries = list(entries)
    for kept in restrictions(game):
        cols = [_column_bits(game, kept, i) for i in range(game.n)]
        for premise, masks, w in entries:
            i, pair = w.player, {w.dominated, w.dominator}
            if pair.issubset(kept[i]) and _met(premise, cols[i]) and not _met(masks, cols[i]):
                return CheckOutcome(False, (kept, w))
    return CheckOutcome(True)


def _first_unimplied(game: Game, bound: Optional[int], tag: str, implied) -> CheckOutcome:
    """:func:`_first_unheld` of every ordered pair s != t of one player, with
    premise "t TAG-dominates s" and conclusion "some tag of ``implied``
    holds"."""

    def entries():
        for (i, s, t), m in _pair_masks(game, (tag,) + implied).items():
            yield m[:1], m[1:], DominanceWitness(i, s, t, tag)

    return _first_unheld(game, bound, entries())


def check_tdi_plus(game: Game, bound: Optional[int] = None) -> CheckOutcome:
    """TDI+ : in every restriction, weak dominance implies compatibility.

    A counterexample is (kept-sets, witness) for the first restriction where
    some weakly dominating pair is incompatible.
    """
    return _first_unimplied(game, bound, "W", ("COMPAT",))


def check_tdi_plus_plus(game: Game, bound: Optional[int] = None) -> CheckOutcome:
    """TDI++ : in every restriction, very weak dominance is weak dominance or
    payoff equivalence."""
    return _first_unimplied(game, bound, "VW", ("W", "PE"))


# -- structural properties ---------------------------------------------------


def _pure_only(relation, prop: str) -> None:
    """Refuse a mixed or inherent relation with ValueError."""
    if not isinstance(relation, Relation) or relation.mixed:
        raise ValueError(f"{prop} is decided for pure relations, not {relation}")


def is_strict_partial_order(game: Game, relation: Relation) -> bool:
    """Irreflexivity and transitivity of the relation's instance on this game.
    A relation that is not pure raises ValueError."""
    _pure_only(relation, "strict partial order")
    for i in range(game.n):
        k = len(game.strategies[i])
        cols = _checked_columns(game, i)
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
    but not in that restriction.  A relation that is not pure raises
    ValueError.
    """
    _pure_only(relation, "hereditarity")

    def entries():
        every = [(1 << len(game.opponent_profiles(i))) - 1 for i in range(game.n)]
        for (i, s, t), m in _pair_masks(game, relation.tags).items():
            tag = next((tag for tag, mask in zip(relation.tags, m) if _met((mask,), every[i])), None)
            if tag is not None:
                yield _EVERYWHERE, m, DominanceWitness(i, s, t, tag)

    return _first_unheld(game, bound, entries())


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
    _pure_only(relation, "IIIA")
    return CheckOutcome(True)
