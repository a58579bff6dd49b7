"""Inherent (unary) dominance: a strategy s is inherently dominated when every
non-empty subset D of the opponents' joint profiles admits some dominator on
that sub-game (a possibly different dominator per subset).

Subsets range over the *joint* profile set, not over products of per-player
subsets, yet they need not be enumerated.  Whether a given dominator d (a
strategy or a mix) dominates s over D has one shape for every base tag: D
meets none of d's fail columns and meets d's need columns, where a column
fails or is needed by the payoffs in that column alone.  A need column is
one where d gives player i strictly more than s; the pointwise tags (S, VW,
PE, COMPAT and SM, VWM, PEM) need nothing, and for them every column counts
as a need column below.  So one chain decides:

* C_0 is the full column set;
* find a dominator d_k on C_k: for a pure base the first strategy whose
  masks hold there, tag by tag; for a mixed one
  :func:`mixed.find_dominator`'s, decided on the game's engine layer.  If
  there is none, C_k is a failing subset.  Every dominator's fail and need
  columns are read from :func:`pure._masks`, where every tag is defined;
* C_{k+1} is C_k less d_k's need columns; stop when it is empty.

Every C_k, and every fail and need column, is named as :mod:`pure` names
columns, so a chain reads alike on every column set that holds it.

Over no columns there is no non-empty subset, so every strategy is
vacuously inherently dominated there, with an empty chain.

This is exact.  Take any non-empty D and the last C_k that contains D.  d_k
meets no fail column in D, because it meets none in C_k and fail conditions
are per column.  It meets D's need columns, because D is not inside C_{k+1}.
A dominator on C_k meets a need column of C_k, so every link drops a column
and the chain has at most |C_0| links.  The chain's dominators are a
certificate: s stays inherently dominated by any support that keeps them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .game import Game
from .pure import _checked_columns, _masks, _met
from .relations import Relation


@dataclass(frozen=True)
class InherentQuery:
    base: Relation
    player: int
    strategy: int
    # None: dominators may come from the player's other strategies (loose
    # flavor); otherwise they must lie in this surviving subset.
    must_survive: Optional[tuple[int, ...]] = None


@dataclass(frozen=True)
class InherentResult:
    dominated: bool
    failing_subset: Optional[tuple] = None
    # ((subset, dominator), ...), the chain sets C_0, C_1, ... with their
    # dominators (a strategy index for a pure base, a MixedWitness for a
    # mixed one); a subset's dominator is that of the last chain set holding it
    chain: tuple = ()

    def __bool__(self) -> bool:
        return self.dominated


def is_inherently_dominated(game: Game, query: InherentQuery, *, columns=None) -> InherentResult:
    """Decide inherent dominance by the chain of the module docstring.

    ``columns`` is the set of opponents' joint profiles, and so of subsets,
    quantified over (order and repeats are ignored); by default all of them.
    Chain sets and the failing subset list their profiles in ascending order."""
    from .engine import _layer  # the engine builds on this module

    return _chain(game, query, columns, _layer(game).mixed_witness if query.base.mixed else None)


def _chain(game: Game, query: InherentQuery, columns, mixed_witness) -> InherentResult:
    """:func:`is_inherently_dominated`, each mixed link decided by
    ``mixed_witness(base, i, s, cols, allowed)`` (allowed as a bitmask)."""
    base = query.base
    i, s = query.player, query.strategy
    game._check_strategy(i, s)
    if query.must_survive is None:
        pool = range(len(game.strategies[i]))
    else:
        for t in query.must_survive:
            game._check_strategy(i, t)
        pool = sorted(set(query.must_survive))
    # a dominator never leans on s itself: under VWM the point mass on s
    # would dominate s
    allowed = tuple(t for t in pool if t != s)
    allowed_bits = sum(1 << t for t in allowed)
    full = _checked_columns(game, i, columns)
    masks = [] if base.mixed else [(t, _masks(game, base.tags, i, s, t, full)) for t in allowed]

    def dominator(cols):
        """A dominator of s over ``cols`` with its need bits, or None."""
        if base.mixed:
            w = mixed_witness(base, i, s, cols, allowed_bits) if allowed else None
            return None if w is None else (w, _masks(game, (w.relation,), i, s, w.dominator, cols)[0][1])
        for k in range(len(base.tags)):
            for t, m in masks:
                if _met(m[k : k + 1], cols.bits):
                    return t, m[k][1]
        return None

    chain = []
    left = full
    while left:
        found = dominator(left)
        if found is None:
            return InherentResult(False, failing_subset=left)
        chain.append((left, found[0]))
        left = full.subset(left.bits & ~found[1])  # need -1 (pointwise): every column
    return InherentResult(True, chain=tuple(chain))


def inherent_dominated_set(game: Game, base: Relation) -> list[list[int]]:
    """Per player, the strategies that are inherently dominated."""
    out: list[list[int]] = []
    for i in range(game.n):
        found = [
            s
            for s in range(len(game.strategies[i]))
            if is_inherently_dominated(game, InherentQuery(base, i, s)).dominated
        ]
        out.append(found)
    return out
