"""Inherent (unary) dominance: a strategy is inherently dominated when every
non-empty subset of the opponents' joint profiles admits some dominator on
that sub-game (a possibly different dominator per subset).

Subsets range over the *joint* profile set, not over products of per-player
subsets.  Enumeration is exponential and capped; two sound shortcuts keep the
common cases cheap:

* if the base relation already fails on the full profile set, the full set is
  itself a failing subset;
* a strictly dominating strategy (pure or mixed) stays strictly dominating on
  every subset of profiles, which implies the weak/nice-weak/very-weak bases
  there at once.

Both shortcuts are pointwise restriction arguments; neither assumes any
coincidence theorem, so the checks stay honest oracles for those theorems.
For bases whose defining conditions are pointwise (S, VW, PE and their mixed
versions) the full profile set is decisive in both directions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from . import config
from .errors import SizeBoundExceeded
from .game import Game
from .mixed import MixedWitness, _checked_columns, find_dominator, point_mass
from .pure import _masks, _met
from .relations import SM, Relation

# strict counterpart used by the positive shortcut (a relation is all pure or
# all mixed, so it is S or SM), and the pure analog used for cheap point-mass
# scans
_STRICT_OF = {"S": "S", "W": "S", "NW": "S", "VW": "S", "SM": "SM", "WM": "SM", "NWM": "SM", "VWM": "SM"}
_PURE_OF = {"SM": "S", "WM": "W", "VWM": "VW", "NWM": "NW", "PEM": "PE"}
_POINTWISE = {"S", "VW", "PE", "SM", "VWM", "PEM"}


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
    witness_table: Optional[dict] = None

    def __bool__(self) -> bool:
        return self.dominated


def is_inherently_dominated(
    game: Game,
    query: InherentQuery,
    *,
    want_table: bool = False,
    subset_bound: Optional[int] = None,
    columns=None,
) -> InherentResult:
    """Decide inherent dominance; optionally record one dominator per subset.

    The bound caps how many profile subsets are actually enumerated; queries
    resolved by the full-set check or the strict shortcut never hit it.
    ``want_table=True`` disables the positive shortcut so the table is total.
    ``columns`` restricts the opponents' joint profiles, and so the subsets,
    quantified over; by default all of them.
    """
    base = query.base
    i, s = query.player, query.strategy
    game._check_strategy(i, s)
    pool = range(len(game.strategies[i])) if query.must_survive is None else sorted(set(query.must_survive))
    # a dominator never leans on s itself: under VWM the point mass on s
    # would dominate s
    allowed = tuple(t for t in pool if t != s)
    full = _checked_columns(game, i, columns)
    # per allowed t, the (fail, need) column bitsets of each base tag (its
    # pure analog for a mixed base: point masses first) and then of S
    tags = tuple(_PURE_OF[tag] if base.mixed else tag for tag in base.tags)
    masks = [(t, _masks(game, tags + ("S",), i, s, t, full)) for t in allowed]

    def dominator(subset, bits):
        """A dominator for s over the profiles ``subset`` (bitset ``bits``
        over ``full``), or None."""
        for k, tag in enumerate(base.tags):
            for t, m in masks:
                if _met(m[k : k + 1], bits):
                    return MixedWitness(i, s, point_mass(i, t), tag) if base.mixed else t
        return find_dominator(game, base, i, s, allowed, columns=subset) if base.mixed else None

    # full profile set is one of the quantified subsets: a cheap complete
    # negative test, and decisive for pointwise bases
    every = (1 << len(full)) - 1
    full_witness = dominator(full, every) if allowed else None
    if full_witness is None:
        return InherentResult(False, failing_subset=full)
    pointwise = all(tag in _POINTWISE for tag in base.tags)
    if pointwise and not want_table:
        return InherentResult(True, witness_table={full: full_witness})

    if not want_table and any(tag in _STRICT_OF for tag in base.tags):
        if base.mixed:
            strict = find_dominator(game, SM, i, s, allowed, columns=full) is not None
        else:
            strict = any(_met(m[-1:], every) for _, m in masks)
        if strict:
            return InherentResult(True, witness_table={full: full_witness})

    bound = subset_bound if subset_bound is not None else config.INHERENT_SUBSET_BOUND
    table: dict = {}
    checked = 0
    for size in range(1, len(full) + 1):
        for picked in itertools.combinations(range(len(full)), size):
            checked += 1
            if checked > bound:
                raise SizeBoundExceeded(
                    f"inherent dominance would enumerate more than {bound} profile subsets"
                )
            subset = tuple(full[k] for k in picked)
            w = full_witness if size == len(full) else dominator(subset, sum(1 << k for k in picked))
            if w is None:
                return InherentResult(False, failing_subset=subset)
            if want_table:
                table[subset] = w
    return InherentResult(True, witness_table=table if want_table else {full: full_witness})


def inherent_dominated_set(
    game: Game,
    base: Relation,
    must_survive: Optional[Sequence[Sequence[int]]] = None,
    *,
    subset_bound: Optional[int] = None,
) -> list[list[int]]:
    """Per player, the strategies that are inherently dominated."""
    out: list[list[int]] = []
    for i in range(game.n):
        survive = None if must_survive is None else tuple(must_survive[i])
        found = [
            s
            for s in range(len(game.strategies[i]))
            if is_inherently_dominated(
                game, InherentQuery(base, i, s, survive), subset_bound=subset_bound
            ).dominated
        ]
        out.append(found)
    return out
