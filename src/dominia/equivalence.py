"""Game equivalence up to per-player strategy renaming, plus the one-shot
purely-reduced construction.

Two games are equivalent when, player by player (player identities fixed,
never permuted), the strategies can be renamed bijectively so every payoff of
every player is preserved.  The search backtracks over per-player bijections,
pruned by per-strategy payoff-multiset fingerprints and by each profile as soon
as it is mapped; a found renaming is fully verified before it is returned.
Fingerprints are built for a game compared with another of its shape, and
exact clones are read off :func:`pure._masks`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from .game import Game, restrict
from .pure import _checked_columns, _masks, _met


@dataclass(frozen=True)
class Renaming:
    """Per-player bijections: maps[i][s] is the image of player i's strategy s."""

    maps: tuple[tuple[int, ...], ...]


def _fingerprints(game: Game) -> list[list[tuple]]:
    """Per player and strategy, an invariant: the sorted multiset of full
    payoff vectors across the opponents' joint profiles.  Stable under
    renaming any player."""
    table = game._table
    out = []
    for i in range(game.n):
        cols = game.opponent_profiles(i)
        out.append([
            tuple(sorted(table[col[:i] + (s,) + col[i + 1 :]] for col in cols))
            for s in range(len(game.strategies[i]))
        ])
    return out


def _signature(fingerprints) -> tuple:
    return tuple(tuple(sorted(fp)) for fp in fingerprints)


def canonical_signature(game: Game):
    """Hashable pre-filter: equal for equivalent games, possibly equal for
    some non-equivalent ones.  Never used as a decider."""
    return _signature(_fingerprints(game))


def _verify_renaming(g1: Game, g2: Game, maps) -> bool:
    table = g2._table
    for profile, payoffs in g1._table.items():
        if payoffs != table[tuple(maps[i][s] for i, s in enumerate(profile))]:
            return False
    return True


def equivalent(g1: Game, g2: Game) -> Optional[Renaming]:
    """A payoff-preserving per-player renaming from g1 onto g2, or None."""
    if g1.n != g2.n or g1.shape != g2.shape:
        return None
    return _renaming(g1, g2, _fingerprints(g1), _fingerprints(g2))


def _renaming(g1: Game, g2: Game, fp1, fp2) -> Optional[Renaming]:
    """:func:`equivalent` on games of one shape, given their fingerprints."""
    candidates: list[list[list[int]]] = []
    for i in range(g1.n):
        per_strategy = []
        for s in range(len(g1.strategies[i])):
            cands = [t for t in range(len(g2.strategies[i])) if fp2[i][t] == fp1[i][s]]
            if not cands:
                return None
            per_strategy.append(cands)
        candidates.append(per_strategy)

    slots = [(i, s) for i in range(g1.n) for s in range(len(g1.strategies[i]))]
    maps = [[-1] * len(g1.strategies[i]) for i in range(g1.n)]
    used = [set() for _ in range(g1.n)]
    last = g1.n - 1
    cols = [col[:last] for col in g1.opponent_profiles(last)]

    def backtrack(pos: int) -> bool:
        if pos == len(slots):
            return _verify_renaming(g1, g2, maps)
        i, s = slots[pos]
        for t in candidates[i][s]:
            # players are mapped in order: the last one's s completes every profile with s
            if t in used[i] or i == last and any(
                g1._table[c + (s,)] != g2._table[tuple(maps[j][x] for j, x in enumerate(c)) + (t,)] for c in cols
            ):
                continue
            maps[i][s] = t
            used[i].add(t)
            if backtrack(pos + 1):
                return True
            used[i].remove(t)
        maps[i][s] = -1
        return False

    if backtrack(0):
        return Renaming(tuple(tuple(m) for m in maps))
    return None


def clone_classes(game: Game) -> list[list[tuple[int, ...]]]:
    """Per player, the classes of exact clones: strategies whose payoff
    vectors, for every player, agree in every opponent profile (the PE
    masks of :func:`pure._masks`).  Each class is ascending, and the classes
    are ordered by their least member."""
    out = []
    for i, labels in enumerate(game.strategies):
        cols = _checked_columns(game, i)
        classes: list[list[int]] = []
        for s in range(len(labels)):
            for c in classes:  # PE is an equivalence: a class's first member speaks for it
                if _met(_masks(game, ("PE",), i, s, c[0], cols), cols.bits):
                    c.append(s)
                    break
            else:
                classes.append([s])
        out.append([tuple(c) for c in classes])
    return out


def purely_reduce(game: Game) -> Game:
    """One elimination step removing all but one representative of each class
    of mutually payoff-equivalent strategies (least index kept).

    The result has no payoff-equivalent pair left and is reachable from the
    input by a single bulk elimination of payoff-equivalent strategies."""
    kept = [[c[0] for c in classes] for classes in clone_classes(game)]
    if tuple(map(len, kept)) == game.shape:
        return game
    return restrict(game, kept, allow_degenerate=game.degenerate)


def partition_by_equivalence(games) -> list[list[int]]:
    """Indices of the input grouped into equivalence classes (shape, then
    signature pre-filter, full check as the decider).  A game's fingerprints
    are built when it is first compared with a class's first member."""
    games = list(games)
    fingerprints = functools.cache(lambda idx: _fingerprints(games[idx]))
    signature = functools.cache(lambda idx: _signature(fingerprints(idx)))
    classes: list[list[int]] = []
    for idx, g in enumerate(games):
        for c in classes:
            rep = c[0]
            if g.shape == games[rep].shape and signature(idx) == signature(rep) and (
                _renaming(g, games[rep], fingerprints(idx), fingerprints(rep)) is not None
            ):
                c.append(idx)
                break
        else:
            classes.append([idx])
    return classes
