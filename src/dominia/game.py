"""Immutable finite strategic games with exact rational payoffs.

A game holds per-player strategy labels and a total payoff table mapping each
joint pure-strategy profile to one rational payoff per player.  All payoffs
are `fractions.Fraction`, so every dominance test downstream is an exact
inequality with no tolerance anywhere.  Pure masks and the mixed layer read
player j's payoffs times j's scale, the positive LCM of their denominators,
which keeps every dominance inequality and payoff equality
(:meth:`Game._int_rows`).  :func:`restrict` builds a sub-game of a valid game
through the private :meth:`Game._set` that the checked constructor ends in.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    DuplicateLabel,
    EmptyRestriction,
    EmptyStrategySet,
    IndexOutOfRange,
    MissingPayoff,
    ParseError,
)

Profile = tuple[int, ...]
PayoffVector = tuple[Fraction, ...]


def _as_fraction(value) -> Fraction:
    """``value`` as an exact rational: a Fraction, an int or a rational string
    such as "-1/2".  Anything else raises ParseError: booleans, floats, bad
    strings, and exponent notation, which Fraction reads in time growing with
    the exponent ("1e10000000" alone takes seconds)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ParseError("booleans are not payoffs")
    if isinstance(value, int):
        return Fraction(value)
    if not isinstance(value, str):
        raise ParseError(f"payoffs must be integers, Fractions or rational strings, got {type(value).__name__}")
    if "e" in value.lower():
        raise ParseError(f"exponent notation is not accepted, got {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {value!r} ({exc})") from None


class Game:
    """A finite strategic game; immutable after construction.

    ``strategies[i]`` is player i's ordered tuple of labels; labels are unique
    within a player and across players.  ``table[profile]`` is the tuple of
    per-player payoffs at that index profile.  Set ``allow_degenerate`` to
    represent a game in which some player has no strategies left (only the
    loose maximal-elimination path ever produces these).
    """

    __slots__ = ("strategies", "n", "shape", "_table", "_degenerate", "_hash", "_ints")

    def __init__(
        self,
        strategies: Sequence[Sequence[str]],
        table: Mapping[Profile, Sequence],
        allow_degenerate: bool = False,
    ):
        strats = tuple(tuple(s) for s in strategies)
        if not strats:
            raise EmptyStrategySet("a game needs at least one player")
        seen: set[str] = set()
        for i, labels in enumerate(strats):
            if not labels and not allow_degenerate:
                raise EmptyStrategySet(f"player {i} has no strategies")
            for lab in labels:
                if not isinstance(lab, str) or not lab:
                    raise DuplicateLabel(f"strategy labels must be non-empty strings, got {lab!r}")
                if lab in seen:
                    raise DuplicateLabel(f"label {lab!r} is used twice")
                seen.add(lab)
        n = len(strats)
        shape = tuple(len(s) for s in strats)
        fixed: dict[Profile, PayoffVector] = {}
        for profile in itertools.product(*(range(k) for k in shape)):
            row = table.get(profile)
            if not isinstance(row, (list, tuple)):  # a string or a mapping would be read per character or key
                labels = tuple(strats[i][profile[i]] for i in range(n))
                if profile not in table:
                    raise MissingPayoff(f"no payoff entry for profile {labels}")
                raise ParseError(f"payoffs at profile {labels} are a {type(row).__name__}, not a list or tuple")
            vec = tuple(_as_fraction(v) for v in row)
            if len(vec) != n:
                raise MissingPayoff(
                    f"profile {profile} has {len(vec)} payoffs for {n} players"
                )
            fixed[profile] = vec
        if len(table) > len(fixed):
            stray = next(key for key in table if key not in fixed)
            raise IndexOutOfRange(f"payoff entry for profile {stray!r}, which the game does not have")
        self._set(strats, fixed)

    def _set(self, strats: tuple[tuple[str, ...], ...], table: dict[Profile, PayoffVector]) -> None:
        """Fill the slots from unique labels and Fraction payoff vectors in product
        order: :meth:`__init__` after its checks, :func:`restrict` without them."""
        shape = tuple(map(len, strats))
        for name, value in zip(self.__slots__, (strats, len(strats), shape, table, 0 in shape, None, {}), strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Game instances are immutable")

    # -- basic queries -------------------------------------------------

    @property
    def total_strategies(self) -> int:
        return sum(len(s) for s in self.strategies)

    @property
    def degenerate(self) -> bool:
        return self._degenerate

    def profiles(self) -> Iterator[Profile]:
        return itertools.product(*(range(k) for k in self.shape))

    def payoff_vector(self, profile: Profile) -> PayoffVector:
        self._check_profile(profile)
        return self._table[profile]

    def payoff(self, profile: Profile, player: int) -> Fraction:
        """Exact payoff of ``player`` at the joint ``profile`` of strategy indices."""
        self._check_player(player)
        return self.payoff_vector(profile)[player]

    def opponent_profiles(self, player: int) -> list[Profile]:
        """All joint choices of the other players, as full profiles with
        player ``player``'s slot set to -1 (fill it with :meth:`fill`)."""
        self._check_player(player)
        ranges = [range(k) for k in self.shape]
        ranges[player] = [-1]  # type: ignore[list-item]
        return list(itertools.product(*ranges))

    def _int_rows(self, i: int, j: int) -> list[list[int]]:
        """Player j's payoffs times j's scale (module docstring) as ints, one
        row per opponent profile of player i in :meth:`opponent_profiles`
        order and one entry per strategy of i; built on first use and shared,
        so callers only read it."""
        rows = self._ints.get((i, j))
        if rows is None:
            values = [vec[j] for vec in self._table.values()]  # in product order, see __init__
            scale = math.lcm(*set(map(attrgetter("denominator"), values)))
            if scale > 1:
                values = [v.numerator * (scale // v.denominator) for v in values]
            else:  # integer payoffs, the common case
                values = [v.numerator for v in values]
            shape = self.shape
            b = math.prod(shape[i + 1 :])
            w = shape[i] * b
            # profile (a, t, c), a the players before i and c those after, sits at a * w + t * b + c
            rows = [values[a * w + c : (a + 1) * w : b] for a in range(math.prod(shape[:i])) for c in range(b)]
            self._ints[i, j] = rows
        return rows

    @staticmethod
    def fill(column: Profile, player: int, strategy: int) -> Profile:
        return column[:player] + (strategy,) + column[player + 1 :]

    def _check_player(self, player: int) -> None:
        if type(player) is not int or not 0 <= player < self.n:
            raise IndexOutOfRange(f"player {player!r} out of range for {self.n} players")

    def _check_profile(self, profile: Profile) -> None:
        if not isinstance(profile, tuple) or len(profile) != self.n:
            raise IndexOutOfRange(f"profile {profile!r} is not a tuple of {self.n} strategy indices")
        for i, s in enumerate(profile):
            self._check_strategy(i, s)

    def _check_strategy(self, player: int, strategy: int) -> None:
        self._check_player(player)
        if type(strategy) is not int or not 0 <= strategy < len(self.strategies[player]):
            raise IndexOutOfRange(f"strategy {strategy!r} out of range for player {player}")

    # -- equality ------------------------------------------------------

    def _key(self):
        return (self.strategies, tuple(sorted(self._table.items())))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Game):
            return NotImplemented
        return self.strategies == other.strategies and self._table == other._table

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self._key())
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        dims = "x".join(str(k) for k in self.shape)
        return f"Game({dims}, players={self.n})"


def new_game(labels: Sequence[Sequence[str]], payoffs: Mapping) -> Game:
    """Build a validated game.

    ``payoffs`` maps joint profiles to per-player payoff sequences; profiles
    may be given as label tuples or index tuples.  Payoff entries may be ints,
    Fractions, or rational strings like "-1/2"; anything else raises
    ParseError.
    """
    strats = tuple(tuple(s) for s in labels)
    index_of: dict[str, tuple[int, int]] = {}
    for i, labs in enumerate(strats):
        for k, lab in enumerate(labs):
            if lab in index_of:
                raise DuplicateLabel(f"label {lab!r} is used twice")
            index_of[lab] = (i, k)
    table: dict[Profile, Sequence] = {}
    for profile, row in payoffs.items():
        key: Profile
        if profile and all(isinstance(p, str) for p in profile):
            idx = []
            for pos, lab in enumerate(profile):
                if lab not in index_of or index_of[lab][0] != pos:
                    raise MissingPayoff(f"unknown strategy {lab!r} in position {pos}")
                idx.append(index_of[lab][1])
            key = tuple(idx)
        else:
            key = tuple(profile)
        table[key] = row
    return Game(strats, table)


def restrict(game: Game, kept: Sequence[Iterable[int]], *, allow_degenerate: bool = False) -> Game:
    """Materialize the restriction of ``game`` to the kept strategy indices.

    Strategy order is inherited from the parent; payoffs agree with the
    parent's on every kept profile.  Only the indices are checked: labels
    and payoffs are the parent's, already valid.
    """
    if len(kept) != game.n:
        raise IndexOutOfRange("kept sets must cover every player")
    kept_idx: list[tuple[int, ...]] = []
    for i, ks in enumerate(kept):
        ks = set(ks)
        for s in ks:  # before sorting: a label among indices would not compare
            game._check_strategy(i, s)
        idx = tuple(sorted(ks))
        if not idx and not allow_degenerate:
            raise EmptyRestriction(f"restriction empties player {i}'s strategy set")
        kept_idx.append(idx)
    labels = tuple(tuple(game.strategies[i][s] for s in kept_idx[i]) for i in range(game.n))
    # ascending kept indices: the parent's kept profiles come in the sub-game's product order
    local = itertools.product(*(range(len(k)) for k in kept_idx))
    sub = object.__new__(Game)
    sub._set(labels, dict(zip(local, map(game._table.__getitem__, itertools.product(*kept_idx)))))
    return sub
