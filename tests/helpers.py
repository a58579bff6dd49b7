"""Brute-force re-implementations used as test oracles.

Deliberately written against the raw payoff table, not the library's column
helpers, so they share no code path with what they check.
"""

from fractions import Fraction
import itertools

from hypothesis import strategies as st

from dominia import Game, new_game


def profiles_fixing(game: Game, player: int, strategy: int):
    ranges = [range(k) for k in game.shape]
    ranges[player] = [strategy]
    return itertools.product(*ranges)


def others(game: Game, player: int):
    ranges = [range(k) for i, k in enumerate(game.shape) if i != player]
    return itertools.product(*ranges)


def with_choice(rest, player, strategy):
    rest = tuple(rest)
    return rest[:player] + (strategy,) + rest[player:]


def naive_weak(game, i, s, t):
    some_strict = False
    for rest in others(game, i):
        a = game.payoff(with_choice(rest, i, s), i)
        b = game.payoff(with_choice(rest, i, t), i)
        if a > b:
            return False
        if a < b:
            some_strict = True
    return some_strict


def naive_strict(game, i, s, t):
    return all(
        game.payoff(with_choice(rest, i, s), i) < game.payoff(with_choice(rest, i, t), i)
        for rest in others(game, i)
    )


def naive_very_weak(game, i, s, t):
    return all(
        game.payoff(with_choice(rest, i, s), i) <= game.payoff(with_choice(rest, i, t), i)
        for rest in others(game, i)
    )


def naive_compatible(game, i, s, t):
    for rest in others(game, i):
        pa = with_choice(rest, i, s)
        pb = with_choice(rest, i, t)
        if game.payoff(pa, i) == game.payoff(pb, i):
            for j in range(game.n):
                if game.payoff(pa, j) != game.payoff(pb, j):
                    return False
    return True


def naive_nice_weak(game, i, s, t):
    return naive_weak(game, i, s, t) and naive_compatible(game, i, s, t)


def naive_payoff_equivalent(game, i, s, t):
    for rest in others(game, i):
        pa = with_choice(rest, i, s)
        pb = with_choice(rest, i, t)
        for j in range(game.n):
            if game.payoff(pa, j) != game.payoff(pb, j):
                return False
    return True


def mix_payoff(game, i, weights, rest, j):
    return sum(
        Fraction(w) * game.payoff(with_choice(rest, i, s), j) for s, w in weights.items()
    )


NAIVE_PURE = {
    "S": naive_strict,
    "W": naive_weak,
    "VW": naive_very_weak,
    "NW": naive_nice_weak,
    "PE": naive_payoff_equivalent,
    "COMPAT": naive_compatible,
}


def naive_mixed(game, tag, i, s, weights, rests):
    """Does the mix ``weights`` ({strategy: weight}) of player i TAG-dominate
    s over the opponents' profiles ``rests``?  With d the mix's payoff less
    s's for player i: SM needs d > 0 everywhere; VWM needs d >= 0; WM needs
    d >= 0 with some d > 0; NWM is WM with every player's payoffs equal
    where d = 0; PEM needs s outside the support and every player's payoffs
    equal everywhere."""
    diffs, ties = [], []
    for rest in rests:
        mine = [game.payoff(with_choice(rest, i, s), j) for j in range(game.n)]
        mix = [mix_payoff(game, i, weights, rest, j) for j in range(game.n)]
        diffs.append(mix[i] - mine[i])
        ties.append(mix == mine)
    weak = all(d >= 0 for d in diffs) and any(d > 0 for d in diffs)
    return {
        "SM": all(d > 0 for d in diffs),
        "WM": weak,
        "VWM": all(d >= 0 for d in diffs),
        "NWM": weak and all(tie for d, tie in zip(diffs, ties) if d == 0),
        "PEM": not weights.get(s) and all(ties),
    }[tag]


@st.composite
def small_games(draw, lo=-1, hi=1, fractional=False):
    """Games of shapes 2x2 to 3x3 and 2x2x2 with payoffs lo..hi (with
    ``fractional``, p/q for p in lo..hi and q in {1, 2, 3}), each player's
    last strategy optionally an exact clone of its first."""
    shape = draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3), (2, 2, 2)]))
    profiles = list(itertools.product(*(range(k) for k in shape)))
    payoff = st.integers(lo, hi)
    if fractional:
        payoff = st.builds(Fraction, payoff, st.sampled_from([1, 2, 3]))
    values = draw(st.lists(payoff, min_size=len(profiles) * len(shape), max_size=len(profiles) * len(shape)))
    labels = [[f"{chr(ord('a') + i)}{k}" for k in range(n)] for i, n in enumerate(shape)]
    table = {p: values[j * len(shape) : (j + 1) * len(shape)] for j, p in enumerate(profiles)}
    for i in range(len(shape)):
        if draw(st.booleans()):  # make the last strategy of player i a clone of the first
            for p in profiles:
                if p[i] == shape[i] - 1:
                    table[p] = table[p[:i] + (0,) + p[i + 1 :]]
    return new_game(labels, table)


@st.composite
def clone_games(draw, lo=-1, hi=1, budget=8):
    """Games built from a 2x2, 2x3 or 2x2x2 base with payoffs lo..hi by
    copying every base strategy into 1 to 3 exact clones; while there are
    more than ``budget`` strategies, the largest copy count drops by one."""
    shape = draw(st.sampled_from([(2, 2), (2, 3), (2, 2, 2)]))
    profiles = list(itertools.product(*(range(k) for k in shape)))
    values = draw(st.lists(st.integers(lo, hi), min_size=len(profiles) * len(shape), max_size=len(profiles) * len(shape)))
    copies = [draw(st.lists(st.integers(1, 3), min_size=k, max_size=k)) for k in shape]
    while sum(map(sum, copies)) > budget:
        per = max(copies, key=max)
        per[per.index(max(per))] -= 1
    origin = [[b for b, c in enumerate(per) for _ in range(c)] for per in copies]
    labels = [[f"{chr(ord('a') + i)}{k}" for k in range(len(o))] for i, o in enumerate(origin)]
    base = {p: values[j * len(shape) : (j + 1) * len(shape)] for j, p in enumerate(profiles)}
    table = {
        p: base[tuple(origin[i][q] for i, q in enumerate(p))]
        for p in itertools.product(*(range(len(o)) for o in origin))
    }
    return new_game(labels, table)
