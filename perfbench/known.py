"""Known answers computed without the package's decision procedures.

The checks here read payoffs from a ``Game`` and nothing else: no LP, no
dominance routine, no engine.  The mixed check enumerates the vertices of a
small polytope by exact Gaussian elimination, so it shares no code path with
the simplex it checks.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from dominia import Game


def _rows(game: Game, i: int, s: int):
    """Player i's strategy s as one payoff vector per opponents' profile."""
    return [game.payoff_vector(Game.fill(col, i, s)) for col in game.opponent_profiles(i)]


def pure_irreducible(game: Game) -> bool:
    """No strategy is payoff equivalent to, or nicely weakly dominated by,
    another strategy of the same player (strict dominance is nice weak
    dominance with no ties, so it is excluded too)."""
    for i in range(game.n):
        rows = [_rows(game, i, s) for s in range(len(game.strategies[i]))]
        for s, t in itertools.permutations(range(len(rows)), 2):
            if rows[s] == rows[t]:
                return False
            pairs = list(zip(rows[s], rows[t]))
            weak = all(a[i] <= b[i] for a, b in pairs) and any(a[i] < b[i] for a, b in pairs)
            compatible = all(a == b for a, b in pairs if a[i] == b[i])
            if weak and compatible:
                return False
    return True


def is_base_copy(nf: Game, base: Game) -> bool:
    """``nf`` keeps exactly one clone of every base strategy (clone labels are
    ``<base label>_<copy>``) and carries the base game's payoffs."""
    for i in range(base.n):
        if tuple(lab.rsplit("_", 1)[0] for lab in nf.strategies[i]) != base.strategies[i]:
            return False
    return all(nf.payoff_vector(p) == base.payoff_vector(p) for p in base.profiles())


def _solve(rows, rhs):
    """The unique solution of rows @ x == rhs, or None when the system is
    inconsistent or underdetermined.  Exact RREF over Fractions."""
    n = len(rows[0])
    aug = [[Fraction(v) for v in r] + [Fraction(b)] for r, b in zip(rows, rhs)]
    rank = 0
    for c in range(n):
        piv = next((k for k in range(rank, len(aug)) if aug[k][c] != 0), None)
        if piv is None:
            return None
        aug[rank], aug[piv] = aug[piv], aug[rank]
        inv = 1 / aug[rank][c]
        aug[rank] = [v * inv for v in aug[rank]]
        for k in range(len(aug)):
            if k != rank and aug[k][c] != 0:
                f = aug[k][c]
                aug[k] = [a - f * b for a, b in zip(aug[k], aug[rank])]
        rank += 1
    if any(r[n] != 0 for r in aug[rank:]):
        return None
    return [aug[k][n] for k in range(n)]


def _vertices(margins, equalities, k):
    """Vertices of {x >= 0, sum x = 1, margins @ x >= 0, equalities hold} in
    R^k.  A vertex with support S is the unique solution of the sum row, the
    equality rows and at most |S| - 1 tight margin rows, restricted to S."""
    out = set()
    for size in range(1, k + 1):
        for support in itertools.combinations(range(k), size):
            base_rows = [[1] * size] + [[row[t] for t in support] for row, _ in equalities]
            base_rhs = [1] + [b for _, b in equalities]
            for tight in range(size):
                for cols in itertools.combinations(range(len(margins)), tight):
                    x = _solve(
                        base_rows + [[margins[c][t] for t in support] for c in cols],
                        base_rhs + [0] * tight,
                    )
                    if x is None or any(v < 0 for v in x):
                        continue
                    point = [Fraction(0)] * k
                    for t, v in zip(support, x):
                        point[t] = v
                    if all(sum(m * p for m, p in zip(row, point)) >= 0 for row in margins):
                        out.add(tuple(point))
    return out


def weak_mixed_dominated(game: Game, i: int, s: int, allowed, nice: bool) -> bool:
    """Is s weakly (``nice``: nicely weakly) dominated by a mix over ``allowed``?

    Let P be the mixes whose payoff is at least s's in every column.  WM holds
    iff some point of P is strictly better somewhere, i.e. iff not every
    vertex of P ties everywhere.  For NWM, a witness must also match every
    player's payoff where it ties; every compatible point lies in P cut by
    the matching equalities of the columns that tie on all of P, so cutting
    until the set of all-tie columns stops growing leaves a polytope whose
    relative interior is compatible, and NWM holds iff that set of columns is
    not all of them."""
    cols = game.opponent_profiles(i)
    me = _rows(game, i, s)
    them = [_rows(game, i, t) for t in allowed]
    if any(mine[i] > max(row[c][i] for row in them) for c, mine in enumerate(me)):
        return False  # some column where no allowed strategy reaches s
    margins = [[row[c][i] - me[c][i] for row in them] for c in range(len(cols))]
    ties: set[int] = set()
    equalities: list = []
    while True:
        verts = _vertices(margins, equalities, len(them))
        if not verts:
            return False
        now = {c for c in range(len(cols)) if all(sum(m * p for m, p in zip(margins[c], v)) == 0 for v in verts)}
        if not nice or now == ties:
            return len(now) < len(cols)
        ties = now
        equalities = [
            ([row[c][j] for row in them], me[c][j]) for c in sorted(ties) for j in range(game.n) if j != i
        ]
