"""Mixed-strategy machinery and mixed-dominance decisions.

Supported relations: SM (strict), WM (weak), VWM (very weak), NWM (nice weak:
weak plus compatibility of the pair), PEM (payoff equivalence; with the
dominated strategy outside the support this is randomized redundance).

Each query is first put to the mask rules (:func:`_by_masks`); only a query
they leave open goes to the exact LP.  With A the allowed support and A' = A
minus the dominated strategy s, the rules read per t in A' the columns where
u_i(t) > u_i(s), where u_i(t) < u_i(s), and where these tie and another
player's payoffs do not (:func:`pure._masks`' better, worse and split):
:func:`find_dominator` builds the first two from the integer rows
(:meth:`Game._int_rows`) and asks :func:`pure._masks` for the split ones
only when a rule needs them; the engine's layer builds the first two the
same way, over every column, once per strategy, and reads the split ones off
its pure masks.

A mix's payoff in one column lies between the payoffs of the strategies it
mixes (the one-column case of Pearce 1984, Lemma 3), so one column says "no"
to every tag where s beats every t in A' (VWM only with s outside A), to SM
where s ties or beats every t, and to PEM where some player's payoff at s
lies outside theirs; WM and NWM also fail when no t beats s.  And t's point
mass TAG-dominates s exactly when t dominates s under the tag's pure analog
(:func:`pure._analog`), so the first such t in A' is a "yes", after s's own
point mass when s is in A (VWM; SM over no columns).  These rules are the
only code that tries a point mass: with A' = {t} they decide every tag (NWM
fails where t ties s for player i only), and the LP deciders see only
questions that need a proper mix.

Every decider's LP takes its rows from one builder, :func:`_constraints`,
which lays out those integer rows as they are, with no rescaling.
Strictness is always decided by maximizing an exact margin and testing it
against zero, never by tolerance.  Every witness, point mass or LP point, is
re-verified before it leaves this module by :func:`witness_holds` (the tag's
pure analog on the mix's expected Fraction payoffs, :func:`pure._masks`),
and every rule's "no" carries a certificate, a column and a player, checked
on the Fraction payoffs by :func:`_certificate_holds`.  A ``columns=``
argument is a set (:class:`pure._Columns`): LP rows and a certificate's
column index follow ascending order, and its integer rows are picked from the
game's on first use, once per set.

The ``allowed_support`` argument makes the loose/strict elimination
distinction (dominators from the pre-step sets versus dominators that must
survive) a caller choice instead of two near-duplicate procedures.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from . import lp
from .errors import (
    DegenerateSubstitution,
    DominiaError,
    EmptySupport,
    IndexOutOfRange,
    ParseError,
)
from .game import Game, _as_fraction
from .lp import EQ, GE, ONE, ZERO
from .pure import _analog, _bits, _checked_columns, _Columns, _masks, _met
from .relations import Relation

# Count of witnesses that passed direct re-verification since import; a
# failed one raises instead.  Criterion 5 of the acceptance suite fails when
# its run does not make this grow.
verified_witness_count = 0


class WitnessVerificationError(DominiaError):
    """A witness or a "no" certificate failed direct re-evaluation (a bug in
    the LP or in the mask rules)."""


@dataclass(frozen=True)
class MixedStrategy:
    """Exact probability distribution over one player's strategies.

    ``weights`` holds only the strictly positive atoms, sorted by strategy
    index (an int), and sums to exactly 1.  A weight is an int or a Fraction:
    a float's rounding would decide exact comparisons.
    """

    player: int
    weights: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        total = ZERO
        last = -1
        for s, w in self.weights:
            if type(s) is not int or s < 0:
                raise IndexOutOfRange(f"atom {s!r} is not a strategy index")
            if type(w) not in (int, Fraction) or w <= 0:
                raise DominiaError(f"weight {w!r} of atom {s} is not an exact positive number")
            if s <= last:
                raise IndexOutOfRange("mixed strategy atoms must be sorted and distinct")
            total += w
            last = s
        if total != 1:
            raise DominiaError(f"weights sum to {total}, not 1")

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(s for s, _ in self.weights)

    def weight(self, strategy: int) -> Fraction:
        for s, w in self.weights:
            if s == strategy:
                return w
        return ZERO


def mixed_strategy(player: int, weights) -> MixedStrategy:
    """Normalize a {strategy: weight} mapping into a MixedStrategy (drops
    zeros).  A weight is an int, a Fraction or a rational string, read as
    :func:`game._as_fraction` reads payoffs; an atom that is not an int sorts
    first, for MixedStrategy to refuse."""
    weights = dict(weights)
    for s, w in weights.items():
        if isinstance(w, bool) or not isinstance(w, (int, Fraction, str)):
            raise ParseError(f"weight {w!r} of strategy {s!r} is not an int, a Fraction or a rational string")
    pairs = [(s, _as_fraction(w)) for s, w in weights.items()]
    pairs.sort(key=lambda p: p[0] if type(p[0]) is int else -1)
    return MixedStrategy(player, tuple(p for p in pairs if p[1] != 0))


@dataclass(frozen=True)
class MixedWitness:
    player: int
    dominated: int
    dominator: MixedStrategy
    relation: str


def _check_mixed(game: Game, m: MixedStrategy, player: int) -> None:
    if m.player != player:
        raise IndexOutOfRange(f"mixed strategy belongs to player {m.player}, not {player}")
    for s, _ in m.weights:
        game._check_strategy(player, s)


def substitute(m2: MixedStrategy, t1: int, m1: MixedStrategy) -> MixedStrategy:
    """Replace strategy ``t1`` inside ``m2`` by the mix ``m1`` and renormalize.

    The result never puts weight on ``t1``; the normalization denominator is
    1 - m2(t1)*m1(t1), which is zero exactly when both are the point mass on t1.
    """
    if m1.player != m2.player:
        raise IndexOutOfRange("substitution needs strategies of the same player")
    denom = ONE - m2.weight(t1) * m1.weight(t1)
    if denom == 0:
        raise DegenerateSubstitution("both mixes are the point mass on the substituted strategy")
    w2_t1 = m2.weight(t1)
    out: dict[int, Fraction] = {}
    atoms = set(m2.support) | set(m1.support)
    for x in atoms:
        if x == t1:
            continue
        v = m2.weight(x) + w2_t1 * m1.weight(x)
        if v != 0:
            out[x] = v / denom
    return mixed_strategy(m2.player, out)


def shrink_self_weight(strategy: int, m: MixedStrategy) -> MixedStrategy:
    """Remove the dominated strategy's own weight from its dominator and rescale."""
    w = m.weight(strategy)
    if w == 1:
        raise DegenerateSubstitution("cannot shrink a point mass on the strategy itself")
    if w == 0:
        return m
    rest = ONE - w
    return mixed_strategy(m.player, {x: v / rest for x, v in m.weights if x != strategy})


# -- decision procedures -----------------------------------------------------


def _check_tag(tag: str) -> None:
    if tag not in _DECIDERS:
        raise ValueError(f"unknown mixed tag {tag!r}")


def witness_holds(game: Game, tag: str, player: int, dominated: int, m: MixedStrategy, columns=None) -> bool:
    """Direct evaluation of the defining quantified conditions for one witness
    on the game's Fraction payoffs (:func:`pure._masks`, the tag's pure
    analog on the mix's expected payoffs), with every index checked once, up
    front, over the set ``columns`` (default: all).  PEM also needs s outside
    the support."""
    _check_tag(tag)
    game._check_strategy(player, dominated)
    _check_mixed(game, m, player)
    cols = _checked_columns(game, player, columns)
    if tag == "PEM" and dominated in m.support:
        return False
    return _met(_masks(game, (tag,), player, dominated, m, cols), cols.bits)


def verify_witness(game: Game, tag: str, player: int, dominated: int, m: MixedStrategy, columns=None) -> None:
    """Re-verify a witness; raises if the LP or a mask rule lied."""
    global verified_witness_count
    if not witness_holds(game, tag, player, dominated, m, columns):
        raise WitnessVerificationError(
            f"{tag} witness for player {player}, strategy {dominated} failed re-verification"
        )
    verified_witness_count += 1


def _certificate_holds(game: Game, tag: str, player: int, dominated: int, allowed, certificate, cols) -> bool:
    """Direct evaluation of a mask rule's "no" certificate ``(column, j)`` of a
    :func:`find_dominator` query: an index into its checked columns ``cols``
    in ascending order (None: all of them) and a player.  ``allowed`` is the
    support the tag's decider saw (without s for PEM); with A' = ``allowed``
    minus s, and u_j(x) player j's payoff at x and the column:

    - SM: u_i(s) >= u_i(t) for every t in A';
    - WM, NWM: u_i(s) > u_i(t) for every t in A', or, at every column (None),
      u_i(s) >= u_i(t);
    - NWM with j != i and A' = {t}: u_i(s) = u_i(t) and u_j(s) != u_j(t);
    - VWM: s is not allowed and u_i(s) > u_i(t) for every t in A';
    - PEM: s is not allowed and u_j(s) lies above, or below, every u_j(t).

    A certificate naming a column or player that is not there does not hold.
    """
    column, j = certificate
    if not 0 <= j < game.n or column is not None and not 0 <= column < len(cols):
        return False
    rest = [t for t in allowed if t != dominated]
    if (tag not in ("NWM", "PEM") and j != player) or (tag in ("VWM", "PEM") and len(rest) < len(allowed)):
        return False
    table = game._table

    def at(col, t, k=player):
        return table[Game.fill(col, player, t)][k]

    if column is None:
        return tag in ("WM", "NWM") and j == player and all(at(c, dominated) >= at(c, t) for c in cols for t in rest)
    col = cols[column]
    if tag == "NWM" and j != player:
        return len(rest) == 1 and at(col, dominated) == at(col, rest[0]) and at(col, dominated, j) != at(col, rest[0], j)
    mine = at(col, dominated, j)
    theirs = [at(col, t, j) for t in rest]
    if tag == "SM":
        return all(mine >= v for v in theirs)
    if tag == "PEM" and all(mine < v for v in theirs):
        return True
    return all(mine > v for v in theirs)


def _weights_from_point(allowed, point) -> dict[int, Fraction]:
    return {t: v for t, v in zip(allowed, point) if v != 0}


class _Rows:
    """Every player's :meth:`Game._int_rows` over a column set, ``rows[j]``
    (the game's list itself for all columns), each picked on first use:
    most queries are settled by player i's rows alone."""

    def __init__(self, cols: _Columns):
        self.game, self.i, self.positions = cols.game, cols.player, _bits(cols.bits)
        self._rows: list = [None] * cols.game.n

    def __getitem__(self, j: int) -> list[list[int]]:
        rows = self._rows[j]
        if rows is None:
            rows = self.game._int_rows(self.i, j)
            if len(rows) != len(self.positions):
                rows = [rows[k] for k in self.positions]
            self._rows[j] = rows
        return rows

    def __iter__(self):
        return map(self.__getitem__, range(self.game.n))


# not pure._masks: lp-queries' p50 rose 20% when find_dominator built its tie splits and tag tables per t
def _row_masks(cols: _Columns, i: int, s: int, allowed) -> dict[int, tuple[int, int]]:
    """:func:`pure._masks`' better and worse bits over ``cols`` of each t in
    ``allowed`` other than s, read off player i's integer rows."""
    positions, mine = _bits(cols.bits), _rows(cols)[i]
    masks = {}
    for t in allowed:
        if t == s:
            continue
        better = worse = 0
        for k, row in zip(positions, mine):
            x, v = row[t], row[s]
            if x > v:
                better |= 1 << k
            elif x < v:
                worse |= 1 << k
        masks[t] = better, worse
    return masks


def _by_masks(tag, i, s, allowed, masks, split, cols):
    """The mask rules (module docstring) over the bits of ``cols``, from
    ``masks[t] = (better, worse)`` and ``split(t)`` (asked only when needed)
    of each t in ``allowed`` other than s.  Returns ``(weights, None, None)``
    for a point mass; ``(None, certificate, refuted)`` for a "no" in
    :func:`_certificate_holds`' form at the lowest refuting column,
    ``refuted`` the strongest tag that column refutes alone (None: it holds
    over all of ``cols`` only); else ``(None, None, None)``."""
    bits = cols.bits
    rest = [t for t in allowed if t != s]
    analog = _analog(tag)
    # s's own point mass: VWM always, SM over no columns
    if len(rest) < len(allowed) and _met((analog(0, 0, 0),), bits):
        return {s: ONE}, None, None
    above = below = unbeaten = bits  # s above every t, below every t, beaten by none
    for t in rest:
        better, worse = masks[t]
        above &= worse
        below &= better
        unbeaten &= ~better

    def at(column):  # the index in ``cols`` of the lowest bit of ``column``
        return (bits & (column & -column) - 1).bit_count()

    if above:  # with s allowed, VWM holds by its point mass
        return None, (at(above), i), "VWM" if len(rest) == len(allowed) else None
    if tag == "SM" and unbeaten:
        return None, (at(unbeaten), i), "SM"
    if tag == "PEM" and below:
        return None, (at(below), i), "PEM"
    if tag in ("WM", "NWM") and unbeaten == bits:
        return None, (None, i), None
    for t in rest:
        if not _met((analog(*masks[t], 0),), bits):
            continue
        tied = split(t) & bits if tag in ("NWM", "PEM") else 0
        if not tied:
            return {t: ONE}, None, None
        if len(rest) == 1:
            c = at(tied)  # u_i ties there, so the first player apart is not i
            a, b = (cols.game._table[Game.fill(cols[c], i, x)] for x in (s, t))
            return None, (c, next(j for j, (u, v) in enumerate(zip(a, b)) if u != v)), tag if tag == "PEM" else None
    if tag == "PEM":
        pay = _rows(cols)
        for j in (j for j in range(cols.game.n) if j != i):
            for c, row in enumerate(pay[j]):
                vals = [row[t] for t in rest]
                if not min(vals) <= row[s] <= max(vals):
                    return None, (c, j), "PEM"
    return None, None, None


def _checked(game, tag, i, s, allowed, cols, weights, certificate) -> Optional[MixedWitness]:
    """The witness of ``weights`` once :func:`verify_witness` passes it, or
    None once :func:`_certificate_holds` passes ``certificate`` (or both None)."""
    if certificate is not None and not _certificate_holds(game, tag, i, s, allowed, certificate, cols):
        raise WitnessVerificationError(
            f"{tag} certificate {certificate} for player {i}, strategy {s} failed re-verification"
        )
    if weights is None:  # a rule's "no" comes without weights
        return None
    m = mixed_strategy(i, weights)
    verify_witness(game, tag, i, s, m, cols)
    return MixedWitness(i, s, m, tag)


def _constraints(pay, i, s, allowed, ties, margin):
    """The rows and ops of every mixed LP, over the weights on ``allowed``
    (summing to 1): every player's payoff equals s's on the columns ``ties``
    (in that order), and player i's payoff is at least s's on every other
    column, less a margin z on the columns in ``margin``.  z may be
    negative, and the LP's variables are not, so z is stated as z+ - z-, two
    columns after the weights, which only a non-empty ``margin`` adds."""
    z = [0, 0] if margin else []
    rows = [[*(player[c][t] for t in allowed), *z, player[c][s]] for c in ties for player in pay]
    ops = [EQ] * len(rows)
    for c, row in enumerate(pay[i]):
        if c not in ties:
            rows.append([*(row[t] for t in allowed), *([-1, 1] if c in margin else z), row[s]])
            ops.append(GE)
    rows.append([1] * len(allowed) + z + [1])
    ops.append(EQ)
    return rows, ops


def _margin_lp(pay, i, s, allowed, ties, margin) -> lp.LpOutcome:
    """Maximize the margin z of :func:`_constraints` (``margin`` not empty);
    the point's leading entries are the weights."""
    return lp.solve(lp.LpProblem(*_constraints(pay, i, s, allowed, ties, margin), [0] * len(allowed) + [1, -1]))


def _decide_sm(pay, i, s, allowed):
    if not pay[i]:  # no columns: every mix dominates vacuously
        return {allowed[0]: ONE}
    out = _margin_lp(pay, i, s, allowed, (), range(len(pay[i])))
    return _weights_from_point(allowed, out.point) if out.value > 0 else None


def _decide_wm(pay, i, s, allowed):
    # maximize total slack over all columns; strictly positive iff some
    # inequality can be made strict
    obj = [sum(row[t] for row in pay[i]) for t in allowed]
    base = sum(row[s] for row in pay[i])
    out = lp.solve(lp.LpProblem(*_constraints(pay, i, s, allowed, (), ()), obj))
    return _weights_from_point(allowed, out.point) if out.optimal and out.value > base else None


def _feasible(pay, i, s, allowed, ties):
    """The weights of some point of :func:`_constraints` with no margin, or None."""
    out = lp.solve(lp.LpProblem(*_constraints(pay, i, s, allowed, ties, ()), [0] * len(allowed)))
    return _weights_from_point(allowed, out.point) if out.optimal else None


def _decide_nwm(pay, i, s, allowed):
    """Nice weak mixed dominance by implicit equalities (Schrijver 1986,
    §8.2).

    P_T is the set of mixes that give every player s's payoff on the columns
    T and give player i at least s's payoff elsewhere.  Every witness lies
    in P_T for T the forced ties (no allowed t beats s there) grown by
    P_T's implicit equalities (columns where all of P_T ties), since a
    witness that ties somewhere matches every player there.  Each round's
    margin LP over the columns outside T decides: above 0, its point ties
    exactly on T and is a witness; infeasible or below 0, P_T is empty; at
    0, some column is an implicit equality (else the mean of points strict
    on each would be strict on all), and each column whose own margin LP
    has optimum 0 joins T.  Before the first such test the WM decider is
    asked once: an NWM witness is a WM one, so without a WM witness there
    is none.  The added columns follow the forced ties in ascending order,
    so the witness does not depend on when a column joined.
    """
    mine = pay[i]
    every = range(len(mine))
    ties = [c for c in every if max([mine[c][t] for t in allowed]) == mine[c][s]]
    forced = len(ties)
    while len(ties) < len(mine):
        out = _margin_lp(pay, i, s, allowed, ties, every)
        if not out.optimal or out.value < 0:
            return None
        if out.value > 0:
            return _weights_from_point(allowed, out.point)
        if len(ties) == forced and _decide_wm(pay, i, s, allowed) is None:
            return None  # NWM implies WM
        implicit = [c for c in every if c not in ties and _margin_lp(pay, i, s, allowed, ties, (c,)).value == 0]
        ties[forced:] = sorted(ties[forced:] + implicit)
    return None


# Each decider gets ``pay[j]``, player j's integer rows over the quantified
# columns (a :class:`_Rows`), the player, the dominated strategy
# and the allowed support; it returns dominator weights or None.
_DECIDERS = {
    "SM": _decide_sm,
    "WM": _decide_wm,
    "VWM": lambda pay, i, s, allowed: _feasible(pay, i, s, allowed, ()),
    "NWM": _decide_nwm,
    "PEM": lambda pay, i, s, allowed: _feasible(pay, i, s, allowed, range(len(pay[i]))),
}


def find_dominator(
    game: Game,
    relation: Relation,
    player: int,
    strategy: int,
    allowed_support: Iterable[int],
    columns=None,
) -> Optional[MixedWitness]:
    """Search for a mixed dominator of ``strategy`` with support inside
    ``allowed_support`` (PEM additionally excludes the strategy itself).

    ``columns`` is the set of opponents' joint profiles quantified over
    (order and repeats are ignored); by default all of them.  The first
    member relation of a union that yields a witness wins.  Each member is
    put to the mask rules (:func:`_by_masks`) and to its LP decider only
    when they leave it open.  A rule's "no" carries a certificate, checked
    by :func:`_certificate_holds`; a rule's yes is the point mass of the
    first allowed strategy that dominates s under the tag's pure analog, so
    the LP is asked only for a proper mix; every witness is re-verified by
    :func:`verify_witness`.  A failed check raises
    :class:`WitnessVerificationError`.
    """
    if not relation.mixed:
        raise ValueError("find_dominator needs a mixed relation")
    allowed, cols, _ = _query(game, player, strategy, allowed_support, columns)
    masks = _row_masks(cols, player, strategy, allowed)
    split = lambda t: _masks(game, ("COMPAT",), player, strategy, t, cols)[0][0]  # seldom asked
    for tag in relation.tags:
        member_allowed = _member_support(tag, allowed, strategy)
        if not member_allowed:
            continue
        weights, certificate, _ = _by_masks(tag, player, strategy, member_allowed, masks, split, cols)
        if weights is None and certificate is None:
            w = _decided(game, tag, player, strategy, member_allowed, cols)
        else:
            w = _checked(game, tag, player, strategy, member_allowed, cols, weights, certificate)
        if w is not None:
            return w
    return None


def _decided(game: Game, tag: str, i: int, s: int, allowed, cols: _Columns) -> Optional[MixedWitness]:
    """The tag's LP decider's answer to a question the mask rules left open,
    its witness checked by :func:`_checked`; ``allowed`` is the support the
    decider sees, in ascending order."""
    return _checked(game, tag, i, s, allowed, cols, _DECIDERS[tag](_rows(cols), i, s, allowed), None)


def _query(game: Game, player: int, strategy: int, allowed_support, columns):
    """The checked allowed support, columns and :class:`_Rows` of a query."""
    game._check_strategy(player, strategy)
    allowed = set(allowed_support)
    for t in allowed:
        game._check_strategy(player, t)
    if not allowed:
        raise EmptySupport(f"empty allowed support for player {player}")
    allowed = tuple(sorted(allowed))
    cols = _checked_columns(game, player, columns)
    return allowed, cols, _rows(cols)


def _rows(cols: _Columns) -> _Rows:
    """The :class:`_Rows` of a column set, built on first use."""
    if cols.pay is None:
        cols.pay = _Rows(cols)
    return cols.pay


def _member_support(tag: str, allowed, strategy: int):
    """The support a member relation's decider sees: PEM excludes s itself."""
    return tuple(t for t in allowed if t != strategy) if tag == "PEM" else allowed


def lp_dominator(game: Game, tag: str, player: int, strategy: int, allowed_support, columns=None):
    """The LP decider's own answer for one tag, with no mask rule in front:
    dominator weights ``{t: w}``, or None.  ``columns`` is a set, as for
    :func:`find_dominator`.  The reference the acceptance suite and the tests
    hold :func:`find_dominator`'s mask rules against."""
    _check_tag(tag)
    allowed, _, pay = _query(game, player, strategy, allowed_support, columns)
    allowed = _member_support(tag, allowed, strategy)
    return _DECIDERS[tag](pay, player, strategy, allowed) if allowed else None


def mixed_dominated_set(game: Game, relation: Relation) -> list[list[MixedWitness]]:
    """Per player, one witness per strategy s dominated by a mix of the
    player's other strategies.  As for pure dominance, the dominator is
    distinct from s: under VWM the point mass on s would dominate s, and
    under the other tags a mix dominates s iff its part off s does.  A
    player with one strategy has none dominated.  Each witness is
    :func:`find_dominator`'s, decided on the game's engine layer, which
    searches of the game share.  Deterministic: the LP pivot rule and the
    order of every LP's constraints are fixed."""
    from .engine import _layer  # the engine builds on this module

    if not relation.mixed:
        raise ValueError("mixed_dominated_set needs a mixed relation")
    return _layer(game).mixed_dominated(relation)

