"""The abstract-reduction-system layer over games.

A RelationSpec picks a dominance relation, an arrow flavor and a step mode:

* arrow "strict": every removed strategy needs a dominator (or, for mixed
  dominators, a support) that survives the step;
* arrow "loose": dominators range over the full pre-step strategy sets;
* step "any": one transition may remove any valid non-empty combination of
  strategies across players (bulk elimination);
* step "single": one transition removes exactly one strategy.

On single steps the two arrows coincide for every relation: a dominator's
support is drawn from the player's kept strategies other than s
(:meth:`_Dominance.witness`), so a step that removes s alone keeps it.

A state is one int bitmask over the root's strategies (player i's strategy s
is bit ``off[i] + s``), since every reachable game is a restriction of the
root; a successor is ``state & ~removed``.  Kept index tuples are built only
for games, the columns of mixed and inherent queries, trace labels and the
sort key that fixes the order of successors.  Everything exhaustive here
raises SizeBoundExceeded past the configured total strategy bound.

One _Dominance layer per root answers every question of every relation, of
the root itself over the opponents' kept profiles: a bitset over the root's
opponent profiles, from pure._column_bits once per (player, opponents' kept
strategies).  State keys, games, column sets and clone classes depend on the
root alone, and so do pure answers: pure._masks, where every tag is defined,
gives once per (player, s, t) every pure tag's fail and need masks, and t
dominates s in a state under a relation iff the kept profiles meet no fail
bit and some need bit of one of its tags.  A mixed question goes to
:func:`mixed._settled`: the mask rules on the better and worse masks
:func:`mixed._row_masks` reads off the integer rows once per (player, s),
then the LP if they leave it open, every certificate and witness checked on
the Fraction payoffs.  Mixed and inherent questions ask the root over the
kept columns, the :class:`pure._Columns` at that bitset, which carries the
root's integer payoff rows (:meth:`Game._int_rows`) picked there once.  A
mixed union asks its tags one at a time, in order, and says yes at the first
that does.
Answers are kept per (player, s), each labelled by its mixed tag or inherent
relation, with the column bitset B and the allowed support A it was asked
over.  By their definitions the tags nest over a non-empty column set, SM ⊆
NWM ⊆ WM ⊆ VWM and PEM ⊆ VWM, so a yes answers every tag its own implies and
a "no" every tag that implies its own; SM holds vacuously on no columns and
WM does not, so an answer crosses tags only when both column sets are
non-empty.  An inherent relation implies only itself: inherent WM = SM
(Pearce 1984) is a theorem the suite checks, not a definition.  Every
question asks "is there a dominator of s with support inside A over these
columns", so an answer is reused on columns C and allowed A' by monotonicity
in A and by hereditarity (Apt 2004; for mixes the one-column case of Pearce
1984, Lemma 3): a strategy stays dominated in a restriction that keeps its
dominator.  A support inside A' answers yes, and a "no" for A containing A'
answers no, on C = B; on other columns one symmetric rule holds, a yes on C
inside B and a "no" on C containing B, when the asked or the kept tag is
pointwise (SM, VWM, PEM: defined column by column) or the relation is
inherent.  A pointwise witness restricts to fewer columns, a WM or NWM
witness over B is a VWM one on every C inside B, a chain covers every
subset of B, and a failing subset of B lies in C; WM and NWM are not
hereditary, so their questions on other columns are decided afresh.  A rule's
refutation by one column is checked as, and kept under, the strongest tag it
refutes there (VWM where s beats every t, SM where it ties or beats every t,
PEM for a payoff outside their range), over that column alone.  A reused
support may differ from the one a fresh search would find; results depend
only on verdicts, since :meth:`_Dominance.survives` asks again whenever the
removal meets the support.  Inherent chains' mixed links and
:func:`mixed.mixed_dominated_set` ask the layer too
(:meth:`_Dominance.mixed_witness`), for :func:`find_dominator`'s witness:
kept in the answer of each fresh yes, asked once for a reused one and kept
in an answer of its own; on a game no search asks they pay for the layer
they build, a little more than asking :func:`find_dominator` alone.  The last
root any public call asked keeps its layer, compared by identity, for the
next call on that game object, whatever its relations; a call on another
game object replaces it.  Each call reads that slot once, so concurrent
calls on different games stay correct.  Only the searches, ``maximal_reduce``
and ``fully_reduce`` check the size bound.  Reach sets are int bitsets,
built bottom-up: every step removes strategies.

Exact clones (strategies of one player with identical payoff vectors, for
every player, in every opponent profile) are interchangeable: permuting them
is an automorphism of the root, and every relation here is defined by
payoffs alone, so it commutes with every successor relation.  A _Search
takes clone classes; a choice removes a count from each class, always its
highest-indexed kept members, so from a canonical state (each class keeps
its lowest-indexed members) every successor is canonical.  The full search
is the same code with singleton classes.  The quotient is used only where it
is exact: ``normal_forms`` in both modes (each canonical normal form is
expanded over its orbit, ``explored_states`` sums orbit sizes, and renaming
classes are unions of orbits), and so weak confluence in both modes, which
by Newman's lemma is uniqueness of the normal forms, and one-at-a-time, whose
reachable sets are unions of orbits.  Left commutation asks whether two reach
sets share a state, which orbits do not decide, and ``successors`` and
``single_step_trace`` report single states; these and one-step closure stay
on the full search.  So does every counterexample: it is the first failure
in full BFS order, which the quotient does not follow, found on reach sets of
normal forms.  ``maximal_reduce`` and ``fully_reduce`` run no search: each
follows one path on the root's layer (:func:`_layer`), ``fully_reduce`` by
single PEM removals, least (player, index) first.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Union

from .game import Game, restrict
from .inherent import InherentQuery, _chain
from .mixed import MixedWitness, _row_masks, _settled, find_dominator
from .pure import CheckOutcome, _bits, _check_bound, _checked_columns, _column_bits, _masks, _met
from .equivalence import clone_classes, partition_by_equivalence
from .relations import PEM, PURE_TAGS, Inherent, Relation, union

STRICT, LOOSE = "strict", "loose"
ANY, SINGLE = "any", "single"

StateKey = tuple[tuple[int, ...], ...]

# mixed tags defined column by column: a witness over some columns is one
# over each subset of them
_POINTWISE = {"SM", "VWM", "PEM"}
# mixed tag -> the tags it implies over a non-empty column set (module docstring)
_IMPLIES = {
    "SM": ("SM", "NWM", "WM", "VWM"),
    "NWM": ("NWM", "WM", "VWM"),
    "WM": ("WM", "VWM"),
    "PEM": ("PEM", "VWM"),
    "VWM": ("VWM",),
}
_ONE_TAG = {tag: Relation((tag,)) for tag in _IMPLIES}


@dataclass(frozen=True)
class RelationSpec:
    relation: Union[Relation, Inherent]
    arrow: str = STRICT
    step: str = ANY

    def __post_init__(self):
        if self.arrow not in (STRICT, LOOSE):
            raise ValueError(f"arrow must be strict or loose, got {self.arrow!r}")
        if self.step not in (ANY, SINGLE):
            raise ValueError(f"step must be any or single, got {self.step!r}")

    def __str__(self) -> str:
        return f"{self.relation}/{self.arrow}/{self.step}"


@dataclass(frozen=True)
class ReductionStep:
    removed: tuple[tuple[str, ...], ...]  # labels removed per player
    result: Game
    strict_valid: bool
    degenerate: bool


@dataclass(frozen=True)
class ReductionPath:
    root: Game
    steps: tuple[ReductionStep, ...]

    @property
    def endpoint(self) -> Game:
        return self.steps[-1].result if self.steps else self.root


@dataclass(frozen=True)
class ConfluenceReport:
    normal_forms: tuple[Game, ...]
    classes: tuple[tuple[int, ...], ...]
    explored_states: int
    unique: bool
    counterexample: Optional[tuple[Game, Game]]


class _Dominance:
    """Dominance answers on the restrictions of one root game under every
    relation; the only place that tells pure, mixed and inherent apart."""

    def __init__(self, root: Game):
        self.root = root
        self.off = list(itertools.accumulate((len(s) for s in root.strategies), initial=0))
        self.full = [(1 << len(s)) - 1 for s in root.strategies]
        self.start = (1 << self.off[-1]) - 1
        self._profiles = [_checked_columns(root, i) for i in range(root.n)]
        self._keys: dict[int, StateKey] = {}
        self._games: dict[int, Game] = {self.start: root}
        self._columns: dict = {}
        # (player, s, t) -> every pure tag's masks, by tag
        self._pairs: dict = {}
        # (player, s) -> {t: (better, worse)}, what the mask rules read
        self._row_masks: dict = {}
        # (player, s) -> [(mixed tag or inherent relation, column bitset,
        # allowed, support or None, a mixed yes's witness or None)]: reused
        # across column sets and tags, the witness only by mixed_witness, for
        # that very question
        self._answers: dict = {}

    @functools.cached_property
    def clones(self) -> list[list[int]]:
        """Per player, the root's exact-clone classes as masks (bit s for
        strategy s)."""
        return [[sum(1 << s for s in c) for c in classes] for classes in clone_classes(self.root)]

    def kept(self, state: int, i: int) -> int:
        """Player i's kept strategies, bit s for strategy s."""
        return state >> self.off[i] & self.full[i]

    def key(self, state: int) -> StateKey:
        """Per-player kept root indices of a state."""
        k = self._keys.get(state)
        if k is None:
            k = self._keys[state] = tuple(_bits(self.kept(state, i)) for i in range(self.root.n))
        return k

    def game(self, state: int) -> Game:
        if state not in self._games:
            # the last step of maximal_reduce may empty a player
            self._games[state] = restrict(self.root, self.key(state), allow_degenerate=True)
        return self._games[state]

    def witness(self, rel: Union[Relation, Inherent], state: int, i: int, s: int, allowed: int) -> Optional[int]:
        """Support of a ``rel``-dominator of s drawn from ``allowed`` (kept
        strategies of player i other than s, bit t for strategy t) as such a
        mask, or None.  Pure relations report every dominator in ``allowed``,
        mixed ones a witness's support and inherent ones the union of the
        supports of a chain's dominators (0 for the empty chain over no
        columns).  A mixed union asks its tags in
        order and says yes at the first that does.  An earlier answer may
        answer, under a tag it implies or is implied by, on these columns or,
        by hereditarity, on others (module docstring)."""
        if not allowed:
            return None
        others = state & ~(self.full[i] << self.off[i])
        cols = self._columns.get((i, others))
        if cols is None:
            cols = self._columns[i, others] = self._profiles[i].subset(_column_bits(self.root, self.key(state), i))
        if isinstance(rel, Relation) and not rel.mixed:
            found = 0
            for t in _bits(allowed):
                masks = self._pair(i, s, t)
                if _met([masks[tag] for tag in rel.tags], cols.bits):
                    found |= 1 << t
            return found or None
        for label in (rel,) if isinstance(rel, Inherent) else rel.tags:
            support = self._answer(label, i, s, cols, allowed)
            if support is not None:
                return support
        return None

    def mixed_witness(self, rel: Relation, i: int, s: int, cols, allowed: int) -> Optional[MixedWitness]:
        """:func:`find_dominator`'s witness for s over ``cols`` with support in
        ``allowed`` (not holding s), each tag's verdict :meth:`_answer`'s: the
        witness of a fresh yes to this very question, else asked once and kept."""
        for tag in rel.tags:
            if self._answer(tag, i, s, cols, allowed) is not None:
                past = self._answers[i, s]
                for x, b, a, _, w in past:
                    if w is not None and x == tag and b == cols.bits and a == allowed:
                        return w
                w = find_dominator(self.root, _ONE_TAG[tag], i, s, _bits(allowed), columns=cols)
                past.append(self._entry(tag, cols, allowed, w))
                return w
        return None

    def mixed_dominated(self, rel: Relation) -> list[list[MixedWitness]]:
        """Per player, :meth:`mixed_witness` over every column for each root
        strategy that a mix of the player's other strategies dominates."""
        out: list[list[MixedWitness]] = []
        for i, k in enumerate(self.root.shape):
            found = (self.mixed_witness(rel, i, s, self._profiles[i], self.full[i] & ~(1 << s)) for s in range(k))
            out.append([w for w in found if w is not None] if k > 1 else [])
        return out

    def _pair(self, i: int, s: int, t: int) -> dict:
        """Every pure tag's masks of t against s for player i, by tag."""
        masks = self._pairs.get((i, s, t))
        if masks is None:
            masks = _masks(self.root, PURE_TAGS, i, s, t, self._profiles[i])
            masks = self._pairs[i, s, t] = dict(zip(PURE_TAGS, masks))
        return masks

    @staticmethod
    def _entry(tag: str, cols, allowed: int, w: Optional[MixedWitness]) -> tuple:
        """The answer kept for a mixed tag's witness ``w`` (or None) over ``cols``."""
        return tag, cols.bits, allowed, None if w is None else sum(1 << t for t in w.dominator.support), w

    def _answer(self, label: Union[str, Inherent], i: int, s: int, cols, allowed: int) -> Optional[int]:
        """:meth:`witness` for one mixed tag or one inherent relation."""
        bits = cols.bits
        # an answer for s under tag x over columns b and allowed set a, asked
        # again: monotone in ``allowed``, and a yes answers every tag x
        # implies, a "no" every tag implying x; on other columns only where
        # one tag is pointwise or a chain covers every subset: a yes on
        # fewer, a "no" on more
        past = self._answers.setdefault((i, s), [])
        hereditary = label in _POINTWISE or isinstance(label, Inherent)
        for x, b, a, support, _ in past:
            if x != label and not (b and bits):
                continue  # SM holds on no columns, where WM and NWM fail
            if support is None:
                implied, monotone, carried = x in _IMPLIES.get(label, (label,)), not allowed & ~a, not b & ~bits
            else:
                implied, monotone, carried = label in _IMPLIES.get(x, (x,)), not support & ~allowed, not bits & ~b
            if implied and monotone and (b == bits or carried and (hereditary or x in _POINTWISE)):
                return support
        if isinstance(label, Inherent):
            result = _chain(self.root, InherentQuery(label.base, i, s, _bits(allowed)), cols, self.mixed_witness)
            support = 0 if result.dominated else None
            for _, d in result.chain:
                support |= sum(1 << t for t in d.dominator.support) if label.base.mixed else 1 << d
            past.append((label, bits, allowed, support, None))
            return support
        rest = _bits(allowed)
        masks = self._row_masks.get((i, s))
        if masks is None:
            masks = self._row_masks[i, s] = _row_masks(self._profiles[i], i, s, range(len(self.root.strategies[i])))
        w, certificate, refuted = _settled(self.root, label, i, s, rest, cols, masks)
        if refuted:  # one column refutes: kept over it alone, for every C holding it
            past.append((refuted, 1 << _bits(bits)[certificate[0]], allowed, None, None))
            return None
        entry = self._entry(label, cols, allowed, w)
        past.append(entry)
        return entry[3]

    def loose(self, rel: Union[Relation, Inherent], state: int, i: int) -> dict[int, int]:
        """Player i's ``rel``-dominated strategies, each with its :meth:`witness`
        support drawn from the player's other kept strategies."""
        kept = self.kept(state, i)
        found = {}
        for s in _bits(kept):
            support = self.witness(rel, state, i, s, kept & ~(1 << s))
            if support is not None:
                found[s] = support
        return found

    def survives(self, rel: Union[Relation, Inherent], state: int, i: int, s: int, removed: int, support: int) -> bool:
        """Is s still ``rel``-dominated by strategies outside ``removed``?  Its
        loose support answers when that survives (or, for a pure relation,
        when any dominator does); otherwise ask with the survivors."""
        if isinstance(rel, Relation) and not rel.mixed:
            return bool(support & ~removed)
        return not removed & support or self.witness(rel, state, i, s, self.kept(state, i) & ~removed) is not None


class _Search:
    """Memoized exploration of one (root, spec) reduction system.

    ``classes`` gives per player the masks of the strategy classes whose
    members the search treats as interchangeable: every removal takes the
    highest-indexed kept members of a class.  With singleton classes (the
    default) this is the full search; :meth:`quotient` gives the search over
    canonical states."""

    def __init__(self, layer: _Dominance, spec: RelationSpec, classes: Optional[list[list[int]]] = None):
        self.layer = layer
        self.spec = spec
        self.start = layer.start
        self.game = layer.game
        self.key = layer.key
        self.classes = classes or [[1 << s for s in range(k)] for k in layer.root.shape]
        self._succ: dict[int, tuple[int, ...]] = {}

    def quotient(self) -> _Search:
        """This search on canonical states only: those that keep, in each
        exact-clone class of the root, its lowest-indexed members.  Permuting
        clones is an automorphism of the root, so a removal's validity does
        not change under the permutations that fix a state; the canonical
        successors of a canonical state are therefore one per orbit of its
        full successors."""
        clones = self.layer.clones
        if sum(map(len, clones)) == self.layer.off[-1]:
            return self  # no clones: every state is canonical
        return _Search(self.layer, self.spec, clones)

    def orbit(self, state: int) -> list[int]:
        """Every state with the same kept count in each class as ``state``."""
        parts = []
        for i, classes in enumerate(self.classes):
            kept, off = self.layer.kept(state, i), self.layer.off[i]
            for cls in classes:
                members = _bits(cls)
                parts.append([
                    sum(1 << off + s for s in c)
                    for c in itertools.combinations(members, (kept & cls).bit_count())
                ])
        return [sum(p) for p in itertools.product(*parts)]

    def orbit_size(self, state: int) -> int:
        """``len(self.orbit(state))``, as a product of binomials."""
        return math.prod(
            math.comb(cls.bit_count(), (self.layer.kept(state, i) & cls).bit_count())
            for i, classes in enumerate(self.classes)
            for cls in classes
        )

    def _player_choices(self, state: int, i: int) -> list[int]:
        """Valid removal masks for player i (non-empty), per the spec's arrow
        and step mode; [] when the player cannot lose anything.  A choice
        removes some number of each class's highest-indexed kept members."""
        layer, rel = self.layer, self.spec.relation
        kept = layer.kept(state, i)
        # (removal, per class it draws on: the highest kept member and its
        # support); a class's kept members are all dominated or none is
        removals = [(0, ())]
        for cls in self.classes[i]:
            members = kept & cls
            if not members:
                continue
            top = members.bit_length() - 1
            support = layer.witness(rel, state, i, top, kept & ~(1 << top))
            if support is None:
                continue
            rep = ((top, support),)
            if self.spec.step == SINGLE:
                removals.append((1 << top, rep))
                continue
            more, taken = [], 0
            for s in reversed(_bits(members)):
                taken |= 1 << s
                more += [(r | taken, reps + rep) for r, reps in removals]
            removals += more
        strict = self.spec.arrow == STRICT
        # removing all kept strategies leaves no surviving dominator (strict)
        # or a degenerate game (loose); removed clones of one class stand or
        # fall together, so the highest one answers for all
        return [
            removed << layer.off[i]
            for removed, reps in removals[1:]
            if removed != kept
            and (not strict or all(layer.survives(rel, state, i, top, removed, support) for top, support in reps))
        ]

    def successors(self, state: int) -> tuple[int, ...]:
        cached = self._succ.get(state)
        if cached is not None:
            return cached
        options = [self._player_choices(state, i) for i in range(self.layer.root.n)]
        if self.spec.step == SINGLE:
            removals = [r for opts in options for r in opts]
        else:
            # every combination of at most one choice per player, none first
            removals = [0]
            for opts in options:
                removals += [r | o for r in removals for o in opts]
            del removals[0]
        result = tuple(sorted((state ^ r for r in removals), key=self.key))
        self._succ[state] = result
        return result

    # -- reachability ----------------------------------------------------

    def states(self, *others: _Search) -> list[int]:
        """All states reachable from the root state under the steps of this
        search and of ``others`` (searches on the same root), in BFS order."""
        seen = {self.start}
        order = [self.start]
        for st in order:
            for search in (self,) + others:
                for succ in search.successors(st):
                    if succ not in seen:
                        seen.add(succ)
                        order.append(succ)
        return order

    def reach(self, states: list[int], label: dict[int, int]) -> dict[int, int]:
        """Reflexive-transitive successor set of every state in ``states``
        (which must be closed under this search's steps), as a bitset with
        bit ``label[x]`` for each labelled state x reached."""
        out: dict[int, int] = {}
        # a step removes strategies, so successors come first
        for st in sorted(states, key=int.bit_count):
            acc = 1 << label[st] if st in label else 0
            for succ in self.successors(st):
                acc |= out[succ]
            out[st] = acc
        return out


# the layer of the last public call's root, compared by identity
_last: Optional[_Dominance] = None


def _layer(game: Game) -> _Dominance:
    """The root's layer: the last call's when it asked this very game
    object.  What the layer builds from the root, and every answer it keeps,
    serves every relation."""
    global _last
    layer = _last  # read once: a concurrent call may replace it
    if layer is None or layer.root is not game:
        layer = _last = _Dominance(game)
    return layer


def _searches(game: Game, bound: Optional[int], *specs: RelationSpec) -> list[_Search]:
    """One search per spec, all on the root's :func:`_layer`, past the bound check."""
    _check_bound(game, bound)
    layer = _layer(game)
    return [_Search(layer, spec) for spec in specs]


def successors(game: Game, spec: RelationSpec, bound: Optional[int] = None) -> tuple[Game, ...]:
    """All one-step reducts of the game under the spec, deduplicated and in a
    fixed order."""
    [search] = _searches(game, bound, spec)
    return tuple(search.game(st) for st in search.successors(search.start))


def normal_forms(
    game: Game,
    spec: RelationSpec,
    up_to_renaming: bool = False,
    bound: Optional[int] = None,
) -> ConfluenceReport:
    """Exhaustively enumerate every reachable normal form.

    ``unique`` means one normal form exactly, or one renaming class when
    ``up_to_renaming`` is set; in the non-unique case the report carries a
    witness pair of one-step reducts that cannot be joined again."""
    search, quotient, canonical_nfs, states, explored = _normal_forms(game, spec, bound)
    classes = _classes(quotient, canonical_nfs, states)
    counterexample = _first_unjoined(search, states, classes if up_to_renaming else None)
    return ConfluenceReport(tuple(map(search.game, states)), classes, explored, counterexample is None, counterexample)


def _normal_forms(game: Game, spec: RelationSpec, bound: Optional[int]):
    """(search, quotient, its normal forms, every normal form in report order, explored_states)."""
    [search] = _searches(game, bound, spec)
    quotient = search.quotient()
    canonical = quotient.states()
    canonical_nfs = [st for st in canonical if not quotient.successors(st)]
    nf_states = sorted((x for st in canonical_nfs for x in quotient.orbit(st)), key=search.key)
    return search, quotient, canonical_nfs, nf_states, sum(map(quotient.orbit_size, canonical))


def _classes(quotient: _Search, canonical_nfs: list[int], nf_states: list[int]) -> tuple[tuple[int, ...], ...]:
    """The renaming classes of ``nf_states``, as sorted position tuples."""
    position = {st: k for k, st in enumerate(nf_states)}
    # an orbit lies inside one renaming class
    return tuple(sorted(
        tuple(sorted(position[x] for c in cls for x in quotient.orbit(canonical_nfs[c])))
        for cls in partition_by_equivalence(quotient.game(st) for st in canonical_nfs)
    ))


def _first_unjoined(search: _Search, nf_states: list[int], classes) -> Optional[tuple[Game, Game]]:
    """The first pair, in BFS order, of one-step reducts whose reach sets meet
    no common class of ``nf_states`` (None: one each), or None for one class.
    Every state reaches a normal form, and renamings carry normal forms to
    normal forms, so classes alone decide joins (Newman's lemma)."""
    classes = classes or [(k,) for k in range(len(nf_states))]
    if len(classes) < 2:
        return None
    label = {nf_states[p]: k for k, cls in enumerate(classes) for p in cls}
    states = search.states()
    reached = search.reach(states, label)
    return next(
        (search.game(b), search.game(c))
        for state in states
        for b, c in itertools.combinations(search.successors(state), 2)
        if not reached[b] & reached[c]
    )


def check_weak_confluence(
    game: Game,
    spec: RelationSpec,
    up_to_renaming: bool = False,
    bound: Optional[int] = None,
) -> CheckOutcome:
    """Every pair of one-step reducts of every reachable game must rejoin
    (possibly only up to renaming).  Counterexample: the first unjoinable pair.

    Every step removes strategies, so by Newman's lemma this holds iff the
    normal forms are unique (up to renaming, which every step commutes with),
    as the :func:`normal_forms` report decides."""
    search, quotient, canonical_nfs, states, _ = _normal_forms(game, spec, bound)
    classes = _classes(quotient, canonical_nfs, states) if up_to_renaming else None
    counterexample = _first_unjoined(search, states, classes)
    return CheckOutcome(counterexample is None, counterexample)


def check_one_step_closed(game: Game, spec: RelationSpec, bound: Optional[int] = None) -> CheckOutcome:
    """For every reachable a there must be a single target a' (equal to a or
    one step below it) that every one-step reduct of a can also reach within
    one step.  Counterexample: the first a without such a target."""
    [search] = _searches(game, bound, spec)
    for state in search.states():
        succ = search.successors(state)
        if succ and not any(
            all(b == target or target in search.successors(b) for b in succ) for target in (state,) + succ
        ):
            return CheckOutcome(False, search.game(state))
    return CheckOutcome(True)


def check_one_at_a_time(
    game: Game,
    relation: Union[Relation, Inherent],
    bound: Optional[int] = None,
) -> bool:
    """Do single-strategy eliminations reach exactly the same games as bulk
    eliminations?  Both reachable sets are unions of exact-clone orbits, so
    comparing their canonical states decides."""
    bulk, single = _searches(game, bound, *(RelationSpec(relation, STRICT, step) for step in (ANY, SINGLE)))
    return set(bulk.quotient().states()) == set(single.quotient().states())


def check_left_commutes(
    game: Game,
    spec1: RelationSpec,
    spec2: RelationSpec,
    bound: Optional[int] = None,
) -> CheckOutcome:
    """Does a spec1 step followed by a spec2 step always reorder into one
    spec2 step then finitely many spec1 steps?  Quantified over every state
    reachable under the union of both specs from the given game."""
    s1, s2 = _searches(game, bound, spec1, spec2)
    states = s1.states(s2)
    label = {st: k for k, st in enumerate(states)}
    reached = s1.reach(states, label)
    for a in states:
        joined = 0
        for d in s2.successors(a):
            joined |= reached[d]
        for b in s1.successors(a):
            for c in s2.successors(b):
                if not joined >> label[c] & 1:
                    return CheckOutcome(False, (s1.game(a), s1.game(b), s1.game(c)))
    return CheckOutcome(True)


def maximal_reduce(game: Game, relation: Union[Relation, Inherent], bound: Optional[int] = None) -> ReductionPath:
    """Repeatedly delete *everything* dominated (loose flavor: dominators from
    the pre-step sets) until nothing is.

    Each step records whether it was also valid with surviving dominators and
    whether it emptied some player's strategy set; a degenerate result ends
    the path."""
    _check_bound(game, bound)
    layer = _layer(game)
    steps: list[ReductionStep] = []
    state = layer.start
    while True:
        support = [layer.loose(relation, state, i) for i in range(game.n)]
        if not any(support):
            break
        removal = [sum(1 << s for s in found) for found in support]
        kept = state & ~sum(r << layer.off[i] for i, r in enumerate(removal))
        strict_valid = all(
            layer.survives(relation, state, i, s, removal[i], sup)
            for i, found in enumerate(support)
            for s, sup in found.items()
        )
        degenerate = not all(layer.key(kept))
        removed_labels = tuple(tuple(game.strategies[i][s] for s in support[i]) for i in range(game.n))
        steps.append(ReductionStep(removed_labels, layer.game(kept), strict_valid, degenerate))
        if degenerate:
            break
        state = kept
    return ReductionPath(game, tuple(steps))


def single_step_trace(game: Game, spec: RelationSpec, bound: Optional[int] = None) -> ReductionPath:
    """Deterministic single-elimination trace: repeatedly apply the first
    valid single-strategy removal until a normal form is reached.

    Every step is ``strict_valid``: a single removal never removes the
    removed strategy's dominator (module docstring), so the two arrows give
    the same single steps."""
    [search] = _searches(game, bound, RelationSpec(spec.relation, spec.arrow, SINGLE))
    steps: list[ReductionStep] = []
    state = search.start
    while True:
        succ = search.successors(state)
        if not succ:
            break
        nxt = succ[0]
        before, after = search.key(state), search.key(nxt)
        removed = tuple(
            tuple(game.strategies[i][r] for r in before[i] if r not in after[i])
            for i in range(game.n)
        )
        steps.append(ReductionStep(removed, search.game(nxt), True, False))
        state = nxt
    return ReductionPath(game, tuple(steps))


def fully_reduce(game: Game, bound: Optional[int] = None) -> Game:
    """Iterate single-strategy removal of randomized-redundant strategies
    (payoff equivalent, for every player, to a mix of surviving strategies)
    until none remains; the least-index redundant strategy goes first."""
    _check_bound(game, bound)
    layer = _layer(game)
    state = layer.start
    while True:
        for i, s in ((i, s) for i in range(game.n) for s in _bits(layer.kept(state, i))):
            if layer.witness(PEM, state, i, s, layer.kept(state, i) & ~(1 << s)) is not None:
                state &= ~(1 << layer.off[i] + s)
                break
        else:
            return layer.game(state)


@dataclass(frozen=True)
class StructuredReport:
    base_normal_forms: tuple[Game, ...]
    endpoints: tuple[Game, ...]
    all_equivalent: bool
    closed_under_union: bool


def structured_elimination_scenario(
    game: Game,
    base: Relation,
    equiv: Relation,
    bound: Optional[int] = None,
) -> StructuredReport:
    """Enumerate every base-relation normal form, push each one down the
    equivalence-style relation to its own normal form, and report whether all
    endpoints are pairwise renaming-equivalent and closed under the union."""
    report = normal_forms(game, RelationSpec(base, STRICT, ANY), bound=bound)
    endpoints = []
    for g in report.normal_forms:
        endpoints.append(single_step_trace(g, RelationSpec(equiv, STRICT, SINGLE), bound).endpoint)
    classes = partition_by_equivalence(endpoints)
    all_equiv = len(classes) <= 1
    combined = RelationSpec(union(base, equiv), STRICT, SINGLE)
    closed = all(not successors(h, combined, bound) for h in endpoints)
    return StructuredReport(report.normal_forms, tuple(endpoints), all_equiv, closed)
