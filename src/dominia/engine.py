"""The abstract-reduction-system layer over games.

A RelationSpec picks a dominance relation, an arrow flavor and a step mode:

* arrow "strict": every removed strategy needs a dominator (or, for mixed
  dominators, a support) that survives the step;
* arrow "loose": dominators range over the full pre-step strategy sets;
* step "any": one transition may remove any valid non-empty combination of
  strategies across players (bulk elimination);
* step "single": one transition removes exactly one strategy.

All reachable games are restrictions of the root, so a state is the tuple of
per-player kept root indices; the state space is capped by the subset
lattice.  Everything exhaustive here raises SizeBoundExceeded past the
configured total strategy bound.

Every dominance question goes through one _Dominance layer per (root,
relation): is strategy s of player i dominated by a dominator whose support
lies in an allowed set A?  A reduct keeps the root's payoffs, so the question
is asked of the root itself, in root indices, over the opponents' kept
profiles.  The answer depends only on the player, the strategy, A and the
opponents' kept sets, so it is memoized on exactly that key (pure answers per
single dominator t).  Searches on one root and relation inside one public
call share the layer; no answer outlives the call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Union

from .game import Game, restrict
from .inherent import InherentQuery, is_inherently_dominated
from .mixed import find_dominator
from .pure import CheckOutcome, _check_bound, dominates
from .equivalence import partition_by_equivalence
from .relations import Inherent, Relation, union

STRICT, LOOSE = "strict", "loose"
ANY, SINGLE = "any", "single"

StateKey = tuple[tuple[int, ...], ...]


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
    """Memoized dominance answers on the restrictions of one root game under
    one relation; the only place that tells pure, mixed and inherent apart."""

    def __init__(self, root: Game, relation: Union[Relation, Inherent]):
        self.root = root
        self.relation = relation
        self.start: StateKey = tuple(tuple(range(len(s))) for s in root.strategies)
        self._games: dict[StateKey, Game] = {self.start: root}
        self._columns: dict = {}
        self._memo: dict = {}

    def game(self, state: StateKey) -> Game:
        g = self._games.get(state)
        if g is None:
            # the last step of maximal_reduce may empty a player
            g = restrict(self.root, state, allow_degenerate=True)
            self._games[state] = g
        return g

    def witness(self, state: StateKey, i: int, s: int, allowed: tuple[int, ...]) -> Optional[tuple[int, ...]]:
        """Support of a dominator of s drawn from ``allowed`` (kept strategies
        of player i other than s), or None; inherent relations report the
        whole allowed set, as the dominator may differ per profile subset."""
        if not allowed:
            return None
        rel = self.relation
        others = state[:i] + state[i + 1 :]
        cols = self._columns.get((i, others))
        if cols is None:
            cols = self._columns[i, others] = list(itertools.product(*state[:i], (-1,), *state[i + 1 :]))
        if isinstance(rel, Relation) and not rel.mixed:
            for t in allowed:
                key = (i, s, t, others)
                hit = self._memo.get(key)
                if hit is None:
                    hit = self._memo[key] = dominates(self.root, rel, i, s, t, columns=cols)
                if hit:
                    return (t,)
            return None
        key = (i, s, allowed, others)
        if key in self._memo:
            return self._memo[key]
        if isinstance(rel, Inherent):
            query = InherentQuery(rel.base, i, s, allowed)
            support = allowed if is_inherently_dominated(self.root, query, columns=cols).dominated else None
        else:
            w = find_dominator(self.root, rel, i, s, allowed, columns=cols)
            support = None if w is None else w.dominator.support
        self._memo[key] = support
        return support

    def loose(self, state: StateKey, i: int) -> dict[int, tuple[int, ...]]:
        """Player i's dominated strategies, each with the support of one
        dominator drawn from the player's other kept strategies."""
        found = {}
        for s in state[i]:
            support = self.witness(state, i, s, tuple(t for t in state[i] if t != s))
            if support is not None:
                found[s] = support
        return found

    def survives(
        self, state: StateKey, i: int, s: int, removed: frozenset[int], support: tuple[int, ...]
    ) -> bool:
        """Is s still dominated by strategies outside ``removed``?  Its loose
        support answers when that survives; otherwise ask with the survivors."""
        if removed.isdisjoint(support):
            return True
        return self.witness(state, i, s, tuple(t for t in state[i] if t not in removed)) is not None


class _Search:
    """Memoized exploration of one (root, spec) reduction system."""

    def __init__(self, layer: _Dominance, spec: RelationSpec):
        self.layer = layer
        self.spec = spec
        self.start = layer.start
        self.game = layer.game
        self._succ: dict[StateKey, tuple[StateKey, ...]] = {}
        self._reach: dict[StateKey, frozenset[StateKey]] = {}

    def _player_choices(self, state: StateKey, i: int) -> list[frozenset[int]]:
        """Valid removal sets of root indices for player i (non-empty), per
        the spec's arrow and step mode; [] when the player cannot lose
        anything."""
        support = self.layer.loose(state, i)
        sizes = (1,) if self.spec.step == SINGLE else range(1, len(support) + 1)
        strict = self.spec.arrow == STRICT
        choices = []
        for removed in (frozenset(c) for size in sizes for c in itertools.combinations(support, size)):
            if len(removed) == len(state[i]):
                continue  # strict: no surviving dominator; loose: degenerate
            if not strict or all(self.layer.survives(state, i, s, removed, support[s]) for s in removed):
                choices.append(removed)
        return choices

    def successors(self, state: StateKey) -> tuple[StateKey, ...]:
        cached = self._succ.get(state)
        if cached is not None:
            return cached
        # an empty set keeps the player as it is; a single step changes one player
        options = [[frozenset()] + self._player_choices(state, i) for i in range(len(state))]
        single = self.spec.step == SINGLE
        out = {
            tuple(tuple(r for r in kept if r not in removed) for kept, removed in zip(state, combo))
            for combo in itertools.product(*options)
            if any(combo) and not (single and sum(map(bool, combo)) > 1)
        }
        result = tuple(sorted(out))
        self._succ[state] = result
        return result

    # -- reachability ----------------------------------------------------

    def states(self, *others: _Search) -> list[StateKey]:
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

    def reach(self, state: StateKey) -> frozenset[StateKey]:
        """Reflexive-transitive successor set of one state."""
        cached = self._reach.get(state)
        if cached is not None:
            return cached
        acc: set[StateKey] = {state}
        for succ in self.successors(state):
            acc |= self.reach(succ)
        result = frozenset(acc)
        self._reach[state] = result
        return result


def _searches(game: Game, bound: Optional[int], *specs: RelationSpec) -> list[_Search]:
    """One search per spec; specs with the same relation share one layer."""
    _check_bound(game, bound)
    layers: dict = {}
    for spec in specs:
        if spec.relation not in layers:
            layers[spec.relation] = _Dominance(game, spec.relation)
    return [_Search(layers[spec.relation], spec) for spec in specs]


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
    [search] = _searches(game, bound, spec)
    states = search.states()
    nf_states = sorted(st for st in states if not search.successors(st))
    nf_games = tuple(search.game(st) for st in nf_states)
    classes = tuple(tuple(c) for c in partition_by_equivalence(nf_games))
    unique = (len(classes) == 1) if up_to_renaming else (len(nf_games) == 1)
    counterexample = None
    if not unique:
        failure = _weak_confluence_failure(search, up_to_renaming)
        if failure is not None:
            counterexample = (search.game(failure[1]), search.game(failure[2]))
    return ConfluenceReport(nf_games, classes, len(states), unique, counterexample)


def _weak_confluence_failure(search: _Search, up_to_renaming: bool):
    """The first (a, b, c), b and c one-step reducts of a reachable a, whose
    reach sets share no state, or no renaming class when ``up_to_renaming``
    is set; None when every such pair joins."""
    states = search.states()
    reached = search.reach
    if up_to_renaming:
        label = {}
        for k, cls in enumerate(partition_by_equivalence(search.game(st) for st in states)):
            label.update((states[idx], k) for idx in cls)
        reached = {st: frozenset(label[x] for x in search.reach(st)) for st in states}.__getitem__
    for state in states:
        for b, c in itertools.combinations(search.successors(state), 2):
            if reached(b).isdisjoint(reached(c)):
                return (state, b, c)
    return None


def check_weak_confluence(
    game: Game,
    spec: RelationSpec,
    up_to_renaming: bool = False,
    bound: Optional[int] = None,
) -> CheckOutcome:
    """Every pair of one-step reducts of every reachable game must rejoin
    (possibly only up to renaming).  Counterexample: the first unjoinable pair."""
    [search] = _searches(game, bound, spec)
    failure = _weak_confluence_failure(search, up_to_renaming)
    if failure is None:
        return CheckOutcome(True)
    return CheckOutcome(False, (search.game(failure[1]), search.game(failure[2])))


def check_one_step_closed(game: Game, spec: RelationSpec, bound: Optional[int] = None) -> CheckOutcome:
    """For every reachable a there must be a single target a' (equal to a or
    one step below it) that every one-step reduct of a can also reach within
    one step.  Counterexample: the first a without such a target."""
    [search] = _searches(game, bound, spec)
    for state in search.states():
        succ = search.successors(state)
        if not succ:
            continue
        found = False
        for target in (state,) + succ:
            if all(
                b == target or target in search.successors(b)
                for b in succ
            ):
                found = True
                break
        if not found:
            return CheckOutcome(False, search.game(state))
    return CheckOutcome(True)


def check_one_at_a_time(
    game: Game,
    relation: Union[Relation, Inherent],
    bound: Optional[int] = None,
) -> bool:
    """Do single-strategy eliminations reach exactly the same games as bulk
    eliminations (transitive closures compared as reachable-state sets)?"""
    bulk, single = _searches(
        game, bound, RelationSpec(relation, STRICT, ANY), RelationSpec(relation, STRICT, SINGLE)
    )
    return set(bulk.states()) == set(single.states())


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
    for a in s1.states(s2):
        for b in s1.successors(a):
            for c in s2.successors(b):
                if not any(c in s1.reach(d) for d in s2.successors(a)):
                    return CheckOutcome(False, (s1.game(a), s1.game(b), s1.game(c)))
    return CheckOutcome(True)


def maximal_reduce(game: Game, relation: Union[Relation, Inherent], bound: Optional[int] = None) -> ReductionPath:
    """Repeatedly delete *everything* dominated (loose flavor: dominators from
    the pre-step sets) until nothing is.

    Each step records whether it was also valid with surviving dominators and
    whether it emptied some player's strategy set; a degenerate result ends
    the path."""
    _check_bound(game, bound)
    layer = _Dominance(game, relation)
    steps: list[ReductionStep] = []
    state = layer.start
    while True:
        support = [layer.loose(state, i) for i in range(game.n)]
        if not any(support):
            break
        removal = [frozenset(found) for found in support]
        kept = tuple(tuple(t for t in state[i] if t not in removal[i]) for i in range(game.n))
        strict_valid = all(
            layer.survives(state, i, s, removal[i], sup)
            for i, found in enumerate(support)
            for s, sup in found.items()
        )
        degenerate = not all(kept)
        removed_labels = tuple(tuple(game.strategies[i][s] for s in support[i]) for i in range(game.n))
        steps.append(ReductionStep(removed_labels, layer.game(kept), strict_valid, degenerate))
        if degenerate:
            break
        state = kept
    return ReductionPath(game, tuple(steps))


def single_step_trace(game: Game, spec: RelationSpec, bound: Optional[int] = None) -> ReductionPath:
    """Deterministic single-elimination trace: repeatedly apply the first
    valid single-strategy removal until a normal form is reached."""
    search, strict_search = _searches(
        game,
        bound,
        RelationSpec(spec.relation, spec.arrow, SINGLE),
        RelationSpec(spec.relation, STRICT, SINGLE),
    )
    steps: list[ReductionStep] = []
    state = search.start
    while True:
        succ = search.successors(state)
        if not succ:
            break
        nxt = succ[0]
        removed = tuple(
            tuple(game.strategies[i][r] for r in state[i] if r not in nxt[i])
            for i in range(game.n)
        )
        strict_valid = spec.arrow == STRICT or nxt in strict_search.successors(state)
        steps.append(ReductionStep(removed, search.game(nxt), strict_valid, False))
        state = nxt
    return ReductionPath(game, tuple(steps))


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
