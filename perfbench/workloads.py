"""The four benchmark workloads: seeded inputs, one item at a time, known answers.

Every workload builds its inputs from the seed alone and hands the package
nothing but the generated games.  An item is one call sequence into the
public API.  ``run`` makes the calls and is the only timed part;
``verdict`` reduces the result to a plain value and ``expected`` gives the
answer that construction or a theorem fixes in advance.  No expected answer is
read from the code under test.

Package functions are called as attributes of ``dominia`` so that the tracer,
which swaps the package's bindings, also sees the calls made from here.

Shapes are stratified: item k always has the k-th shape of a fixed cycle and
only the payoffs come from the seed.  Item cost depends mostly on shape, so
runs at different seeds stay comparable while the shape mix is the one each
workload's distribution prescribes; the cycle order keeps that mix in every
prefix, so a run cut by time does not favour small or large games.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import dominia
import dominia.oracles
import known
from dominia import ANY, NW, NWM, PE, PEM, S, SM, STRICT, WM, RelationSpec, SplitMix64, union

# Acceptance-corpus shapes (2-3 players, 2-4 strategies each) in the
# proportions the acceptance corpus draws them: each two-player shape three
# times, each three-player shape once.
ACCEPTANCE_SHAPES = list(itertools.product(range(2, 5), repeat=2)) * 3 + list(
    itertools.product(range(2, 5), repeat=3)
)
_GOLDEN = (5**0.5 - 1) / 2


def cycle(shapes):
    """Order one cycle of shapes so that every prefix has about the cycle's
    mix of sizes: sort by payoff-table size, then give cycle position i the
    shape whose rank matches that of frac(i * golden ratio), a sequence that
    covers [0, 1) evenly from its first terms on."""
    by_size = sorted(shapes, key=lambda s: (math.prod(s) * len(s), s))
    order = sorted(range(len(by_size)), key=lambda i: (i * _GOLDEN) % 1)
    out = [None] * len(by_size)
    for rank, i in enumerate(order):
        out[i] = by_size[rank]
    return out


def _seeds(seed: int, salt: int):
    rng = SplitMix64(seed ^ salt)
    while True:
        yield rng.next_u64()


def _random(shape, dup_prob, sub_seed):
    return dominia.random_game(dominia.generator_params(len(shape), shape, -3, 3, dup_prob, sub_seed))


def _acceptance_games(seed, salt, dup_prob, shapes):
    """Endless stream of games; game k has shape ``shapes[k % len(shapes)]``."""
    for k, sub_seed in enumerate(_seeds(seed, salt)):
        yield _random(shapes[k % len(shapes)], dup_prob, sub_seed)


class _Workload:
    """Items come as an endless seeded stream, so a faster package never runs
    out of inputs.  The first ``corpus_size`` items, about what one run uses,
    are built at set-up and counted in ``setup_s``; later ones are built
    between items, outside the timed calls."""

    corpus_size: int
    slice_items: int  # a run ends at a multiple of this many items
    trace_items: int  # items of a traced run

    def stream(self, seed):
        raise NotImplementedError

    def build(self, seed):
        return list(itertools.islice(self.stream(seed), self.corpus_size))


class MixedElim(_Workload):
    """One acceptance-like game through the mixed checks of criteria 5 and 7."""

    name = "mixed-elim"
    # At most 7 strategies in all.  Larger acceptance games take up to 12 s an
    # item on a 2-core Xeon, and even at 8 strategies a run holds only about
    # 130 items, too few for its median and p90 to repeat across seeds.
    shapes = cycle([s for s in ACCEPTANCE_SHAPES if sum(s) <= 7])
    corpus_size = 280
    slice_items = 28  # one cycle of shapes
    trace_items = 28

    def stream(self, seed):
        return _acceptance_games(seed, 0x6D69786564, Fraction(1, 4), self.shapes)

    def run(self, g):
        sm = RelationSpec(SM, STRICT, ANY)
        return (
            dominia.normal_forms(g, sm),
            dominia.check_one_step_closed(g, sm),
            dominia.inherent_dominated_set(g, WM),
            dominia.mixed_dominated_set(g, SM),
            [
                dominia.check_left_commutes(g, RelationSpec(PEM, STRICT, ANY), RelationSpec(rel, STRICT, ANY))
                for rel in (NWM, WM)
            ],
        )

    def verdict(self, g, result):
        nf, closed, inh, smd, lc = result
        same = [sorted(x) for x in inh] == [sorted(w.dominated for w in per) for per in smd]
        return (len(nf.normal_forms), closed.ok, same, tuple(out.ok for out in lc))

    def expected(self, g):
        # Apt 2004: SM elimination has a unique normal form and is one-step
        # closed; inherent WM dominance coincides with SM dominance (Pearce
        # 1984); PEM left-commutes with NWM and with WM.
        return (1, True, True, (True, True))


class LpQueries(_Workload):
    """One-off mixed-dominance queries on fresh criterion-10 games."""

    name = "lp-queries"
    shapes = cycle(ACCEPTANCE_SHAPES)
    relations = (SM, PEM, WM, NWM)
    corpus_size = 432
    # one cycle, 216 queries: each of the 54 shapes with each relation once.
    # Slices of like make-up keep the median slice rate steady; a slice of
    # all of one cycle's queries of a few games swung it by 10% between seeds
    slice_items = 216
    trace_items = 432

    # NWM enumerates equality sets over a player's opponent profiles and
    # refuses more than 2^12 of them (SizeBoundExceeded), so it is asked only
    # of players facing at most 12 profiles
    nwm_max_profiles = 12

    def stream(self, seed):
        """One query per fresh game.  Query k is about game k, of shape
        ``shapes[k % 54]``, with relation ``relations[k // 54 % 4]``; the
        queried strategy is drawn from all strategies of the players asked
        alike.  In 4x4x4 games every player faces 16 profiles, so the NWM
        query becomes a WM one.  SM and PEM may mix over the full support, WM
        and NWM over the other strategies."""
        rng = SplitMix64(seed ^ 0x73687566)
        games = _acceptance_games(seed, 0x6C7071, Fraction(1, 3), self.shapes)
        for k, g in enumerate(games):
            rel = self.relations[k // len(self.shapes) % len(self.relations)]
            players = list(range(g.n))
            if rel is NWM:
                players = [i for i in players if len(g.opponent_profiles(i)) <= self.nwm_max_profiles]
                if not players:
                    rel, players = WM, list(range(g.n))
            s = rng.below(sum(len(g.strategies[i]) for i in players))
            for i in players:
                if s < len(g.strategies[i]):
                    break
                s -= len(g.strategies[i])
            full = tuple(range(len(g.strategies[i])))
            yield (g, rel, i, s, full if rel in (SM, PEM) else tuple(t for t in full if t != s))

    def run(self, item):
        g, rel, i, s, allowed = item
        return dominia.find_dominator(g, rel, i, s, allowed)

    def verdict(self, item, result):
        return result is not None

    def expected(self, item):
        g, rel, i, s, allowed = item
        if rel is SM:
            return dominia.oracles.sm_dominated_oracle(g, i, s, allowed)
        if rel is PEM:
            return dominia.oracles.pem_dominated_oracle(g, i, s, allowed)
        return known.weak_mixed_dominated(g, i, s, allowed, nice=rel is NWM)


def clone_game(base, copies):
    """Copy every strategy of player i into ``copies[i]`` exact clones.

    Returns the game and, per player, the base strategy behind each clone."""
    origin = [
        [b for b in range(len(base.strategies[i])) for _ in range(copies[i])] for i in range(base.n)
    ]
    labels = [
        [f"{base.strategies[i][b]}_{c}" for b in range(len(base.strategies[i])) for c in range(copies[i])]
        for i in range(base.n)
    ]
    table = {
        profile: base.payoff_vector(tuple(origin[i][p] for i, p in enumerate(profile)))
        for profile in itertools.product(*(range(len(o)) for o in origin))
    }
    return dominia.new_game(labels, table), origin


class _Clones(_Workload):
    """Items over clone games: base games with no pure S, NW or PE pair, so
    elimination only ever removes clones and every normal form keeps exactly
    one clone of each base strategy, a copy of the base game."""

    shapes: list  # (base shape, copies per player)
    relations: list
    salt: int

    def stream(self, seed):
        seeds = _seeds(seed, self.salt)
        for base_shape, copies in itertools.cycle(self.shapes):
            base = _random(base_shape, Fraction(0), next(seeds))
            while not known.pure_irreducible(base):
                base = _random(base_shape, Fraction(0), next(seeds))
            game, origin = clone_game(base, copies)
            for rel in self.relations:
                yield (game, base, origin, rel)


class CloneLattice(_Clones):
    """Normal forms up to renaming of clone games (engine and pure dominance)."""

    name = "clone-lattice"
    # 4x4 to 6x6 and 4x4x4, ordered by cost (20 ms to 0.6 s an item), up to
    # 729 states.  6x6 games from 2x2 bases with three clones each (2,401
    # states, about 2 s an item) are left out: with them a run holds about 50
    # items, too few for a p90 with ten samples beyond it.
    shapes = [
        ((2, 2), (2, 2)),
        ((2, 3), (2, 2)),
        ((3, 2), (2, 2)),
        ((2, 2), (2, 3)),
        ((2, 2), (3, 2)),
        ((3, 3), (2, 2)),
        ((2, 2, 2), (2, 2, 2)),
    ]
    relations = [PE, union(S, PE), union(NW, PE)]
    salt = 0x636C6F6E65
    corpus_size = 147
    slice_items = 21  # one cycle of shapes and relations
    trace_items = 21

    def run(self, item):
        game, base, origin, rel = item
        return dominia.normal_forms(game, RelationSpec(rel, STRICT, ANY), up_to_renaming=True)

    def verdict(self, item, rep):
        game, base, origin, rel = item
        copies = all(known.is_base_copy(nf, base) for nf in rep.normal_forms)
        return (len(rep.classes), len(rep.normal_forms), copies)

    def expected(self, item):
        # one renaming class; one normal form per choice of one clone from
        # every clone class, each a copy of the base game
        game, base, origin, rel = item
        count = 1
        for per in origin:
            for b in set(per):
                count *= per.count(b)
        return (1, count, True)


class RenamingConfluence(_Clones):
    """Weak confluence up to renaming on smaller clone games (equivalence)."""

    name = "renaming-confluence"
    # 2x2x4, 2x6, 6x2, 3x6 and 2x6 from a 2x2 base with three clones (10 ms
    # to 0.4 s an item), so that the median and p90 fall inside a group of
    # like items, not in a gap between two.  4x4 games (81 states, 1-2.5 s an
    # item) are left out: with them a run holds about 50 items, too few for a
    # p90 with ten samples beyond it.
    shapes = [((2, 2, 2), (1, 1, 2)), ((2, 3), (1, 2)), ((3, 2), (2, 1)), ((3, 3), (1, 2)), ((2, 2), (1, 3))]
    relations = [PE, union(NW, PE)]
    salt = 0x72656E616D65
    corpus_size = 180
    slice_items = 10  # one cycle of shapes and relations
    trace_items = 10

    def run(self, item):
        game, base, origin, rel = item
        return dominia.check_weak_confluence(game, RelationSpec(rel, STRICT, ANY), up_to_renaming=True)

    def verdict(self, item, outcome):
        return outcome.ok

    def expected(self, item):
        # every normal form is a copy of the base game, so any two reducts
        # rejoin up to renaming at their normal forms
        return True


WORKLOADS = {w.name: w for w in (MixedElim(), LpQueries(), CloneLattice(), RenamingConfluence())}
