"""Property suite tying the whole library together.

Ten numbered checks cover the regression fixtures, the order-independence
claims (unique normal forms, one-at-a-time, one-step closedness, the
renaming-unique combinations), left commutativity, structured elimination on
TDI games, the regularity algebra of mixed dominators, and an LP-vs-oracle
cross-check.  Each check returns a CriterionResult; the CLI ``suite``
subcommand and the acceptance tests both run them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import gallery, mixed
from .engine import (
    ANY,
    SINGLE,
    STRICT,
    LOOSE,
    RelationSpec,
    check_left_commutes,
    check_one_at_a_time,
    check_one_step_closed,
    check_weak_confluence,
    fully_reduce,
    maximal_reduce,
    normal_forms,
    structured_elimination_scenario,
    successors,
)
from .equivalence import equivalent, purely_reduce
from .game import Game, restrict
from .generator import SplitMix64, generator_params, random_game
from .inherent import InherentQuery, inherent_dominated_set, is_inherently_dominated
from .mixed import (
    find_dominator,
    lp_dominator,
    mixed_dominated_set,
    mixed_strategy,
    shrink_self_weight,
    substitute,
    witness_holds,
)
from .oracles import pem_dominated_oracle, sm_dominated_oracle
from .pure import check_tdi, dominates
from .relations import NW, PE, PEM, S, SM, W, WM, NWM, union

DEFAULT_SEED = 90125
DEFAULT_COUNT = 200


@dataclass
class CriterionResult:
    number: int
    name: str
    ok: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"criterion {self.number:2d} [{status}] {self.name}: {self.detail} ({self.seconds:.2f}s)"


def build_suite(seed: int = DEFAULT_SEED, count: int = DEFAULT_COUNT) -> list[Game]:
    """Seeded corpus: 2-3 players, 2-4 strategies each, integer payoffs in
    [-3, 3], duplicate-injection probability 1/4."""
    rng = SplitMix64(seed)
    games = []
    for _ in range(count):
        players = 2 + rng.below(2)
        strategies = tuple(2 + rng.below(3) for _ in range(players))
        sub_seed = rng.next_u64()
        games.append(
            random_game(generator_params(players, strategies, -3, 3, Fraction(1, 4), sub_seed))
        )
    return games


def _criterion(number: int, name: str, run, limit: Optional[tuple[float, str]] = None) -> CriterionResult:
    """Run criterion ``number``, timed: ``run`` returns ok and a detail.
    ``limit``, when given, is (seconds, the same in words): a pass that takes
    that long or longer fails."""
    t0 = time.perf_counter()
    ok, detail = run()
    dt = time.perf_counter() - t0
    if ok and limit is not None and dt >= limit[0]:
        ok, detail = False, f"runtime {dt:.2f}s exceeds {limit[1]}"
    return CriterionResult(number, name, ok, detail, dt)


def criterion_1() -> CriterionResult:
    def run():
        g = gallery.nonconfluent_weak_2x2()
        rep = normal_forms(g, RelationSpec(NW, STRICT, SINGLE))
        if len(rep.normal_forms) != 2 or len(rep.classes) != 2:
            return False, f"expected 2 normal forms in 2 classes, got {len(rep.normal_forms)}/{len(rep.classes)}"
        shapes = sorted(nf.shape for nf in rep.normal_forms)
        if shapes != [(1, 2), (2, 1)]:
            return False, f"unexpected normal form shapes {shapes}"
        rep2 = normal_forms(g, RelationSpec(union(NW, PE), STRICT, SINGLE), up_to_renaming=True)
        if len(rep2.classes) != 1:
            return False, f"combined relation left {len(rep2.classes)} classes"
        for nf in rep2.normal_forms:
            if nf.shape != (1, 1) or nf.payoff_vector((0, 0)) != (Fraction(2), Fraction(1)):
                return False, f"combined normal form is not the 1x1 game with payoff (2,1): {nf}"
        wc = check_weak_confluence(g, RelationSpec(NW, STRICT, SINGLE))
        if wc.ok:
            return False, "weak confluence unexpectedly holds"
        pair_shapes = sorted(x.shape for x in wc.counterexample)
        if pair_shapes != [(1, 2), (2, 1)]:
            return False, f"unexpected counterexample pair {pair_shapes}"
        return True, "2 normal forms / 2 classes; 1 combined class at the 1x1 (2,1) game; counterexample pair found"

    return _criterion(1, "two-normal-form regression", run, (1.0, "1s"))


def criterion_2() -> CriterionResult:
    def run():
        g1 = gallery.inherently_dominated_middle_3x2()
        m = 1  # row M
        res = is_inherently_dominated(g1, InherentQuery(W, 0, m, None))
        if not res.dominated:
            return False, "middle row should be inherently weakly dominated"
        if any(dominates(g1, S, 0, m, t) for t in range(3)):
            return False, "middle row should not be strictly dominated"
        g2 = gallery.weakly_but_not_inherently_dominated_2x2()
        b = 1
        if not dominates(g2, W, 0, b, 0):
            return False, "bottom row should be weakly dominated"
        res2 = is_inherently_dominated(g2, InherentQuery(W, 0, b, None))
        if res2.dominated:
            return False, "bottom row should not be inherently weakly dominated"
        return True, "inherent-vs-weak separation games behave as constructed"

    return _criterion(2, "inherent dominance regression", run, (1.0, "1s"))


def criterion_3(games: list[Game]) -> CriterionResult:
    def run():
        for idx, g in enumerate(games):
            rep = normal_forms(g, RelationSpec(S, STRICT, ANY))
            if len(rep.normal_forms) != 1:
                return False, f"game {idx}: {len(rep.normal_forms)} strict normal forms"
            endpoint = maximal_reduce(g, S).endpoint
            if endpoint != rep.normal_forms[0]:
                return False, f"game {idx}: maximal endpoint differs from the unique normal form"
            if not check_one_at_a_time(g, S):
                return False, f"game {idx}: one-at-a-time property fails for strict dominance"
        return True, f"{len(games)} games: unique strict normal form == maximal endpoint; one-at-a-time holds"

    return _criterion(3, "strict elimination theorem", run, (300.0, "5 minutes"))


def criterion_4(games: list[Game]) -> CriterionResult:
    def run():
        # each relation is transitive: a removed dominator has a dominator of
        # its own, and the chain ends at a kept strategy
        for idx, g in enumerate([gallery.nonconfluent_weak_2x2()] + games):
            for rel in (S, W, NW, SM):
                loose = successors(g, RelationSpec(rel, LOOSE, ANY))
                strict = successors(g, RelationSpec(rel, STRICT, ANY))
                if loose != strict:
                    return False, f"game {idx}: loose/strict successor sets differ for {rel}"
        return True, f"{len(games) + 1} games: loose == strict for S, W, NW, SM"

    return _criterion(4, "loose/strict arrow equivalence", run)


def criterion_5(games: list[Game]) -> CriterionResult:
    def run():
        verified_before = mixed.verified_witness_count
        # the gallery game's middle row is strictly below a mix of the other
        # two, so every run re-verifies some witness, whatever the corpus holds
        for idx, g in enumerate([gallery.mixable_middle_3x2()] + games):
            rep = normal_forms(g, RelationSpec(SM, STRICT, ANY))
            if len(rep.normal_forms) != 1:
                return False, f"game {idx}: {len(rep.normal_forms)} strict-mixed normal forms"
            osc = check_one_step_closed(g, RelationSpec(SM, STRICT, ANY))
            if not osc.ok:
                return False, f"game {idx}: strict-mixed reduction is not one step closed"
            sm = [sorted(w.dominated for w in per) for per in mixed_dominated_set(g, SM)]
            # inherent WM on a copy of g, with a layer of its own: on g's layer
            # both sides could read one set of answers.  After the SM set, which
            # reads the answers of g's searches before the copy replaces g's layer
            inh = inherent_dominated_set(restrict(g, [range(k) for k in g.shape]), WM)
            if [sorted(x) for x in inh] != sm:
                return False, f"game {idx}: inherent-weak-mixed set differs from strict-mixed set"
        verified = mixed.verified_witness_count - verified_before
        if not verified:
            return False, "no witness was re-verified"
        return True, (
            f"{len(games) + 1} games: strict-mixed UN + one step closed; inherent-WM == SM everywhere; "
            f"{verified} witnesses re-verified, 0 failures"
        )

    return _criterion(5, "mixed elimination theorems", run)


def criterion_6(games: list[Game]) -> CriterionResult:
    def run():
        pure_rels = [PE, union(S, PE), union(NW, PE)]
        for idx, g in enumerate(games):
            pe_rep = None
            for rel in pure_rels:
                rep = normal_forms(g, RelationSpec(rel, STRICT, ANY), up_to_renaming=True)
                if len(rep.classes) != 1:
                    return False, f"game {idx}: {rel} left {len(rep.classes)} renaming classes"
                if rel is PE:
                    pe_rep = rep
            pr = purely_reduce(g)
            if any(equivalent(pr, nf) is None for nf in pe_rep.normal_forms):
                return False, f"game {idx}: purely reduced game not equivalent to an enumerated normal form"
        small = [g for g in games if g.total_strategies <= 10]
        mixed_rels = [PEM, union(SM, PEM), union(NWM, PEM)]
        for idx, g in enumerate(small):
            pem_rep = None
            for rel in mixed_rels:
                rep = normal_forms(g, RelationSpec(rel, STRICT, ANY), up_to_renaming=True)
                if len(rep.classes) != 1:
                    return False, f"small game {idx}: {rel} left {len(rep.classes)} renaming classes"
                if rel is PEM:
                    pem_rep = rep
            fr = fully_reduce(g)
            if any(equivalent(fr, nf) is None for nf in pem_rep.normal_forms):
                return False, f"small game {idx}: fully reduced game not equivalent to an enumerated normal form"
        return True, (
            f"{len(games)} games x {len(pure_rels)} pure relations and {len(small)} games x "
            f"{len(mixed_rels)} mixed relations: single renaming class; reduced games equivalent"
        )

    return _criterion(6, "renaming-unique normal forms", run, (900.0, "15 minutes"))


def criterion_7(games: list[Game]) -> CriterionResult:
    def run():
        pure_pairs = [(PE, NW), (PE, W), (PE, S)]
        mixed_pairs = [(PEM, NWM), (PEM, WM)]
        for idx, g in enumerate(games):
            for first, second in pure_pairs + mixed_pairs:
                out = check_left_commutes(
                    g, RelationSpec(first, STRICT, ANY), RelationSpec(second, STRICT, ANY)
                )
                if not out.ok:
                    return False, f"game {idx}: {first} does not left commute with {second}"
        return True, f"{len(games)} games x {len(pure_pairs) + len(mixed_pairs)} pairs: 0 counterexamples"

    return _criterion(7, "left commutativity", run)


def criterion_8(games: list[Game]) -> CriterionResult:
    def run():
        # the gallery game is TDI with three W normal forms, so the check never
        # runs on an empty set, whatever the corpus holds
        tdi_games = [gallery.nonconfluent_weak_2x2()] + [g for g in games if check_tdi(g).ok]
        for idx, g in enumerate(tdi_games):
            rep = structured_elimination_scenario(g, W, PE)
            if not rep.all_equivalent:
                return False, f"TDI game {idx}: endpoints not pairwise equivalent"
            if not rep.closed_under_union:
                return False, f"TDI game {idx}: endpoints not closed under the combined relation"
        return True, f"{len(tdi_games)} TDI games: all endpoints pairwise equivalent and closed"

    return _criterion(8, "structured weak elimination", run)


def _sm_pair_game(rng: SplitMix64) -> tuple[Game, int, int, mixed.MixedStrategy, mixed.MixedStrategy]:
    """A 2-player game in which player 0's last two rows are strictly below
    known mixes of the three base rows; returns the game, the two dominated
    rows and their constructed dominators."""
    base, extra, cols_n = 3, 2, 2 + rng.below(2)
    labels = [
        tuple(f"a{k + 1}" for k in range(base + extra)),
        tuple(f"b{k + 1}" for k in range(cols_n)),
    ]
    payoff: dict[tuple[int, int], list[Fraction]] = {}
    for r in range(base + extra):
        for c in range(cols_n):
            payoff[(r, c)] = [Fraction(rng.int_in(-3, 3)), Fraction(rng.int_in(-3, 3))]

    def random_mix():
        weights = [rng.below(4) + 1 for _ in range(base)]
        total = sum(weights)
        return {t: Fraction(w, total) for t, w in enumerate(weights) if w}

    mixes = []
    for j in range(extra):
        mix = random_mix()
        row = base + j
        for c in range(cols_n):
            expected = sum(w * payoff[(t, c)][0] for t, w in mix.items())
            payoff[(row, c)][0] = expected - Fraction(rng.below(3) + 1, rng.below(3) + 1)
        mixes.append(mixed_strategy(0, mix))
    g = Game(labels, payoff)
    return g, base, base + 1, mixes[0], mixes[1]


def criterion_9(seed: int = DEFAULT_SEED) -> CriterionResult:
    def run():
        rng = SplitMix64(seed ^ 0x9E3779B97F4A7C15)
        checked = 0
        while checked < 100:
            g, t1, t2, m1, m2 = _sm_pair_game(rng)
            for t, m in ((t1, m1), (t2, m2)):
                if not witness_holds(g, "SM", 0, t, m):
                    return False, "constructed dominator is not a strict mixed dominator"
            if find_dominator(g, SM, 0, t1, range(5)) is None or find_dominator(g, SM, 0, t2, range(5)) is None:
                return False, "LP misses a constructed strict mixed dominance"

            # self-weight shrink: blend the dominated strategy into its own
            # dominator, then shrinking it back out must recover a witness
            alpha = Fraction(rng.below(8) + 1, 10)
            blended = mixed_strategy(
                0, {**{t: w * alpha for t, w in m1.weights}, t1: Fraction(1) - alpha}
            )
            if not witness_holds(g, "SM", 0, t1, blended):
                return False, "blended self-weighted dominator lost strictness"
            shrunk = shrink_self_weight(t1, blended)
            if not witness_holds(g, "SM", 0, t1, shrunk):
                return False, "shrinking the self weight broke the dominator"

            # substitution: fold t2 into m1's support, then substitute m2 for it
            cols = g.opponent_profiles(0)
            beta = None
            for col in cols:
                m1_pay = sum(w * g.payoff(Game.fill(col, 0, t), 0) for t, w in m1.weights)
                margin = m1_pay - g.payoff(Game.fill(col, 0, t1), 0)
                diff = m1_pay - g.payoff(Game.fill(col, 0, t2), 0)
                if diff > 0:
                    cap = margin / diff
                    beta = cap if beta is None else min(beta, cap)
            beta = Fraction(1, 2) if beta is None else min(beta, Fraction(1)) / 2
            if beta <= 0:
                continue
            folded = mixed_strategy(
                0,
                {
                    **{t: w * (1 - beta) for t, w in m1.weights},
                    t2: beta + m1.weight(t2) * (1 - beta),
                },
            )
            if not witness_holds(g, "SM", 0, t1, folded):
                return False, "folded dominator lost strictness"
            substituted = substitute(folded, t2, m2)
            if not witness_holds(g, "SM", 0, t1, substituted):
                return False, "substitution property failed"
            checked += 1
        return True, f"{checked} witness pairs: substitution and self-weight-shrink re-verified exactly"

    return _criterion(9, "regularity algebra", run)


def criterion_10(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Every decision is made two ways and held against the oracle:
    ``find_dominator`` (mask rules, then LP) and the LP decider alone."""

    def run():
        rng = SplitMix64(seed ^ 0x51AF8B2D)
        decisions = 0
        disagreements = 0
        while decisions < 1000:
            players = 2 + rng.below(2)
            strategies = tuple(2 + rng.below(3) for _ in range(players))
            g = random_game(
                generator_params(players, strategies, -3, 3, Fraction(1, 3), rng.next_u64())
            )
            for i in range(g.n):
                k = len(g.strategies[i])
                for s in range(k):
                    full = range(k)
                    queries = [(SM, full, sm_dominated_oracle), (PEM, full, pem_dominated_oracle)]
                    if k > 2:
                        part = [t for t in range(k) if t != (s + 1) % k]
                        queries.append((SM, part, sm_dominated_oracle))
                    for rel, allowed, oracle in queries:
                        (tag,) = rel.tags
                        expected = oracle(g, i, s, allowed)
                        disagreements += (find_dominator(g, rel, i, s, allowed) is not None) != expected
                        disagreements += (lp_dominator(g, tag, i, s, allowed) is not None) != expected
                        decisions += 1
        if disagreements:
            return False, f"{disagreements} disagreements in {decisions} decisions"
        return True, (
            f"{decisions} decisions: find_dominator and "
            f"the LP deciders alone match the support-enumeration oracles exactly"
        )

    return _criterion(10, "LP oracle cross-check", run)


def run_all(seed: int = DEFAULT_SEED, count: int = DEFAULT_COUNT, emit=print) -> list[CriterionResult]:
    games = build_suite(seed, count)
    results = [
        criterion_1(),
        criterion_2(),
        criterion_3(games),
        criterion_4(games),
        criterion_5(games),
        criterion_6(games),
        criterion_7(games),
        criterion_8(games),
        criterion_9(seed),
        criterion_10(seed),
    ]
    for res in results:
        emit(res.line())
    return results
