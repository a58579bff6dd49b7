"""A committed record of reduction-engine results on seeded and gallery games.

``data/engine_record.txt`` holds one line per result: its key, then the
result.  Per game and relation, for both arrows and both step modes, it
records the normal forms (plain and up to renaming, as kept root indices,
with ``classes``, ``explored_states`` and the counterexample), weak
confluence, one-step closure, left commutation after PEM, ``successors`` and
``single_step_trace``; per relation, ``maximal_reduce`` and
``check_one_at_a_time``; per game, ``fully_reduce``.  Each relation is asked
cold, of a fresh copy of the game, and warm, of one game object that was
already asked every relation, in reverse order, so an answer that the
engine's dominance layer reuses across relations or column sets must match a
fresh one.  Regenerate with ``PYTHONPATH=src python tests/test_engine_record.py``,
only when a result itself must change.
"""

from fractions import Fraction
from pathlib import Path

from dominia import (
    ANY,
    LOOSE,
    SINGLE,
    STRICT,
    Game,
    RelationSpec,
    check_left_commutes,
    check_one_at_a_time,
    check_one_step_closed,
    check_weak_confluence,
    fully_reduce,
    gallery,
    generator_params,
    maximal_reduce,
    normal_forms,
    parse_relation,
    random_game,
    single_step_trace,
    successors,
)
from dominia.relations import PEM

RECORD = Path(__file__).parent / "data" / "engine_record.txt"
SHAPES = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 2, 2), (3, 4), (2, 2, 3)]
RELATIONS = ["SM", "WM", "NWM", "VWM", "PEM", "NWM+PEM", "WM+PEM", "SM+VWM", "inh-WM", "S", "PE", "NW+PE"]
SPECS = [(arrow, step) for arrow in (STRICT, LOOSE) for step in (ANY, SINGLE)]


def _games():
    """(name, game) in record order: seeded games, then the small gallery."""
    for seed in range(14):
        shape = SHAPES[seed % len(SHAPES)]
        yield f"seed {seed}", random_game(generator_params(len(shape), shape, -2, 2, Fraction(1, 3), seed))
    for name in (
        "nonconfluent_weak_2x2",
        "inherently_dominated_middle_3x2",
        "weakly_but_not_inherently_dominated_2x2",
        "mixable_middle_3x2",
        "redundant_middle_3x2",
        "trivial_1x1",
    ):
        yield name, getattr(gallery, name)()


def _copy(g: Game) -> Game:
    """An equal game that is another object: the engine keeps its answers per
    game object."""
    return Game(g.strategies, {p: g.payoff_vector(p) for p in g.profiles()})


def _results(root: Game, text: str):
    """(item, result) for one relation on ``root``, each result a plain
    value: games as kept root indices per player."""

    def kept(g):
        return tuple(tuple(root.strategies[i].index(x) for x in labels) for i, labels in enumerate(g.strategies))

    def games(gs):
        return None if gs is None else tuple(map(kept, gs))

    def outcome(out):
        cx = out.counterexample
        return out.ok, kept(cx) if isinstance(cx, Game) else games(cx)

    def path(p):
        return tuple((s.removed, kept(s.result), s.strict_valid, s.degenerate) for s in p.steps)

    relation = parse_relation(text)
    for arrow, step in SPECS:
        spec = RelationSpec(relation, arrow, step)
        for renaming, suffix in ((False, ""), (True, " up to renaming")):
            r = normal_forms(root, spec, up_to_renaming=renaming)
            yield f"{spec} normal_forms{suffix}", (
                games(r.normal_forms), r.classes, r.explored_states, r.unique, games(r.counterexample)
            )
            yield f"{spec} weak_confluence{suffix}", outcome(check_weak_confluence(root, spec, renaming))
        yield f"{spec} one_step_closed", outcome(check_one_step_closed(root, spec))
        yield f"{spec} left_commutes_after_PEM", outcome(check_left_commutes(root, RelationSpec(PEM, arrow, step), spec))
        yield f"{spec} successors", games(successors(root, spec))
        yield f"{spec} single_step_trace", path(single_step_trace(root, spec))
    yield f"{text} maximal_reduce", path(maximal_reduce(root, relation))
    yield f"{text} one_at_a_time", check_one_at_a_time(root, relation)


def _record(g: Game, warm: bool):
    """Every line of one game's record, cold or warm, in record order."""
    shared = _copy(g)
    if warm:
        for text in reversed(RELATIONS):
            list(_results(shared, text))
    for text in RELATIONS:
        for key, value in _results(shared if warm else _copy(g), text):
            yield f"{key}: {value!r}"
    yield f"fully_reduce: {fully_reduce(shared if warm else _copy(g)).strategies!r}"


def test_engine_results_match_the_record():
    blocks = RECORD.read_text().split("\n\n")
    games = list(_games())
    assert len(blocks) == len(games)
    for (name, g), block in zip(games, blocks):
        [recorded_name, *lines] = block.strip("\n").split("\n")
        assert recorded_name == name
        for warm in (False, True):
            got = list(_record(g, warm))
            for k, (line, want) in enumerate(zip(got, lines)):
                assert line == want, f"{'warm' if warm else 'cold'} {name}, entry {k}: got {line}, recorded {want}"
            assert len(got) == len(lines), f"{name}: {len(got)} results, {len(lines)} recorded"


if __name__ == "__main__":
    RECORD.parent.mkdir(exist_ok=True)
    RECORD.write_text("\n\n".join("\n".join([name, *_record(g, warm=False)]) for name, g in _games()) + "\n")
