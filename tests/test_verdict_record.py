"""A committed record of mixed-dominance verdicts on seeded games.

``data/mixed_verdicts.txt`` holds, for 120 seeded games, the verdict of
``find_dominator`` and of ``lp_dominator`` on every query :func:`_queries`
lists: each player and strategy s, the allowed support with and without s,
all columns and every other column, all five mixed tags.  Verdicts are facts
about the games, so any change to the deciders must reproduce them; the
witnesses are not recorded, since another correct decider may pick another
one.  Regenerate with ``PYTHONPATH=src python tests/test_verdict_record.py``,
only when the record itself must change.
"""

from fractions import Fraction
from pathlib import Path

from dominia import find_dominator, generator_params, random_game
from dominia.mixed import lp_dominator
from dominia.relations import MIXED_TAGS, Relation

RECORD = Path(__file__).parent / "data" / "mixed_verdicts.txt"
SHAPES = [(2, 2), (2, 3), (3, 3), (3, 4), (2, 2, 2), (2, 3, 2)]


def _games():
    for seed in range(120):
        shape = SHAPES[seed % len(SHAPES)]
        yield seed, random_game(generator_params(len(shape), shape, -2, 2, Fraction(1, 3), seed))


def _queries(g):
    """(player, s, allowed, columns) in record order; columns None is all."""
    for i, k in enumerate(g.shape):
        every = g.opponent_profiles(i)
        for s in range(k):
            for allowed in (tuple(range(k)), tuple(t for t in range(k) if t != s)):
                for cols in (None, every[::2]):
                    yield i, s, allowed, cols


def _verdicts(g):
    """One (query, "0" or "1") per verdict, in record order."""
    for i, s, allowed, cols in _queries(g):
        for tag in MIXED_TAGS:
            query = (i, s, allowed, "all" if cols is None else "every other", tag)
            found = find_dominator(g, Relation((tag,)), i, s, allowed, columns=cols)
            yield (*query, "find_dominator"), "01"[found is not None]
            yield (*query, "lp_dominator"), "01"[lp_dominator(g, tag, i, s, allowed, columns=cols) is not None]


def test_verdicts_match_the_record():
    lines = RECORD.read_text().split()
    assert len(lines) == 120
    count = 0
    for (seed, g), line in zip(_games(), lines):
        verdicts = list(_verdicts(g))
        count += len(verdicts)
        for (query, got), want in zip(verdicts, line):
            assert got == want, f"game seed {seed} {g.shape}, query {query}: got {got}, recorded {want}"
        assert len(verdicts) == len(line), f"game seed {seed}: {len(verdicts)} verdicts, {len(line)} recorded"
    assert count == 28_000


if __name__ == "__main__":
    RECORD.parent.mkdir(exist_ok=True)
    RECORD.write_text("".join("".join(v for _, v in _verdicts(g)) + "\n" for _, g in _games()))
