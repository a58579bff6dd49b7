"""Canonical JSON game format and report serialization.

Game documents look like::

    {"players": 2,
     "strategies": [["T", "B"], ["L", "R"]],
     "payoffs": [[["2", "1"], ["2", "1"]],
                 [["2", "1"], ["1", "0"]]]}

``payoffs`` nests one array level per player, indexed by strategy position;
the innermost entry lists one rational string per player.  Parsing accepts
integers and non-reduced fractions ("6/4" becomes "3/2") and rejects anything
inexact, and exponent notation; serialization is canonical, so
parse-then-serialize is idempotent.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .engine import ConfluenceReport, ReductionPath
from .equivalence import Renaming
from .errors import DuplicateLabel, EmptyStrategySet, ParseError
from .game import Game, _as_fraction, new_game


def _parse_rational(value: Any, where: str) -> Fraction:
    try:
        return _as_fraction(value)
    except ParseError as exc:
        raise ParseError(f"{where}: {exc}") from None


def parse_game(text: str) -> Game:
    # ValueError covers JSONDecodeError and integers past int's digit limit;
    # deep nesting raises RecursionError
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("game document must be a JSON object")
    try:
        players = doc["players"]
        strategies = doc["strategies"]
        payoffs = doc["payoffs"]
    except KeyError as exc:
        raise ParseError(f"missing field {exc.args[0]!r}") from None
    if isinstance(players, bool) or not isinstance(players, int) or players < 1:
        raise ParseError(f"players must be a positive integer, got {players!r}")
    if not isinstance(strategies, list) or len(strategies) != players:
        raise ParseError("strategies must list one label array per player")
    labels = []
    for i, labs in enumerate(strategies):
        if not isinstance(labs, list) or not all(isinstance(l, str) for l in labs):
            raise ParseError(f"player {i} strategies must be an array of strings")
        labels.append(tuple(labs))

    table: dict[tuple[int, ...], tuple[Fraction, ...]] = {}

    def walk(node, prefix: tuple[int, ...]):
        depth = len(prefix)
        if depth == players:
            if not isinstance(node, list) or len(node) != players:
                raise ParseError(f"payoff cell at {prefix} must list {players} rationals")
            table[prefix] = tuple(
                _parse_rational(v, f"payoffs{list(prefix)}[{j}]") for j, v in enumerate(node)
            )
            return
        if not isinstance(node, list) or len(node) != len(labels[depth]):
            raise ParseError(
                f"payoffs at {prefix} must have {len(labels[depth])} entries for player {depth}"
            )
        for k, child in enumerate(node):
            walk(child, prefix + (k,))

    walk(payoffs, ())
    try:
        return new_game(labels, table)
    except (DuplicateLabel, EmptyStrategySet) as exc:
        raise ParseError(str(exc)) from None


def game_to_dict(game: Game) -> dict:
    def build(prefix: tuple[int, ...]):
        depth = len(prefix)
        if depth == game.n:
            return [str(v) for v in game.payoff_vector(prefix)]
        return [build(prefix + (k,)) for k in range(len(game.strategies[depth]))]

    return {
        "players": game.n,
        "strategies": [list(s) for s in game.strategies],
        "payoffs": build(()),
    }


def serialize_game(game: Game) -> str:
    return json.dumps(game_to_dict(game), indent=2, sort_keys=True) + "\n"


# -- report serialization ---------------------------------------------------


def renaming_to_dict(renaming: Renaming, g1: Game, g2: Game) -> dict:
    return {
        "maps": [
            {g1.strategies[i][s]: g2.strategies[i][t] for s, t in enumerate(m)}
            for i, m in enumerate(renaming.maps)
        ]
    }


def path_to_dict(path: ReductionPath) -> dict:
    return {
        "root": game_to_dict(path.root),
        "steps": [
            {
                "removed": [list(r) for r in step.removed],
                "result": game_to_dict(step.result),
                "strict_valid": step.strict_valid,
                "degenerate": step.degenerate,
            }
            for step in path.steps
        ],
        "endpoint": game_to_dict(path.endpoint),
    }


def confluence_report_to_dict(report: ConfluenceReport) -> dict:
    doc = {
        "normal_forms": [game_to_dict(g) for g in report.normal_forms],
        "classes": [list(c) for c in report.classes],
        "explored_states": report.explored_states,
        "unique": report.unique,
        "counterexample": None,
    }
    if report.counterexample is not None:
        doc["counterexample"] = [game_to_dict(g) for g in report.counterexample]
    return doc


def counterexample_to_dict(game: Game, prop: str, counterexample) -> dict:
    """A ``dominia check`` property's counterexample in strategy labels: for
    "tdi", the deciding player, the player whose payoff breaks the tie, the
    two strategies and the column (null at the player's slot); otherwise the
    witness pair with the restriction's kept sets."""
    labels = game.strategies
    if prop == "tdi":
        i, j, r, t, col = counterexample
        profile = [None if k == i else labels[k][c] for k, c in enumerate(col)]
        return {"player": i, "other_player": j, "strategies": [labels[i][r], labels[i][t]], "profile": profile}
    kept, w = counterexample
    doc = {"kept": [[labels[k][s] for s in ks] for k, ks in enumerate(kept)]}
    mine = labels[w.player]
    doc.update(player=w.player, dominated=mine[w.dominated], dominator=mine[w.dominator], relation=w.relation)
    return doc
