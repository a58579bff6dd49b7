"""Command-line surface.

Subcommands: eliminate, check, confluence, equiv, random, suite.  All output
is JSON on stdout.  Exit codes: 0 property holds / success, 1 counterexample
found, 2 usage or parse error, 3 size bound exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import suite as suite_mod
from .engine import (
    ANY,
    LOOSE,
    STRICT,
    RelationSpec,
    check_weak_confluence,
    maximal_reduce,
    normal_forms,
    single_step_trace,
)
from .equivalence import equivalent
from .errors import DominiaError, InvalidParams, ParseError, SizeBoundExceeded
from .gameio import (
    confluence_report_to_dict,
    counterexample_to_dict,
    game_to_dict,
    parse_game,
    path_to_dict,
    renaming_to_dict,
    serialize_game,
)
from .generator import generator_params, random_game
from .pure import (
    check_iiia,
    check_tdi,
    check_tdi_plus,
    check_tdi_plus_plus,
    is_hereditary,
    is_strict_partial_order,
)
from .relations import Inherent, parse_relation

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_BOUND = 3


def _load_game(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_game(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _one_game(args):
    if len(args.game) != 1:
        raise InvalidParams(f"{args.command} needs exactly one --game file")
    return _load_game(args.game[0])


def _emit(doc) -> None:
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _cmd_eliminate(args) -> int:
    game = _one_game(args)
    relation = parse_relation(args.relation)
    spec = RelationSpec(relation, STRICT if args.arrow == "strict" else LOOSE, ANY)
    if args.mode == "maximal":
        _emit(path_to_dict(maximal_reduce(game, relation)))
    elif args.mode == "single":
        _emit(path_to_dict(single_step_trace(game, spec)))
    else:
        _emit(confluence_report_to_dict(normal_forms(game, spec, up_to_renaming=args.up_to_renaming)))
    return EXIT_OK


_PROPS = {
    "tdi": lambda g, rel: check_tdi(g),
    "tdi+": lambda g, rel: check_tdi_plus(g),
    "tdi++": lambda g, rel: check_tdi_plus_plus(g),
    "hereditary": lambda g, rel: is_hereditary(g, rel),
    "iiia": lambda g, rel: check_iiia(g, rel),
    "spo": lambda g, rel: is_strict_partial_order(g, rel),
}


def _cmd_check(args) -> int:
    game = _one_game(args)
    relation = parse_relation(args.relation) if args.relation else None
    if args.property in ("hereditary", "iiia", "spo"):
        if relation is None:
            raise InvalidParams("this property needs --relation")
        if isinstance(relation, Inherent) or relation.mixed:
            raise InvalidParams(
                f"{args.property} applies to pure relations (binary relations between pure strategies), not {relation}"
            )
    result = _PROPS[args.property](game, relation)
    if isinstance(result, bool):
        _emit({"property": args.property, "ok": result})
        return EXIT_OK if result else EXIT_COUNTEREXAMPLE
    doc = {"property": args.property, "ok": result.ok}
    if not result.ok:
        doc["counterexample"] = counterexample_to_dict(game, args.property, result.counterexample)
    _emit(doc)
    return EXIT_OK if result.ok else EXIT_COUNTEREXAMPLE


def _cmd_confluence(args) -> int:
    game = _one_game(args)
    relation = parse_relation(args.relation)
    spec = RelationSpec(relation, STRICT, ANY)
    out = check_weak_confluence(game, spec, up_to_renaming=args.up_to_renaming)
    doc = {"weakly_confluent": out.ok, "up_to_renaming": args.up_to_renaming}
    if not out.ok:
        doc["counterexample"] = [game_to_dict(g) for g in out.counterexample]
    _emit(doc)
    return EXIT_OK if out.ok else EXIT_COUNTEREXAMPLE


def _cmd_equiv(args) -> int:
    if len(args.game) != 2:
        raise InvalidParams("equiv needs exactly two --game files")
    g1, g2 = (_load_game(p) for p in args.game)
    ren = equivalent(g1, g2)
    if ren is None:
        _emit({"equivalent": False})
        return EXIT_COUNTEREXAMPLE
    _emit({"equivalent": True, "renaming": renaming_to_dict(ren, g1, g2)})
    return EXIT_OK


def _cmd_random(args) -> int:
    try:
        dup = Fraction(args.dup_prob)
    except (ValueError, ZeroDivisionError):
        raise InvalidParams(f"bad probability {args.dup_prob!r}") from None
    params = generator_params(args.players, args.strategies, args.range[0], args.range[1], dup, args.seed)
    game = random_game(params)
    text = serialize_game(game)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidParams(f"cannot write {args.out}: {exc}") from None
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_suite(args) -> int:
    if args.count < 1:
        raise InvalidParams(f"--count must be at least 1, got {args.count}")
    results = suite_mod.run_all(args.seed, args.count)
    return EXIT_OK if all(r.ok for r in results) else EXIT_COUNTEREXAMPLE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dominia", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eliminate", help="reduce a game or enumerate its normal forms")
    p.add_argument("--game", action="append", required=True, metavar="FILE")
    p.add_argument("--relation", required=True)
    p.add_argument("--arrow", choices=["strict", "loose"], default="strict")
    p.add_argument("--mode", choices=["maximal", "single", "enumerate"], default="enumerate")
    p.add_argument("--up-to-renaming", action="store_true")
    p.set_defaults(fn=_cmd_eliminate)

    p = sub.add_parser("check", help="check a structural property")
    p.add_argument("--game", action="append", required=True, metavar="FILE")
    p.add_argument("--property", choices=sorted(_PROPS), required=True)
    p.add_argument("--relation")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("confluence", help="weak confluence of a reduction relation")
    p.add_argument("--game", action="append", required=True, metavar="FILE")
    p.add_argument("--relation", required=True)
    p.add_argument("--up-to-renaming", action="store_true")
    p.set_defaults(fn=_cmd_confluence)

    p = sub.add_parser("equiv", help="payoff-preserving renaming between two games")
    p.add_argument("--game", action="append", required=True, metavar="FILE")
    p.set_defaults(fn=_cmd_equiv)

    p = sub.add_parser("random", help="generate a seeded random game")
    p.add_argument("--players", type=int, required=True)
    p.add_argument("--strategies", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--range", type=int, nargs=2, default=[-3, 3], metavar=("LO", "HI"))
    p.add_argument("--dup-prob", default="0")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_random)

    p = sub.add_parser("suite", help="run the property suite")
    p.add_argument("--seed", type=int, default=suite_mod.DEFAULT_SEED)
    p.add_argument("--count", type=int, default=suite_mod.DEFAULT_COUNT)
    p.set_defaults(fn=_cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SizeBoundExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except DominiaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
