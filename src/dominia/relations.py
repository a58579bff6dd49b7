"""Identifiers for dominance relations and their unions.

Pure tags: S (strict), W (weak), VW (very weak), NW (nice weak, i.e. weak plus
compatibility), PE (payoff equivalence), COMPAT (compatibility itself).
Mixed tags are the mixed-dominator counterparts: SM, WM, VWM, NWM, PEM.
A union relation holds whenever any member holds; ``Inherent`` wraps a base
relation into its unary for-every-opponent-subset form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError

PURE_TAGS = ("S", "W", "VW", "NW", "PE", "COMPAT")
MIXED_TAGS = ("SM", "WM", "VWM", "NWM", "PEM")


@dataclass(frozen=True)
class Relation:
    """A dominance relation or a duplicate-free union of same-kind relations."""

    tags: tuple[str, ...]
    mixed: bool

    def __post_init__(self):
        if not self.tags:
            raise ParseError("a relation needs at least one member")
        if len(set(self.tags)) != len(self.tags):
            raise ParseError(f"duplicate members in union {self.tags}")
        universe = MIXED_TAGS if self.mixed else PURE_TAGS
        for tag in self.tags:
            if tag not in universe:
                raise ParseError(f"unknown {'mixed' if self.mixed else 'pure'} relation {tag!r}")

    def __str__(self) -> str:
        return "+".join(self.tags)


@dataclass(frozen=True)
class Inherent:
    """Inherent (unary) dominance built from a binary base relation."""

    base: Relation

    def __str__(self) -> str:
        return f"inh-{self.base}"


S = Relation(("S",), False)
W = Relation(("W",), False)
VW = Relation(("VW",), False)
NW = Relation(("NW",), False)
PE = Relation(("PE",), False)
COMPAT = Relation(("COMPAT",), False)
SM = Relation(("SM",), True)
WM = Relation(("WM",), True)
VWM = Relation(("VWM",), True)
NWM = Relation(("NWM",), True)
PEM = Relation(("PEM",), True)


def union(*relations: Relation) -> Relation:
    """Union of same-kind relations; member order is preserved."""
    if not relations:
        raise ParseError("empty union")
    mixed = relations[0].mixed
    tags: list[str] = []
    for rel in relations:
        if rel.mixed != mixed:
            raise ParseError("cannot union pure and mixed relations")
        for tag in rel.tags:
            if tag not in tags:
                tags.append(tag)
    return Relation(tuple(tags), mixed)


def parse_relation(text: str):
    """Parse CLI relation syntax: e.g. ``S``, ``NW+PE``, ``inh-W``, ``inh-NWM``."""
    text = text.strip()
    if not text:
        raise ParseError("empty relation")
    if text.lower().startswith("inh-"):
        base = parse_relation(text[4:])
        if isinstance(base, Inherent):
            raise ParseError(f"inherent relations do not nest: {text!r}")
        return Inherent(base)
    tags = [t.strip().upper() for t in text.split("+")]
    mixed_members = [t in MIXED_TAGS for t in tags]
    for t, is_mixed in zip(tags, mixed_members):
        if t not in PURE_TAGS and t not in MIXED_TAGS:
            raise ParseError(f"unknown relation {t!r}")
    if any(mixed_members) and not all(mixed_members):
        raise ParseError(f"cannot union pure and mixed relations: {text!r}")
    return Relation(tuple(tags), all(mixed_members))
