"""Identifiers for dominance relations and their unions.

Pure tags: S (strict), W (weak), VW (very weak), NW (nice weak, i.e. weak plus
compatibility), PE (payoff equivalence), COMPAT (compatibility itself).
Mixed tags are the mixed-dominator counterparts: SM, WM, VWM, NWM, PEM.
A union relation holds whenever any member holds; ``Inherent`` wraps a base
relation into its unary for-every-opponent-subset form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ParseError

PURE_TAGS = ("S", "W", "VW", "NW", "PE", "COMPAT")
MIXED_TAGS = ("SM", "WM", "VWM", "NWM", "PEM")


@dataclass(frozen=True)
class Relation:
    """A dominance relation or a duplicate-free union of same-kind relations;
    ``mixed`` is read off the tags."""

    tags: tuple[str, ...]
    mixed: bool = field(init=False, compare=False)

    def __post_init__(self):
        if not self.tags:
            raise ParseError("a relation needs at least one member")
        for tag in self.tags:
            if tag not in PURE_TAGS and tag not in MIXED_TAGS:
                raise ParseError(f"unknown relation {tag!r}")
        mixed = [tag in MIXED_TAGS for tag in self.tags]
        if any(mixed) and not all(mixed):
            raise ParseError(f"cannot union pure and mixed relations: {str(self)!r}")
        if len(set(self.tags)) != len(self.tags):
            raise ParseError(f"duplicate members in union {self.tags}")
        object.__setattr__(self, "mixed", mixed[0])

    def __str__(self) -> str:
        return "+".join(self.tags)


@dataclass(frozen=True)
class Inherent:
    """Inherent (unary) dominance built from a binary base relation."""

    base: Relation

    def __str__(self) -> str:
        return f"inh-{self.base}"


S = Relation(("S",))
W = Relation(("W",))
VW = Relation(("VW",))
NW = Relation(("NW",))
PE = Relation(("PE",))
COMPAT = Relation(("COMPAT",))
SM = Relation(("SM",))
WM = Relation(("WM",))
VWM = Relation(("VWM",))
NWM = Relation(("NWM",))
PEM = Relation(("PEM",))


def union(*relations: Relation) -> Relation:
    """Union of same-kind relations; member order is preserved."""
    if not relations:
        raise ParseError("empty union")
    return Relation(tuple(dict.fromkeys(tag for rel in relations for tag in rel.tags)))


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
    return Relation(tuple(t.strip().upper() for t in text.split("+")))
