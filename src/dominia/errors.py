"""Exception hierarchy shared by all dominia modules."""


class DominiaError(Exception):
    """Base class for all errors raised by this package."""


class DuplicateLabel(DominiaError):
    """A strategy label is reused, within a player or across players."""


class EmptyStrategySet(DominiaError):
    """A player was given no strategies and degenerate games were not allowed."""


class MissingPayoff(DominiaError):
    """The payoff table does not cover every joint strategy profile."""


class EmptyRestriction(DominiaError):
    """A restriction would leave some player with no strategies."""


class IndexOutOfRange(DominiaError):
    """A player or strategy index does not exist in the game."""


class SizeBoundExceeded(DominiaError):
    """An exhaustive check would exceed its configured size bound."""


class DegenerateSubstitution(DominiaError):
    """A mixed-strategy substitution has a zero normalization denominator."""


class EmptySupport(DominiaError):
    """A mixed-dominance query was given an empty allowed support."""


class DimensionMismatch(DominiaError):
    """LP constraint or objective dimensions disagree with the variable count."""


class PivotLimitExceeded(DominiaError):
    """The simplex exceeded its safety pivot cap (should never happen with Bland's rule)."""


class ParseError(DominiaError):
    """A game or parameter file is malformed."""


class InvalidParams(DominiaError):
    """Generator parameters, command-line arguments or configuration settings are out of their documented ranges."""
