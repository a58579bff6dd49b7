"""Size-bound configuration for the exhaustive checkers.

Every restriction-quantified procedure in this package is exponential by
design.  The bound below keeps them at desk scale; the DOMINIA_MAX_STRATEGIES
environment variable overrides it.
"""

import os

from .errors import InvalidParams

# Total strategy count allowed for restriction enumeration and bulk-step
# successor enumeration.
DEFAULT_MAX_STRATEGIES = 14


def max_total_strategies() -> int:
    raw = os.environ.get("DOMINIA_MAX_STRATEGIES")
    if raw is None:
        return DEFAULT_MAX_STRATEGIES
    try:
        value = int(raw)
    except ValueError as exc:
        raise InvalidParams(f"DOMINIA_MAX_STRATEGIES must be an integer, got {raw!r}") from exc
    if value < 1:
        raise InvalidParams(f"DOMINIA_MAX_STRATEGIES must be positive, got {raw!r}")
    return value
