"""dominia: exact-arithmetic strategy elimination for finite strategic games.

The package decides pure and mixed dominance relations over exact rational
payoffs, eliminates dominated strategies under both the surviving-dominator
and pre-step-dominator readings, and exhaustively checks order-independence
style properties (unique normal forms, weak confluence, one-step closedness,
one-at-a-time equivalence, left commutativity) on desk-scale games.
"""

from .engine import (
    ANY,
    LOOSE,
    SINGLE,
    STRICT,
    ConfluenceReport,
    ReductionPath,
    ReductionStep,
    RelationSpec,
    StructuredReport,
    check_left_commutes,
    check_one_at_a_time,
    check_one_step_closed,
    check_weak_confluence,
    fully_reduce,
    maximal_reduce,
    normal_forms,
    single_step_trace,
    structured_elimination_scenario,
    successors,
)
from .equivalence import (
    Renaming,
    canonical_signature,
    equivalent,
    partition_by_equivalence,
    purely_reduce,
)
from .errors import (
    DegenerateSubstitution,
    DimensionMismatch,
    DominiaError,
    DuplicateLabel,
    EmptyRestriction,
    EmptyStrategySet,
    EmptySupport,
    IndexOutOfRange,
    InvalidParams,
    MissingPayoff,
    ParseError,
    SizeBoundExceeded,
)
from .game import Game, new_game, restrict
from .gameio import game_to_dict, parse_game, serialize_game
from .generator import GeneratorParams, SplitMix64, generator_params, random_game
from .inherent import InherentQuery, InherentResult, inherent_dominated_set, is_inherently_dominated
from .mixed import (
    MixedStrategy,
    MixedWitness,
    find_dominator,
    mixed_dominated_set,
    mixed_strategy,
    shrink_self_weight,
    substitute,
    witness_holds,
)
from .pure import (
    CheckOutcome,
    DominanceWitness,
    check_iiia,
    check_tdi,
    check_tdi_plus,
    check_tdi_plus_plus,
    dominates,
    is_hereditary,
    is_strict_partial_order,
)
from .relations import (
    COMPAT,
    NW,
    NWM,
    PE,
    PEM,
    S,
    SM,
    VW,
    VWM,
    W,
    WM,
    Inherent,
    Relation,
    parse_relation,
    union,
)

__version__ = "0.1.0"
