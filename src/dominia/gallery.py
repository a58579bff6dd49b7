"""Small named games that exercise specific elimination behaviors.

Games whose point is purely the row player's incentives set every column
player payoff to 0; that fill is part of the fixture definition.
"""

from .game import Game, new_game


def nonconfluent_weak_2x2() -> Game:
    """2x2 game where weak (= nice weak, all pairs compatible) dominance can
    eliminate the bottom row or the right column but the two outcomes never
    rejoin: two incomparable normal forms."""
    return new_game(
        [["T", "B"], ["L", "R"]],
        {
            ("T", "L"): (2, 1),
            ("T", "R"): (2, 1),
            ("B", "L"): (2, 1),
            ("B", "R"): (1, 0),
        },
    )


def inherently_dominated_middle_3x2() -> Game:
    """Row M loses to T on the left column and to B everywhere else, so every
    column subset has some better row, yet no single row beats M strictly."""
    return new_game(
        [["T", "M", "B"], ["L", "R"]],
        {
            ("T", "L"): (2, 0),
            ("T", "R"): (1, 0),
            ("M", "L"): (1, 0),
            ("M", "R"): (2, 0),
            ("B", "L"): (1, 0),
            ("B", "R"): (3, 0),
        },
    )


def inherently_dominated_middle_3x4x4() -> Game:
    """Row M ties T and B, except that T beats it on the first 8 of the 16
    opponent profiles (player 1 plays a or b) and B on the other 8.
    Over any profile subset, T or B weakly dominates M, so M is inherently
    weakly dominated, yet no row strictly dominates it.  The row player's
    wins are 1 and every other payoff is 0."""
    return new_game(
        [["T", "M", "B"], ["a", "b", "c", "d"], ["w", "x", "y", "z"]],
        {
            (r, c, d): (int(r == 0 and c < 2 or r == 2 and c >= 2), 0, 0)
            for r in range(3)
            for c in range(4)
            for d in range(4)
        },
    )


def weakly_but_not_inherently_dominated_2x2() -> Game:
    """Row B is weakly dominated by T, but given the right column alone the
    rows tie, so B is not inherently weakly dominated."""
    return new_game(
        [["T", "B"], ["L", "R"]],
        {
            ("T", "L"): (2, 0),
            ("T", "R"): (1, 0),
            ("B", "L"): (1, 0),
            ("B", "R"): (1, 0),
        },
    )


def mixable_middle_3x2() -> Game:
    """Row M is strictly below the half-half mix of T and B on every column
    (margin 1/2) while no pure row dominates it."""
    return new_game(
        [["T", "M", "B"], ["L", "R"]],
        {
            ("T", "L"): (3, 0),
            ("T", "R"): (0, 0),
            ("M", "L"): (1, 0),
            ("M", "R"): (1, 0),
            ("B", "L"): (0, 0),
            ("B", "R"): (3, 0),
        },
    )


def redundant_middle_3x2() -> Game:
    """Row M's payoffs equal, for both players, the average of T's and B's at
    every column: M is randomized redundant to the half-half mix."""
    return new_game(
        [["T", "M", "B"], ["L", "R"]],
        {
            ("T", "L"): (3, 0),
            ("T", "R"): (0, 1),
            ("M", "L"): (2, 1),
            ("M", "R"): (1, 2),
            ("B", "L"): (1, 2),
            ("B", "R"): (2, 3),
        },
    )


def trivial_1x1() -> Game:
    return new_game([["a"]], {("a",): (0,)})
