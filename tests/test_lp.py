from fractions import Fraction
from math import lcm

import pytest
from hypothesis import event, given, settings, strategies as st

from dominia import lp, mixed
from dominia.errors import DimensionMismatch, PivotLimitExceeded
from dominia.game import new_game
from dominia.generator import generator_params, random_game


def _scaled(values) -> tuple[int, list[int]]:
    """The LCM of the values' denominators, and the values times it: integers
    with the same signs."""
    values = [Fraction(v) for v in values]
    scale = lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def rational(constraints, objective):
    """A problem stated in rationals, ``constraints`` as (coefficients, op,
    rhs), as an :class:`lp.LpProblem`: each row, and the objective, times the
    LCM of its denominators.  Returns the problem and the objective's scale."""
    rows = [_scaled((*c, b))[1] for c, _, b in constraints]
    scale, objective = _scaled(objective)
    return lp.LpProblem(rows, [op for _, op, _ in constraints], objective), scale


def solve(constraints, objective):
    """The optimum of a rational problem; a positive row scale keeps the
    feasible set and the optimal points, and the objective's scale is divided
    out of the value."""
    prob, scale = rational(constraints, objective)
    out = lp.solve(prob)
    return lp.LpOutcome("optimal", out.value / scale, out.point) if out.optimal else out


def test_single_variable_bounded():
    out = solve([([-1], ">=", -3)], [1])
    assert out.optimal and out.value == 3 and out.point == (Fraction(3),)


def test_unbounded():
    out = solve([], [1])
    assert out.status == "unbounded"


@pytest.mark.parametrize(
    "objective, status",
    [([1], "unbounded"), ([-1], "optimal"), ([0, 2], "unbounded"), ([0, -3], "optimal"), ([], "optimal")],
)
def test_problems_without_rows(objective, status):
    # with no rows the simplex only reads the cost row: the first column
    # that can grow the objective is unbounded, else 0 is optimal
    out = lp.solve(lp.LpProblem([], [], objective))
    assert out.status == status
    if out.optimal:
        assert out.value == 0 and out.point == (0,) * len(objective)


def _feasible(constraints, num_vars):
    """Phase one alone: maximize 0 over the constraints."""
    return solve(constraints, [0] * num_vars)


def test_contradictory_equalities_infeasible():
    out = _feasible([([1], "==", 1), ([1], "==", 2)], 1)
    assert out.status == "infeasible"


def test_simplex_feasibility():
    out = _feasible([([1, 1], "==", 1)], 2)
    assert out.optimal and out.value == 0
    assert sum(out.point) == 1 and all(v >= 0 for v in out.point)


def test_simplex_with_forced_bound_infeasible():
    cons = [([1, 1], "==", 1), ([1, 0], ">=", 2)]
    assert _feasible(cons, 2).status == "infeasible"


def test_vacuous_problem_feasible():
    out = _feasible([], 0)
    assert out.optimal and out.value == 0 and out.point == ()


def test_dimension_mismatch():
    # a row holds one coefficient per variable, then the rhs
    with pytest.raises(DimensionMismatch):
        lp.LpProblem([[1, 1]], [">="], [1, 0])
    with pytest.raises(DimensionMismatch):
        lp.LpProblem([[1, 1]], [], [1])
    with pytest.raises(DimensionMismatch):
        lp.LpProblem([[1, 1]], ["<"], [1])
    # one form: a <= row is stated as its negation, a >= row
    with pytest.raises(DimensionMismatch, match="'<='"):
        lp.LpProblem([[1, 1]], ["<="], [1])


def test_exact_rational_optimum():
    # max x + y s.t. 2x + y <= 1, x + 3y <= 2  -> vertex (1/5, 3/5)
    cons = [([-2, -1], ">=", -1), ([-1, -3], ">=", -2)]
    out = solve(cons, [1, 1])
    assert out.value == Fraction(4, 5)
    assert out.point == (Fraction(1, 5), Fraction(3, 5))


def test_degenerate_redundant_rows():
    cons = [
        ([1, 1], "==", 1),
        ([2, 2], "==", 2),  # redundant copy
        ([-1, 0], ">=", -1),
    ]
    out = solve(cons, [1, 0])
    assert out.optimal and out.value == 1


def test_row_with_unlike_denominators():
    # one row scaled by lcm(3, 2, 6, 4) = 12; the best ratio is x's, 3 * 7/4
    cons = [([Fraction(-1, 3), Fraction(-1, 2), Fraction(-5, 6)], ">=", Fraction(-7, 4))]
    out = solve(cons, [1, 1, 1])
    assert out.value == Fraction(21, 4)
    assert out.point == (Fraction(21, 4), Fraction(0), Fraction(0))


def test_redundant_equality_pair_negative_drive_out(monkeypatch):
    # phase 1 leaves an artificial basic at zero over a negative entry;
    # driving it out pivots on that entry
    pivots = []
    pivot = lp._Tableau.pivot

    def recording(tab, r, c):
        pivots.append(tab.rows[r][c])
        pivot(tab, r, c)

    monkeypatch.setattr(lp._Tableau, "pivot", recording)
    cons = [
        ([-1, -2], "==", -2),
        ([-2, -4], "==", -4),  # redundant copy
        ([1, -2], ">=", 2),
    ]
    out = solve(cons, [-2, -2])
    assert any(p < 0 for p in pivots)
    assert out.optimal and out.value == -4
    assert out.point == (Fraction(2), Fraction(0))


def test_beale_cycling_example_terminates():
    # Beale 1955: cycles under the textbook largest-coefficient rule; its
    # minimum of c.x is the negated maximum of -c.x
    cons = [
        ([Fraction(-1, 4), 60, Fraction(1, 25), -9], ">=", 0),
        ([Fraction(-1, 2), 90, Fraction(1, 50), -3], ">=", 0),
        ([0, 0, -1, 0], ">=", -1),
    ]
    out = solve(cons, [Fraction(3, 4), -150, Fraction(1, 50), -6])
    assert out.optimal and out.value == Fraction(1, 20)
    assert out.point == (Fraction(1, 25), Fraction(0), Fraction(1), Fraction(0))


small_rationals = st.integers(min_value=-4, max_value=4).map(Fraction)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(small_rationals, min_size=2, max_size=2), min_size=1, max_size=4),
    st.lists(st.integers(min_value=0, max_value=5).map(Fraction), min_size=1, max_size=4),
    st.lists(small_rationals, min_size=2, max_size=2),
)
def test_duality_spot_check(rows, rhs, objective):
    """For max c.x s.t. -Ax >= -b, x >= 0: primal optimum equals the negated
    optimum of the mechanical dual (max -b.y s.t. A'y >= c, y >= 0) whenever
    both are bounded and feasible."""
    m = min(len(rows), len(rhs))
    rows, rhs = rows[:m], rhs[:m]
    primal = solve([([-a for a in r], ">=", -b) for r, b in zip(rows, rhs)], objective)
    dual_cons = [([rows[k][j] for k in range(m)], ">=", objective[j]) for j in range(2)]
    dual = solve(dual_cons, [-b for b in rhs])
    if primal.optimal and dual.optimal:
        assert primal.value == -dual.value
    elif primal.status == "unbounded":
        assert dual.status == "infeasible"
    elif dual.status == "unbounded":
        assert primal.status == "infeasible"


rationals = st.builds(Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=6))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.tuples(st.lists(rationals, min_size=n, max_size=n), st.sampled_from(["==", ">="]), rationals),
                min_size=1,
                max_size=4,
            ),
            st.lists(rationals, min_size=n, max_size=n),
        )
    )
)
def test_duality_with_equalities_and_free_variables(case):
    """Primal max c.x over == and >= rows, against its dual, max -b'.y over
    A'^T y >= c, whose value is the primal's negated.  The dual sees each >=
    row a.x >= b as the row -a.x <= -b with a nonnegative multiplier, and
    each == row as a.x <= b with a free one, stated as two columns, a and
    -a."""
    rows, objective = case
    n = len(objective)
    primal = solve(rows, objective)
    cols = []  # each multiplier's column of A'^T y and its entry of -b'
    for a, op, b in rows:
        if op == "==":
            cols.append((a, -b))
        cols.append(([-v for v in a], b))
    dual_cons = [([col[j] for col, _ in cols], ">=", objective[j]) for j in range(n)]
    dual = solve(dual_cons, [w for _, w in cols])
    if primal.optimal and dual.optimal:
        assert primal.value == -dual.value
    elif primal.status == "unbounded":
        assert dual.status == "infeasible"
    elif dual.status == "unbounded":
        assert primal.status == "infeasible"


def test_pivot_counter_stays_reasonable():
    # a slightly bigger feasibility problem still terminates comfortably
    cons = []
    n = 8
    for j in range(n):
        coeffs = [Fraction(1) if k <= j else Fraction(0) for k in range(n)]
        cons.append(([-c for c in coeffs], ">=", Fraction(-(j + 1))))
    cons.append(([1] * n, "==", Fraction(3)))
    out = solve(cons, [1] * n)
    assert out.optimal and out.value == 3


def test_pivot_cap(monkeypatch):
    monkeypatch.setattr(lp, "MAX_PIVOTS", 0)
    with pytest.raises(PivotLimitExceeded):
        lp.solve(lp.LpProblem([[1, 1]], [lp.EQ], [1]))


def test_post_solve_check_rejects_a_point_off_by_one_over_d():
    # the re-check runs on the integer rows against the point's numerators
    # over d; moving one coordinate by 1/d breaks exactly one row
    cap = ([-1, Fraction(-1, 2), 0], ">=", -2)
    eq = ([1, -1, 0], "==", Fraction(1, 3))
    ge = ([0, 0, 1], ">=", Fraction(3, 2))
    prob, _ = rational([cap, eq, ge], [1, 1, -1])
    out = lp.solve(prob)
    assert out.point == (Fraction(13, 9), Fraction(10, 9), Fraction(3, 2))
    rows, ops = prob.constraints, prob.ops
    assert rows == [[-2, -1, 0, -4], [3, -3, 0, 1], [0, 0, 2, 3]]
    d = 18
    nums = [int(v * d) for v in out.point]
    lp._check_point(rows, ops, nums, d)
    for shift, broken in (((1, 1, 0), 0), ((-1, 0, 0), 1), ((0, 0, -1), 2)):
        off = [v + k for v, k in zip(nums, shift)]
        with pytest.raises(AssertionError, match=f"violating row {broken}:") as err:
            lp._check_point(rows, ops, off, d)
        assert str(rows[broken]) in str(err.value)
    with pytest.raises(AssertionError, match="negative value"):
        lp._check_point([], [], [-1], d)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.tuples(st.lists(rationals, min_size=n, max_size=n), st.sampled_from(["==", ">="]), rationals),
                max_size=4,
            ),
            st.lists(rationals, min_size=n, max_size=n),
        )
    ),
    st.lists(st.integers(min_value=1, max_value=6), min_size=5, max_size=5),
)
def test_positive_row_scales_keep_the_answer(case, factors):
    """A rational problem, scaled to integer rows, and the same rows each
    times a further positive factor (the objective too) have the same status
    and, up to the objective's factor, the same optimum: the feasible set
    does not change.  Either point meets every rational row and attains the
    optimum, and the post-solve check rejects a move of any coordinate that
    an equality row or a zero sign bound pins."""
    rows, objective = case
    prob, scale = rational(rows, objective)
    assert all(type(v) is int for row in prob.constraints for v in (*row, *prob.objective))
    factors = factors[: len(rows) + 1]
    wider = lp.LpProblem(
        [[f * v for v in row] for f, row in zip(factors, prob.constraints)],
        prob.ops,
        [factors[-1] * c for c in prob.objective],
    )
    out, other = lp.solve(prob), lp.solve(wider)
    assert out.status == other.status
    if not out.optimal:
        assert out.value is None and other.value is None and out.point is None
        return
    assert other.value == factors[-1] * out.value
    for x in (out.point, other.point):
        assert out.value == scale * sum(Fraction(c) * v for c, v in zip(objective, x))
        for c, op, b in rows:
            lhs = sum(a * v for a, v in zip(c, x))
            assert lhs >= b if op == ">=" else lhs == b
        assert all(v >= 0 for v in x)
    x = out.point
    int_rows, ops = prob.constraints, prob.ops
    d = lcm(*(v.denominator for v in x))
    nums = [int(v * d) for v in x]
    lp._check_point(int_rows, ops, nums, d)
    for j in range(len(x)):
        pinned = any(op == "==" and row[j] for row, op in zip(int_rows, ops))
        for step in (1, -1):
            if pinned or (nums[j] == 0 and step < 0):
                off = nums[:j] + [nums[j] + step] + nums[j + 1 :]
                with pytest.raises(AssertionError, match="violating|negative value"):
                    lp._check_point(int_rows, ops, off, d)


def test_margin_lp_reaches_a_negative_optimum():
    # every mix of rows 1 and 2 does worse than row 0 in some column; the
    # best, half of each, by 1/2.  A margin in one nonnegative column could
    # not go below 0 and would leave the LP infeasible.
    game = new_game(
        [["s", "t", "u"], ["L", "R"]],
        {(0, 0): (0, 0), (0, 1): (0, 0), (1, 0): (-2, 0), (1, 1): (1, 0), (2, 0): (1, 0), (2, 1): (-2, 0)},
    )
    _, _, pay = mixed._query(game, 0, 0, [1, 2], None)
    out = mixed._margin_lp(pay, 0, 0, (1, 2), (), range(2))
    assert out.optimal and out.value == Fraction(-1, 2)
    half = Fraction(1, 2)
    assert out.point[:2] == (half, half) and out.point[2] - out.point[3] == -half


def _calls_of_simplex(monkeypatch) -> list:
    """The (rows, variables) of every tableau the simplex runs from here on."""
    calls = []
    simplex = lp._simplex

    def recording(rows, ops, objective):
        calls.append((len(rows), len(objective)))
        return simplex(rows, ops, objective)

    monkeypatch.setattr(lp, "_simplex", recording)
    return calls


def test_small_queries_run_the_primal_and_tall_ones_the_dual(monkeypatch):
    # a 2-player 2x2 SM query: 3 rows over 4 variables, the primal's side
    small = random_game(generator_params(2, 2, -3, 3, 0, 5))
    _, _, pay = mixed._query(small, 0, 0, (0, 1), None)
    rows, ops = mixed._constraints(pay, 0, 0, (0, 1), (), range(2))
    assert (len(rows), len(rows[0]) - 1) == (3, 4) and not lp._dual_side(rows, ops, 4)
    # a 4x4x4 WM query over 3 strategies, and an NWM round with two tie
    # columns: 17 rows over 3 variables, and 21 over 5, the dual's side
    large = random_game(generator_params(3, 4, -3, 3, 0, 5))
    _, _, pay = mixed._query(large, 0, 0, (1, 2, 3), None)
    wm = mixed._constraints(pay, 0, 0, (1, 2, 3), (), ())
    nwm = mixed._constraints(pay, 0, 0, (1, 2, 3), (0, 1), range(16))
    assert [len(rows) for rows, _ in (wm, nwm)] == [17, 21]
    assert lp._dual_side(*wm, 3) and lp._dual_side(*nwm, 5)
    calls = _calls_of_simplex(monkeypatch)
    mixed._margin_lp(mixed._query(small, 0, 0, (0, 1), None)[2], 0, 0, (0, 1), (), range(2))
    lp.solve(lp.LpProblem(*wm, [1, 1, 1]))
    # the primal runs on the problem's rows; the dual on a row per variable,
    # over a variable per >= row and two per == row (the weights' sum)
    assert calls == [(3, 4), (3, 18)]


def _primal(prob):
    """``prob`` solved on the primal side."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "_dual_side", lambda *args: False)
        return lp.solve(prob)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.tuples(
                    st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                    st.sampled_from([lp.EQ, lp.GE, lp.GE]),
                    st.integers(0, 3),
                ),
                min_size=3 * n + 4,  # more than 3 rows per variable, the extra one too
                max_size=4 * n + 4,
            ),
            st.lists(st.integers(0, 3), min_size=n, max_size=n),
            st.lists(st.integers(-3, 3), min_size=n, max_size=n),
            st.sampled_from(["plain", "redundant", "contradictory", "unbounded", "shifted"]),
        )
    )
)
def test_the_dual_side_agrees_with_the_primal_on_tall_problems(case):
    """Tall problems, with == and >= rows and right-hand sides of either
    sign, run on the dual's side; it gives the primal's status and value,
    and its point passes the post-solve check.  Each row holds at a point
    x0, a >= row with a slack, unless every right-hand side is shifted; a
    problem may also hold a scaled copy of a row, or a second equality with
    a different right-hand side.  An extra variable that no row holds makes
    a positive objective on it unbounded, which leaves the dual infeasible
    and is solved as the primal."""
    rows, x0, objective, kind = case
    rows = [(a, op, sum(map(int.__mul__, a, x0)) - (op == lp.GE) * slack) for a, op, slack in rows]
    if kind == "shifted":
        rows = [(a, op, b + 1 + k % 3) for k, (a, op, b) in enumerate(rows)]
    elif kind == "redundant":
        a, op, b = rows[0]
        rows = [*rows, ([2 * v for v in a], op, 2 * b)]
    elif kind == "contradictory":
        a, _, b = rows[0]
        rows = [(a, lp.EQ, b), *rows[1:], (a, lp.EQ, b + 1)]
    elif kind == "unbounded":
        rows = [([*a, 0], op, b) for a, op, b in rows]
        objective = [*objective, 1]
    prob = lp.LpProblem([[*a, b] for a, _, b in rows], [op for _, op, _ in rows], objective)
    assert lp._dual_side(prob.constraints, prob.ops, prob.num_vars)
    out, ref = lp.solve(prob), _primal(prob)
    event(f"{kind}: {out.status}")
    assert (out.status, out.value) == (ref.status, ref.value)
    if kind == "contradictory" and any(rows[0][0]):
        assert out.status == "infeasible"
    if kind == "unbounded":
        assert out.status == "unbounded"
    if out.optimal:
        d = lcm(*(v.denominator for v in out.point))
        lp._check_point(prob.constraints, prob.ops, [int(v * d) for v in out.point], d)


def test_both_fallbacks_of_the_dual_side(monkeypatch):
    # an unbounded dual answers "infeasible" with no primal run; x >= 1 and
    # -x >= 0 leave the dual (a row per variable) unbounded
    calls = _calls_of_simplex(monkeypatch)
    rows = [[1, 1], [-1, 0], [1, 0], [1, 0], [1, 0]]
    assert lp.solve(lp.LpProblem(rows, [lp.GE] * 5, [0])).status == "infeasible"
    assert calls == [(1, 5)]
    # max x over x >= 0 rows: the dual is infeasible, the primal runs and
    # finds the problem unbounded
    del calls[:]
    rows = [[1, 0], [1, -1], [2, 0], [3, 0], [1, -2]]
    assert lp.solve(lp.LpProblem(rows, [lp.GE] * 5, [1])).status == "unbounded"
    assert calls == [(1, 5), (5, 1)]


@pytest.mark.parametrize(
    "corrupt",
    [lambda red: [-v for v in red], lambda red: red[1:], lambda red: [0, *red]],
    ids=["sign-flip", "slack-shifted-left", "slack-shifted-right"],
)
def test_a_corrupted_dual_read_out_fails_the_post_solve_check(monkeypatch, corrupt):
    # max -x - y over x + y >= 2, x >= 1/2 and copies: optimum -2 at a point
    # with x >= 1/2 and y >= 0, read off the dual's reduced costs
    rows = [[1, 1, 2], [2, 0, 1], [1, 1, 2], [2, 0, 1], [3, 3, 6], [4, 0, 2], [1, 2, 2]]
    prob = lp.LpProblem(rows, [lp.GE] * len(rows), [-1, -1])
    assert lp._dual_side(rows, prob.ops, 2)
    out = lp.solve(prob)
    assert out.optimal and out.value == -2 and out.point[0] >= Fraction(1, 2)
    simplex = lp._simplex

    def corrupted(rows, ops, objective):
        tab, red = simplex(rows, ops, objective)
        return tab, corrupt(red)

    monkeypatch.setattr(lp, "_simplex", corrupted)
    with pytest.raises(AssertionError, match="violating row"):
        lp.solve(prob)
