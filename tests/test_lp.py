from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dominia import lp
from dominia.errors import DimensionMismatch


def test_single_variable_bounded():
    out = lp.solve(lp.problem(1, [lp.constraint([1], "<=", 3)], [1], "max"))
    assert out.optimal and out.value == 3 and out.point == (Fraction(3),)


def test_unbounded():
    out = lp.solve(lp.problem(1, [], [1], "max"))
    assert out.status == "unbounded"


def test_contradictory_equalities_infeasible():
    out = lp.feasible_point([lp.constraint([1], "==", 1), lp.constraint([1], "==", 2)], 1)
    assert out.status == "infeasible"


def test_simplex_feasibility():
    out = lp.feasible_point([lp.constraint([1, 1], "==", 1)], 2)
    assert out.optimal and sum(out.point) == 1 and all(v >= 0 for v in out.point)


def test_simplex_with_forced_bound_infeasible():
    cons = [lp.constraint([1, 1], "==", 1), lp.constraint([1, 0], ">=", 2)]
    assert lp.feasible_point(cons, 2).status == "infeasible"


def test_vacuous_problem_feasible():
    assert lp.feasible_point([], 0).optimal


def test_free_variables():
    # minimize x with x >= -5, x free
    out = lp.solve(lp.problem(1, [lp.constraint([1], ">=", -5)], [1], "min", [False]))
    assert out.optimal and out.value == -5


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        lp.problem(2, [lp.constraint([1], "<=", 1)], [1, 0], "max")
    with pytest.raises(DimensionMismatch):
        lp.problem(1, [], [1, 2], "max")


def test_exact_rational_optimum():
    # max x + y s.t. 2x + y <= 1, x + 3y <= 2  -> vertex (1/5, 3/5)
    cons = [lp.constraint([2, 1], "<=", 1), lp.constraint([1, 3], "<=", 2)]
    out = lp.solve(lp.problem(2, cons, [1, 1], "max"))
    assert out.value == Fraction(4, 5)
    assert out.point == (Fraction(1, 5), Fraction(3, 5))


def test_degenerate_redundant_rows():
    cons = [
        lp.constraint([1, 1], "==", 1),
        lp.constraint([2, 2], "==", 2),  # redundant copy
        lp.constraint([1, 0], "<=", 1),
    ]
    out = lp.solve(lp.problem(2, cons, [1, 0], "max"))
    assert out.optimal and out.value == 1


def test_row_with_unlike_denominators():
    # one row scaled by lcm(3, 2, 6, 4) = 12; the best ratio is x's, 3 * 7/4
    cons = [lp.constraint([Fraction(1, 3), Fraction(1, 2), Fraction(5, 6)], "<=", Fraction(7, 4))]
    out = lp.solve(lp.problem(3, cons, [1, 1, 1], "max"))
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
        lp.constraint([-1, -2], "==", -2),
        lp.constraint([-2, -4], "==", -4),  # redundant copy
        lp.constraint([1, -2], ">=", 2),
    ]
    out = lp.solve(lp.problem(2, cons, [-2, -2], "max"))
    assert any(p < 0 for p in pivots)
    assert out.optimal and out.value == -4
    assert out.point == (Fraction(2), Fraction(0))


def test_beale_cycling_example_terminates():
    # Beale 1955: cycles under the textbook largest-coefficient rule
    cons = [
        lp.constraint([Fraction(1, 4), -60, Fraction(-1, 25), 9], "<=", 0),
        lp.constraint([Fraction(1, 2), -90, Fraction(-1, 50), 3], "<=", 0),
        lp.constraint([0, 0, 1, 0], "<=", 1),
    ]
    out = lp.solve(lp.problem(4, cons, [Fraction(-3, 4), 150, Fraction(-1, 50), 6], "min"))
    assert out.optimal and out.value == Fraction(-1, 20)
    assert out.point == (Fraction(1, 25), Fraction(0), Fraction(1), Fraction(0))


small_rationals = st.integers(min_value=-4, max_value=4).map(Fraction)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(small_rationals, min_size=2, max_size=2), min_size=1, max_size=4),
    st.lists(st.integers(min_value=0, max_value=5).map(Fraction), min_size=1, max_size=4),
    st.lists(small_rationals, min_size=2, max_size=2),
)
def test_duality_spot_check(rows, rhs, objective):
    """For max c.x s.t. Ax <= b, x >= 0: primal optimum equals the mechanical
    dual's optimum (min b.y s.t. A'y >= c, y >= 0) whenever both are bounded
    and feasible."""
    m = min(len(rows), len(rhs))
    rows, rhs = rows[:m], rhs[:m]
    primal = lp.solve(
        lp.problem(2, [lp.constraint(r, "<=", b) for r, b in zip(rows, rhs)], objective, "max")
    )
    dual_cons = [
        lp.constraint([rows[k][j] for k in range(m)], ">=", objective[j]) for j in range(2)
    ]
    dual = lp.solve(lp.problem(m, dual_cons, rhs, "min"))
    if primal.optimal and dual.optimal:
        assert primal.value == dual.value
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
                st.tuples(st.lists(rationals, min_size=n, max_size=n), st.sampled_from(["<=", "==", ">="]), rationals),
                min_size=1,
                max_size=4,
            ),
            st.lists(rationals, min_size=n, max_size=n),
            st.lists(st.booleans(), min_size=n, max_size=n),
        )
    )
)
def test_duality_with_equalities_and_free_variables(case):
    """Primal max c.x over <=, == and >= rows with some free variables, against
    its dual.  The dual sees each >= row negated into a <= row; <= rows get
    nonnegative multipliers and == rows free ones; a nonnegative x_j gives a
    dual row >= c_j and a free x_j a dual row == c_j."""
    rows, objective, nonneg = case
    n = len(objective)
    primal = lp.solve(lp.problem(n, [lp.constraint(c, op, b) for c, op, b in rows], objective, "max", nonneg))
    as_le = [([-a for a in c], "<=", -b) if op == ">=" else (c, op, b) for c, op, b in rows]
    dual_cons = [
        lp.constraint([c[j] for c, _, _ in as_le], ">=" if nonneg[j] else "==", objective[j]) for j in range(n)
    ]
    dual = lp.solve(
        lp.problem(len(as_le), dual_cons, [b for _, _, b in as_le], "min", [op == "<=" for _, op, _ in as_le])
    )
    if primal.optimal and dual.optimal:
        assert primal.value == dual.value
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
        cons.append(lp.constraint(coeffs, "<=", Fraction(j + 1)))
    cons.append(lp.constraint([1] * n, "==", Fraction(3)))
    out = lp.solve(lp.problem(n, cons, [1] * n, "max"))
    assert out.optimal and out.value == 3


def test_post_solve_check_rejects_a_point_off_by_one_over_d():
    # the re-check runs on the scaled integer rows against the point's
    # numerators over d; moving one coordinate by 1/d breaks exactly one row
    le = lp.constraint([1, Fraction(1, 2), 0], "<=", 2)
    eq = lp.constraint([1, -1, 0], "==", Fraction(1, 3))
    ge = lp.constraint([0, 0, 1], ">=", Fraction(-3, 2))
    prob = lp.problem(3, [le, eq, ge], [1, 1, -1], "max", [True, True, False])
    out = lp.solve(prob)
    assert out.point == (Fraction(13, 9), Fraction(10, 9), Fraction(-3, 2))
    rows = [lp._scaled((*con.coeffs, con.rhs))[1] for con in prob.constraints]
    d = 18
    nums = [int(v * d) for v in out.point]
    lp._check_point(prob, rows, nums, d)
    for shift, broken in (((1, 1, 0), le), ((-1, 0, 0), eq), ((0, 0, -1), ge)):
        off = [v + k for v, k in zip(nums, shift)]
        with pytest.raises(AssertionError, match="violating") as err:
            lp._check_point(prob, rows, off, d)
        assert str(broken) in str(err.value)
    sign = lp.problem(1, [], [0], "min")
    with pytest.raises(AssertionError, match="negative value"):
        lp._check_point(sign, [], [-1], d)
