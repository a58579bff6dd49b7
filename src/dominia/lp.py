"""Exact rational linear programming by two-phase simplex with Bland's rule.

Every mixed-dominance decision in this package is a boolean claim hinging on
strict-versus-weak inequalities, so the solver is exact: there is no tolerance
anywhere.  Problems are stated in `fractions.Fraction`; the simplex runs
fraction-free on Python integers (integer-preserving pivoting, Edmonds 1967;
Bareiss 1968).  Each row is scaled by the LCM of its denominators, the tableau
holds integers over one common positive denominator (the last pivot), every
update divides exactly, and ratios are compared by cross-multiplying.
Fractions are built only for the returned point.  Callers never encode a
strict inequality directly: they maximize a margin variable and test the exact
optimum against zero.

Bland's pivoting rule (lowest eligible index enters; lowest basic index leaves
among minimum-ratio ties) guarantees termination; a generous pivot cap guards
against implementation bugs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .errors import DimensionMismatch, PivotLimitExceeded

ZERO = Fraction(0)
ONE = Fraction(1)

MAX_PIVOTS = 200_000

LE, EQ, GE = "<=", "==", ">="


@dataclass(frozen=True)
class LinearConstraint:
    coeffs: tuple[Fraction | int, ...]
    op: str  # one of <=, ==, >=
    rhs: Fraction | int


def constraint(coeffs, op: str, rhs) -> LinearConstraint:
    if op not in (LE, EQ, GE):
        raise DimensionMismatch(f"unknown constraint operator {op!r}")
    return LinearConstraint(tuple(Fraction(c) for c in coeffs), op, Fraction(rhs))


@dataclass(frozen=True)
class LpProblem:
    num_vars: int
    constraints: tuple[LinearConstraint, ...]
    objective: tuple[Fraction, ...]
    sense: str  # "max" or "min"
    nonneg: tuple[bool, ...]  # per-variable x >= 0 flag; False means free

    def __post_init__(self):
        if self.sense not in ("max", "min"):
            raise DimensionMismatch(f"sense must be max or min, got {self.sense!r}")
        if len(self.objective) != self.num_vars:
            raise DimensionMismatch("objective length != variable count")
        if len(self.nonneg) != self.num_vars:
            raise DimensionMismatch("nonneg flags length != variable count")
        for con in self.constraints:
            if len(con.coeffs) != self.num_vars:
                raise DimensionMismatch("constraint length != variable count")


def problem(num_vars, constraints, objective, sense="max", nonneg=None) -> LpProblem:
    if nonneg is None:
        nonneg = [True] * num_vars
    return LpProblem(
        num_vars,
        tuple(constraints),
        tuple(Fraction(c) for c in objective),
        sense,
        tuple(bool(b) for b in nonneg),
    )


@dataclass(frozen=True)
class LpOutcome:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Optional[Fraction] = None
    point: Optional[tuple[Fraction, ...]] = None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


class _Tableau:
    """Dense fraction-free simplex tableau: integer rows of the tableau's
    columns plus rhs.  The canonical (identity on basis) tableau is
    ``rows / d``; ``d`` > 0 is the last pivot, so every update divides
    exactly (Bareiss 1968)."""

    def __init__(self, rows: list[list[int]], basis: list[int]):
        self.rows = rows
        self.basis = basis
        self.d = 1
        self.pivots = 0

    def pivot(self, r: int, c: int) -> None:
        self.pivots += 1
        if self.pivots > MAX_PIVOTS:
            raise PivotLimitExceeded(f"more than {MAX_PIVOTS} simplex pivots")
        rows = self.rows
        prow = rows[r]
        p = prow[c]
        d = self.d
        for k, other in enumerate(rows):
            if k == r:
                continue
            f = other[c]
            if f:
                rows[k] = [(a * p - f * b) // d for a, b in zip(other, prow)]
            elif p != d:
                rows[k] = [a * p // d for a in other]
        if p < 0:
            # only when an artificial is driven out on a negative entry;
            # negating the tableau keeps the common denominator positive
            for k, row in enumerate(rows):
                rows[k] = [-v for v in row]
            p = -p
        self.d = p
        self.basis[r] = c

    def minimize(self, cost: list[int]) -> list[int]:
        """Run Bland simplex on the given integer cost vector (min).  ``cost``
        has one entry per tableau column except rhs, plus a trailing objective
        cell.  Returns the reduced cost row, times ``d``, at optimality;
        raises _Unbounded with the entering column otherwise."""
        rows = self.rows
        if not rows:
            for j in range(len(cost) - 1):
                if cost[j] < 0:
                    raise _Unbounded(j)
            return cost[:]
        ncols = len(rows[0]) - 1
        m = len(rows)
        # canonicalize: zero out the basic columns of the cost row
        red = [self.d * v for v in cost]
        for r, b in enumerate(self.basis):
            f = cost[b]
            if f:
                red = [x - f * y for x, y in zip(red, rows[r])]
        # the reduced cost row is pivoted as one more tableau row
        rows.append(red)
        try:
            while True:
                red = rows[m]
                enter = next((j for j in range(ncols) if red[j] < 0), -1)
                if enter < 0:
                    return red
                leave = -1
                for r in range(m):
                    row = rows[r]
                    a = row[enter]
                    if a > 0:
                        # rhs/a against best_rhs/best_a, both a positive
                        rhs = row[-1]
                        if (
                            leave < 0
                            or rhs * best_a < best_rhs * a
                            or (rhs * best_a == best_rhs * a and self.basis[r] < self.basis[leave])
                        ):
                            leave, best_rhs, best_a = r, rhs, a
                if leave < 0:
                    raise _Unbounded(enter)
                self.pivot(leave, enter)
        finally:
            rows.pop()


class _Unbounded(Exception):
    def __init__(self, column: int):
        self.column = column


def _scaled(values) -> tuple[int, list[int]]:
    """The LCM of the values' denominators, and the values times it: integers
    with the same signs."""
    scale = lcm(*{v.denominator for v in values})
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def solve(prob: LpProblem) -> LpOutcome:
    """Exact optimum of the problem; the returned point is re-verified against
    every constraint before the outcome is handed back."""
    minimize = prob.sense == "min"
    obj = list(prob.objective) if minimize else [-c for c in prob.objective]

    # map original variables to standard (nonnegative) columns
    col_of: list[tuple[int, Optional[int]]] = []
    ncols = 0
    for flag in prob.nonneg:
        if flag:
            col_of.append((ncols, None))
            ncols += 1
        else:
            col_of.append((ncols, ncols + 1))
            ncols += 2

    std_cost = [ZERO] * ncols
    for j, (p, q) in enumerate(col_of):
        std_cost[p] += obj[j]
        if q is not None:
            std_cost[q] -= obj[j]

    # Each row is scaled to integers by the LCM of its denominators, and its
    # slack and artificial get coefficient 1.  That rescales those variables
    # by the positive row scale, so phase 1 weights artificial r by 1/scale_r
    # to minimize the unscaled sum; positive rescalings keep every sign and
    # ratio comparison, so the pivots are those of the unscaled tableau.
    rows: list[list[int]] = []
    scales: list[int] = []
    scaled_rows: list[list[int]] = []
    n_slack = sum(1 for con in prob.constraints if con.op != EQ)
    total = ncols + n_slack
    slack_at = ncols
    for con in prob.constraints:
        scale, scaled = _scaled((*con.coeffs, con.rhs))
        *coeffs, rhs = scaled
        scales.append(scale)
        scaled_rows.append(scaled)
        row = [0] * total
        for j, (p, q) in enumerate(col_of):
            row[p] = coeffs[j]
            if q is not None:
                row[q] = -coeffs[j]
        if con.op == LE:
            row[slack_at] = 1
            slack_at += 1
        elif con.op == GE:
            row[slack_at] = -1
            slack_at += 1
        row.append(rhs)
        if rhs < 0:
            row = [-v for v in row]
        rows.append(row)

    m = len(rows)
    # phase 1: artificial basis
    art_base = total
    for r, row in enumerate(rows):
        rhs = row.pop()
        row.extend(1 if k == r else 0 for k in range(m))
        row.append(rhs)
    basis = [art_base + r for r in range(m)]
    tab = _Tableau(rows, basis)
    weight = lcm(*scales)
    phase1_cost = [0] * art_base + [weight // s for s in scales] + [0]
    try:
        red = tab.minimize(phase1_cost)
    except _Unbounded:  # pragma: no cover - phase 1 objective is bounded below by 0
        raise AssertionError("phase 1 cannot be unbounded")
    if red[-1] != 0:  # objective cell holds -value
        return LpOutcome("infeasible")

    # drive artificials out of the basis, dropping redundant rows
    keep: list[int] = []
    for r in range(len(tab.rows)):
        if tab.basis[r] >= art_base:
            piv = next((j for j in range(art_base) if tab.rows[r][j] != 0), None)
            if piv is None:
                continue  # redundant constraint row
            tab.pivot(r, piv)
        keep.append(r)
    tab.rows = [tab.rows[r] for r in keep]
    tab.basis = [tab.basis[r] for r in keep]
    # chop artificial columns
    for r in range(len(tab.rows)):
        tab.rows[r] = tab.rows[r][:art_base] + [tab.rows[r][-1]]

    phase2_cost = _scaled(std_cost)[1] + [0] * n_slack + [0]
    try:
        tab.minimize(phase2_cost)
    except _Unbounded:
        return LpOutcome("unbounded")

    std_num = [0] * art_base
    for r, b in enumerate(tab.basis):
        std_num[b] = tab.rows[r][-1]
    nums = [std_num[p] - (0 if q is None else std_num[q]) for p, q in col_of]
    _check_point(prob, scaled_rows, nums, tab.d)
    point = [Fraction(v, tab.d) for v in nums]
    value = sum((c * x for c, x in zip(prob.objective, point)), ZERO)
    return LpOutcome("optimal", value, tuple(point))


def _check_point(prob: LpProblem, scaled_rows, nums: list[int], d: int) -> None:
    """Re-check the point ``nums / d`` (d > 0) exactly against every
    constraint, on its integer row (coefficients then rhs, times the row's
    positive scale), and every sign; an internal consistency guard."""
    for con, (*coeffs, rhs) in zip(prob.constraints, scaled_rows):
        lhs = sum(c * v for c, v in zip(coeffs, nums))
        rhs *= d
        if not (lhs <= rhs if con.op == LE else lhs >= rhs if con.op == GE else lhs == rhs):
            raise AssertionError(f"simplex returned a point violating {con}")
    if any(flag and v < 0 for flag, v in zip(prob.nonneg, nums)):
        raise AssertionError("simplex returned a negative value for a nonnegative variable")


def feasible_point(constraints, num_vars: int, nonneg=None) -> LpOutcome:
    """Phase-one feasibility: Optimal with value 0 and a witness point iff the
    system has a solution."""
    prob = problem(num_vars, constraints, [ZERO] * num_vars, "min", nonneg)
    out = solve(prob)
    if out.status != "optimal":
        return out
    return LpOutcome("optimal", ZERO, out.point)
