"""Exact linear programming by two-phase simplex with Bland's rule.

Every mixed-dominance decision in this package is a boolean claim hinging on
strict-versus-weak inequalities, so the solver is exact: there is no tolerance
anywhere.  A problem (:class:`LpProblem`) is stated in integers: each
constraint row holds integer coefficients and an integer right-hand side,
and the objective is integer.  The mixed layer's payoff rows already are
(:meth:`Game._int_rows`), so nothing is rescaled on the way in.  The simplex
runs fraction-free on Python integers (integer-preserving pivoting, Edmonds
1967; Bareiss 1968): the tableau is built from the rows directly and holds
integers over one common positive denominator (the last pivot), every update
divides exactly, and ratios are compared by cross-multiplying.  Fractions
are built only for the returned point and value.  Callers never encode a
strict inequality directly: they maximize a margin variable and test the
exact optimum against zero.

Every problem has one form: maximize over nonnegative variables, each row an
equality or a >= row.  A caller states a free variable as the difference of
two columns, and a feasibility question with a zero objective.

Each problem is solved on one side, picked by tableau size alone.  The
primal's tableau has a row per constraint and a column per variable, per
>= row's slack and per artificial.  Its dual (:func:`_dual`: a variable per
>= row, two per == row, a >= row per primal variable) has a row per primal
variable.  A mixed-dominance LP has a row per opponent profile over at most
|A| + 2 variables, so on larger games its dual is the short side; on small
two-player games it is not, and there the primal runs faster.  When the
primal's tableau has more than 1.5 times the dual's cells, the dual runs
through the same simplex, and the primal point is read off the dual's
optimal reduced-cost row: at the slack column of the dual's row j it holds
x_j times the common denominator ``d`` (the reduced costs of a slack are the
simplex multipliers, and the multipliers of the dual are the primal point).
An unbounded dual means an infeasible primal.  An infeasible dual means the
primal is infeasible or unbounded, and then the primal is solved.  Either
side's point passes the same check on the primal rows (:func:`_check_point`).
Where the optimum is not unique, the two sides may return different optimal
points.  The factor 1.5 was measured on the LPs of the benchmark's
``lp-queries`` and ``mixed-elim`` items: 1.25 to 1.5 took the least simplex
time on both, 1 and 2 up to 6% more, the primal everywhere 67-69% more on
``lp-queries`` and the dual everywhere 47-60% more on ``mixed-elim``.

Bland's pivoting rule (lowest eligible index enters; lowest basic index leaves
among minimum-ratio ties) guarantees termination; a generous pivot cap guards
against implementation bugs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import DimensionMismatch, PivotLimitExceeded

ZERO = Fraction(0)
ONE = Fraction(1)

MAX_PIVOTS = 200_000

EQ, GE = "==", ">="


class LpProblem:
    """Maximize ``objective`` . x over x >= 0 subject to
    ``constraints[r][:-1]`` . x ``ops[r]`` ``constraints[r][-1]`` for every
    r, where each op is == or >=.  Rows and objective hold integers.  A free
    variable is stated as the difference of two columns."""

    __slots__ = ("constraints", "ops", "objective")

    def __init__(self, constraints, ops, objective):
        n = len(objective)
        if len(ops) != len(constraints):
            raise DimensionMismatch("one op per constraint row")
        for row, op in zip(constraints, ops):
            if len(row) != n + 1:
                raise DimensionMismatch("constraint length != variable count + 1 (the rhs)")
            if op not in (EQ, GE):
                raise DimensionMismatch(f"unknown constraint operator {op!r}")
        self.constraints, self.ops, self.objective = constraints, ops, objective

    @property
    def num_vars(self) -> int:
        return len(self.objective)


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
        ncols = len(cost) - 1
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


def solve(prob: LpProblem) -> LpOutcome:
    """Exact optimum of ``prob``, solved on the side with the smaller
    tableau (module docstring).  The returned point is re-verified against
    every row before the outcome is handed back."""
    rows, ops, objective = prob.constraints, prob.ops, prob.objective
    ncols = len(objective)
    nums = None
    if _dual_side(rows, ops, ncols):
        dual_rows, dual_objective = _dual(rows, ops, objective)
        out = _simplex(dual_rows, [GE] * ncols, dual_objective)
        if out == "unbounded":
            return LpOutcome("infeasible")
        if out != "infeasible":
            tab, red = out
            base = len(dual_objective)  # the dual's slack columns follow its variables
            nums = red[base : base + ncols]
    if nums is None:
        out = _simplex(rows, ops, objective)
        if isinstance(out, str):
            return LpOutcome(out)
        tab, _ = out
        nums = [0] * ncols
        for r, b in enumerate(tab.basis):
            if b < ncols:
                nums[b] = tab.rows[r][-1]
    d = tab.d
    _check_point(rows, ops, nums, d)
    value = Fraction(sum(c * v for c, v in zip(objective, nums)), d)
    return LpOutcome("optimal", value, tuple(Fraction(v, d) for v in nums))


def _dual_side(rows, ops, ncols: int) -> bool:
    """Is the primal's tableau more than 1.5 times the dual's?  A tableau has
    a row per constraint and a column per variable, slack and artificial."""
    m, ge = len(rows), ops.count(GE)
    return 2 * m * (ncols + ge + m) > 3 * ncols * (2 * m - ge + 2 * ncols)


def _dual(rows, ops, objective):
    """The dual of max c.x over the rows, min b'.y over A'^T y >= c and
    y >= 0, as its rows and the objective -b' to maximize: a >= row a.x >= b
    is -a.x <= -b, one column, and an == row both a.x <= b and -a.x <= -b,
    two.  Its optimum is the primal's negated."""
    cols, dual_objective = [], []
    for row, op in zip(rows, ops):
        *a, b = row
        if op == EQ:
            cols.append(a)
            dual_objective.append(-b)
        cols.append([-v for v in a])
        dual_objective.append(b)
    return [[col[j] for col in cols] + [c] for j, c in enumerate(objective)], dual_objective


def _simplex(rows, ops, objective):
    """Two-phase Bland simplex on the problem's rows: the optimal tableau
    and its reduced cost row (times ``d``, over the variables' and then the
    >= rows' slack columns), or the status "infeasible" or "unbounded"."""
    ncols = len(objective)
    # a >= row's slack gets -1 and each artificial 1, rows with a negative rhs
    # are negated, and phase 1 minimizes the sum of the artificials
    m = len(rows)
    n_slack = sum(1 for op in ops if op == GE)
    art_base = ncols + n_slack
    tab_rows: list[list[int]] = []
    slack = 0
    for r, (row, op) in enumerate(zip(rows, ops)):
        body = [*row]
        rhs = body.pop()
        body += [0] * n_slack
        if op == GE:
            body[ncols + slack] = -1
            slack += 1
        if rhs < 0:
            body = [-v for v in body]
            rhs = -rhs
        body += [0] * m
        body[art_base + r] = 1
        body.append(rhs)
        tab_rows.append(body)

    tab = _Tableau(tab_rows, [art_base + r for r in range(m)])
    try:
        red = tab.minimize([0] * art_base + [1] * m + [0])
    except _Unbounded:  # pragma: no cover - phase 1 objective is bounded below by 0
        raise AssertionError("phase 1 cannot be unbounded")
    if red[-1] != 0:  # objective cell holds -value
        return "infeasible"

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
    for row in tab.rows:
        del row[art_base:-1]

    try:
        return tab, tab.minimize([-c for c in objective] + [0] * n_slack + [0])
    except _Unbounded:
        return "unbounded"


def _check_point(rows, ops, nums: list[int], d: int) -> None:
    """Re-check the point ``nums / d`` (d > 0) exactly against every integer
    row (coefficients then rhs) and every sign; an internal consistency
    guard."""
    for r, (row, op) in enumerate(zip(rows, ops)):
        lhs = sum(c * v for c, v in zip(row, nums))  # the rhs has no partner
        rhs = row[-1] * d
        if not (lhs >= rhs if op == GE else lhs == rhs):
            raise AssertionError(f"simplex returned a point violating row {r}: {list(row)} ({op})")
    if any(v < 0 for v in nums):
        raise AssertionError("simplex returned a negative value for a nonnegative variable")
