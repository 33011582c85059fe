"""A small dense dual simplex for programs in dual form.

A program is ``minimise objective . x`` over ``x >= 0`` subject to
``rows @ x <= rhs``, with every cost >= 0 (the form
:func:`densek.damks.build_damks_lp` writes).  The all-slack basis is then
dual feasible, so the dual simplex needs no phase 1 and no artificial
columns, and the program cannot be unbounded.  It runs on a condensed
(Tucker) tableau that keeps only the nonbasic columns:
``(m + 1) x (nv + 1)`` cells.  The leaving row is the most negative rhs and
the entering column wins the min-ratio test.

Pivots start with Dantzig-style choices and fall back to Bland's
lowest-index rule after ``DANTZIG_LIMIT`` pivots, which guarantees
termination.  A final residual check re-verifies the reported optimum
against the original rows, so a numerically wrong "optimal" is never
returned silently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

# Mixed absolute/relative tolerance of the residual check.
TOL = 1e-9
# Entries at or below this magnitude never serve as pivots.
PIVOT_TOL = 1e-10
# Dantzig's rule for this many pivots, Bland's rule after.
DANTZIG_LIMIT = 2000
MAX_PIVOTS = 200_000


class LpNumericalError(RuntimeError):
    """The tableau lost too much precision to certify a result."""


@dataclass
class LinearProgram:
    """Minimise ``objective . x`` over ``x >= 0`` subject to
    ``rows @ x <= rhs``; every cost must be >= 0."""

    objective: np.ndarray
    rows: np.ndarray
    rhs: np.ndarray

    def validate(self) -> None:
        nv = self.objective.shape[0]
        m = self.rhs.shape[0]
        if self.rows.shape != (m, nv):
            raise ValueError(
                f"rows of shape {self.rows.shape} for {m} rhs values and "
                f"{nv} variables"
            )
        if not (self.objective >= 0).all():
            raise ValueError("every cost must be >= 0")


@dataclass
class LpSolution:
    status: str
    x: list[float] | None = None
    objective: float | None = None


def _tucker_pivot(T: np.ndarray, row: int, col: int) -> None:
    """Exchange the basic variable of ``row`` with the nonbasic one of
    ``col`` in a condensed tableau ``basic = rhs - T[:, :-1] @ nonbasic``."""
    p = T[row, col]
    column = T[:, col].copy()
    pivot_row = T[row] / p
    # Rows with a zero in the pivot column do not change.
    touched = column.nonzero()[0]
    T[touched] -= column[touched, None] * pivot_row
    T[:, col] = -column / p
    T[row] = pivot_row
    T[row, col] = 1.0 / p


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve the program by the dual simplex; status is optimal or
    infeasible.

    Raises ``ValueError`` on a malformed program or a negative cost.  An
    optimal answer is re-checked against every row with mixed
    absolute/relative tolerance ``TOL``; on failure an
    :class:`LpNumericalError` is raised instead of returning a wrong result.

    Row i of the tableau reads ``basic[i] = T[i, -1] - T[i, :-1] @ x_N``
    over the nonbasic variables ``x_N``; the last row holds the objective,
    ``z = T[-1, -1] - T[-1, :-1] @ x_N``, so ``-T[-1, :-1]`` are the reduced
    costs, kept >= 0 by every pivot.  Variable labels are ``j < nv`` for x
    and ``nv + i`` for the slack of row i; Bland's rule compares labels.
    """
    lp.validate()
    m, nv = lp.rows.shape
    T = np.empty((m + 1, nv + 1))
    T[:m, :nv] = lp.rows
    T[:m, -1] = lp.rhs
    T[-1, :nv] = -lp.objective
    T[-1, -1] = 0.0
    basic = np.arange(nv, nv + m)
    nonbasic = np.arange(nv)
    rhs, costs = T[:-1, -1], T[-1, :-1]
    pivots = 0
    while m:  # a program without rows is optimal at x = 0
        if pivots < DANTZIG_LIMIT:
            row = int(rhs.argmin())
            if rhs[row] >= -PIVOT_TOL:
                break
        else:
            infeasible = (rhs < -PIVOT_TOL).nonzero()[0]
            if infeasible.size == 0:
                break
            row = int(infeasible[basic[infeasible].argmin()])
        line = T[row, :-1]
        cols = (line < -PIVOT_TOL).nonzero()[0]
        if cols.size == 0:
            # basic[row] = rhs - (a row >= 0) @ x_N < 0 for every x_N >= 0.
            return LpSolution(status=INFEASIBLE)
        ratios = np.maximum(-costs[cols], 0.0) / -line[cols]
        best_ratio = ratios.min()
        # Among columns tied (within tolerance) at the minimum ratio take a
        # pivot element within a factor 1e-3 of the strongest, since
        # dividing by near-zero pivots blows the tableau up on long
        # degenerate runs; then prefer the lowest label.
        tied = cols[ratios <= best_ratio + PIVOT_TOL * (1.0 + best_ratio)]
        if tied.size > 1:
            tied = tied[-line[tied] >= 1e-3 * -line[tied].min()]
        col = int(tied[nonbasic[tied].argmin()])
        _tucker_pivot(T, row, col)
        basic[row], nonbasic[col] = nonbasic[col], basic[row]
        pivots += 1
        if pivots > MAX_PIVOTS:
            raise LpNumericalError(f"no convergence after {MAX_PIVOTS} pivots")

    u = np.zeros(nv + m)
    u[basic] = np.maximum(rhs, 0.0)
    x = u[:nv]
    _verify_feasible(lp, x)
    return LpSolution(
        status=OPTIMAL, x=x.tolist(), objective=float(np.dot(lp.objective, x))
    )


def _verify_feasible(lp: LinearProgram, x: np.ndarray) -> None:
    lhs = lp.rows @ x
    slack = TOL * (1.0 + np.abs(lp.rhs) + np.abs(lp.rows).sum(axis=1))
    bad = np.nonzero(lhs - lp.rhs > slack)[0]
    if bad.size:
        i = int(bad[0])
        raise LpNumericalError(f"row {i}: {lhs[i]} > {lp.rhs[i]}")
