"""A small dense simplex solver for programs in standard form.

A program is ``minimise objective . x`` over ``x >= 0`` subject to
``rows @ x = rhs`` on its first ``n_eq`` rows and ``rows @ x <= rhs`` on the
rest.  :func:`solve_lp` takes one of two routes:

* **Dual route**, for programs with no equality rows and costs >= 0 (the
  form :func:`densek.damks.build_damks_lp` writes).  The all-slack basis is
  then dual feasible, so a dual simplex needs no phase 1 and no artificial
  columns.  It runs on a condensed (Tucker) tableau that keeps only the
  nonbasic columns: ``(m + 1) x (nv + 1)`` cells.  The leaving row is the
  most negative rhs and the entering column wins the min-ratio test.
* **Primal route**, for every other program: rows with a negative rhs are
  negated, slack and artificial columns are appended, and both phases run
  on a dense numpy tableau.

Both routes start with Dantzig-style choices and fall back to Bland's
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
UNBOUNDED = "unbounded"

# Mixed absolute/relative tolerance of the infeasibility and residual checks.
TOL = 1e-9
# Entries at or below this magnitude never serve as pivots.
PIVOT_TOL = 1e-10
# Dantzig's rule for this many pivots of a phase (or of the dual route),
# Bland's rule after.
DANTZIG_LIMIT = 2000
MAX_PIVOTS = 200_000


class LpNumericalError(RuntimeError):
    """The tableau lost too much precision to certify a result."""


@dataclass
class LinearProgram:
    """Minimise ``objective . x`` over ``x >= 0``; the first ``n_eq`` rows
    are equalities ``row . x = rhs``, the others ``row . x <= rhs``."""

    objective: np.ndarray
    rows: np.ndarray
    rhs: np.ndarray
    n_eq: int = 0

    def validate(self) -> None:
        nv = self.objective.shape[0]
        m = self.rhs.shape[0]
        if self.rows.shape != (m, nv):
            raise ValueError(
                f"rows of shape {self.rows.shape} for {m} rhs values and "
                f"{nv} variables"
            )
        if not (0 <= self.n_eq <= m):
            raise ValueError(f"n_eq={self.n_eq} out of range for {m} rows")


@dataclass
class LpSolution:
    status: str
    x: list[float] | None = None
    objective: float | None = None


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _run_simplex(T: np.ndarray, basis: np.ndarray, ncols: int, *, phase: int) -> str:
    """Iterate pivots until optimal or unbounded; returns "optimal" or
    "unbounded".  ``ncols`` excludes the rhs column."""
    pivots = 0
    while True:
        costs = T[-1, :ncols]
        if pivots < DANTZIG_LIMIT:
            col = int(np.argmin(costs))
            if costs[col] >= -PIVOT_TOL:
                return OPTIMAL
        else:
            eligible = np.nonzero(costs < -PIVOT_TOL)[0]
            if eligible.size == 0:
                return OPTIMAL
            col = int(eligible[0])
        column = T[:-1, col]
        rows = np.nonzero(column > PIVOT_TOL)[0]
        if rows.size == 0:
            if phase == 1:
                raise LpNumericalError("phase-1 objective unbounded below")
            return UNBOUNDED
        ratios = np.maximum(T[rows, -1], 0.0) / column[rows]
        best_ratio = ratios.min()
        # Rows tied (within tolerance) at the minimum ratio: repeatedly
        # dividing by a near-zero pivot element is what blows the tableau
        # up on long degenerate runs, so insist on a pivot element within
        # a factor 1e-3 of the best available in the tie before applying
        # the smallest-basis-index anti-cycling preference.
        tied = rows[ratios <= best_ratio + PIVOT_TOL * (1.0 + best_ratio)]
        strong = tied[column[tied] >= 1e-3 * column[tied].max()]
        _pivot(T, basis, int(strong[np.argmin(basis[strong])]), col)
        pivots += 1
        if pivots > MAX_PIVOTS:
            raise LpNumericalError(f"no convergence after {MAX_PIVOTS} pivots")


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


def _solve_dual(lp: LinearProgram) -> LpSolution:
    """Dual simplex for ``n_eq == 0`` and ``objective >= 0``.

    Row i of the tableau reads ``basic[i] = T[i, -1] - T[i, :-1] @ x_N``
    over the nonbasic variables ``x_N``; the last row holds the objective,
    ``z = T[-1, -1] - T[-1, :-1] @ x_N``, so ``-T[-1, :-1]`` are the reduced
    costs, kept >= 0 by every pivot.  Variable labels are ``j < nv`` for x
    and ``nv + i`` for the slack of row i; Bland's rule compares labels.
    """
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
        # As in the primal ratio test: among tied columns take a strong
        # pivot element, then the lowest label.
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


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve the program; status is one of optimal / infeasible / unbounded.

    Programs with only ``<=`` rows and costs >= 0 take the dual route (they
    cannot be unbounded), all others the primal two-phase route.  An optimal
    answer is re-checked against every row with mixed absolute/relative
    tolerance ``TOL``; on failure an :class:`LpNumericalError` is raised
    instead of returning a wrong result.
    """
    lp.validate()
    if lp.n_eq == 0 and (lp.objective >= 0).all():
        return _solve_dual(lp)
    m, nv = lp.rows.shape
    ineq = np.arange(m) >= lp.n_eq
    # Negate rows with a negative rhs: a negated <= row takes a surplus and
    # an artificial, an equality row always takes an artificial.
    flip = np.where(lp.rhs < 0, -1.0, 1.0)
    needs_art = ~ineq | (flip < 0)
    slack_rows = np.nonzero(ineq)[0]
    art_rows = np.nonzero(needs_art)[0]
    art_start = nv + slack_rows.size
    total = art_start + art_rows.size

    T = np.zeros((m + 1, total + 1))
    T[:m, :nv] = flip[:, None] * lp.rows
    T[:m, -1] = flip * lp.rhs
    T[slack_rows, nv + np.arange(slack_rows.size)] = flip[slack_rows]
    T[art_rows, art_start + np.arange(art_rows.size)] = 1.0
    basis = np.empty(m, dtype=np.int64)
    basis[slack_rows] = nv + np.arange(slack_rows.size)
    basis[art_rows] = art_start + np.arange(art_rows.size)

    if art_rows.size:
        # Phase 1: minimise the artificial sum; reduced costs of the current
        # (artificial) basis must start at zero.
        T[-1, art_start:total] = 1.0
        for i in art_rows:
            T[-1] -= T[i]
        _run_simplex(T, basis, total, phase=1)
        if -T[-1, -1] > TOL * (1.0 + np.abs(lp.rhs).sum()):
            return LpSolution(status=INFEASIBLE)
        # Pivot surviving artificials out of the basis; rows that cannot be
        # pivoted are redundant and get dropped.
        keep = np.ones(m + 1, dtype=bool)
        for i in np.nonzero(basis >= art_start)[0]:
            cols = np.nonzero(np.abs(T[i, :art_start]) > PIVOT_TOL)[0]
            if cols.size:
                _pivot(T, basis, i, int(cols[0]))
            else:
                keep[i] = False
        T = T[keep]
        basis = basis[keep[:m]]

    # Phase 2 on the artificial-free tableau.
    T = np.hstack([T[:, :art_start], T[:, -1:]])
    T[-1, :] = 0.0
    T[-1, :nv] = lp.objective
    for i, col in enumerate(basis):
        T[-1] -= T[-1, col] * T[i]
    status = _run_simplex(T, basis, art_start, phase=2)
    if status == UNBOUNDED:
        return LpSolution(status=UNBOUNDED)

    u = np.zeros(art_start)
    u[basis] = np.maximum(T[:-1, -1], 0.0)
    x = u[:nv]
    _verify_feasible(lp, x)
    return LpSolution(
        status=OPTIMAL, x=x.tolist(), objective=float(np.dot(lp.objective, x))
    )


def _verify_feasible(lp: LinearProgram, x: np.ndarray) -> None:
    lhs = lp.rows @ x
    slack = TOL * (1.0 + np.abs(lp.rhs) + np.abs(lp.rows).sum(axis=1))
    excess = np.abs(lhs - lp.rhs)
    excess[lp.n_eq:] = lhs[lp.n_eq:] - lp.rhs[lp.n_eq:]
    bad = np.nonzero(excess > slack)[0]
    if bad.size:
        i = int(bad[0])
        relation = "!=" if i < lp.n_eq else ">"
        raise LpNumericalError(f"row {i}: {lhs[i]} {relation} {lp.rhs[i]}")
