"""A small dense two-phase simplex solver for programs in standard form.

A program is ``minimise objective . x`` over ``x >= 0`` subject to
``rows @ x = rhs`` on its first ``n_eq`` rows and ``rows @ x <= rhs`` on the
rest.  Rows with a negative rhs are negated, slack and artificial columns are
appended, and both phases run on a dense numpy tableau.  Pivoting starts with
Dantzig's rule and falls back to Bland's rule after ``DANTZIG_LIMIT`` pivots,
which guarantees termination.  A final residual check re-verifies the
reported optimum against the original rows, so a numerically wrong "optimal"
is never returned silently.
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
# Dantzig's rule for this many pivots of a phase, Bland's rule after.
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


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve the program; status is one of optimal / infeasible / unbounded.

    An optimal answer is re-checked against every row with mixed
    absolute/relative tolerance ``TOL``; on failure an
    :class:`LpNumericalError` is raised instead of returning a wrong result.
    """
    lp.validate()
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
