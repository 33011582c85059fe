"""Worst-case approximation-exponent analysis on a lattice of graph classes.

A graph class is described by three exponents of n: the target density
``d* = n^g``, the subgraph size ``k = n^K`` and the degree scale
``d_H = n^d``.  For each candidate algorithm a closed-form exponent of its
approximation ratio on that class is known; the guarantee of running a whole
set of algorithms and keeping the best answer is the minimum over the set,
and the hardest class for the set is the lattice maximum of that minimum.
The lattice maximum underestimates the continuous one by at most
``error_bound(delta)``.

``grid_max_min`` finds the lattice maximum exactly by a coarse-to-fine
branch and bound over boxes of lattice indices in (g, d, K).  It starts
from one box whose side is the smallest power of two that covers the
lattice.  Every formula is monotone in each of g, d and K: a1 = g and
a2 = g - K - d + 1 rise with g and do not rise with d or K, while
a3 = -g + max(K, d), a4 = -2g + 2K + d/3, a6 = (4d + K - 4g)/3 and both of
a5's cases, each -2g plus a max of terms with non-negative weights on d and
K, fall with g and do not fall with d or K.  So over a box a1 and a2 peak
at the corner (g_hi, d_lo, K_lo) and the others at (g_lo, d_hi, K_hi), and
the least of those peaks over the selected formulas bounds the per-point
minimum on the box.  (A seeded test finds these two corners give the
float maximum over all eight bit for bit; a rounding slip would in any case
sit far inside ``MARGIN``.)  a5 applies only where K > d (or 2d <= K), so
it is bounded by max(wide, mid) at its corner and tightens the bound only
where it applies on the whole box; on a box it leaves partly uncovered, the
other formulas alone bound the points it misses (which are not lattice
points at all when a5 is the whole set).  At each level one lattice point
of every box is evaluated, the boxes whose bound lies below the best value
found so far less ``MARGIN`` are dropped, and the rest are split into the
eight children that meet the lattice, down to boxes of side 1, which are
single lattice points.
``MARGIN`` exceeds the float rounding of the bounds and of the evaluated
expressions many times over, so every dropped box lies strictly below the
lattice maximum and every point equal to it is evaluated at the last level.
Evaluated points use the float expressions of the scalar route in the test
helpers, and among the points equal to the maximum the argmax is the first
in (g, d, K) scan order, so the maximum and its argmax are those of a full
sweep bit for bit.  At ``delta`` = 0.001 a sweep evaluates under 0.001% of
the lattice.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

# The six algorithms, in the order of ``fkp.ALGORITHMS``; ratio holds its own
# copy so that it loads none of the solvers, and the tests keep the two equal.
ALGOS = ("a1", "a2", "a3", "a4", "a5", "a6")
FKP5 = frozenset({"a1", "a2", "a3", "a4", "a5"})
A6_COMBO = frozenset({"a1", "a2", "a3", "a4", "a6"})
RATIO_SETS = {"fkp5": FKP5, "a6combo": A6_COMBO}

# Largest 1/delta accepted.  The lattice has about (1/delta)^3 / 3 points;
# at 2000 steps a sweep takes about 7 ms and peaks at 0.14 MB under
# tracemalloc (fkp5 or a6combo; CPython 3.11, numpy 2.4, 2 vCPUs).
MAX_LATTICE_STEPS = 2000

# How far below the best value found so far a box's bound may sit and still
# be kept: far above float rounding, far below the lattice's value gaps.
MARGIN = 1e-9


@dataclass(frozen=True)
class ExponentPoint:
    """One lattice point: density exponent ``g``, size exponent ``K`` and
    degree exponent ``d`` (all relative to n)."""

    g: float
    K: float
    d: float


def error_bound(delta: float) -> float:
    """How far the lattice max-min can sit below the continuous optimum: each
    formula moves by at most 13/3 per unit step in (g, K, d)."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    return (13.0 / 3.0) * delta


@dataclass(frozen=True)
class GridResult:
    delta: float
    algorithms: tuple[str, ...]
    max_exponent: float
    argmax: ExponentPoint
    evaluations: int


def _exponents(g, d, K, algos: frozenset[str]):
    """The selected formulas at (g, d, K), arrays broadcast: a list of a1-a4
    and a6, and a5's two cases ``(wide, mid)``, each taken everywhere (None
    without a5)."""
    terms = []
    if "a1" in algos:
        terms.append(g)
    if "a2" in algos:
        terms.append(g - K - d + 1.0)
    if "a3" in algos:
        terms.append(g - 2 * g + np.maximum(K, d))
    if "a4" in algos:
        terms.append(g - 3 * g + 2 * K + d / 3.0)
    if "a6" in algos:
        terms.append(g - (7.0 * g - 4.0 * d - K) / 3.0)
    a5 = None
    if "a5" in algos:
        a5 = (
            g - np.minimum(3 * g - 1.6 * d - 0.6 * K, (5.0 * g - K - 2.0 * d) / 3.0),
            g - np.minimum(3 * g - 2 * d - 0.4 * K, (5.0 * g - 4.0 * d) / 3.0),
        )
    return terms, a5


def _evaluate(g: np.ndarray, d: np.ndarray, K: np.ndarray,
              algos: frozenset[str]) -> np.ndarray:
    """Minimum over the selected formulas at the points (g, d, K); -inf where
    none applies."""
    terms, a5 = _exponents(g, d, K, algos)
    r = np.full(d.shape, np.inf)
    for term in terms:
        r = np.minimum(r, term)
    if a5 is not None:
        wide, mid = a5
        case_mid = (K < 2 * d) & (K > d)
        r = np.minimum(r, np.where(2 * d <= K, wide, np.where(case_mid, mid, np.inf)))
    return np.where(r < np.inf, r, -np.inf)


# The formulas that rise with g and do not rise with d or K; every other
# one falls with g and does not fall with d or K.
RISING = frozenset({"a1", "a2"})


def _bound(i0, j0, l0, side: int, imax: int, delta: float,
           algos: frozenset[str]) -> np.ndarray:
    """Upper bound of ``_evaluate``'s finite values on each box of lattice
    indices ``[i0, i0 + side) x [j0, j0 + side) x [l0, l0 + side)`` in
    (g, d, K), clipped to ``imax``; -inf on a box that no selected formula
    covers.  Each formula peaks at one corner of a box: those of
    :data:`RISING` at (g_hi, d_lo, K_lo), the rest at (g_lo, d_hi, K_hi)."""
    g_lo, d_lo, K_lo = (lo * delta for lo in (i0, j0, l0))
    g_hi, d_hi, K_hi = (np.minimum(lo + side - 1, imax) * delta for lo in (i0, j0, l0))
    rising, _ = _exponents(g_hi, d_lo, K_lo, algos & RISING)
    falling, a5 = _exponents(g_lo, d_hi, K_hi, algos - RISING)
    bound = functools.reduce(np.minimum, rising + falling, np.full(np.shape(i0), np.inf))
    if a5 is not None:
        applies = (K_hi > d_lo) | (2 * d_lo <= K_hi)
        misses = (K_lo <= d_hi) & (K_lo < 2 * d_hi)
        a5 = np.where(applies, np.maximum(*a5), -np.inf)
        bound = np.where(misses & (len(algos) > 1), bound, np.minimum(bound, a5))
    return bound


def grid_max_min(delta: float, algos: Iterable[str]) -> GridResult:
    """Lattice maximum of the per-point minimum ratio exponent.

    The lattice is ``g = i*delta`` for ``0 <= i <= 1/delta`` with ``d`` and
    ``K`` running from ``g`` to 1 in the same steps; ``1/delta`` must be an
    integer and at most ``MAX_LATTICE_STEPS``.  Ties keep the first point in
    (g, d, K) scan order.  ``evaluations`` is the lattice size: the points
    the maximum is taken over, whether evaluated or bounded.
    """
    algoset = frozenset(algos)
    unknown = algoset.difference(ALGOS)
    if unknown:
        raise ValueError(f"unknown algorithms {sorted(unknown)}")
    if not algoset:
        raise ValueError("no algorithms selected")
    if not (0 < delta <= 1):
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    imax = int(round(1.0 / delta))
    if abs(imax * delta - 1.0) > 1e-9:
        raise ValueError(f"1/delta is not an integer for delta={delta}")
    if imax > MAX_LATTICE_STEPS:
        raise ValueError(
            f"1/delta = {imax} exceeds the lattice limit of {MAX_LATTICE_STEPS} "
            f"steps (delta >= {1 / MAX_LATTICE_STEPS})"
        )

    n = imax + 1
    side = 1
    while side < n:
        side *= 2
    # The surviving boxes' low corners (i0, j0, l0), one box at first.
    i0 = j0 = l0 = np.zeros(1, dtype=np.int64)
    best = -np.inf
    while True:
        # One lattice point of each box, (i0, max(j0, i0), max(l0, i0)),
        # raises the best value known so far; at side 1 it is the whole box.
        j, l = np.maximum(j0, i0), np.maximum(l0, i0)
        r = _evaluate(i0 * delta, j * delta, l * delta, algoset)
        best = max(best, r.max())
        if side == 1:
            break
        keep = _bound(i0, j0, l0, side, imax, delta, algoset) >= best - MARGIN
        side //= 2
        # Split each kept box into its 8 children and keep those that meet
        # the lattice 0 <= i <= j, l <= imax (the boxes are aligned to their
        # side, so these two tests imply i0 <= imax).
        offsets = side * np.indices((2, 2, 2)).reshape(3, 8)
        i0, j0, l0 = ((lo[keep, None] + off).ravel() for lo, off in zip((i0, j0, l0), offsets))
        meets = (np.maximum(j0, l0) <= imax) & (np.minimum(j0, l0) + side > i0)
        i0, j0, l0 = i0[meets], j0[meets], l0[meets]

    if best == -np.inf:
        raise ValueError("no lattice point is covered by the selected algorithms")
    # Every point equal to the maximum survives to side 1; ties go to the
    # smallest key (i * n + j) * n + l, which is the full sweep's scan order.
    key = int(((i0 * n + j0) * n + l0)[r == best].min())
    point = ExponentPoint(g=key // (n * n) * delta, K=key % n * delta, d=key // n % n * delta)
    return GridResult(
        delta=delta,
        algorithms=tuple(sorted(algoset)),
        max_exponent=float(best),
        argmax=point,
        evaluations=n * (n + 1) * (2 * n + 1) // 6,
    )
