"""Worst-case approximation-exponent analysis on a lattice of graph classes.

A graph class is described by three exponents of n: the target density
``d* = n^g``, the subgraph size ``k = n^K`` and the degree scale
``d_H = n^d``.  For each candidate algorithm a closed-form exponent of its
approximation ratio on that class is known; the guarantee of running a whole
set of algorithms and keeping the best answer is the minimum over the set,
and the hardest class for the set is the lattice maximum of that minimum.
The lattice maximum underestimates the continuous one by at most
``error_bound(delta)``.

``grid_max_min`` finds the lattice maximum exactly by branch and bound.
Each g-slice is cut into ``TILE`` x ``TILE`` tiles of (d, K) points.  Every
formula is convex in (d, K) wherever it applies: a1, a2, a4 and a6 are
linear, a3 is a max of linear terms, and each of a5's two cases is g minus
a min of linear terms.  So a formula's maximum over a tile is its largest
value at the tile's four corners, and the least of those maxima over the
selected formulas bounds the per-point minimum on the tile.  a5 applies only
where K > d (or 2d <= K), so it is bounded by max(wide, mid) at the corners
and tightens the bound only where it applies on the whole tile; on a tile
it leaves partly uncovered, the other formulas alone bound the points it
misses (which are not lattice points at all when a5 is the whole set).
Slices are visited in decreasing order of their whole-slice bound and tiles
in decreasing order of theirs.  A tile is evaluated only if its bound is at
least the best value found so far less ``MARGIN``, which exceeds the float
rounding of the bounds and of the evaluated expressions many times over, so
every skipped tile lies strictly below the lattice maximum.  Evaluated
points use the float expressions of the scalar route in the test helpers,
and the per-slice results are reduced in slice order with a strict ``>``,
so the maximum and its first-attained argmax are those of a full sweep bit
for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

ALGOS = ("a1", "a2", "a3", "a4", "a5", "a6")
FKP5 = frozenset({"a1", "a2", "a3", "a4", "a5"})
A6_COMBO = frozenset({"a1", "a2", "a3", "a4", "a6"})
RATIO_SETS = {"fkp5": FKP5, "a6combo": A6_COMBO}

# Largest 1/delta accepted.  The bounding work grows with the cube of
# 1/delta and one slice's tile bounds with its square; at 2000 steps a sweep
# takes about 0.5 s and peaks at 1.7 MB under tracemalloc (fkp5, custom:a5).
MAX_LATTICE_STEPS = 2000

# Side of the square (d, K) tiles that are bounded, skipped or evaluated as one.
TILE = 16

# How far below the best value found so far a tile's bound may sit and still
# be evaluated: far above float rounding, far below the lattice's value gaps.
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


def _evaluate(g: float, d: np.ndarray, K: np.ndarray, algos: frozenset[str]) -> np.ndarray:
    """Minimum over the selected formulas at the points (d, K) of slice g;
    inf where none applies."""
    terms, a5 = _exponents(g, d, K, algos)
    r = np.full(d.shape, np.inf)
    for term in terms:
        r = np.minimum(r, term)
    if a5 is not None:
        wide, mid = a5
        case_mid = (K < 2 * d) & (K > d)
        r = np.minimum(r, np.where(2 * d <= K, wide, np.where(case_mid, mid, np.inf)))
    return r


def _bound(g, d_lo, d_hi, K_lo, K_hi, algos: frozenset[str]) -> np.ndarray:
    """Upper bound of ``_evaluate``'s finite values on each box
    [d_lo, d_hi] x [K_lo, K_hi] of slice g (arrays broadcast); -inf on a box
    that no selected formula covers."""
    corners = [_exponents(g, d, K, algos) for d in (d_lo, d_hi) for K in (K_lo, K_hi)]
    bound = np.full(np.broadcast(g, d_lo, d_hi, K_lo, K_hi).shape, np.inf)
    for term in zip(*(terms for terms, _ in corners)):
        bound = np.minimum(bound, functools.reduce(np.maximum, term))
    if "a5" in algos:
        a5 = functools.reduce(np.maximum, (np.maximum(*cases) for _, cases in corners))
        applies = (K_hi > d_lo) | (2 * d_lo <= K_hi)
        misses = (K_lo <= d_hi) & (K_lo < 2 * d_hi)
        a5 = np.where(applies, a5, -np.inf)
        bound = np.where(misses & (len(algos) > 1), bound, np.minimum(bound, a5))
    return bound


def _slice_max(i: int, imax: int, delta: float, algos: frozenset[str], best: float):
    """Max-min over the tiles of g-slice ``i`` whose bound reaches ``best``
    (less ``MARGIN``), in decreasing order of bound.  Returns
    ``(value, d_index, K_index)``, first-attained among the points evaluated
    (d varies first, then K); the value is -inf if none of them is covered."""
    g = i * delta
    starts = np.arange(i, imax + 1, TILE)
    lo = starts * delta
    hi = np.minimum(starts + TILE - 1, imax) * delta
    bounds = _bound(g, lo[:, None], hi[:, None], lo, hi, algos).ravel()
    order = np.argsort(-bounds, kind="stable")
    steps = np.arange(TILE)
    value, key = -np.inf, 0
    for first in range(0, order.size, TILE):
        tiles = order[first:first + TILE]
        tiles = tiles[bounds[tiles] >= max(best, value) - MARGIN]
        if tiles.size == 0:
            break
        j, l = np.broadcast_arrays(
            (starts[tiles // starts.size, None] + steps)[:, :, None],
            (starts[tiles % starts.size, None] + steps)[:, None, :],
        )
        inside = (j <= imax) & (l <= imax)
        j, l = j[inside], l[inside]
        r = _evaluate(g, j * delta, l * delta, algos)
        r = np.where(r < np.inf, r, -np.inf)
        top = r.max()
        if top == -np.inf or top < value:
            continue
        keys = j * (imax + 1) + l
        at = np.flatnonzero(r == top)
        at = at[keys[at].argmin()]
        if top > value or keys[at] < key:
            value, key = float(r[at]), int(keys[at])
    return value, key // (imax + 1), key % (imax + 1)


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

    g = np.arange(imax + 1) * delta
    top = imax * delta
    slice_bounds = _bound(g, g, top, g, top, algoset)
    slices = [(-np.inf, 0, 0)] * (imax + 1)
    found = -np.inf
    for i in np.argsort(-slice_bounds, kind="stable"):
        if slice_bounds[i] < found - MARGIN:
            break
        slices[i] = _slice_max(int(i), imax, delta, algoset, found)
        found = max(found, slices[i][0])

    best = -np.inf
    best_idx: tuple[int, int, int] | None = None
    for i, (value, j, l) in enumerate(slices):
        if value > best:
            best = value
            best_idx = (i, j, l)
    if best_idx is None:
        raise ValueError("no lattice point is covered by the selected algorithms")
    gi, dj, kl = best_idx
    point = ExponentPoint(g=gi * delta, K=kl * delta, d=dj * delta)
    n = imax + 1
    return GridResult(
        delta=delta,
        algorithms=tuple(sorted(algoset)),
        max_exponent=float(best),
        argmax=point,
        evaluations=n * (n + 1) * (2 * n + 1) // 6,
    )
