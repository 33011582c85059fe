"""Worst-case approximation-exponent analysis on a lattice of graph classes.

A graph class is described by three exponents of n: the target density
``d* = n^g``, the subgraph size ``k = n^K`` and the degree scale
``d_H = n^d``.  For each candidate algorithm a closed-form exponent of its
approximation ratio on that class is known; the guarantee of running a whole
set of algorithms and keeping the best answer is the minimum over the set,
and the hardest class for the set is the lattice maximum of that minimum.

``grid_max_min`` sweeps the full lattice with numpy, slice by slice in
``g``, evaluating each algorithm's formula over a whole (d, K) block at
once.  The scalar route in the test helpers evaluates the same expressions
in the same order, so the two agree bit for bit.  The lattice maximum
underestimates the continuous one by at most ``error_bound(delta)``.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable

import numpy as np

ALGOS = ("a1", "a2", "a3", "a4", "a5", "a6")
FKP5 = frozenset({"a1", "a2", "a3", "a4", "a5"})
A6_COMBO = frozenset({"a1", "a2", "a3", "a4", "a6"})
RATIO_SETS = {"fkp5": FKP5, "a6combo": A6_COMBO}

# Largest 1/delta accepted: one g-slice holds several (1/delta + 1)^2 float
# arrays, about 46 bytes per cell, so 2000 steps peak near 214 MB.
MAX_LATTICE_STEPS = 2000


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


def _slice_max(i: int, imax: int, delta: float, algos: frozenset[str]):
    """Max-min over the (d, K) block of one g-slice.  Returns
    ``(value or None, d_index, K_index, block_size)`` with first-attained
    argmax semantics (d varies first, then K)."""
    g = i * delta
    idx = np.arange(i, imax + 1)
    d = (idx * delta)[:, None]
    K = (idx * delta)[None, :]
    shape = (idx.size, idx.size)
    r = np.full(shape, np.inf)
    if "a1" in algos:
        r = np.minimum(r, np.full(shape, g))
    if "a2" in algos:
        r = np.minimum(r, g - K - d + 1.0)
    if "a3" in algos:
        r = np.minimum(r, g - 2 * g + np.maximum(K, d))
    if "a4" in algos:
        r = np.minimum(r, g - 3 * g + 2 * K + d / 3.0)
    if "a5" in algos:
        case_wide = 2 * d <= K
        wide = g - np.minimum(3 * g - 1.6 * d - 0.6 * K, (5.0 * g - K - 2.0 * d) / 3.0)
        case_mid = (K < 2 * d) & (K > d)
        mid = g - np.minimum(3 * g - 2 * d - 0.4 * K, (5.0 * g - 4.0 * d) / 3.0)
        r = np.minimum(r, np.where(case_wide, wide, np.where(case_mid, mid, np.inf)))
    if "a6" in algos:
        r = np.minimum(r, g - (7.0 * g - 4.0 * d - K) / 3.0)
    finite = r < np.inf
    size = r.size
    if not finite.any():
        return None, 0, 0, size
    masked = np.where(finite, r, -np.inf)
    flat = int(masked.argmax())
    j, l = np.unravel_index(flat, shape)
    return float(masked[j, l]), int(idx[j]), int(idx[l]), size


def workers_from_env() -> int:
    """Thread count from ``DENSEK_THREADS`` (default 1); ``ValueError`` if
    it is not an integer of at least 1."""
    raw = os.environ.get("DENSEK_THREADS")
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"DENSEK_THREADS must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"DENSEK_THREADS must be >= 1, got {value}")
    return value


def grid_max_min(
    delta: float, algos: Iterable[str], workers: int = 1
) -> GridResult:
    """Lattice maximum of the per-point minimum ratio exponent.

    The lattice is ``g = i*delta`` for ``0 <= i <= 1/delta`` with ``d`` and
    ``K`` running from ``g`` to 1 in the same steps; ``1/delta`` must be an
    integer and at most ``MAX_LATTICE_STEPS``.  Ties keep the first point in
    (g, d, K) scan order.  ``workers`` bounds the number of threads used for
    g-slices; the reduction order is fixed, so the result does not depend on
    it.
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
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    if workers == 1:
        slices = (
            _slice_max(i, imax, delta, algoset) for i in range(imax + 1)
        )
    else:
        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            slices = list(
                pool.map(lambda i: _slice_max(i, imax, delta, algoset), range(imax + 1))
            )
        finally:
            pool.shutdown()

    best = -np.inf
    best_idx: tuple[int, int, int] | None = None
    evaluations = 0
    for i, (value, j, l, size) in enumerate(slices):
        evaluations += size
        if value is not None and value > best:
            best = value
            best_idx = (i, j, l)
    if best_idx is None:
        raise ValueError("no lattice point is covered by the selected algorithms")
    gi, dj, kl = best_idx
    point = ExponentPoint(g=gi * delta, K=kl * delta, d=dj * delta)
    return GridResult(
        delta=delta,
        algorithms=tuple(sorted(algoset)),
        max_exponent=float(best),
        argmax=point,
        evaluations=evaluations,
    )
