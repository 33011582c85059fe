"""LP-relaxation solver for the densest at-most-k subgraph problem.

For a root vertex ``i0`` and a guessed density ``gamma`` the relaxation has a
fractional indicator ``y_i`` per vertex and ``x_ij`` per edge:

    minimise   sum_i y_i
    subject to y_i0 = 1
               gamma * y_i <= sum_{j ~ i} x_ij      for every vertex i
               x_ij <= y_i   and   x_ij <= y_j      for every edge (i, j)
               0 <= y_i <= 1,   x_ij >= 0

Whenever the graph has an at-most-k subgraph of average degree d with a
min-degree core containing ``i0``, the LP with ``gamma <= d/2`` has optimum
at most k, so scanning roots and a doubling gamma ladder finds a usable
fractional solution.  Candidate vertex sets are then drawn by independent
``y_i`` rounding over two windows of the BFS distance layers around ``i0``.

Each relaxation is built directly as one standard-form
:class:`simplex.LinearProgram` matrix, with ``y_i <= 1`` written as rows.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import simplex
from .graph import Graph, SubgraphResult, better_than, doubling_ladder, induced_stats
from .reduction import fixing_trim
from .rng import derive_rng

LP_SCREEN_TOL = 1e-6


def build_damks_lp(G: Graph, root: int, gamma: float) -> simplex.LinearProgram:
    """Assemble the relaxation for one root and density guess.

    Variable ``i < n`` is ``y_i`` and variable ``n + e`` is ``x`` of edge
    ``G.edges[e]``.  Row 0 is ``y_root = 1``; then come the n degree rows,
    the two rows ``x_e <= y_u``, ``x_e <= y_v`` of each edge in edge order,
    and the n rows ``y_i <= 1``.

    A root with no incident edges makes the degree constraint at the root
    unsatisfiable together with ``y_i0 = 1`` (for ``gamma > 0``), which the
    solver reports as infeasible rather than an error.
    """
    if not (0 <= root < G.n):
        raise ValueError(f"root {root} out of range for n={G.n}")
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    n, m = G.n, G.m
    ends = np.array(G.edges, dtype=np.int64).reshape(m, 2)
    vertex = np.arange(n)
    x_col = n + np.arange(m)
    edge_row = 1 + n + 2 * np.arange(m)
    rows = np.zeros((1 + 2 * n + 2 * m, n + m))
    rows[0, root] = 1.0
    rows[1 + vertex, vertex] = float(gamma)
    rows[1 + ends[:, 0], x_col] = -1.0
    rows[1 + ends[:, 1], x_col] = -1.0
    for side in (0, 1):
        rows[edge_row + side, x_col] = 1.0
        rows[edge_row + side, ends[:, side]] = -1.0
    rows[1 + n + 2 * m + vertex, vertex] = 1.0
    rhs = np.zeros(rows.shape[0])
    rhs[0] = 1.0
    rhs[1 + n + 2 * m:] = 1.0
    objective = np.concatenate([np.ones(n), np.zeros(m)])
    return simplex.LinearProgram(objective=objective, rows=rows, rhs=rhs, n_eq=1)


@dataclass(frozen=True)
class DistanceLayers:
    """BFS distance classes around the root: ``layer[i]`` holds the vertices
    at distance exactly i (0 <= i <= 3)."""

    root: int
    layers: tuple[frozenset[int], ...]

    @property
    def n0(self) -> frozenset[int]:
        return self.layers[0]

    @property
    def n1(self) -> frozenset[int]:
        return self.layers[1]

    @property
    def n2(self) -> frozenset[int]:
        return self.layers[2]

    @property
    def n3(self) -> frozenset[int]:
        return self.layers[3]


def distance_layers(G: Graph, root: int) -> DistanceLayers:
    if not (0 <= root < G.n):
        raise ValueError(f"root {root} out of range for n={G.n}")
    dist = {root: 0}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        if dist[v] >= 3:
            continue
        for u in G.adjacency[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    layers = tuple(
        frozenset(v for v, d in dist.items() if d == i) for i in range(4)
    )
    return DistanceLayers(root=root, layers=layers)


@dataclass(frozen=True)
class RoundingOutcome:
    """One randomised rounding: ``s1`` sampled from layers 0-2, ``s2`` (fresh
    coins) from layers 1-3, and the two realised average degrees."""

    s1: tuple[int, ...]
    s2: tuple[int, ...]
    d1: float
    d2: float


def round_once(
    G: Graph,
    layers: DistanceLayers,
    y: Sequence[float],
    rng: random.Random,
) -> RoundingOutcome:
    """Independently keep vertex ``i`` with probability ``y_i`` over the two
    layer windows; the two samples use separate draws from ``rng``."""
    if len(y) != G.n:
        raise ValueError(f"{len(y)} y-values for {G.n} vertices")
    window1 = sorted(layers.n0 | layers.n1 | layers.n2)
    window2 = sorted(layers.n1 | layers.n2 | layers.n3)
    s1 = tuple(v for v in window1 if rng.random() < y[v])
    s2 = tuple(v for v in window2 if rng.random() < y[v])
    d1 = induced_stats(G, s1).average_degree
    d2 = induced_stats(G, s2).average_degree
    return RoundingOutcome(s1=s1, s2=s2, d1=d1, d2=d2)


def gamma_ladder(n: int) -> list[int]:
    """Doubling density guesses ``1, 2, 4, ...`` capped at n."""
    if n < 1:
        raise ValueError(f"need at least one vertex, got n={n}")
    return doubling_ladder(n)


def a6_damks(
    G: Graph,
    k: int,
    reps: int | None = None,
    seed: int = 0,
) -> SubgraphResult:
    """Randomised-rounding at-most-k heuristic over all roots and gammas.

    For every root/gamma pair whose LP is feasible with optimum at most k,
    draw ``reps`` roundings (default ``16n``), take the denser window sample
    of each, trim sets in ``(k, 2k]`` down to k, discard larger ones, and
    return the best candidate.  Never returns more than k vertices.  A pair
    whose LP the simplex cannot certify (:class:`simplex.LpNumericalError`)
    is skipped like an infeasible one.
    """
    if not (1 <= k <= G.n):
        raise ValueError(f"k={k} out of range for n={G.n}")
    if reps is None:
        reps = 16 * G.n
    if reps < 1:
        raise ValueError(f"reps must be positive, got {reps}")
    best: SubgraphResult | None = None
    for root in range(G.n):
        if not G.adjacency[root]:
            continue  # the root constraint is unsatisfiable
        for gamma in gamma_ladder(G.n):
            try:
                sol = simplex.solve_lp(build_damks_lp(G, root, gamma))
            except simplex.LpNumericalError:
                continue
            if sol.status != simplex.OPTIMAL:
                continue
            assert sol.objective is not None and sol.x is not None
            if sol.objective > k + LP_SCREEN_TOL:
                continue
            y = [min(1.0, max(0.0, val)) for val in sol.x[: G.n]]
            layers = distance_layers(G, root)
            rng = derive_rng(seed, "a6", root, gamma)
            for _ in range(reps):
                outcome = round_once(G, layers, y, rng)
                chosen = outcome.s1 if outcome.d1 >= outcome.d2 else outcome.s2
                if not chosen or len(chosen) > 2 * k:
                    continue
                if len(chosen) > k:
                    chosen = fixing_trim(G, chosen, k)
                cand = induced_stats(G, chosen)
                if best is None or better_than(cand, best):
                    best = cand
    if best is None:
        # Nothing rounded usefully (e.g. edgeless graph): any single vertex
        # achieves the optimum-0 trivially.
        best = induced_stats(G, (0,))
    return best


def min_degree_core(
    G: Graph, vertices, threshold: Fraction | float
) -> tuple[int, ...]:
    """Largest subset of ``vertices`` whose induced minimum degree is at least
    ``threshold`` (possibly empty); computed by iterative peeling."""
    alive = set(vertices)
    for v in alive:
        if not (0 <= v < G.n):
            raise ValueError(f"vertex {v} out of range for n={G.n}")
    deg = {
        v: sum(1 for u in G.adjacency[v] if u in alive) for v in alive
    }
    changed = True
    while changed:
        changed = False
        for v in sorted(alive):
            if deg[v] < threshold:
                alive.remove(v)
                for u in G.adjacency[v]:
                    if u in alive:
                        deg[u] -= 1
                changed = True
    return tuple(sorted(alive))


def check_cauchy_mass(y: Sequence[float], n: int | None = None) -> bool:
    """Cauchy-Schwarz sanity check: ``sum y_i^2 >= (sum y_i)^2 / n`` (within
    floating slack)."""
    if n is None:
        n = len(y)
    if n <= 0:
        raise ValueError("need a positive dimension")
    lhs = sum(v * v for v in y)
    rhs = (sum(y) ** 2) / n
    return lhs >= rhs - 1e-9 * (1.0 + abs(rhs))
