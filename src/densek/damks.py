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
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import simplex
from .graph import Graph, SubgraphResult, better_than, doubling_ladder, induced_stats
from .reduction import fixing_trim
from .rng import derive_rng

LP_SCREEN_TOL = 1e-6


@dataclass(frozen=True)
class DamksLpInstance:
    """The LP for one ``(root, gamma)`` choice plus its variable layout:
    ``y_i`` is variable ``i``, ``x`` of edge ``graph.edges[e]`` is variable
    ``n + e``."""

    graph: Graph
    root: int
    gamma: float
    lp: simplex.LinearProgram

    def x_index(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        return self.graph.n + self.graph.edges.index((u, v))


def build_damks_lp(G: Graph, root: int, gamma: float) -> DamksLpInstance:
    """Assemble the relaxation for one root and density guess.

    A root with no incident edges makes the degree constraint at the root
    unsatisfiable together with ``y_i0 = 1`` (for ``gamma > 0``), which the
    solver reports as infeasible rather than an error.
    """
    if not (0 <= root < G.n):
        raise ValueError(f"root {root} out of range for n={G.n}")
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    n, m = G.n, G.m
    lp = simplex.LinearProgram(
        objective=[1.0] * n + [0.0] * m,
        bounds=[(0.0, 1.0)] * n + [(0.0, math.inf)] * m,
    )
    root_row = [0.0] * (n + m)
    root_row[root] = 1.0
    lp.add_row(root_row, simplex.EQUAL, 1.0)
    edge_ids: dict[tuple[int, int], int] = {
        e: n + idx for idx, e in enumerate(G.edges)
    }
    for i in range(n):
        row = [0.0] * (n + m)
        row[i] = float(gamma)
        for j in G.adjacency[i]:
            e = (i, j) if i < j else (j, i)
            row[edge_ids[e]] -= 1.0
        lp.add_row(row, simplex.LESS_EQUAL, 0.0)
    for (u, v), var in edge_ids.items():
        for endpoint in (u, v):
            row = [0.0] * (n + m)
            row[var] = 1.0
            row[endpoint] -= 1.0
            lp.add_row(row, simplex.LESS_EQUAL, 0.0)
    return DamksLpInstance(graph=G, root=root, gamma=float(gamma), lp=lp)


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
    coins) from layers 1-3, plus the fractional layer masses ``q0..q3`` and
    the two realised average degrees."""

    s1: tuple[int, ...]
    s2: tuple[int, ...]
    q: tuple[float, float, float, float]
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
    q = tuple(
        float(sum(y[v] for v in layers.layers[i])) for i in range(4)
    )
    window1 = sorted(layers.n0 | layers.n1 | layers.n2)
    window2 = sorted(layers.n1 | layers.n2 | layers.n3)
    s1 = tuple(v for v in window1 if rng.random() < y[v])
    s2 = tuple(v for v in window2 if rng.random() < y[v])
    d1 = induced_stats(G, s1).average_degree
    d2 = induced_stats(G, s2).average_degree
    return RoundingOutcome(s1=s1, s2=s2, q=q, d1=d1, d2=d2)


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
    lp_tol: float = 1e-9,
) -> SubgraphResult:
    """Randomised-rounding at-most-k heuristic over all roots and gammas.

    For every root/gamma pair whose LP is feasible with optimum at most k,
    draw ``reps`` roundings (default ``16n``), take the denser window sample
    of each, trim sets in ``(k, 2k]`` down to k, discard larger ones, and
    return the best candidate.  Never returns more than k vertices.
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
            instance = build_damks_lp(G, root, gamma)
            sol = simplex.solve_lp(instance.lp, tol=lp_tol)
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
