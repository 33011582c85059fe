"""Reductions between the dense-subgraph problem variants.

* ``peel`` — the minimum-weighted-degree deletion order of a vertex set,
  the one min-degree peel behind both the trim below and the gamma-cores of
  :func:`densek.damks.core_numbers`.
* ``fixing_trim`` — the first deletions of that peel, shrinking a set to at
  most k vertices while keeping at least a ``k(k-1) / (|U| (|U|-1))``
  fraction of the induced edge weight.
* ``run_damks_driver`` / ``dks_via_damks`` — the exactly-k solver built by
  repeatedly calling an at-most-k solver, removing the edges it finds, and
  stopping once a quarter of the guessed density mass is collected.
* ``dalks_gadget`` — the clique-padding reduction showing the at-least-k
  variant is as hard as exactly-k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from typing import Callable, Iterator, Mapping

from .graph import (
    Graph,
    SubgraphResult,
    check_k,
    checked_vertices,
    doubling_ladder,
    graph_from_edges,
    induced_stats,
    pad_most_neighbors,
    pick_best,
)


# The padded graph stores each clique edge as Python tuples, about 320 bytes
# with its adjacency entries, so a two-line input with a large ``n`` header
# could ask for gigabytes.  At this many edges ``densek reduce`` measured
# about 0.6 s and 89 MB peak RSS (CPython 3.11, 2 vCPUs).
MAX_GADGET_EDGES = 1 << 18


class SolverContractError(RuntimeError):
    """An at-most-k solver returned more than k vertices."""


def _edge_weight(weights: Mapping[tuple[int, int], Fraction | int] | None,
                 u: int, v: int) -> Fraction | int:
    if weights is None:
        return 1
    if u > v:
        u, v = v, u
    try:
        w = Fraction(weights[(u, v)])
    except KeyError:
        raise ValueError(f"missing weight for edge ({u}, {v})") from None
    if w <= 0:
        raise ValueError(f"edge weight must be positive, got {w} on ({u}, {v})")
    return w


def peel(
    G: Graph,
    vertices,
    weights: Mapping[tuple[int, int], Fraction | int] | None = None,
) -> Iterator[tuple[int, Fraction | int]]:
    """Delete the vertex of minimum induced weighted degree (ties to the
    lower id) until none is left, yielding ``(vertex, degree at deletion)``.

    Ids and weights are checked when ``peel`` is called; the deletions run
    lazily as the result is iterated.  All arithmetic is exact.
    """
    alive = checked_vertices(G, vertices)
    # Unweighted degrees stay ints; Fractions only carry real weights.
    wdeg: dict[int, Fraction | int] = {v: 0 for v in alive}
    for v in alive:
        for u in G.adjacency[v]:
            if u in alive:
                wdeg[v] += _edge_weight(weights, v, u)

    def deletions() -> Iterator[tuple[int, Fraction | int]]:
        while alive:
            victim = min(alive, key=lambda v: (wdeg[v], v))
            alive.remove(victim)
            yield victim, wdeg.pop(victim)
            for u in G.adjacency[victim]:
                if u in alive:
                    wdeg[u] -= _edge_weight(weights, victim, u)

    return deletions()


def fixing_trim(
    G: Graph,
    vertices,
    k: int,
    weights: Mapping[tuple[int, int], Fraction | int] | None = None,
) -> tuple[int, ...]:
    """``vertices`` without the first ``max(0, |vertices| - k)`` deletions of
    :func:`peel`, sorted: a set of at most ``k`` comes back whole.

    The surviving induced edge weight is at least ``W * k(k-1) / (s(s-1))``
    where ``W`` and ``s`` are the starting weight and size.  (For ``k=1`` the
    bound is vacuous but the trim is still well defined.)
    """
    if k < 1:
        raise ValueError(f"target size k={k} must be >= 1")
    alive = set(vertices)
    deletions = peel(G, alive, weights)
    for victim, _ in islice(deletions, max(0, len(alive) - k)):
        alive.remove(victim)
    return tuple(sorted(alive))


@dataclass(frozen=True)
class DriverRun:
    """One driver branch: the at-most-k solver's answer in each round,
    whether the branch stopped early, and its exactly-k result."""

    picks: tuple[tuple[int, ...], ...]
    aborted: bool
    result: SubgraphResult


def run_damks_driver(
    G: Graph, k: int, solve: Callable[[Graph, int], SubgraphResult],
    dhat: Fraction | int,
) -> DriverRun:
    """One guessed-density branch of the exactly-k driver.

    ``solve(G, k)`` is an at-most-k solver; a set of more than k vertices
    raises :class:`SolverContractError`.  Loop: solve on the working graph, add the returned vertices
    to the accumulator, move their induced working edges into the
    accumulator, and repeat until ``4 * collected_edges >= k * dhat`` or the
    accumulator reaches k vertices.  A zero-progress round aborts the branch
    (the partial accumulator is still finalised).  Finally pad or trim to
    exactly k vertices on the original graph.
    """
    check_k(G, k)
    dhat = Fraction(dhat)
    if dhat < 0:
        raise ValueError(f"guessed density must be non-negative, got {dhat}")
    work: set[tuple[int, int]] = set(G.edges)
    acc_vertices: set[int] = set()
    collected = 0
    picks: list[tuple[int, ...]] = []
    aborted = False
    while 4 * collected < k * dhat and len(acc_vertices) < k:
        if len(picks) > G.m:  # safety net; progress makes this unreachable
            aborted = True
            break
        picked = solve(graph_from_edges(G.n, sorted(work)), k)
        if len(picked.vertices) > k:
            raise SolverContractError(
                f"solver returned {len(picked.vertices)} > k={k} vertices"
            )
        picks.append(picked.vertices)
        inside = set(picked.vertices)
        new_edges = {(u, v) for u, v in work if u in inside and v in inside}
        grew = not inside <= acc_vertices
        acc_vertices |= inside
        collected += len(new_edges)
        work -= new_edges
        if not new_edges and not grew:
            aborted = True
            break
    vertices = pad_most_neighbors(G, fixing_trim(G, acc_vertices, k), k)
    return DriverRun(tuple(picks), aborted, induced_stats(G, vertices))


def dks_via_damks(
    G: Graph, k: int, solve: Callable[[Graph, int], SubgraphResult]
) -> SubgraphResult:
    """Exactly-k densest subgraph via the at-most-k solver ``solve``.

    Runs one driver branch per guessed density on the powers-of-two ladder
    up to n and returns the densest result.  With an exact at-most-k solver
    the branch with the right guess is a 4-approximation.
    """
    check_k(G, k)
    return pick_best(
        run_damks_driver(G, k, solve, dhat).result
        for dhat in doubling_ladder(G.n)
    )


def dalks_gadget(G: Graph, k: int) -> tuple[Graph, int]:
    """Disjointly add a ``3n``-clique and ask for at least ``k + 3n`` vertices.

    Any exact at-least-k' solution of the padded instance consists of the
    whole clique plus an exactly-k densest subgraph of ``G``, which is the
    hardness reduction from the exactly-k problem.  Raises ``ValueError``
    before building anything when the padded graph would have more than
    :data:`MAX_GADGET_EDGES` edges.
    """
    check_k(G, k)
    n = G.n
    size = 3 * n * (3 * n - 1) // 2 + G.m
    if size > MAX_GADGET_EDGES:
        raise ValueError(
            f"padded graph would have {size} edges, over the limit of "
            f"{MAX_GADGET_EDGES} (reduction.MAX_GADGET_EDGES)"
        )
    # G's edges, then the clique's in lexicographic order, are already the
    # sorted, duplicate-free edge tuple that graph_from_edges would build.
    clique = range(n, 4 * n)
    edges = G.edges + tuple(combinations(clique, 2))
    adjacency = G.adjacency + tuple(
        tuple(range(n, v)) + tuple(range(v + 1, 4 * n)) for v in clique
    )
    return Graph(4 * n, edges, adjacency), k + 3 * n
