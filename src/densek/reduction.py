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

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterator, Mapping

from . import exact
from .graph import (
    Graph,
    SubgraphResult,
    better_than,
    doubling_ladder,
    graph_from_edges,
    induced_stats,
    pad_most_neighbors,
)


class SolverContractError(RuntimeError):
    """An at-most-k solver returned more than k vertices."""


@dataclass(frozen=True)
class DamksSolverHandle:
    """An abstract at-most-k densest-subgraph solver.

    ``solve(G, k)`` must return a set of at most k vertices.
    """

    solve: Callable[[Graph, int], SubgraphResult]
    name: str = "damks"


def oracle_damks_handle() -> DamksSolverHandle:
    """Exact at-most-k solver by enumeration (up to
    ``exact.DEFAULT_ENUMERATION_CAP`` vertices), usable as a driver plug-in."""

    def solve(G: Graph, k: int) -> SubgraphResult:
        return exact.exact_solve(G, k, exact.ProblemKind.AT_MOST_K)

    return DamksSolverHandle(solve=solve, name="exact-oracle")


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
    alive = set(vertices)
    for v in alive:
        if not (0 <= v < G.n):
            raise ValueError(f"vertex {v} out of range for n={G.n}")
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
class DriverIteration:
    """One round of the driver: what the at-most-k solver picked on the
    working graph and the accumulator state after merging it in."""

    picked: tuple[int, ...]
    new_vertices: tuple[int, ...]
    new_edge_count: int
    total_vertices: int
    total_edges: int


@dataclass
class DriverRun:
    dhat: Fraction
    iterations: list[DriverIteration] = field(default_factory=list)
    aborted: bool = False
    vertices: tuple[int, ...] = ()
    result: SubgraphResult | None = None


def run_damks_driver(
    G: Graph, k: int, solver: DamksSolverHandle, dhat: Fraction | int
) -> DriverRun:
    """One guessed-density branch of the exactly-k driver.

    Loop: solve at-most-k on the working graph, add the returned vertices to
    the accumulator, move their induced working edges into the accumulator,
    and repeat until ``4 * collected_edges >= k * dhat`` or the accumulator
    reaches k vertices.  A zero-progress iteration aborts the branch (the
    partial accumulator is still finalised).  Finally pad or trim to exactly
    k vertices on the original graph.
    """
    if not (1 <= k <= G.n):
        raise ValueError(f"k={k} out of range for n={G.n}")
    dhat = Fraction(dhat)
    if dhat < 0:
        raise ValueError(f"guessed density must be non-negative, got {dhat}")
    run = DriverRun(dhat=dhat)
    work: set[tuple[int, int]] = set(G.edges)
    acc_vertices: set[int] = set()
    acc_edges: set[tuple[int, int]] = set()

    rounds = 0
    while 4 * len(acc_edges) < k * dhat and len(acc_vertices) < k:
        if rounds > G.m:  # safety net; progress makes this unreachable
            run.aborted = True
            break
        rounds += 1
        working_graph = graph_from_edges(G.n, sorted(work))
        picked = solver.solve(working_graph, k)
        if len(picked.vertices) > k:
            raise SolverContractError(
                f"{solver.name} returned {len(picked.vertices)} > k={k} vertices"
            )
        inside = set(picked.vertices)
        new_edges = {
            (u, v) for u, v in work if u in inside and v in inside
        }
        new_vertices = inside - acc_vertices
        acc_vertices |= inside
        acc_edges |= new_edges
        work -= new_edges
        run.iterations.append(
            DriverIteration(
                picked=picked.vertices,
                new_vertices=tuple(sorted(new_vertices)),
                new_edge_count=len(new_edges),
                total_vertices=len(acc_vertices),
                total_edges=len(acc_edges),
            )
        )
        if not new_edges and not new_vertices:
            run.aborted = True
            break

    run.vertices = pad_most_neighbors(G, fixing_trim(G, acc_vertices, k), k)
    run.result = induced_stats(G, run.vertices)
    return run


def dks_via_damks(
    G: Graph,
    k: int,
    solver: DamksSolverHandle,
    dstar_hint: Fraction | int | None = None,
) -> SubgraphResult:
    """Exactly-k densest subgraph via an at-most-k solver.

    Runs one driver branch per guessed density -- the powers-of-two ladder up
    to n, or just ``dstar_hint`` when the caller already knows the optimal
    density -- and returns the densest finalised accumulator.  With an exact
    at-most-k solver and the right guess the result is a 4-approximation.
    """
    if not (1 <= k <= G.n):
        raise ValueError(f"k={k} out of range for n={G.n}")
    if dstar_hint is not None:
        guesses = [Fraction(dstar_hint)]
    else:
        guesses = [Fraction(v) for v in doubling_ladder(G.n)]
    best: SubgraphResult | None = None
    for dhat in guesses:
        run = run_damks_driver(G, k, solver, dhat)
        assert run.result is not None
        if best is None or better_than(run.result, best):
            best = run.result
    assert best is not None
    return best


def dalks_gadget(G: Graph, k: int) -> tuple[Graph, int]:
    """Disjointly add a ``3n``-clique and ask for at least ``k + 3n`` vertices.

    Any exact at-least-k' solution of the padded instance consists of the
    whole clique plus an exactly-k densest subgraph of ``G``, which is the
    hardness reduction from the exactly-k problem.
    """
    if G.n < 1:
        raise ValueError("gadget needs a non-empty base graph")
    if not (1 <= k <= G.n):
        raise ValueError(f"k={k} out of range for n={G.n}")
    n = G.n
    clique = range(n, n + 3 * n)
    edges = list(G.edges)
    for i in clique:
        for j in clique:
            if i < j:
                edges.append((i, j))
    return graph_from_edges(4 * n, edges), k + 3 * n
