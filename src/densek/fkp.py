"""Combinatorial densest-k-subgraph heuristics and their combination.

Six candidate generators; a1-a5 return exactly k vertices, a6 at most k:

* ``a1_matching`` — greedy matching, k/2 guaranteed edges when the matching
  fills up; the baseline everything else is measured against.
* ``a2_top_degrees`` — half the budget on the highest-degree vertices, the
  other half on outside vertices best attached to them.
* ``a3_neighborhoods`` — closed-neighborhood and common-neighbor candidates
  around single vertices and pairs.
* ``a4_edge_dense`` — run the three algorithms above inside the joint
  neighborhood of every edge.
* ``a5_walks`` — pick the pair joined by the most length-5 walks (counted
  by ``walk_powers``), slice the graph into walk layers between them, and
  harvest candidate sets from the middle layers (including a thresholded
  "good vertex" sweep over a doubling ladder of density guesses, and random
  sparsification).
* ``a6_damks`` (in :mod:`densek.damks`) — LP rounding.

``dks_candidates`` runs any subset of the six on the graph itself and on
the graph with its top-degree half removed, and yields each run's answer
padded to exactly k; ``combined_dks`` keeps the densest of them.  Both take
a ``seed``, from which each branch and algorithm derives its own random
stream; with a fixed seed, enlarging the subset can never make the answer
worse.
``densek solve --algo all`` reports the main-branch candidates as its
``run`` records and picks its ``best`` record from those same runs plus
the peeled branch, so each algorithm runs once per branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .damks import a6_damks
from .graph import (
    Graph,
    SubgraphResult,
    doubling_ladder,
    induced_stats,
    induced_subgraph,
    pad_lowest_id,
    pick_best,
    remove_top_degrees,
    top_degree_vertices,
)
from .reduction import fixing_trim
from .rng import derive_rng, derive_seed

ALGO_NAMES = ("a1", "a2", "a3", "a4", "a5", "a6")

# Slack factors of a5's good-vertex thresholds.
EPSILON_LADDER = tuple(2.0**i for i in range(-8, 5))
# Most candidate sets one a5 call enumerates, and its random sparsification
# draws.
MAX_CANDIDATES = 512
SAMPLE_RETRIES = 32


def _check_k(G: Graph, k: int, minimum: int = 1) -> None:
    if not (minimum <= k <= G.n):
        raise ValueError(f"k={k} out of range [{minimum}, {G.n}]")


def _greedy_matching(G: Graph, k: int) -> set[int]:
    """Endpoints of the greedy matching over ``G.edges`` in order, stopped at
    ``floor(k/2)`` edges."""
    matched: set[int] = set()
    for u, v in G.edges:
        if len(matched) == k // 2 * 2:
            break
        if u not in matched and v not in matched:
            matched.add(u)
            matched.add(v)
    return matched


def a1_matching(G: Graph, k: int) -> SubgraphResult:
    """Greedy matching truncated at ``floor(k/2)`` edges, padded to k vertices
    with the lowest free ids.  If the greedy matching reaches ``floor(k/2)``
    edges the result keeps at least that many."""
    _check_k(G, k)
    return induced_stats(G, pad_lowest_id(G, _greedy_matching(G, k), k))


def attachment_counts(G: Graph, heavy: set[int]) -> dict[int, int]:
    return {
        v: sum(1 for u in G.adjacency[v] if u in heavy)
        for v in range(G.n)
        if v not in heavy
    }


def a2_top_degrees(G: Graph, k: int) -> SubgraphResult:
    """Top ``ceil(k/2)`` degrees plus the ``floor(k/2)`` outside vertices with
    the most neighbors among them.  Requires ``k >= 2``."""
    _check_k(G, k, minimum=2)
    heavy = set(top_degree_vertices(G, (k + 1) // 2))
    counts = attachment_counts(G, heavy)
    rest = sorted(counts, key=lambda v: (-counts[v], v))
    return induced_stats(G, heavy | set(rest[: k // 2]))


def a3_neighborhoods(G: Graph, k: int) -> SubgraphResult:
    """Best of: each vertex with its highest-degree neighbors, and each pair
    with its lowest-id common neighbors; all candidates padded to k."""
    _check_k(G, k)
    candidates: list[tuple[int, ...]] = []
    for v in range(G.n):
        ranked = sorted(G.adjacency[v], key=lambda u: (-G.degree(u), u))
        candidates.append(pad_lowest_id(G, [v, *ranked[: k - 1]], k))
    if k >= 2:
        neigh = [set(G.adjacency[v]) for v in range(G.n)]
        for u in range(G.n):
            for v in range(u + 1, G.n):
                common = sorted(neigh[u] & neigh[v])
                if not common:
                    continue
                cand = [u, v, *common[: k - 2]]
                candidates.append(pad_lowest_id(G, cand[:k], k))
    return pick_best(induced_stats(G, c) for c in candidates)


def a4_edge_dense(G: Graph, k: int) -> SubgraphResult:
    """Run a1/a2/a3 inside ``N(u) union N(v)`` for every edge ``(u, v)`` and
    keep the best candidate (the plain a1 answer is always in the pool)."""
    _check_k(G, k)
    candidates: list[SubgraphResult] = [a1_matching(G, k)]
    for u, v in G.edges:
        verts = set(G.adjacency[u]) | set(G.adjacency[v])
        sub, ids = induced_subgraph(G, verts)
        kk = min(k, sub.n)
        local = [a1_matching(sub, kk), a3_neighborhoods(sub, kk)]
        if kk >= 2:
            local.append(a2_top_degrees(sub, kk))
        for res in local:
            mapped = [ids[x] for x in res.vertices]
            candidates.append(induced_stats(G, pad_lowest_id(G, mapped, k)))
    return pick_best(candidates)


@dataclass(frozen=True)
class WalkLayers:
    """Vertices reachable at each intermediate position of a length-5 walk
    from ``u`` to ``v``: ``layer(i)`` holds every w with a length-i walk from
    u and a length-(5-i) walk to v."""

    u: int
    v: int
    n1: frozenset[int]
    n2: frozenset[int]
    n3: frozenset[int]
    n4: frozenset[int]

    def layer(self, i: int) -> frozenset[int]:
        return (self.n1, self.n2, self.n3, self.n4)[i - 1]


def walk_powers(G: Graph, top: int) -> list[list[list[int]]]:
    """``powers[l]`` (``1 <= l <= top``) counts walks of exactly ``l`` edges;
    entry 0 is unused.  Python integers throughout, so counts never
    overflow."""
    n = G.n
    first = [[0] * n for _ in range(n)]
    for u, v in G.edges:
        first[u][v] = 1
        first[v][u] = 1
    powers: list[list[list[int]]] = [[], first]
    for _ in range(top - 1):
        prev = powers[-1]
        nxt = [[0] * n for _ in range(n)]
        for u in range(n):
            row = prev[u]
            acc = nxt[u]
            for w in range(n):
                c = row[w]
                if c:
                    for z in G.adjacency[w]:
                        acc[z] += c
        powers.append(nxt)
    return powers


def _walk_layers(
    G: Graph, powers: list[list[list[int]]], u: int, v: int
) -> WalkLayers:
    """The layers of ``(u, v)`` from walk powers up to at least 4."""
    sets = []
    for i in range(1, 5):
        fwd = powers[i][u]
        back = powers[5 - i][v]
        sets.append(frozenset(w for w in range(G.n) if fwd[w] and back[w]))
    return WalkLayers(u=u, v=v, n1=sets[0], n2=sets[1], n3=sets[2], n4=sets[3])


def _good_vertex_candidates(
    layers: WalkLayers,
    cut: list[tuple[int, int, int, int, int]],
    tau: float,
    k: int,
) -> list[tuple[int, ...]]:
    """Sweep the layer-2/layer-3 cut edges ``(w, z, load, w_n1, z_n4)``
    whose walk-count load reaches ``tau``, collecting an endpoint well
    connected to the outer layer on its side (``w_n1`` and ``z_n4`` count
    those neighbours) and skipping every later edge that touches a collected
    vertex; returns the two side sets augmented by their outer layers."""
    need = math.sqrt(tau)
    taken: set[int] = set()
    side2: list[int] = []
    side3: list[int] = []
    for w, z, load, w_n1, z_n4 in cut:
        if len(taken) >= k:
            break
        if load < tau or w in taken or z in taken:
            continue
        if w_n1 >= need:
            taken.add(w)
            side2.append(w)
        elif z_n4 >= need:
            taken.add(z)
            side3.append(z)
    out = []
    if side2:
        out.append(tuple(sorted(set(side2) | layers.n1)))
    if side3:
        out.append(tuple(sorted(set(side3) | layers.n4)))
    return out


def a5_walks(
    G: Graph, k: int, seed: int = 0, ladder_n: int | None = None
) -> SubgraphResult:
    """Walk-layer candidate harvest around the pair with the most length-5
    walks; falls back to a1 when no such walk exists.

    The density guesses of the good-vertex thresholds are ``1, 2, 4, ...``
    up to the smallest power of two that is at least ``max(2, ladder_n)``;
    ``ladder_n`` defaults to ``G.n``.
    """
    _check_k(G, k)
    if ladder_n is None:
        ladder_n = G.n
    powers = walk_powers(G, 5)
    w5 = powers[5]
    best_pair = None
    best_count = 0
    for a in range(G.n):
        row = w5[a]
        for b in range(G.n):
            if a != b and row[b] > best_count:
                best_count = row[b]
                best_pair = (a, b)
    if best_pair is None:
        return a1_matching(G, k)
    u, v = best_pair
    layers = _walk_layers(G, powers, u, v)
    d_max = max(G.degree(x) for x in range(G.n))

    # Candidates as sorted tuples, trimmed to k once each at the end.
    raw: list[tuple[int, ...]] = []
    middle = sorted(layers.n2 | layers.n3)
    raw.append(tuple(middle))

    rng = derive_rng(seed, "a5-sample", u, v)
    keep_p = min(1.0, k / (2.0 * d_max * d_max))
    for _ in range(SAMPLE_RETRIES):
        sampled = [w for w in middle if rng.random() < keep_p]
        if sampled:
            raw.append(tuple(sampled))

    w3v = powers[3][v]
    w3u = powers[3][u]
    if layers.n2:
        star = min(layers.n2, key=lambda w: (-w3v[w], w))
        raw.append(tuple(sorted((set(G.adjacency[star]) & layers.n3) | layers.n4)))
    if layers.n3:
        star = min(layers.n3, key=lambda w: (-w3u[w], w))
        raw.append(tuple(sorted((set(G.adjacency[star]) & layers.n2) | layers.n1)))

    # Each layer-2/layer-3 edge once, oriented from layer 2 (the smaller
    # orientation when both ends lie in both layers), with its walk load and
    # its ends' neighbour counts in layer 1 (of w) and layer 4 (of z).
    w2u, w2v = powers[2][u], powers[2][v]
    cut = []
    for a, b in G.edges:
        oriented = [
            (w, z) for w, z in ((a, b), (b, a)) if w in layers.n2 and z in layers.n3
        ]
        if oriented:
            w, z = min(oriented)
            cut.append((
                w,
                z,
                w2u[w] * w2v[z],
                len(layers.n1.intersection(G.adjacency[w])),
                len(layers.n4.intersection(G.adjacency[z])),
            ))
    cut.sort()

    taus: set[float] = set()
    for dstar in map(float, doubling_ladder(2 * max(2, ladder_n) - 1)):
        closed = (
            min(
                dstar**3 / (k**0.6 * d_max**1.6),
                dstar ** (5.0 / 3.0) / (k ** (1.0 / 3.0) * d_max ** (2.0 / 3.0)),
            ),
            min(dstar**3 / (k**0.4 * d_max**2), dstar ** (5.0 / 3.0) / d_max ** (4.0 / 3.0)),
        )
        for eps in (*EPSILON_LADDER, *closed):
            if eps <= 0:
                continue
            taus.add(dstar**5 / (2.0 * d_max**2 * eps * k))
            taus.add(dstar**5 / (2.0 * d_max**4 * eps))
    for tau in sorted(taus, reverse=True):
        if len(raw) >= MAX_CANDIDATES:
            break
        raw.extend(_good_vertex_candidates(layers, cut, tau, k))

    unique = sorted({fixing_trim(G, cand, k) for cand in set(raw)})
    return pick_best(
        induced_stats(G, pad_lowest_id(G, cand, k)) for cand in unique if cand
    )


def dks_candidates(
    G: Graph,
    k: int,
    seed: int = 0,
    include: Iterable[str] = ALGO_NAMES,
    a6_reps: int | None = None,
) -> Iterator[tuple[str, str, SubgraphResult]]:
    """Lazily run the selected algorithms, each both on ``G`` (branch
    ``"main"``) and on ``G`` with its ``ceil(k/2)`` highest-degree vertices
    removed (branch ``"peeled"``), yielding ``(branch, algorithm, result)``.

    Every result is mapped back to ``G``'s ids and padded (lowest ids first)
    to exactly k.  Random streams are keyed by ``(seed, branch, algorithm)``
    independently of ``include``, so with a fixed seed the candidates of one
    algorithm do not depend on which others run.  a5 takes its density
    guesses from ``G.n`` on both branches.  a2 is skipped where the branch
    has ``k < 2``.
    """
    _check_k(G, k)
    chosen = set(include)
    unknown = chosen.difference(ALGO_NAMES)
    if unknown:
        raise ValueError(f"unknown algorithms {sorted(unknown)}")
    if not chosen:
        raise ValueError("no algorithms selected")

    branches: list[tuple[str, Graph, tuple[int, ...] | None]] = [("main", G, None)]
    if (k + 1) // 2 < G.n:
        peeled, ids = remove_top_degrees(G, k)
        branches.append(("peeled", peeled, ids))

    for branch, bg, ids in branches:
        kk = min(k, bg.n)
        a5_seed, a6_seed = (
            (seed, seed)
            if branch == "main"
            else (derive_seed(seed, branch, "a5"), derive_seed(seed, branch, "a6"))
        )
        for algo in ALGO_NAMES:
            if algo not in chosen:
                continue
            # Called through the module-level names, so wrappers installed
            # on them at run time see every call.
            if algo == "a1":
                res = a1_matching(bg, kk)
            elif algo == "a2":
                if kk < 2:
                    continue
                res = a2_top_degrees(bg, kk)
            elif algo == "a3":
                res = a3_neighborhoods(bg, kk)
            elif algo == "a4":
                res = a4_edge_dense(bg, kk)
            elif algo == "a5":
                res = a5_walks(bg, kk, a5_seed, ladder_n=G.n)
            else:
                res = a6_damks(bg, kk, reps=a6_reps, seed=a6_seed)
            verts = res.vertices if ids is None else tuple(ids[x] for x in res.vertices)
            yield branch, algo, induced_stats(G, pad_lowest_id(G, verts, k))


def combined_dks(
    G: Graph,
    k: int,
    seed: int = 0,
    include: Iterable[str] = ALGO_NAMES,
    a6_reps: int | None = None,
) -> SubgraphResult:
    """Best exactly-k candidate of :func:`dks_candidates` over both branches
    and the selected algorithms."""
    return pick_best(
        res for _, _, res in dks_candidates(G, k, seed, include, a6_reps)
    )
