"""Combinatorial densest-k-subgraph heuristics and their combination.

Six candidate generators; a1-a5 return exactly k vertices, a6 at most k:

* ``a1_matching`` — greedy matching, k/2 guaranteed edges when the matching
  fills up; the baseline everything else is measured against.
* ``a2_top_degrees`` — half the budget on the highest-degree vertices, the
  other half on outside vertices best attached to them.
* ``a3_neighborhoods`` — closed-neighborhood and common-neighbor candidates
  around single vertices and pairs.
* ``a4_edge_dense`` — run the three algorithms above inside the joint
  neighborhood of every edge.  The rules read only ``adjacency``, so they
  run on a :class:`~densek.score.Window` of the neighborhood as on a graph,
  and no subgraph is built.
* ``a5_walks`` — pick the pair joined by the most length-5 walks, slice the
  graph into walk layers between them, and harvest candidate sets from the
  middle layers (including a thresholded "good vertex" sweep over a doubling
  ladder of density guesses, and random sparsification).  Walks are counted
  in int64 numpy arrays, one ``A @ X`` step (:func:`_walk_step`, a scatter
  over both directions of the edge view ``G.ends``) at a time: the best pair
  from ``A^5`` on ``WALK_BLOCK`` source columns at once, then the layers,
  loads and star scores from the pair's own rows (:func:`walk_rows`).
  Memory is O(``WALK_BLOCK`` * (n + m)), and degrees above
  ``MAX_WALK_DEGREE``, where a count could pass 2^63, are refused.
* ``a6_damks`` (in :mod:`densek.damks`) — LP rounding.

``ALGORITHMS`` is the one table of the six: name -> runner and smallest k
accepted, keyed by :data:`densek.graph.ALGO_NAMES` in that order, the one
list of the names, which :mod:`densek.ratio` and the CLI read as well.
Every exactly-k answer goes through one completion step,
:func:`densek.score.completed`, which takes a whole batch of candidate sets
in ``G``'s ids: pad each set with its lowest free ids, count each padded
set's edges over ``G.ends`` and keep the best, all as numpy bool masks of
at most ``score.SCORE_CELLS`` cells at a time.  a3 hands it all its singles
and wedge pairs, a5 its trimmed sets; a1 hands it one set, and
``dks_candidates`` each answer mapped to ``G``'s ids.  a4 makes one
``score.best_in_windows`` call, in batches that span many windows: a run
on ``score.whole(G)`` of its plain a1 answer and its windows of fewer than
k vertices, then the a1-a3 candidates of each other window, padded inside
it.

``dks_candidates`` runs any subset of the six on the graph itself and on
the graph with its top-degree half removed, and yields each run's answer
completed to exactly k.  It takes a ``seed``, from which each branch and
algorithm derives its own random stream; with a fixed seed, enlarging the
subset can never make the densest answer worse.
``densek solve --algo all`` reports the main-branch candidates as its
``run`` records and picks its ``best`` record from those same runs plus
the peeled branch, so each algorithm runs once per branch.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Callable, Collection, Iterable, Iterator, Sequence

import numpy as np

from .damks import a6_damks
from .graph import (
    ALGO_NAMES,
    Graph,
    SubgraphResult,
    check_k,
    checked_vertices,
    doubling_ladder,
    induced_stats,
    remove_top_degrees,
    top_degree_vertices,
)
from .reduction import fixing_trim
from .rng import derive_rng, derive_seed
from .score import Window, best_in_windows, completed, whole, window_on

# Slack factors of a5's good-vertex thresholds.
EPSILON_LADDER = tuple(2.0**i for i in range(-8, 5))
# Most candidate sets one a5 call enumerates, and its random sparsification
# draws.
MAX_CANDIDATES = 512
SAMPLE_RETRIES = 32
# Source columns of A^5 that a5 holds at once in its search for the best pair.
WALK_BLOCK = 64
# a5 counts walks in int64; a length-5 count is at most d_max^4, and this is
# the largest degree whose fourth power stays below 2^63.
MAX_WALK_DEGREE = math.isqrt(math.isqrt(2**63 - 1))


def _greedy_matching(G: Graph | Window, k: int) -> set[int]:
    """Endpoints of the greedy matching over the edges ``(x, y)``, ``x < y``,
    in order, stopped at ``floor(k/2)`` edges."""
    matched: set[int] = set()
    for x, nb in enumerate(G.adjacency):
        for y in nb:
            if len(matched) == k // 2 * 2:
                return matched
            if y > x and x not in matched and y not in matched:
                matched.add(x)
                matched.add(y)
    return matched


def a1_matching(G: Graph, k: int) -> SubgraphResult:
    """Greedy matching truncated at ``floor(k/2)`` edges, padded to k vertices
    with the lowest free ids.  If the greedy matching reaches ``floor(k/2)``
    edges the result keeps at least that many."""
    check_k(G, k)
    return completed(G, [_greedy_matching(G, k)], k)


def attachment_counts(G: Graph | Window, heavy: set[int]) -> dict[int, int]:
    return {v: len(heavy.intersection(nb)) for v, nb in enumerate(G.adjacency) if v not in heavy}


def _top_and_attached(G: Graph | Window, k: int) -> set[int]:
    """a2's k vertices: the top ``ceil(k/2)`` degrees and the ``floor(k/2)``
    others with the most neighbours among them."""
    heavy = set(top_degree_vertices(G, (k + 1) // 2))
    counts = attachment_counts(G, heavy)
    # counts lists the ids in order, and a stable sort keeps ties so.
    rest = sorted(counts, key=counts.__getitem__, reverse=True)
    return heavy | set(rest[: k // 2])


def a2_top_degrees(G: Graph, k: int) -> SubgraphResult:
    """Top ``ceil(k/2)`` degrees plus the ``floor(k/2)`` outside vertices with
    the most neighbors among them.  Requires k at least a2's least k in
    :data:`ALGORITHMS` (2)."""
    check_k(G, k, minimum=ALGORITHMS["a2"][1])
    return induced_stats(G, _top_and_attached(G, k))


def _neighborhood_candidates(G: Graph | Window, k: int) -> Iterator[list[int]]:
    """a3's candidates: each vertex with its first ``k - 1`` neighbours in
    (-degree, id) order, then each pair ``u < v`` with a common neighbour,
    with its first ``k - 2`` common neighbours by id.  The pairs come from
    u's wedges ``u - w - v``, so no pair without a common neighbour is
    looked at."""
    adj = G.adjacency
    # Walking the vertices in (-degree, id) order lists each one's
    # neighbours in that order.
    ranked: list[list[int]] = [[] for _ in adj]
    for x in top_degree_vertices(G, len(adj)):
        for y in adj[x]:
            ranked[y].append(x)
    for v, nb in enumerate(ranked):
        yield [v, *nb[: k - 1]]
    if k < 2:
        return
    for u, nb in enumerate(adj):
        # v -> [u, v, common neighbours in increasing order]
        rows: dict[int, list[int]] = {}
        for w in nb:
            for v in adj[w]:
                if v <= u:
                    continue
                if v in rows:
                    rows[v].append(w)
                else:
                    rows[v] = [u, v, w]
        for row in rows.values():
            yield row[:k]


def a3_neighborhoods(G: Graph, k: int) -> SubgraphResult:
    """Best of: each vertex with its highest-degree neighbors, and each pair
    with its lowest-id common neighbors; all candidates padded to k."""
    check_k(G, k)
    return completed(G, _neighborhood_candidates(G, k), k)


def a4_edge_dense(G: Graph, k: int) -> SubgraphResult:
    """Run a1/a2/a3 inside ``N(u) union N(v)`` for every edge ``(u, v)`` at
    ``min(k, |N(u) union N(v)|)`` and keep the best of their answers padded
    to k (the plain a1 answer is always in the pool).

    The pool's best is found without each window's own answers: a window of
    fewer than k vertices answers itself for all three, and in a window of
    at least k vertices every candidate padded inside the window is a k-set
    whose edges there are its edges in G, so the best of the window's answers
    is the best of all its candidates.  One ``best_in_windows`` call scores
    them all, in batches that span many windows: first a run on the whole
    graph of the plain a1 answer and the windows of fewer than k vertices,
    then each larger window's candidates inside it.
    """
    check_k(G, k)
    spans = [sorted({*G.adjacency[u], *G.adjacency[v]}) for u, v in G.edges]

    def runs() -> Iterator[tuple[Window, Iterable[Collection[int]]]]:
        yield whole(G), [_greedy_matching(G, k), *(s for s in spans if len(s) < k)]
        for verts in spans:
            if len(verts) >= k:
                inside = window_on(G, verts)
                a2 = [_top_and_attached(inside, k)] if k >= ALGORITHMS["a2"][1] else []
                yield inside, chain(
                    [_greedy_matching(inside, k)], _neighborhood_candidates(inside, k), a2
                )

    count, verts = best_in_windows(runs(), k)
    return SubgraphResult(verts, count)


def _walk_step(G: Graph, X: np.ndarray) -> np.ndarray:
    """``A @ X`` for the adjacency matrix ``A`` of ``G``."""
    u, v = G.ends[:, 0], G.ends[:, 1]
    out = np.zeros_like(X)
    np.add.at(out, v, X[u])
    np.add.at(out, u, X[v])
    return out


def walk_rows(G: Graph, w: int, top: int) -> list[np.ndarray]:
    """``rows[i] = A^i e_w`` for ``0 <= i <= top``: entry z counts the walks
    of exactly i edges from w to z, as int64."""
    checked_vertices(G, (w,))
    rows = [np.zeros(G.n, dtype=np.int64)]
    rows[0][w] = 1
    for _ in range(top):
        rows.append(_walk_step(G, rows[-1]))
    return rows


def _best_pair(G: Graph) -> tuple[int, int] | None:
    """The first pair ``(a, b)``, ``a != b``, in row-major order with the
    most length-5 walks between them, or None when no such walk exists.
    ``A^5`` is computed on ``WALK_BLOCK`` source columns at a time."""
    best, best_count = None, 0
    for start in range(0, G.n, WALK_BLOCK):
        sources = np.arange(start, min(start + WALK_BLOCK, G.n))
        own = (sources, np.arange(len(sources)))
        X = np.zeros((G.n, len(sources)), dtype=np.int64)
        X[own] = 1
        for _ in range(5):
            X = _walk_step(G, X)
        X[own] = 0
        # Row j of X.T is source start + j; argmax keeps the first maximum in
        # row-major order, and a later block must be strictly larger.
        j, b = divmod(int(np.argmax(X.T)), G.n)
        if X[b, j] > best_count:
            best, best_count = (start + j, b), X[b, j]
    return best


def _walk_layers(
    fwd: list[np.ndarray], back: list[np.ndarray]
) -> tuple[frozenset[int], ...]:
    """``layers[i]`` (``0 <= i <= 5``) holds every w at position i of a
    length-5 walk from u to v: a length-i walk from u and a length-(5-i)
    walk to v, given ``fwd = walk_rows(G, u, 5)`` and
    ``back = walk_rows(G, v, 5)``."""
    return tuple(
        frozenset(np.flatnonzero((fwd[i] > 0) & (back[5 - i] > 0)).tolist())
        for i in range(6)
    )


def _good_vertex_candidates(
    layers: tuple[frozenset[int], ...],
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
        out.append(tuple(sorted(set(side2) | layers[1])))
    if side3:
        out.append(tuple(sorted(set(side3) | layers[4])))
    return out


def a5_walks(
    G: Graph, k: int, seed: int = 0, ladder_n: int | None = None
) -> SubgraphResult:
    """Walk-layer candidate harvest around the pair with the most length-5
    walks; falls back to a1 when no such walk exists.

    The density guesses of the good-vertex thresholds are ``1, 2, 4, ...``
    up to the smallest power of two that is at least ``max(2, ladder_n)``;
    ``ladder_n`` defaults to ``G.n``.  Raises ``ValueError`` when the
    maximum degree exceeds ``MAX_WALK_DEGREE``.
    """
    check_k(G, k)
    d_max = max(G.degree(x) for x in range(G.n))
    if d_max > MAX_WALK_DEGREE:
        raise ValueError(
            f"a5 counts walks in int64 and needs maximum degree at most "
            f"{MAX_WALK_DEGREE}, got {d_max}"
        )
    if ladder_n is None:
        ladder_n = G.n
    best_pair = _best_pair(G)
    if best_pair is None:
        return a1_matching(G, k)
    u, v = best_pair
    fwd, back = walk_rows(G, u, 5), walk_rows(G, v, 5)
    layers = _walk_layers(fwd, back)

    # Candidates as sorted tuples, trimmed to k once each at the end.
    raw: list[tuple[int, ...]] = []
    middle = sorted(layers[2] | layers[3])
    raw.append(tuple(middle))

    rng = derive_rng(seed, "a5-sample", u, v)
    keep_p = min(1.0, k / (2.0 * d_max * d_max))
    for _ in range(SAMPLE_RETRIES):
        sampled = [w for w in middle if rng.random() < keep_p]
        if sampled:
            raw.append(tuple(sampled))

    # Walk counts as Python ints, so the loads below never overflow.
    w2u, w3u = fwd[2].tolist(), fwd[3].tolist()
    w2v, w3v = back[2].tolist(), back[3].tolist()
    if layers[2]:
        star = min(layers[2], key=lambda w: (-w3v[w], w))
        raw.append(tuple(sorted((set(G.adjacency[star]) & layers[3]) | layers[4])))
    if layers[3]:
        star = min(layers[3], key=lambda w: (-w3u[w], w))
        raw.append(tuple(sorted((set(G.adjacency[star]) & layers[2]) | layers[1])))

    # Each layer-2/layer-3 edge once, oriented from layer 2 (the smaller
    # orientation when both ends lie in both layers), with its walk load and
    # its ends' neighbour counts in layer 1 (of w) and layer 4 (of z).
    cut = []
    for a, b in G.edges:
        oriented = [
            (w, z) for w, z in ((a, b), (b, a)) if w in layers[2] and z in layers[3]
        ]
        if oriented:
            w, z = min(oriented)
            cut.append((
                w,
                z,
                w2u[w] * w2v[z],
                len(layers[1].intersection(G.adjacency[w])),
                len(layers[4].intersection(G.adjacency[z])),
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

    trimmed = {fixing_trim(G, cand, k) for cand in set(raw)}
    return completed(G, (cand for cand in trimmed if cand), k)


# a1-a6 in dispatch order, keyed by ``ALGO_NAMES``: name -> (runner,
# smallest k accepted), where a runner takes (G, k, seed, a6_reps, ladder_n).
# Runners look their algorithm up by module-level name at call time, so
# wrappers installed on those names at run time see every call.
ALGORITHMS: dict[str, tuple[Callable[..., SubgraphResult], int]] = dict(zip(
    ALGO_NAMES,
    (
        (lambda G, k, seed, reps, ladder_n: a1_matching(G, k), 1),
        (lambda G, k, seed, reps, ladder_n: a2_top_degrees(G, k), 2),
        (lambda G, k, seed, reps, ladder_n: a3_neighborhoods(G, k), 1),
        (lambda G, k, seed, reps, ladder_n: a4_edge_dense(G, k), 1),
        (lambda G, k, seed, reps, ladder_n: a5_walks(G, k, seed, ladder_n), 1),
        (lambda G, k, seed, reps, ladder_n: a6_damks(G, k, reps, seed), 1),
    ),
    strict=True,
))


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
    to exactly k.  Each algorithm's random stream is keyed by ``seed`` on the
    main branch and by ``derive_seed(seed, branch, algorithm)`` on the peeled
    one, independently of ``include``, so with a fixed seed the candidates of
    one algorithm do not depend on which others run.  a5 takes its density
    guesses from ``G.n`` on both branches.  An algorithm is skipped where the
    branch's k is below the least k of its :data:`ALGORITHMS` row.
    """
    check_k(G, k)
    chosen = set(include)
    unknown = chosen.difference(ALGORITHMS)
    if unknown:
        raise ValueError(f"unknown algorithms {sorted(unknown)}")
    if not chosen:
        raise ValueError("no algorithms selected")

    branches: list[tuple[str, Graph, Sequence[int]]] = [("main", G, range(G.n))]
    if (k + 1) // 2 < G.n:
        peeled, ids = remove_top_degrees(G, k)
        branches.append(("peeled", peeled, ids))

    for branch, bg, ids in branches:
        kk = min(k, bg.n)
        for algo, (run, least_k) in ALGORITHMS.items():
            if algo not in chosen or kk < least_k:
                continue
            algo_seed = seed if branch == "main" else derive_seed(seed, branch, algo)
            res = run(bg, kk, algo_seed, a6_reps, G.n)
            yield branch, algo, completed(G, [[ids[v] for v in res.vertices]], k)
