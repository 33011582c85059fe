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
``y_i`` rounding over two windows of the BFS distance layers around ``i0``
(:func:`distance_layers`, a plain tuple indexed by distance).

Two exact screens decide, before any simplex run, which relaxations cannot
be rounded (:func:`lp_pairs`):

* the LP is feasible iff ``i0`` lies in the gamma-core, the largest vertex
  set of induced minimum degree at least gamma (on the support S of a
  feasible y, a vertex with fewer than gamma neighbours in S breaks its
  degree row; the core's indicator vector is feasible); one min-degree peel
  gives the core number of every vertex (:func:`core_numbers`), and so
  every core of the ladder at once;
* every feasible LP has objective at least ``1 + gamma``, because
  ``y_i0 = 1`` and ``sum_{j ~ i0} y_j >= sum_j x_i0j >= gamma``; so the
  ladder stops once ``1 + gamma`` exceeds k.

Each relaxation is built directly as one standard-form
:class:`simplex.LinearProgram` matrix from the edge view ``G.ends``, with
``y_i0 >= 1`` as its only row of negative rhs and without the rows
``y_i <= 1``, which capping at 1 makes redundant (:func:`build_damks_lp`).
Every row is then ``<=`` and every cost >= 0, the dual form that the
simplex solves from the all-slack basis.  a6 builds one such program and
rewrites its root row and gamma coefficients in place for each pair
(:func:`_retarget`).  The optimum is capped into [0, 1].  A relaxation with
no fractional ``y_i`` in either window rounds alike in every rep, so its
one outcome is taken directly (:func:`_integral_outcome`) and nothing is
drawn.  Any other relaxation's roundings are drawn in numpy batches of at
most ``ROUND_CHUNK`` reps (:func:`round_batch`), with a random draw only
for a fractional ``y_i``; each rep's two window samples are scored over the
edge list (:func:`_average_degrees`, no n x n matrix), and only the
distinct candidate sets are trimmed and scored (:func:`_rounded_sets`).
"""

from __future__ import annotations

import random
from collections import deque
from typing import Iterator, Sequence

import numpy as np

from . import simplex
from .graph import (
    Graph, SubgraphResult, better_than, check_k, checked_vertices, doubling_ladder, induced_stats,
)
from .reduction import fixing_trim, peel
from .rng import derive_rng

LP_SCREEN_TOL = 1e-6
# Most roundings a6 draws in one batch, so its memory does not grow with reps.
ROUND_CHUNK = 4096


def build_damks_lp(G: Graph, root: int, gamma: float) -> simplex.LinearProgram:
    """Assemble the relaxation for one root and density guess.

    Variable ``i < n`` is ``y_i`` and variable ``n + e`` is ``x`` of edge
    ``G.edges[e]``.  Row 0 is ``-y_root <= -1``; then come the n degree
    rows and the two rows ``x_e <= y_u``, ``x_e <= y_v`` of each edge in
    edge order.  Every row is ``<=`` and every cost is >= 0, the form
    :func:`simplex.solve_lp` accepts.

    The rows ``y_i <= 1`` and ``y_root <= 1`` of the relaxation are left
    out: capping every variable of a feasible point at 1 keeps it feasible
    (a vertex with ``y_i > 1`` keeps ``sum_j min(x_ij, 1) >=
    sum_j x_ij / y_i >= gamma``) and does not raise the objective, so the
    capped optimum of this program is an optimum of the full relaxation.

    A root with no incident edges makes the degree constraint at the root
    unsatisfiable together with ``y_i0 >= 1`` (for ``gamma > 0``), which the
    solver reports as infeasible rather than an error.
    """
    checked_vertices(G, (root,))
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    n, m, ends = G.n, G.m, G.ends
    vertex = np.arange(n)
    x_col = n + np.arange(m)
    edge_row = 1 + n + 2 * np.arange(m)
    rows = np.zeros((1 + n + 2 * m, n + m))
    rows[0, root] = -1.0
    rows[1 + vertex, vertex] = float(gamma)
    rows[1 + ends[:, 0], x_col] = -1.0
    rows[1 + ends[:, 1], x_col] = -1.0
    for side in (0, 1):
        rows[edge_row + side, x_col] = 1.0
        rows[edge_row + side, ends[:, side]] = -1.0
    rhs = np.zeros(rows.shape[0])
    rhs[0] = -1.0
    objective = np.concatenate([np.ones(n), np.zeros(m)])
    return simplex.LinearProgram(objective=objective, rows=rows, rhs=rhs)


def distance_layers(G: Graph, root: int) -> tuple[frozenset[int], ...]:
    """BFS distance classes around the root: ``layers[i]`` holds the
    vertices at distance exactly i (0 <= i <= 3)."""
    checked_vertices(G, (root,))
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
    return tuple(frozenset(v for v, d in dist.items() if d == i) for i in range(4))


def _windows(layers: tuple[frozenset[int], ...]) -> tuple[list[int], list[int]]:
    """Window 1 (layers 0-2) and window 2 (layers 1-3), each sorted."""
    return sorted(layers[0] | layers[1] | layers[2]), sorted(layers[1] | layers[2] | layers[3])


def round_batch(
    G: Graph,
    layers: tuple[frozenset[int], ...],
    y: Sequence[float],
    rng: random.Random,
    reps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``reps`` independent roundings at once: per rep, keep vertex ``v`` of
    window 1 (layers 0-2) and then, with fresh draws, of window 2 (layers
    1-3) with probability ``y[v]``.  Returns the ``s1`` and ``s2`` samples
    as two ``reps x n`` bool masks.

    Only a fractional column, ``0 < y[v] < 1``, takes a draw and keeps
    ``v`` when ``rng.random() < y[v]``; a column with ``y[v] >= 1`` is always
    kept and one with ``y[v] <= 0`` never.  The draws come from ``rng`` in
    the order of ``reps`` one-at-a-time roundings (rep by rep, window 1
    before window 2, each window in vertex order), so the samples and the
    generator's final state match that loop, and consecutive batches from
    one generator match one larger batch.
    """
    if len(y) != G.n:
        raise ValueError(f"{len(y)} y-values for {G.n} vertices")
    window1, window2 = _windows(layers)
    columns = np.array(window1 + window2, dtype=np.intp)
    values = np.asarray(y, dtype=float)[columns]
    fractional = np.flatnonzero((values > 0) & (values < 1))
    draws = np.fromiter(iter(rng.random, None), float, reps * len(fractional))
    kept = np.repeat((values >= 1)[None, :], reps, axis=0)
    kept[:, fractional] = draws.reshape(reps, len(fractional)) < values[fractional]
    masks = []
    for part in (slice(None, len(window1)), slice(len(window1), None)):
        mask = np.zeros((reps, G.n), dtype=bool)
        mask[:, columns[part]] = kept[:, part]
        masks.append(mask)
    return masks[0], masks[1]


def _average_degrees(G: Graph, masks: np.ndarray) -> np.ndarray:
    """Average degree ``2e / s`` of the set each mask row induces (0.0 for
    the empty set), with the same float operations as ``induced_stats``:
    ``e`` counts the edges with both ends in the row."""
    inside = masks[:, G.ends[:, 0]] & masks[:, G.ends[:, 1]]
    twice_edges = 2.0 * np.count_nonzero(inside, axis=1)
    sizes = np.count_nonzero(masks, axis=1)
    out = np.zeros(len(masks))
    np.divide(twice_edges, sizes, out=out, where=sizes > 0)
    return out


def core_numbers(G: Graph, vertices) -> dict[int, int]:
    """Core number of each of ``vertices`` in the subgraph they induce: the
    running maximum of the deletion degrees of :func:`reduction.peel`.  A
    vertex lies in the t-core, the largest subset of induced minimum degree
    at least t, iff its core number is at least t."""
    cores: dict[int, int] = {}
    level = 0
    for v, degree in peel(G, vertices):
        level = max(level, degree)
        cores[v] = level
    return cores


def lp_pairs(G: Graph, k: int) -> list[tuple[int, int]]:
    """The ``(root, gamma)`` pairs, root-major, whose relaxation can be
    feasible with optimum at most k: gamma on the ladder with
    ``1 + gamma <= k`` (within ``LP_SCREEN_TOL``) and root in the gamma-core.
    Every other pair's LP is infeasible or has optimum above k."""
    ladder = [g for g in doubling_ladder(G.n) if 1 + g <= k + LP_SCREEN_TOL]
    cores = core_numbers(G, range(G.n))
    return [
        (root, gamma)
        for root in range(G.n)
        for gamma in ladder
        if cores[root] >= gamma
    ]


def _retarget(lp: simplex.LinearProgram, n: int, root: int, gamma: float) -> None:
    """Turn a :func:`build_damks_lp` program of an ``n``-vertex graph into
    the one for ``root`` and ``gamma``, in place: only row 0
    (``-y_root <= -1``) and the ``gamma`` coefficients of the degree rows
    depend on them."""
    vertex = np.arange(n)
    lp.rows[0] = 0.0
    lp.rows[0, root] = -1.0
    lp.rows[1 + vertex, vertex] = float(gamma)


def _integral_outcome(
    G: Graph, windows: tuple[list[int], list[int]], y: Sequence[float]
) -> tuple[int, ...] | None:
    """What every rounding of a relaxation gives when neither window has a
    vertex with ``0 < y < 1``: the denser of the two windows' ``y = 1``
    vertices, window 1 on a tie, by the average degree and the ``>=`` that
    :func:`a6_damks` applies to :func:`round_batch`'s samples.  None when
    some window vertex is fractional."""
    if any(0 < y[v] < 1 for window in windows for v in window):
        return None
    s1, s2 = (induced_stats(G, [v for v in window if y[v] >= 1]) for window in windows)
    return (s1 if s1.average_degree >= s2.average_degree else s2).vertices


def _rounded_sets(
    G: Graph,
    layers: tuple[frozenset[int], ...],
    y: Sequence[float],
    rng: random.Random,
    reps: int,
    k: int,
) -> Iterator[list[int]]:
    """The distinct sets of ``reps`` roundings, drawn by :func:`round_batch`
    in batches of at most ``ROUND_CHUNK``: per rep the denser window sample
    (window 1 on a tie), kept when it has 1 to 2k vertices."""
    seen: set[bytes] = set()
    for start in range(0, reps, ROUND_CHUNK):
        s1, s2 = round_batch(G, layers, y, rng, min(ROUND_CHUNK, reps - start))
        denser = _average_degrees(G, s1) >= _average_degrees(G, s2)
        chosen = np.where(denser[:, None], s1, s2)
        sizes = chosen.sum(axis=1)
        chosen = chosen[(sizes > 0) & (sizes <= 2 * k)]
        for row, packed in zip(chosen, np.packbits(chosen, axis=1)):
            key = packed.tobytes()
            if key not in seen:
                seen.add(key)
                yield np.flatnonzero(row).tolist()


def a6_damks(
    G: Graph,
    k: int,
    reps: int | None = None,
    seed: int = 0,
) -> SubgraphResult:
    """Randomised-rounding at-most-k heuristic over all roots and gammas.

    For every root/gamma pair of :func:`lp_pairs` whose LP is feasible with
    optimum at most k, draw ``reps`` roundings (default ``16n``) in batches
    of at most ``ROUND_CHUNK``, take the denser window sample of each,
    discard empty sets and sets larger than 2k, trim the distinct remaining
    sets to at most k, and return the best candidate.  Never returns more
    than k vertices.  A pair whose LP the simplex cannot certify
    (:class:`simplex.LpNumericalError`) is skipped like an infeasible one.

    A relaxation with no fractional ``y`` in either window rounds the same
    way every time, so it draws nothing and its one outcome
    (:func:`_integral_outcome`) is trimmed and scored once.  One program is
    built and then rewritten in place for each pair (:func:`_retarget`), so
    a6 holds one program however long its gamma ladder; the distance layers
    are computed once per root.
    """
    check_k(G, k)
    if reps is None:
        reps = 16 * G.n
    if reps < 1:
        raise ValueError(f"reps must be positive, got {reps}")
    best: SubgraphResult | None = None
    lp = None
    layers_root = None
    for root, gamma in lp_pairs(G, k):
        if lp is None:
            lp = build_damks_lp(G, root, gamma)
        else:
            _retarget(lp, G.n, root, gamma)
        try:
            sol = simplex.solve_lp(lp)
        except simplex.LpNumericalError:
            continue
        if sol.status != simplex.OPTIMAL:
            continue
        assert sol.objective is not None and sol.x is not None
        if sol.objective > k + LP_SCREEN_TOL:
            continue
        y = [min(1.0, max(0.0, val)) for val in sol.x[: G.n]]
        if layers_root != root:
            layers_root, layers = root, distance_layers(G, root)
            windows = _windows(layers)
        outcome = _integral_outcome(G, windows, y)
        if outcome is None:
            rng = derive_rng(seed, "a6", root, gamma)
            rounded = _rounded_sets(G, layers, y, rng, reps, k)
        else:
            rounded = [outcome] if 0 < len(outcome) <= 2 * k else []
        # better_than is a strict total order on distinct vertex sets, so
        # scoring each distinct set once, in any order, gives the same best.
        for vertices in rounded:
            cand = induced_stats(G, fixing_trim(G, vertices, k))
            if best is None or better_than(cand, best):
                best = cand
    if best is None:
        # Nothing rounded usefully (e.g. edgeless graph): any single vertex
        # achieves the optimum-0 trivially.
        best = induced_stats(G, (0,))
    return best
