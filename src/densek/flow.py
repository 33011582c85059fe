"""Exact integer max-flow / min-cut, and the flow-based at-least-k
densest-subgraph 2-approximation built on it, which is within factor 2 of
the optimum at every graph size.

Each quasi-density problem ``max |E(S)| - q*|S|`` is one min-cut on
Goldberg's density network, whose capacities are integers from the start.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import Iterable

from .graph import Graph, SubgraphResult, induced_stats, pad_most_neighbors, pick_best


def max_flow(
    node_count: int,
    arcs: Iterable[tuple[int, int, int, int]],
    source: int,
    sink: int,
) -> tuple[int, frozenset[int]]:
    """Dinic's algorithm on integer capacities.  Each arc
    ``(tail, head, capacity, reverse_capacity)`` is one residual pair, so an
    undirected edge is one arc with equal capacities both ways.  Returns the
    flow value and the source side of the canonical minimum cut (nodes
    reachable in the final residual graph); that side is the
    inclusion-minimal one among all minimum cuts.
    """
    # Paired residual arcs: edge 2i is forward, 2i+1 its reverse.
    heads: list[int] = []
    caps: list[int] = []
    out: list[list[int]] = [[] for _ in range(node_count)]
    for tail, head, cap, reverse in arcs:
        out[tail].append(len(heads))
        heads.append(head)
        caps.append(cap)
        out[head].append(len(heads))
        heads.append(tail)
        caps.append(reverse)

    s, t = source, sink
    total = 0
    n = node_count
    while True:
        level = [-1] * n
        level[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for eid in out[v]:
                w = heads[eid]
                if caps[eid] > 0 and level[w] < 0:
                    level[w] = level[v] + 1
                    queue.append(w)
        if level[t] < 0:
            break
        ptr = [0] * n
        while True:
            # Advance/retreat search for one augmenting path in the level graph.
            path: list[int] = []
            v = s
            found = False
            while True:
                if v == t:
                    found = True
                    break
                advanced = False
                while ptr[v] < len(out[v]):
                    eid = out[v][ptr[v]]
                    w = heads[eid]
                    if caps[eid] > 0 and level[w] == level[v] + 1:
                        path.append(eid)
                        v = w
                        advanced = True
                        break
                    ptr[v] += 1
                if advanced:
                    continue
                if v == s:
                    break
                eid = path.pop()
                v = heads[eid ^ 1]  # back to the arc's tail
                ptr[v] += 1
            if not found:
                break
            push = min(caps[eid] for eid in path)
            for eid in path:
                caps[eid] -= push
                caps[eid ^ 1] += push
            total += push

    reachable = {s}
    queue = deque([s])
    while queue:
        v = queue.popleft()
        for eid in out[v]:
            w = heads[eid]
            if caps[eid] > 0 and w not in reachable:
                reachable.add(w)
                queue.append(w)
    return total, frozenset(reachable)


def max_quasi_density(G: Graph, q: Fraction | int) -> tuple[tuple[int, ...], Fraction]:
    """Maximise ``|E(S)| - q*|S|`` over all vertex sets, exactly, via a single
    integer min-cut on Goldberg's density network.

    With ``q = a/b`` in lowest terms, nodes ``0..n-1`` are the vertices,
    ``s = n`` and ``t = n+1``: each edge is an arc pair of capacity ``b``
    both ways, ``s -> v`` has capacity ``b*deg(v)`` and ``v -> t`` capacity
    ``2a``.  The cut with source side ``S + {s}`` is
    ``2b*m - 2b*(|E(S)| - q*|S|)``, so the optimum is ``m - mincut/(2b)`` and
    the canonical cut's source side is the inclusion-minimal optimiser.
    Requires ``q > 0``.
    """
    q = Fraction(q)
    if q <= 0:
        raise ValueError(f"penalty q must be positive, got {q}")
    n, a, b = G.n, q.numerator, q.denominator
    arcs = [(u, v, b, b) for u, v in G.edges]
    arcs += [(n, v, b * G.degree(v), 0) for v in range(n)]
    arcs += [(v, n + 1, 2 * a, 0) for v in range(n)]
    cut, side = max_flow(n + 2, arcs, n, n + 1)
    chosen = tuple(sorted(v for v in side if v < n))
    value = G.m - Fraction(cut, 2 * b)
    inside = set(chosen)
    induced = sum(1 for u, v in G.edges if u in inside and v in inside)
    if value != induced - q * len(chosen):  # pragma: no cover - construction guard
        raise RuntimeError("min cut does not certify the quasi-density optimiser")
    return chosen, value


def _quasi_chain(
    G: Graph, lo: Fraction, hi: Fraction
) -> list[tuple[Fraction, tuple[int, ...]]]:
    """The distinct minimal optimisers of ``|E(S)| - q*|S|`` for ``q`` in
    ``[lo, hi]``, as ``(start, S)`` pairs in order of growing ``q``, each
    optimal from its start to the next one's (the last through ``hi``).

    The optimisers shrink as ``q`` grows, and the optimum is the upper
    envelope of their lines ``e(S) - q*|S|``.  So for the optimisers A and B
    at penalties ``p < r``, a cut at the crossing ``q*`` of their lines
    returns B when ``q*`` is the only breakpoint between them, else a set
    strictly between them.
    """

    def solve(q: Fraction) -> tuple[tuple[int, ...], int]:
        chosen, value = max_quasi_density(G, q)
        return chosen, int(value + q * len(chosen))

    left, last = solve(lo), solve(hi)
    chain = [(lo, left[0])]
    pending = [last] if last[0] != left[0] else []  # right of ``left``, nearest last
    while pending:
        right = pending[-1]
        cross = Fraction(left[1] - right[1], len(left[0]) - len(right[0]))
        found = solve(cross)
        if found[0] == right[0]:
            chain.append((cross, right[0]))
            left = pending.pop()
        else:
            pending.append(found)
    return chain


def _holds_guess(G: Graph, k: int, start: Fraction, end: Fraction | None) -> bool:
    """Whether a guess penalty ``a/(2b)``, ``1 <= a <= m``, ``k <= b <= n``,
    lies in ``[start, end)``, or from ``start`` on when ``end`` is None."""
    for b in range(k, G.n + 1):
        a = -(-2 * b * start.numerator // start.denominator)
        if a <= G.m and (end is None or Fraction(a, 2 * b) < end):
            return True
    return False


def dalks_2approx(G: Graph, k: int) -> SubgraphResult:
    """Densest at-least-k subgraph, within factor 2 of the optimum.

    Each density guess ``d = 2a/b`` (``0 <= a <= m``, ``k <= b <= n``) gives a
    candidate: the minimal optimiser of the quasi-density problem with penalty
    ``d/4`` (the empty set for ``d = 0``), padded to ``k`` vertices (most
    neighbors inside first); the result is the best one.  The optimisers form
    a nested chain of at most ``n + 1`` sets, found with ``O(n)`` min-cuts; a
    chain set counts only if a guess's penalty falls in its interval.
    """
    if not (1 <= k <= G.n):
        raise ValueError(f"k={k} out of range for n={G.n}")
    candidates = [induced_stats(G, pad_most_neighbors(G, (), k))]
    if G.m:
        chain = _quasi_chain(G, Fraction(1, 2 * G.n), Fraction(G.m, 2 * k))
        for i, (start, chosen) in enumerate(chain):
            end = chain[i + 1][0] if i + 1 < len(chain) else None
            if _holds_guess(G, k, start, end):
                if len(chosen) < k:
                    chosen = pad_most_neighbors(G, chosen, k)
                candidates.append(induced_stats(G, chosen))
    return pick_best(candidates)
