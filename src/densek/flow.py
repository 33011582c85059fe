"""Exact integer max-flow / min-cut, and the flow-based at-least-k
densest-subgraph 2-approximation built on it, which is within factor 2 of
the optimum at every graph size.

Each quasi-density problem ``max |E(S)| - q*|S|`` is one min-cut on
Goldberg's density network, whose capacities are integers from the start.
The problem can be bounded to ``inner <= S <= outer``, and the network then
has nodes only for the free vertices between the bounds; the cut reports
its optimiser's gain over ``inner``.  The 2-approximation cuts its nested
chain on the vertices between each set's two neighbours, and carries each
set's edge count from that gain.  The chain's lower end is always taken in
closed form: below penalty 1/2 the optimiser is the set of non-isolated
vertices (leaving one out loses at least half an edge); and at a penalty of
at least half the maximum degree it is empty (``|E(S)| <= max_degree*|S|/2``).

The max-flow has no source or sink node: each node carries a supply (its
``s -> v`` capacity) and a demand (its ``v -> t`` capacity), so its
searches never walk those arcs.  How it finds the flow cannot move an
answer: the canonical minimum cut's source side is the same for every
maximum flow.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .graph import Graph, SubgraphResult, check_k, induced_stats, pad_most_neighbors, pick_best


def max_flow(
    arcs: Iterable[tuple[int, int, int, int]],
    supply: list[int],
    demand: list[int],
) -> tuple[int, frozenset[int]]:
    """Dinic's algorithm on integer capacities, on the nodes
    ``0..len(supply)-1`` and an implicit source ``s`` and sink ``t``:
    ``supply[v]`` and ``demand[v]`` (both copied, not consumed) are the
    capacities of ``s -> v`` and ``v -> t``.  Each arc
    ``(tail, head, capacity, reverse_capacity)`` joins two nodes and is one
    residual pair, so an undirected edge is one arc with equal capacities
    both ways.  Returns the flow value and the canonical minimum cut's
    source side less ``s`` (the nodes reachable in the final residual
    graph); that side is the inclusion-minimal one among all minimum cuts,
    and the same for every maximum flow, so how the flow is found does not
    show in the answer.

    Every direct ``s -> v -> t`` path is saturated first.  Each phase's
    level graph is a search from all supply nodes at once that stops at the
    first level holding a demand node, and the blocking-flow search starts
    from each supply node in turn, resuming at the path's first saturated
    arc after each augmentation.  The final search, which reaches no demand
    node, reaches exactly the canonical source side.
    """
    supply, demand = list(supply), list(demand)
    n = len(supply)
    # Paired residual arcs: edge 2i is forward, 2i+1 its reverse.
    heads: list[int] = []
    caps: list[int] = []
    out: list[list[int]] = [[] for _ in range(n)]
    for tail, head, cap, reverse in arcs:
        eid = len(heads)
        out[tail].append(eid)
        out[head].append(eid + 1)
        heads += (head, tail)
        caps += (cap, reverse)

    total = 0
    sources = []
    for v in range(n):
        if supply[v]:
            push = min(supply[v], demand[v])
            supply[v] -= push
            demand[v] -= push
            total += push
            if supply[v]:
                sources.append(v)

    while True:
        sources = [v for v in sources if supply[v]]
        level = [-1] * n
        for v in sources:
            level[v] = 1
        frontier, last = sources, 1
        while frontier and not any(map(demand.__getitem__, frontier)):
            last += 1
            reached = []
            for v in frontier:
                for eid in out[v]:
                    if caps[eid]:
                        w = heads[eid]
                        if level[w] < 0:
                            level[w] = last
                            reached.append(w)
            frontier = reached
        if not frontier:
            return total, frozenset(v for v in range(n) if level[v] >= 0)
        # Blocking flow in the level graph, whose sink side is level ``last``.
        ptr = [0] * n
        for u in sources:
            path: list[int] = []
            v = u
            while True:
                nxt = level[v] + 1
                if nxt > last:
                    if demand[v]:
                        push = min(supply[u], demand[v], *[caps[eid] for eid in path])
                        for eid in path:
                            caps[eid] -= push
                            caps[eid ^ 1] += push
                        supply[u] -= push
                        demand[v] -= push
                        total += push
                        if not supply[u]:
                            break
                        for i, eid in enumerate(path):
                            if not caps[eid]:
                                del path[i:]
                                v = heads[path[-1]] if path else u
                                break
                        continue
                    # a spent demand node: retreat from it
                    v = heads[path.pop() ^ 1]
                    ptr[v] += 1
                    continue
                arcs_v = out[v]
                i, end = ptr[v], len(arcs_v)
                while i < end:
                    eid = arcs_v[i]
                    if caps[eid] and level[heads[eid]] == nxt:
                        break
                    i += 1
                ptr[v] = i
                if i < end:
                    path.append(eid)
                    v = heads[eid]
                elif v == u:
                    break
                else:
                    v = heads[path.pop() ^ 1]  # back to the arc's tail
                    ptr[v] += 1


def max_quasi_density(
    G: Graph,
    q: Fraction | int,
    inner: Iterable[int] = (),
    outer: Iterable[int] | None = None,
) -> tuple[tuple[int, ...], Fraction]:
    """Maximise ``|E(S)| - q*|S|`` over the vertex sets with
    ``inner <= S <= outer`` (by default over all sets), exactly, via a single
    integer min-cut on Goldberg's density network restricted to the free
    vertices ``F = outer - inner``.

    With ``q = a/b`` in lowest terms the network has one node per free
    vertex: each edge inside ``F`` is an arc pair of capacity ``b`` both
    ways, and ``v`` has supply (``s -> v``) ``b*deg_F(v) + 2b*deg_inner(v)``
    and demand (``v -> t``) ``2a``.  The cut
    with source side ``X + {s}`` is
    ``2b*(e(F) + e(F, inner)) - 2b*(e(X) + e(X, inner) - q*|X|)``, so the
    canonical cut's source side gives the inclusion-minimal optimiser S
    within the bounds.  Returns S and its gain over ``inner``,
    ``(e(S) - q*|S|) - (e(inner) - q*|inner|) = e(X) + e(X, inner) - q*|X|``
    for ``X = S - inner``, which is the optimum itself when ``inner`` is
    empty.  Requires ``q > 0`` and ``inner <= outer``.
    """
    q = Fraction(q)
    if q <= 0:
        raise ValueError(f"penalty q must be positive, got {q}")
    a, b = q.numerator, q.denominator
    fixed = set(inner)
    bound = set(range(G.n)) if outer is None else set(outer)
    if not fixed <= bound or not bound.issubset(range(G.n)):
        raise ValueError(f"need inner <= outer <= range({G.n})")
    free = sorted(bound - fixed)
    index = {v: i for i, v in enumerate(free)}
    arcs = []
    supply = []
    free_degrees = cross_edges = 0  # 2*e(F) and e(F, inner)
    for i, v in enumerate(free):
        deg_free = deg_fixed = 0
        for u in G.adjacency[v]:
            j = index.get(u)
            if j is not None:
                deg_free += 1
                if j > i:
                    arcs.append((i, j, b, b))
            elif u in fixed:
                deg_fixed += 1
        free_degrees += deg_free
        cross_edges += deg_fixed
        supply.append(b * deg_free + 2 * b * deg_fixed)
    cut, side = max_flow(arcs, supply, [2 * a] * len(free))
    added = [free[i] for i in side]
    chosen = tuple(sorted([*fixed, *added]))
    inside = set(chosen)
    # e(X) + e(X, inner) for the added vertices X, recounted from G: the cut
    # must be 2b*(e(F) + e(F, inner)) - 2b*(that - q*|X|).
    gained = sum(
        1 for v in added for u in G.adjacency[v] if u in inside and (u > v or u in fixed)
    )
    if cut != 2 * b * (free_degrees // 2 + cross_edges - gained) + 2 * a * len(added):
        raise RuntimeError(  # pragma: no cover - construction guard
            "min cut does not certify the quasi-density optimiser"
        )
    return chosen, gained - q * len(added)


def _quasi_chain(
    G: Graph, lo: Fraction, hi: Fraction
) -> list[tuple[Fraction, tuple[int, ...], int]]:
    """The distinct minimal optimisers of ``|E(S)| - q*|S|`` for ``q`` in
    ``[lo, hi]``, as ``(start, S, |E(S)|)`` in order of growing ``q``, each
    optimal from its start to the next one's (the last through ``hi``).
    Requires ``lo < 1/2``.

    The optimisers shrink as ``q`` grows, and the optimum is the upper
    envelope of their lines ``e(S) - q*|S|``.  So for the optimisers A and B
    at penalties ``p < r``, a cut at the crossing ``q*`` of their lines
    returns B when ``q*`` is the only breakpoint between them, else a set
    strictly between them.

    That cut only decides the vertices of ``A - B``: as ``|E(S)|`` is
    supermodular, the union of an optimiser at ``p`` and one at ``q >= p``
    is optimal at ``p`` and their intersection at ``q``, so the minimal
    optimisers nest, ``B <= S(q*) <= A``.  So the cut at ``hi`` is bounded
    by ``outer=S(lo)`` and each crossing cut by ``inner=B``, ``outer=A``,
    and each returns the same set as a cut on the whole graph.  Each set's
    edge count comes from its cut: ``e(S) = e(inner) + gain + q*|S - inner|``.

    The lower end takes no cut: ``S(lo)`` is the set of non-isolated
    vertices, with all ``m`` edges, as each of them left out of a set S
    costs S at least half an edge, more than the ``lo < 1/2`` it saves, and
    each isolated vertex costs ``lo``.  For ``2*hi >= `` the maximum degree,
    ``S(hi)`` is empty: ``|E(S)| <= max_degree*|S|/2 <= hi*|S|``.
    """
    left = tuple(v for v in range(G.n) if G.adjacency[v]), G.m
    if 2 * hi >= max(map(len, G.adjacency), default=0):
        last = (), 0
    else:
        chosen, gain = max_quasi_density(G, hi, outer=left[0])
        last = chosen, int(gain + hi * len(chosen))
    chain = [(lo, *left)]
    pending = [last] if last[0] != left[0] else []  # right of ``left``, nearest last
    while pending:
        right = pending[-1]
        cross = Fraction(left[1] - right[1], len(left[0]) - len(right[0]))
        chosen, gain = max_quasi_density(G, cross, inner=right[0], outer=left[0])
        if chosen == right[0]:
            chain.append((cross, *right))
            left = pending.pop()
        else:
            edges = right[1] + int(gain + cross * (len(chosen) - len(right[0])))
            pending.append((chosen, edges))
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
    chain set counts only if a guess's penalty falls in its interval.  The
    chain's two ends follow in closed form (see ``_quasi_chain``): at the
    lowest penalty ``1/(2n) < 1/2`` the non-isolated vertices, and at the
    highest, ``m/(2k)``, the empty set whenever ``m/k`` reaches the maximum
    degree; only the crossing cuts in between run a min-cut.  A chain set of
    k or more vertices keeps the edge count its cut certified; only padded
    sets are recounted.  On an edgeless graph the chain is one empty set,
    which holds no guess (``a >= 1 > m``).
    """
    check_k(G, k)
    candidates = [induced_stats(G, pad_most_neighbors(G, (), k))]
    chain = _quasi_chain(G, Fraction(1, 2 * G.n), Fraction(G.m, 2 * k))
    for i, (start, chosen, edges) in enumerate(chain):
        end = chain[i + 1][0] if i + 1 < len(chain) else None
        if _holds_guess(G, k, start, end):
            if len(chosen) < k:
                candidates.append(induced_stats(G, pad_most_neighbors(G, chosen, k)))
            else:
                candidates.append(SubgraphResult(chosen, edges))
    return pick_best(candidates)
