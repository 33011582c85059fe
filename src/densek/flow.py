"""Exact max-flow / min-cut over rational capacities, and the flow-based
at-least-k densest-subgraph 2-approximation built on it, which is within
factor 2 of the optimum at every graph size.

Capacities are :class:`fractions.Fraction` (or ``None`` for the infinite
sentinel).  Before running Dinic the capacities are scaled by the LCM of
their denominators, so the whole computation is integer and the reported
flow value is exact.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .graph import Graph, SubgraphResult, induced_stats, pad_most_neighbors, pick_best


@dataclass(frozen=True)
class FlowArc:
    """Directed arc; ``capacity=None`` means effectively infinite (the arc can
    never be part of a minimum cut)."""

    tail: int
    head: int
    capacity: Fraction | None


@dataclass(frozen=True)
class FlowNetwork:
    node_count: int
    arcs: tuple[FlowArc, ...]
    source: int
    sink: int


def flow_network(
    node_count: int,
    arcs: Iterable[tuple[int, int, Fraction | int | None]],
    source: int,
    sink: int,
) -> FlowNetwork:
    built = []
    for tail, head, cap in arcs:
        if cap is not None:
            cap = Fraction(cap)
            if cap < 0:
                raise ValueError(f"negative capacity {cap} on arc ({tail}, {head})")
        built.append(FlowArc(tail, head, cap))
    net = FlowNetwork(node_count, tuple(built), source, sink)
    _validate(net)
    return net


def _validate(net: FlowNetwork) -> None:
    if net.source == net.sink:
        raise ValueError("source and sink must differ")
    for node in (net.source, net.sink):
        if not (0 <= node < net.node_count):
            raise ValueError(f"node {node} out of range")
    for arc in net.arcs:
        for node in (arc.tail, arc.head):
            if not (0 <= node < net.node_count):
                raise ValueError(f"arc endpoint {node} out of range")


def max_flow(net: FlowNetwork) -> tuple[Fraction, frozenset[int]]:
    """Dinic's algorithm.  Returns the exact flow value and the source side of
    the canonical minimum cut (vertices reachable in the final residual
    graph); that side is the inclusion-minimal one among all minimum cuts.
    """
    _validate(net)
    scale = 1
    for arc in net.arcs:
        if arc.capacity is not None:
            scale = math.lcm(scale, arc.capacity.denominator)
    finite_total = sum(
        int(arc.capacity * scale) for arc in net.arcs if arc.capacity is not None
    )
    infinite = finite_total + 1

    # Paired residual arcs: edge 2i is forward, 2i+1 its reverse.
    heads: list[int] = []
    caps: list[int] = []
    out: list[list[int]] = [[] for _ in range(net.node_count)]
    for arc in net.arcs:
        cap = infinite if arc.capacity is None else int(arc.capacity * scale)
        out[arc.tail].append(len(heads))
        heads.append(arc.head)
        caps.append(cap)
        out[arc.head].append(len(heads))
        heads.append(arc.tail)
        caps.append(0)

    s, t = net.source, net.sink
    total = 0
    n = net.node_count
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
            if total > finite_total:
                raise ValueError(
                    "max flow exceeds all finite capacity: every s-t cut "
                    "crosses an infinite arc"
                )

    reachable = {s}
    queue = deque([s])
    while queue:
        v = queue.popleft()
        for eid in out[v]:
            w = heads[eid]
            if caps[eid] > 0 and w not in reachable:
                reachable.add(w)
                queue.append(w)
    return Fraction(total, scale), frozenset(reachable)


def max_quasi_density(G: Graph, q: Fraction | int) -> tuple[tuple[int, ...], Fraction]:
    """Maximise ``|E(S)| - q*|S|`` over all vertex sets, exactly, via a single
    min-cut on a project-selection network.

    Network: source -> one node per edge (capacity 1), edge node -> both
    endpoint nodes (infinite), vertex node -> sink (capacity ``q``).  The
    optimum value is ``m - mincut`` and the optimiser is read off the source
    side of the cut.  Requires ``q > 0``.
    """
    q = Fraction(q)
    if q <= 0:
        raise ValueError(f"penalty q must be positive, got {q}")
    m, n = G.m, G.n
    source = 0
    sink = 1 + m + n
    arcs: list[tuple[int, int, Fraction | None]] = []
    for i, (u, v) in enumerate(G.edges):
        arcs.append((source, 1 + i, Fraction(1)))
        arcs.append((1 + i, 1 + m + u, None))
        arcs.append((1 + i, 1 + m + v, None))
    for v in range(n):
        arcs.append((1 + m + v, sink, q))
    net = flow_network(2 + m + n, arcs, source, sink)
    flow, side = max_flow(net)
    chosen = tuple(sorted(v for v in range(n) if (1 + m + v) in side))
    value = Fraction(m) - flow
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
