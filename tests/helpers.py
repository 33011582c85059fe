"""Shared fixtures-in-spirit: reference constructions and independent oracles
used across the test modules.  Everything here is deliberately written by a
different route than the library code it checks."""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np
import pytest

from densek.damks import build_damks_lp, core_numbers
from densek.exact import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    ProblemKind,
    _adjacency_masks,
    exact_solve,
)
from densek.fkp import (
    ALGO_NAMES,
    ALGORITHMS,
    _greedy_matching,
    a1_matching,
    a2_top_degrees,
    a3_neighborhoods,
    dks_candidates,
    walk_rows,
)
from densek.flow import max_quasi_density
from densek.graph import (
    Graph,
    SubgraphResult,
    better_than,
    check_k,
    graph_from_edges,
    induced_stats,
    induced_subgraph,
    pad_most_neighbors,
    pick_best,
    top_degree_vertices,
)
from densek.ratio import ExponentPoint, GridResult, _exponents
from densek.score import completed
from densek.simplex import OPTIMAL, LinearProgram, LpSolution, solve_lp

LESS_EQUAL = "<="
EQUAL = "="
GREATER_EQUAL = ">="


def petersen() -> Graph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5."""
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
        edges.append((i, i + 5))
    return graph_from_edges(10, edges)


def random_graph(rng: random.Random, n_lo: int, n_hi: int,
                 p_lo: float = 0.15, p_hi: float = 0.85) -> Graph:
    n = rng.randint(n_lo, n_hi)
    p = rng.uniform(p_lo, p_hi)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return graph_from_edges(n, edges)


def is_connected(G: Graph) -> bool:
    if G.n == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in G.adjacency[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == G.n


def connected_random_graph(rng: random.Random, n_lo: int, n_hi: int) -> Graph:
    while True:
        G = random_graph(rng, n_lo, n_hi, p_lo=0.25, p_hi=0.9)
        if G.n >= 1 and is_connected(G):
            return G


def subsets(items, size):
    return itertools.combinations(items, size)


def has_edge(G: Graph, u: int, v: int) -> bool:
    """Whether ``{u, v}`` is an edge of ``G``, in either order."""
    if u > v:
        u, v = v, u
    return v in G.adjacency[u]


def count_induced_edges(G: Graph, vertices) -> int:
    """Edge-list recount, independent of Graph.adjacency."""
    inside = set(vertices)
    return sum(1 for u, v in G.edges if u in inside and v in inside)


def average_degree_fraction(r: SubgraphResult) -> Fraction:
    """Exact rational average degree of a result (0 for the empty set)."""
    if not r.vertices:
        return Fraction(0)
    return Fraction(2 * r.edge_count, len(r.vertices))


def walk_count_matrix(G: Graph, length: int) -> list[list[int]]:
    """``W[u][v]`` = number of walks of exactly ``length`` edges from u to v,
    row u taken from ``fkp.walk_rows``, the counts a5 uses."""
    if length < 1:
        raise ValueError(f"walk length must be >= 1, got {length}")
    return [walk_rows(G, u, length)[length].tolist() for u in range(G.n)]


def walk_powers(G: Graph, top: int) -> list[list[list[int]]]:
    """Reference for ``fkp.walk_rows``: ``powers[l]`` (``1 <= l <= top``)
    counts walks of exactly ``l`` edges as n x n Python lists, one triple
    loop per length; entry 0 is unused.  Python integers throughout, so
    counts never overflow."""
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


def mask_lex_less(a: int, b: int) -> bool:
    """Is the sorted vertex tuple of mask ``a`` lexicographically smaller than
    that of ``b``?  Decided bitwise without materialising tuples."""
    if a == b:
        return False
    diff = a ^ b
    low = diff & -diff
    above = ~((low << 1) - 1)
    if a & low:
        # a owns the first differing vertex; a is smaller unless b has already
        # run out of vertices there (making b a strict prefix of a).
        return (b & above) != 0
    return (a & above) == 0


def mask_to_tuple(mask: int) -> tuple[int, ...]:
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def gray_exact_solve(
    G: Graph,
    k: int,
    kind: ProblemKind = ProblemKind.EXACTLY_K,
) -> SubgraphResult:
    """Reference for ``exact.exact_solve``: one Gray-code walk over every
    vertex subset, flipping one vertex per step and updating the induced edge
    count from adjacency bitmasks; same tie rules (more edges, then the
    lexicographically smallest tuple, the empty set allowed when legal)."""
    kind = ProblemKind(kind)
    if not (1 <= k <= G.n):
        raise ValueError(f"k={k} out of range for n={G.n}")

    if kind is ProblemKind.EXACTLY_K:
        legal = [size == k for size in range(G.n + 1)]
    elif kind is ProblemKind.AT_LEAST_K:
        legal = [size >= k for size in range(G.n + 1)]
    else:
        legal = [size <= k for size in range(G.n + 1)]

    adj = _adjacency_masks(G)
    # Best-so-far stored as (edge_count, size, mask); average degree compared
    # by cross multiplication, the empty set counting as 0/1.
    best_ec, best_size, best_mask = 0, 0, 0
    have_best = legal[0]

    cur = 0
    size = 0
    ec = 0
    for t in range(1, 1 << G.n):
        v = (t & -t).bit_length() - 1
        bit = 1 << v
        if cur & bit:
            cur ^= bit
            size -= 1
            ec -= (adj[v] & cur).bit_count()
        else:
            ec += (adj[v] & cur).bit_count()
            cur ^= bit
            size += 1
        if not legal[size]:
            continue
        if not have_best:
            best_ec, best_size, best_mask = ec, size, cur
            have_best = True
            continue
        lhs = ec * (best_size if best_size else 1)
        rhs = best_ec * (size if size else 1)
        if lhs > rhs:
            best_ec, best_size, best_mask = ec, size, cur
        elif lhs == rhs:
            if ec > best_ec:
                best_ec, best_size, best_mask = ec, size, cur
            elif ec == best_ec and mask_lex_less(cur, best_mask):
                best_ec, best_size, best_mask = ec, size, cur

    verts = mask_to_tuple(best_mask)
    avg = 0.0 if not verts else 2.0 * best_ec / len(verts)
    return SubgraphResult(verts, best_ec, avg)


def good_vertex_candidates_rebuild(
    G: Graph,
    layers: tuple[frozenset[int], ...],
    cut: list[tuple[int, int, int]],
    tau: float,
    k: int,
) -> list[tuple[int, ...]]:
    """Reference for ``fkp._good_vertex_candidates`` on cut edges
    ``(w, z, load)``: keep the edges whose load reaches ``tau``; while any
    remain, collect an end of the first one well connected to its outer
    layer (counted afresh from ``G``) and rebuild the list without that
    vertex's edges, or drop the edge when neither end qualifies."""
    surviving = [(w, z) for w, z, load in cut if load >= tau]
    need = math.sqrt(tau)
    side2: list[int] = []
    side3: list[int] = []
    collected = 0
    while surviving and collected < k:
        w, z = surviving[0]
        if sum(1 for t in G.adjacency[w] if t in layers[1]) >= need:
            good = w
            side2.append(w)
        elif sum(1 for t in G.adjacency[z] if t in layers[4]) >= need:
            good = z
            side3.append(z)
        else:
            surviving.pop(0)
            continue
        collected += 1
        surviving = [e for e in surviving if good not in e]
    out = []
    if side2:
        out.append(tuple(sorted(set(side2) | layers[1])))
    if side3:
        out.append(tuple(sorted(set(side3) | layers[4])))
    return out


def brute_quasi_density(
    G: Graph,
    q: Fraction | int,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[tuple[int, ...], Fraction]:
    """Maximise ``|E(S)| - q*|S|`` by enumeration, exactly.

    Ties are broken toward smaller sets, then lexicographically, which matches
    the canonical (inclusion-minimal) optimiser that the min-cut solver
    returns.
    """
    if G.n > cap:
        raise EnumerationCapError(
            f"n={G.n} exceeds the enumeration cap {cap}; refusing 2^{G.n} subsets"
        )
    q = Fraction(q)
    num, den = q.numerator, q.denominator

    adj = _adjacency_masks(G)
    best_scaled = 0  # value of the empty set, scaled by den
    best_size = 0
    best_mask = 0
    cur = 0
    size = 0
    ec = 0
    for t in range(1, 1 << G.n):
        v = (t & -t).bit_length() - 1
        bit = 1 << v
        if cur & bit:
            cur ^= bit
            size -= 1
            ec -= (adj[v] & cur).bit_count()
        else:
            ec += (adj[v] & cur).bit_count()
            cur ^= bit
            size += 1
        scaled = ec * den - num * size
        if scaled > best_scaled:
            best_scaled, best_size, best_mask = scaled, size, cur
        elif scaled == best_scaled:
            if size < best_size:
                best_scaled, best_size, best_mask = scaled, size, cur
            elif size == best_size and mask_lex_less(cur, best_mask):
                best_scaled, best_size, best_mask = scaled, size, cur
    return mask_to_tuple(best_mask), Fraction(best_scaled, den)


def exact_best_subsets(G: Graph, sizes) -> tuple[Fraction, list[tuple[int, ...]]]:
    """All optimal vertex sets by itertools enumeration (average degree as an
    exact fraction; the empty set counts as 0)."""
    best = Fraction(-1)
    out: list[tuple[int, ...]] = []
    for size in sizes:
        for combo in itertools.combinations(range(G.n), size):
            ec = count_induced_edges(G, combo)
            avg = Fraction(2 * ec, size) if size else Fraction(0)
            if avg > best:
                best = avg
                out = [combo]
            elif avg == best:
                out.append(combo)
    return best, out


def oracle_damks(G: Graph, k: int) -> SubgraphResult:
    """Exact at-most-k solver by enumeration, the plug-in the exactly-k
    driver of ``densek.reduction`` is checked with."""
    return exact_solve(G, k, ProblemKind.AT_MOST_K)


def brute_min_cut(node_count, arcs, source, sink):
    """Minimum s-t cut by enumerating source sides.

    Returns (value, sides) with every minimising side.
    """
    others = [v for v in range(node_count) if v not in (source, sink)]
    best = None
    sides = []
    for r in range(len(others) + 1):
        for extra in itertools.combinations(others, r):
            side = frozenset({source, *extra})
            value = sum(cap for tail, head, cap in arcs if tail in side and head not in side)
            if best is None or value < best:
                best = value
                sides = [side]
            elif value == best:
                sides.append(side)
    return best, sides


def reference_max_flow(node_count, arcs, source, sink):
    """Plain Dinic, the route ``flow.max_flow`` replaced, on an explicit
    ``source`` and ``sink`` node: every blocking-flow search restarts from
    the source after an augmentation, there is no pre-saturation, and the
    source side (``source`` included) comes from one more residual BFS."""
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

    s, t, n = source, sink, node_count
    total = 0
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
                v = heads[eid ^ 1]
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


def goldberg_arcs(
    G: Graph, q: Fraction, inner=(), outer=None
) -> tuple[list[tuple[int, int, int, int]], list[int], list[int]]:
    """Goldberg's density network for penalty ``q = a/b`` on the free
    vertices ``F = outer - inner`` (by default every vertex), numbered
    ``0..|F|-1`` in id order, as ``flow.max_flow``'s ``(arcs, supply,
    demand)``: edges inside ``F`` carry ``b`` both ways, each supply
    (``s -> v``) is ``b*deg_F(v) + 2b*deg_inner(v)`` and each demand
    (``v -> t``) is ``2a``."""
    a, b = q.numerator, q.denominator
    inner = set(inner)
    free = sorted(set(range(G.n) if outer is None else outer) - inner)
    index = {v: i for i, v in enumerate(free)}
    arcs = [(index[u], index[v], b, b) for u, v in G.edges if u in index and v in index]
    supply = [
        b * sum(1 for u in G.adjacency[v] if u in index)
        + 2 * b * sum(1 for u in G.adjacency[v] if u in inner)
        for v in free
    ]
    return arcs, supply, [2 * a] * len(free)


def brute_bounded_quasi_density(G: Graph, q, inner, outer) -> tuple[tuple[int, ...], Fraction]:
    """Maximise ``|E(S)| - q*|S|`` over ``inner <= S <= outer`` by trying
    every set of free vertices; the minimal optimiser is the unique smallest
    one, so ties go to smaller sets."""
    q = Fraction(q)
    inner = set(inner)
    free = sorted(set(outer) - inner)
    best = None
    for size in range(len(free) + 1):
        for extra in itertools.combinations(free, size):
            chosen = tuple(sorted(inner.union(extra)))
            value = count_induced_edges(G, chosen) - q * len(chosen)
            if best is None or value > best[1]:
                best = (chosen, value)
    return best


def pad_lowest_id(G: Graph, vertices, k: int) -> tuple[int, ...]:
    """Grow the set to exactly ``k`` vertices by adding the smallest free ids."""
    vset = set(vertices)
    if len(vset) > k:
        raise ValueError(f"set of size {len(vset)} already exceeds k={k}")
    if k > G.n:
        raise ValueError(f"k={k} exceeds n={G.n}")
    for v in range(G.n):
        if len(vset) == k:
            break
        vset.add(v)
    return tuple(sorted(vset))


def reference_completed(G: Graph, candidates, k: int) -> SubgraphResult:
    """Per-set reference for ``score.completed``: pad each candidate with
    :func:`pad_lowest_id`, score it with ``induced_stats`` and keep the best
    by ``better_than``."""
    return pick_best(induced_stats(G, pad_lowest_id(G, c, k)) for c in candidates)


def reference_neighborhood_candidates(G: Graph, k: int):
    """a3's candidates as the pair scan enumerated them: each vertex with its
    first ``k - 1`` neighbours in (-degree, id) order, then every pair
    ``u < v`` of all n^2/2 whose neighbourhoods meet, with its first
    ``k - 2`` common neighbours by id."""
    # Position of each vertex in (-degree, id) order.
    rank = [0] * G.n
    for i, v in enumerate(top_degree_vertices(G, G.n)):
        rank[v] = i
    for v in range(G.n):
        ranked = sorted(G.adjacency[v], key=rank.__getitem__)
        yield [v, *ranked[: k - 1]]
    if k >= 2:
        neigh = [set(G.adjacency[v]) for v in range(G.n)]
        for u in range(G.n):
            for v in range(u + 1, G.n):
                common = neigh[u] & neigh[v]
                if common:
                    yield [u, v, *sorted(common)[: k - 2]]


def reference_a4(G: Graph, k: int) -> SubgraphResult:
    """``fkp.a4_edge_dense`` as its per-edge loop computed it: a1, a3 and a2
    run on the induced subgraph of each edge's ``N(u) | N(v)`` at
    ``min(k, size)``, and the best of their answers and the plain a1 answer,
    each completed on ``G``."""
    check_k(G, k)
    pool = [_greedy_matching(G, k)]
    for u, v in G.edges:
        verts = set(G.adjacency[u]) | set(G.adjacency[v])
        sub, ids = induced_subgraph(G, verts)
        kk = min(k, sub.n)
        local = [a1_matching(sub, kk), a3_neighborhoods(sub, kk)]
        if kk >= ALGORITHMS["a2"][1]:
            local.append(a2_top_degrees(sub, kk))
        pool.extend([ids[x] for x in res.vertices] for res in local)
    return completed(G, pool, k)


def reference_pad_most_neighbors(G: Graph, vertices, k: int) -> tuple[int, ...]:
    """The quadratic padding ``graph.pad_most_neighbors`` replaced: each step
    scans every outside vertex for the most neighbors inside (ties to lower
    ids)."""
    vset = set(vertices)
    if len(vset) > k:
        raise ValueError(f"set of size {len(vset)} already exceeds k={k}")
    if k > G.n:
        raise ValueError(f"k={k} exceeds n={G.n}")
    inside = dict.fromkeys(range(G.n), 0)
    for v in vset:
        for u in G.adjacency[v]:
            inside[u] += 1
    while len(vset) < k:
        best = min(
            (v for v in range(G.n) if v not in vset),
            key=lambda v: (-inside[v], v),
        )
        vset.add(best)
        for u in G.adjacency[best]:
            inside[u] += 1
    return tuple(sorted(vset))


@dataclass
class GeneralLp:
    """Minimise ``objective . x`` subject to rows ``coeffs . x  <= / = / >=
    rhs`` and bounds ``lo <= x_j <= hi``: the form the oracles below read."""

    objective: list[float]
    bounds: list[tuple[float, float]]
    rows: list[tuple[list[float], str, float]] = field(default_factory=list)


def standard_form(lp: GeneralLp) -> tuple[LinearProgram, np.ndarray, np.ndarray]:
    """Rewrite ``lp`` in the dual form ``solve_lp`` takes, over ``u >= 0``
    with ``x = base + sign * u``: a variable of cost >= 0 is shifted by its
    lower bound (``u = x - lo``), one of negative cost is complemented at
    its upper bound (``u = hi - x``), so every cost ``sign * c`` is >= 0.
    Then come the ``<=`` rows, the negated ``>=`` rows and each equality as
    two ``<=`` rows, in row order, then ``u_j <= hi - lo`` for every finite
    box.  Returns the program, ``base`` and ``sign``."""
    objective = np.array(lp.objective, dtype=float)
    sign = np.where(objective < 0, -1.0, 1.0)
    base = np.array([hi if s < 0 else lo for (lo, hi), s in zip(lp.bounds, sign)])
    assert np.isfinite(base).all(), (
        "standard_form needs a finite lower bound under each cost >= 0 and a "
        "finite upper bound under each negative cost"
    )
    pairs = []
    for coeffs, relation, rhs in lp.rows:
        coeffs = np.array(coeffs, dtype=float)
        row, rhs = sign * coeffs, rhs - float(coeffs @ base)
        if relation != GREATER_EQUAL:
            pairs.append((row, rhs))
        if relation != LESS_EQUAL:
            pairs.append((-row, -rhs))
    nv = len(objective)
    for j, (low, high) in enumerate(lp.bounds):
        if math.isfinite(high - low):
            pairs.append((np.eye(nv)[j], high - low))
    rows = np.array([c for c, _ in pairs]).reshape(len(pairs), nv)
    rhs = np.array([b for _, b in pairs], dtype=float)
    return LinearProgram(sign * objective, rows, rhs), base, sign


def solve_general(lp: GeneralLp) -> LpSolution:
    """``solve_lp`` on :func:`standard_form`, mapped back to ``lp``'s
    variables and objective."""
    program, base, sign = standard_form(lp)
    sol = solve_lp(program)
    if sol.status != OPTIMAL:
        return sol
    x = base + sign * np.array(sol.x)
    return LpSolution(OPTIMAL, x.tolist(), float(np.dot(lp.objective, x)))


def highs_optimum(lp: LinearProgram) -> tuple[int, float | None]:
    """HiGHS's status code and optimum for ``lp`` (a scipy test extra)."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    ref = linprog(lp.objective, A_ub=lp.rows, b_ub=lp.rhs, bounds=(0, None), method="highs")
    return ref.status, ref.fun


def lp_feasible(lp: GeneralLp, x, tol: float = 1e-7) -> bool:
    for j, (lo, hi) in enumerate(lp.bounds):
        if x[j] < lo - tol or x[j] > hi + tol:
            return False
    for coeffs, relation, rhs in lp.rows:
        lhs = float(np.dot(coeffs, x))
        if relation == LESS_EQUAL and lhs > rhs + tol:
            return False
        if relation == GREATER_EQUAL and lhs < rhs - tol:
            return False
        if relation == EQUAL and abs(lhs - rhs) > tol:
            return False
    return True


def vertex_enum_optimum(lp: GeneralLp, tol: float = 1e-7):
    """Best objective over basic points: solve every square subsystem drawn
    from constraint hyperplanes and bound faces, keep feasible ones.  Only
    valid for LPs whose feasible set is a bounded polytope (finite boxes)."""
    nv = len(lp.objective)
    planes: list[tuple[list[float], float]] = []
    for coeffs, _, rhs in lp.rows:
        planes.append((list(coeffs), rhs))
    for j, (lo, hi) in enumerate(lp.bounds):
        unit = [0.0] * nv
        unit[j] = 1.0
        if math.isfinite(lo):
            planes.append((unit, lo))
        if math.isfinite(hi):
            planes.append((list(unit), hi))
    best = None
    best_x = None
    for combo in itertools.combinations(range(len(planes)), nv):
        A = np.array([planes[i][0] for i in combo])
        b = np.array([planes[i][1] for i in combo])
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        if not lp_feasible(lp, x, tol):
            continue
        value = float(np.dot(lp.objective, x))
        if best is None or value < best:
            best = value
            best_x = x
    if best is None:
        return "infeasible", None, None
    return "optimal", best, best_x


def random_box_lp(rng: random.Random, max_vars: int = 4) -> GeneralLp:
    """A random LP over a finite box, so the optimum sits on a vertex."""
    nv = rng.randint(1, max_vars)
    lp = GeneralLp(
        objective=[round(rng.uniform(-5, 5), 3) for _ in range(nv)],
        bounds=[
            tuple(sorted((round(rng.uniform(-4, 1), 3), round(rng.uniform(0, 5), 3))))
            for _ in range(nv)
        ],
    )
    for _ in range(rng.randint(0, 2 * nv)):
        coeffs = [round(rng.uniform(-3, 3), 3) for _ in range(nv)]
        relation = rng.choice([LESS_EQUAL, GREATER_EQUAL, EQUAL])
        rhs = round(rng.uniform(-6, 6), 3)
        if relation == EQUAL and rng.random() < 0.7:
            # Random equalities are usually infeasible over a box; anchor most
            # of them to a feasible interior point instead.
            mid = [(lo + hi) / 2.0 for lo, hi in lp.bounds]
            rhs = round(float(np.dot(coeffs, mid)), 6)
        lp.rows.append((coeffs, relation, rhs))
    return lp


def _validate_point(p: ExponentPoint) -> None:
    if not (0.0 <= p.g <= p.d <= 1.0):
        raise ValueError(f"need 0 <= g <= d <= 1, got g={p.g}, d={p.d}")
    if not (p.g <= p.K <= 1.0):
        raise ValueError(f"need g <= K <= 1, got g={p.g}, K={p.K}")


def ratio_exponent(algo: str, point: ExponentPoint) -> float | None:
    """Approximation-ratio exponent of one algorithm at one point, or None
    where the algorithm's analysis does not apply."""
    _validate_point(point)
    g, K, d = point.g, point.K, point.d
    if algo == "a1":
        return g
    if algo == "a2":
        return g - K - d + 1.0
    if algo == "a3":
        return g - 2 * g + max(K, d)
    if algo == "a4":
        return g - 3 * g + 2 * K + d / 3.0
    if algo == "a5":
        if 2 * d <= K:
            return g - min(3 * g - 1.6 * d - 0.6 * K, (5.0 * g - K - 2.0 * d) / 3.0)
        if K < 2 * d and K > d:
            return g - min(3 * g - 2 * d - 0.4 * K, (5.0 * g - 4.0 * d) / 3.0)
        return None
    if algo == "a6":
        return g - (7.0 * g - 4.0 * d - K) / 3.0
    raise ValueError(f"unknown algorithm {algo!r}")


def scalar_grid_oracle(delta: float, algos) -> tuple[float, tuple[float, float, float], int]:
    """Triple-loop reference for the lattice max-min: g outer, then d, then K,
    strict improvement only (first-attained argmax)."""
    steps = int(round(1.0 / delta))
    assert abs(steps * delta - 1.0) < delta / 2
    best = -math.inf
    arg = None
    count = 0
    for i in range(steps + 1):
        g = i * delta
        for j in range(i, steps + 1):
            d = j * delta
            for l in range(i, steps + 1):
                K = l * delta
                count += 1
                point = ExponentPoint(g=g, K=K, d=d)
                value = math.inf
                applicable = False
                for algo in sorted(algos):
                    r = ratio_exponent(algo, point)
                    if r is None:
                        continue
                    applicable = True
                    value = min(value, r)
                if applicable and value > best:
                    best = value
                    arg = (g, K, d)
    assert arg is not None
    return best, arg, count


def full_grid_max_min(delta: float, algos) -> GridResult:
    """Full-sweep reference for ``grid_max_min``: every formula over the
    whole (d, K) block of each g-slice, reduced in slice order with a strict
    ``>`` (first-attained argmax, d varying first, then K)."""
    imax = int(round(1.0 / delta))
    best = -np.inf
    best_idx = None
    evaluations = 0
    for i in range(imax + 1):
        g = i * delta
        idx = np.arange(i, imax + 1)
        d = (idx * delta)[:, None]
        K = (idx * delta)[None, :]
        shape = (idx.size, idx.size)
        r = np.full(shape, np.inf)
        if "a1" in algos:
            r = np.minimum(r, np.full(shape, g))
        if "a2" in algos:
            r = np.minimum(r, g - K - d + 1.0)
        if "a3" in algos:
            r = np.minimum(r, g - 2 * g + np.maximum(K, d))
        if "a4" in algos:
            r = np.minimum(r, g - 3 * g + 2 * K + d / 3.0)
        if "a5" in algos:
            case_wide = 2 * d <= K
            wide = g - np.minimum(3 * g - 1.6 * d - 0.6 * K, (5.0 * g - K - 2.0 * d) / 3.0)
            case_mid = (K < 2 * d) & (K > d)
            mid = g - np.minimum(3 * g - 2 * d - 0.4 * K, (5.0 * g - 4.0 * d) / 3.0)
            r = np.minimum(r, np.where(case_wide, wide, np.where(case_mid, mid, np.inf)))
        if "a6" in algos:
            r = np.minimum(r, g - (7.0 * g - 4.0 * d - K) / 3.0)
        evaluations += r.size
        masked = np.where(r < np.inf, r, -np.inf)
        j, l = np.unravel_index(int(masked.argmax()), shape)
        if masked[j, l] > best:
            best = float(masked[j, l])
            best_idx = (i, int(idx[j]), int(idx[l]))
    assert best_idx is not None
    gi, dj, kl = best_idx
    return GridResult(
        delta=delta,
        algorithms=tuple(sorted(algos)),
        max_exponent=best,
        argmax=ExponentPoint(g=gi * delta, K=kl * delta, d=dj * delta),
        evaluations=evaluations,
    )


def eight_corner_bound(i0, j0, l0, side: int, imax: int, delta: float,
                       algos: frozenset[str]) -> np.ndarray:
    """Reference for ``ratio._bound``: each formula's largest value over all
    eight corners of every box, with no use of monotonicity; the a5 rule is
    the same."""
    g_lo, d_lo, K_lo = (lo * delta for lo in (i0, j0, l0))
    g_hi, d_hi, K_hi = (np.minimum(lo + side - 1, imax) * delta for lo in (i0, j0, l0))
    corners = [
        _exponents(g, d, K, algos)
        for g in (g_lo, g_hi) for d in (d_lo, d_hi) for K in (K_lo, K_hi)
    ]
    bound = np.full(np.shape(i0), np.inf)
    for term in zip(*(terms for terms, _ in corners)):
        bound = np.minimum(bound, np.max(term, axis=0))
    if "a5" in algos:
        a5 = np.max([np.maximum(*cases) for _, cases in corners], axis=0)
        applies = (K_hi > d_lo) | (2 * d_lo <= K_hi)
        misses = (K_lo <= d_hi) & (K_lo < 2 * d_hi)
        a5 = np.where(applies, a5, -np.inf)
        bound = np.where(misses & (len(algos) > 1), bound, np.minimum(bound, a5))
    return bound


def best_edges_by_size(G: Graph) -> list[int]:
    """``out[s]`` = the most edges any s-vertex subset induces, found by a
    full bitmask sweep (edge counts build up one low bit at a time)."""
    masks = [0] * G.n
    for u, v in G.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    edge_count = [0] * (1 << G.n)
    out = [0] * (G.n + 1)
    for m in range(1, 1 << G.n):
        low = m & -m
        rest = m ^ low
        ec = edge_count[rest] + (masks[low.bit_length() - 1] & rest).bit_count()
        edge_count[m] = ec
        s = m.bit_count()
        if ec > out[s]:
            out[s] = ec
    return out


def best_density_at_least(profile: list[int], k: int) -> Fraction:
    return max(Fraction(2 * profile[s], s) for s in range(k, len(profile)))


def best_density_at_most(profile: list[int], k: int) -> Fraction:
    best = Fraction(0)
    for s in range(1, k + 1):
        best = max(best, Fraction(2 * profile[s], s))
    return best


def dalks_every_guess(
    G: Graph, k: int, cuts: dict[Fraction, tuple[int, ...]] | None = None
) -> SubgraphResult:
    """Reference for ``flow.dalks_2approx``: one min-cut per density guess
    ``2a/b`` (``0 <= a <= m``, ``k <= b <= n``) with penalty a quarter of the
    guess, each optimiser padded up to ``k``, keeping the best candidate.
    ``cuts``, a dict the caller keeps for ``G``, holds each guess's optimiser
    across calls, so the calls for every k of one graph share their cuts."""
    if not (1 <= k <= G.n):
        raise ValueError(f"k={k} out of range for n={G.n}")
    if cuts is None:
        cuts = {}
    guesses = sorted({Fraction(2 * a, b) for a in range(G.m + 1) for b in range(k, G.n + 1)})
    best: SubgraphResult | None = None
    for dhat in guesses:
        if dhat == 0:
            chosen: tuple[int, ...] = ()
        else:
            if dhat not in cuts:
                cuts[dhat] = max_quasi_density(G, dhat / 4)[0]
            chosen = cuts[dhat]
        if len(chosen) < k:
            chosen = pad_most_neighbors(G, chosen, k)
        cand = induced_stats(G, chosen)
        if best is None or better_than(cand, best):
            best = cand
    assert best is not None
    return best


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
    layers: tuple[frozenset[int], ...],
    y: Sequence[float],
    rng: random.Random,
) -> RoundingOutcome:
    """Per-rep reference for ``damks.round_batch``: independently keep vertex
    ``i`` with probability ``y_i`` over the two layer windows; the two
    samples use separate draws from ``rng``, one per vertex with
    ``0 < y_i < 1`` (``y_i >= 1`` is kept and ``y_i <= 0`` left out without
    a draw)."""
    if len(y) != G.n:
        raise ValueError(f"{len(y)} y-values for {G.n} vertices")
    window1 = sorted(layers[0] | layers[1] | layers[2])
    window2 = sorted(layers[1] | layers[2] | layers[3])

    def kept(v: int) -> bool:
        return y[v] >= 1 or (y[v] > 0 and rng.random() < y[v])

    s1 = tuple(v for v in window1 if kept(v))
    s2 = tuple(v for v in window2 if kept(v))
    d1 = induced_stats(G, s1).average_degree
    d2 = induced_stats(G, s2).average_degree
    return RoundingOutcome(s1=s1, s2=s2, d1=d1, d2=d2)


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


def min_degree_core(G: Graph, vertices, threshold: Fraction | float) -> tuple[int, ...]:
    """Largest subset of ``vertices`` whose induced minimum degree is at least
    ``threshold`` (possibly empty): the vertices of core number at least
    ``threshold``."""
    return tuple(sorted(v for v, c in core_numbers(G, vertices).items() if c >= threshold))


def dense_average_degrees(G: Graph, masks: np.ndarray) -> np.ndarray:
    """Reference for ``damks._average_degrees``: the average degree of each
    mask row's induced set through a dense n x n adjacency matrix, as
    ``rows @ A`` dotted with ``rows`` over ``rows.sum``."""
    adjacency = np.zeros((G.n, G.n))
    for u, v in G.edges:
        adjacency[u, v] = adjacency[v, u] = 1.0
    rows = masks.astype(float)
    twice_edges = np.einsum("ij,ij->i", rows @ adjacency, rows)
    sizes = rows.sum(axis=1)
    out = np.zeros(len(rows))
    np.divide(twice_edges, sizes, out=out, where=sizes > 0)
    return out


def full_damks_lp(G: Graph, root: int, gamma: float) -> LinearProgram:
    """The relaxation with every row ``damks.build_damks_lp`` leaves out:
    its rows as built, then the n rows ``y_i <= 1``.  Row 0,
    ``-y_root <= -1``, and the root's ``y_root <= 1`` row make ``y_root = 1``."""
    lp = build_damks_lp(G, root, gamma)
    n, nv = G.n, len(lp.objective)
    rows = np.vstack([lp.rows, np.eye(n, nv)])
    rhs = np.concatenate([lp.rhs, np.ones(n)])
    return LinearProgram(lp.objective.copy(), rows, rhs)


def combined_dks(
    G: Graph,
    k: int,
    seed: int = 0,
    include: Iterable[str] = ALGO_NAMES,
    a6_reps: int | None = None,
) -> SubgraphResult:
    """Best exactly-k candidate of ``fkp.dks_candidates`` over both branches
    and the selected algorithms: the answer ``densek solve`` prints as its
    ``best`` record."""
    return pick_best(
        res for _, _, res in dks_candidates(G, k, seed, include, a6_reps)
    )
