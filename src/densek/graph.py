"""Immutable simple undirected graphs plus the small toolbox the solvers share.

Graphs live on dense integer vertex ids ``0..n-1``.  Edges are stored as a
sorted tuple of ``(u, v)`` pairs with ``u < v``; parallel edges and self loops
are rejected at construction time.  :attr:`Graph.ends` is the one numpy view
of the edges, and the one place this module loads numpy, on first use.
:func:`check_k` and :func:`checked_vertices` are the one test of a valid
size ``k`` and vertex id, and :func:`graph_from_edges` the one test of a
valid edge.  :data:`ALGO_NAMES` names the six exactly-k
algorithms for every layer that lists them.

The text format accepted by :func:`parse_edge_list` is one edge per line
(``"u v"``), ``#`` starting a comment line, blank lines ignored, and an
optional ``"n <N>"`` header declaring the vertex count (needed to round-trip
isolated vertices).  Without a header the vertex count is inferred as
``max id + 1``.  Either way it may not exceed :data:`MAX_VERTICES`, and a
file holds at most :data:`MAX_EDGES` edges.
"""

from __future__ import annotations

import functools
import heapq
import random
from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    import numpy as np

# Parsed graphs hold one adjacency list per vertex id, so a single line such
# as ``0 1000000000`` must not be able to demand a billion of them.
MAX_VERTICES = 1 << 20

# Parsed edges cost about 320 bytes each (parsing 199,646 edges raised a
# fresh process's peak RSS by 62 MB), so a file may hold at most this many:
# as many as ``reduction.MAX_GADGET_EDGES``, the largest graph
# ``densek reduce`` writes.
MAX_EDGES = 1 << 18

# gnp_graph draws one random number per vertex pair in Python, so it refuses
# more pairs than this: n above 2048, and so any n past MAX_VERTICES.  At
# n = 2000 a draw with p = 0.003 took 0.11 s (CPython 3.11, 2 vCPUs).  Each
# edge costs about 300 bytes (measured at n = 1000, p = 1), so p = 1 at the
# limit would need an estimated 0.7 GB; MAX_EDGES refuses that draw first.
MAX_GNP_PAIRS = 2048 * 2047 // 2


# The six exactly-k algorithms, a1-a6, in the order ``fkp.ALGORITHMS``
# dispatches them.  They are written only here, in a module that loads no
# numpy, so that ``fkp``, ``ratio`` and the command-line parser read one
# tuple and ``cli`` lists them without loading a solver.
ALGO_NAMES = ("a1", "a2", "a3", "a4", "a5", "a6")


class GraphParseError(ValueError):
    """Malformed edge-list text, or an edge that breaks an edge rule.
    ``line`` is the 1-based offending line, or ``None`` when none is known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Graph:
    """An undirected simple graph on vertices ``0..n-1``."""

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    @functools.cached_property
    def ends(self) -> np.ndarray:
        """``G.edges`` as a read-only ``(m, 2)`` ``np.intp`` array, built on
        first use and kept in the instance ``__dict__`` (so it takes no part
        in ``==`` or ``hash``).  numpy loads here, on the first call."""
        import numpy as np

        ends = np.array(self.edges, dtype=np.intp).reshape(self.m, 2)
        ends.flags.writeable = False
        return ends

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


@dataclass(frozen=True)
class SubgraphResult:
    """A vertex set together with its induced edge count and average degree."""

    vertices: tuple[int, ...]
    edge_count: int

    @property
    def average_degree(self) -> float:
        """``2 * edge_count / |vertices|``, and 0.0 for the empty set."""
        return 2.0 * self.edge_count / len(self.vertices) if self.vertices else 0.0


def check_k(G: Graph, k: int, minimum: int = 1) -> None:
    """Raise ``ValueError`` unless ``minimum <= k <= G.n``."""
    if not (minimum <= k <= G.n):
        raise ValueError(f"k={k} out of range [{minimum}, {G.n}]")


def checked_vertices(G: Graph, vertices: Iterable[int]) -> set[int]:
    """``vertices`` as a set, after checking every id lies in ``0..n-1``."""
    vset = set(vertices)
    for v in vset:
        if not (0 <= v < G.n):
            raise ValueError(f"vertex {v} out of range for n={G.n}")
    return vset


def graph_from_edges(
    n: int, edges: Iterable[Sequence[int]], lines: Sequence[int] | None = None
) -> Graph:
    """Build a :class:`Graph`, normalising edge order; the one check of the
    four edge rules.  Each edge is checked once, in input order, for a
    negative id, then an id of ``n`` or more, a self loop, and a duplicate
    once written ``u < v``.  A broken rule raises :class:`GraphParseError`
    whose ``line`` is ``lines[i]`` for the ``i``-th edge, or ``None``
    without ``lines``.
    """
    if n < 0:
        raise ValueError(f"vertex count must be non-negative, got {n}")
    seen: set[tuple[int, int]] = set()
    norm: list[tuple[int, int]] = []
    for i, e in enumerate(edges):
        u, v = int(e[0]), int(e[1])
        if u < 0 or v < 0:
            problem = f"negative vertex id in ({u}, {v})"
        elif u >= n or v >= n:
            problem = f"edge ({u}, {v}) out of range: exceeds declared vertex count {n}"
        elif u == v:
            problem = f"self loop at vertex {u}"
        else:
            key = (u, v) if u < v else (v, u)
            if key not in seen:
                seen.add(key)
                norm.append(key)
                continue
            problem = f"duplicate edge {key}"
        raise GraphParseError(problem, None if lines is None else lines[i])
    # Sorting the input order, not the set's, costs one pass on edges that
    # come sorted, as a serialised graph's do.
    norm.sort()
    # Walking the sorted edges appends each neighbour list in increasing
    # order.  Isolated vertices share the empty tuple, so a large ``n``
    # header with few edges allocates no list per vertex.
    nbrs: defaultdict[int, list[int]] = defaultdict(list)
    for u, v in norm:
        nbrs[u].append(v)
        nbrs[v].append(u)
    adj: list[tuple[int, ...]] = [()] * n
    for v, a in nbrs.items():
        adj[v] = tuple(a)
    return Graph(n, tuple(norm), tuple(adj))


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text into a :class:`Graph`.

    Errors name the offending 1-based line.  Reading rejects malformed
    tokens and headers, counts or ids past :data:`MAX_VERTICES` and an edge
    past the first :data:`MAX_EDGES`; then :func:`graph_from_edges` applies
    the four edge rules to the whole file.  So in a file with several errors
    every reading error comes before any edge-rule error, each kind in line
    order: the first one found is reported.
    """
    declared_n: int | None = None
    pairs: list[tuple[int, int]] = []
    lines: list[int] = []
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if tokens[0] == "n":
            if len(tokens) != 2:
                raise GraphParseError("header must be 'n <count>'", lineno)
            if declared_n is not None:
                raise GraphParseError("duplicate 'n' header", lineno)
            try:
                declared_n = int(tokens[1])
            except ValueError:
                raise GraphParseError(
                    f"non-integer vertex count {tokens[1]!r}", lineno
                ) from None
            if declared_n < 0:
                raise GraphParseError(f"negative vertex count {declared_n}", lineno)
            if declared_n > MAX_VERTICES:
                raise GraphParseError(
                    f"vertex count {declared_n} exceeds the limit of {MAX_VERTICES}", lineno
                )
            continue
        if len(tokens) != 2:
            raise GraphParseError(
                f"expected two vertex ids, got {len(tokens)} tokens", lineno
            )
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphParseError(f"non-integer vertex id in {stripped!r}", lineno) from None
        if max(u, v) >= MAX_VERTICES:
            raise GraphParseError(
                f"vertex id {max(u, v)} exceeds the limit of {MAX_VERTICES} vertices", lineno
            )
        if len(pairs) == MAX_EDGES:
            raise GraphParseError(f"more than {MAX_EDGES} edges (graph.MAX_EDGES)", lineno)
        pairs.append((u, v))
        lines.append(lineno)
        max_id = max(max_id, u, v)
    return graph_from_edges(max_id + 1 if declared_n is None else declared_n, pairs, lines)


def serialize_edge_list(G: Graph) -> str:
    """Render a graph in the text format; ``parse_edge_list`` round-trips it."""
    lines = [f"n {G.n}"]
    lines.extend(f"{u} {v}" for u, v in G.edges)
    return "\n".join(lines) + "\n"


def induced_stats(G: Graph, vertices: Iterable[int]) -> SubgraphResult:
    """Edge count and average degree of the subgraph induced by ``vertices``."""
    vset = checked_vertices(G, vertices)
    count = 0
    for v in vset:
        for u in G.adjacency[v]:
            if u > v and u in vset:
                count += 1
    return SubgraphResult(tuple(sorted(vset)), count)


def better_than(a: SubgraphResult, b: SubgraphResult) -> bool:
    """True when ``a`` beats ``b``: higher average degree (compared exactly),
    then more induced edges, then lexicographically smaller vertex tuple."""
    # 2e_a/|a| against 2e_b/|b| as e_a*|b| against e_b*|a|; an empty set has
    # density 0, i.e. counts as 0 edges on 1 vertex.
    ea, sa = (a.edge_count, len(a.vertices)) if a.vertices else (0, 1)
    eb, sb = (b.edge_count, len(b.vertices)) if b.vertices else (0, 1)
    if ea * sb != eb * sa:
        return ea * sb > eb * sa
    if a.edge_count != b.edge_count:
        return a.edge_count > b.edge_count
    return a.vertices < b.vertices


def pick_best(results: Iterable[SubgraphResult]) -> SubgraphResult:
    best: SubgraphResult | None = None
    for r in results:
        if best is None or better_than(r, best):
            best = r
    if best is None:
        raise ValueError("no candidate results")
    return best


def doubling_ladder(top: int) -> list[int]:
    """The powers of two ``1, 2, 4, ...`` that are at most ``top``."""
    ladder = []
    v = 1
    while v <= top:
        ladder.append(v)
        v *= 2
    return ladder


def top_degree_vertices(G: Graph, count: int) -> tuple[int, ...]:
    """The ``count`` highest-degree vertices; degree ties go to lower ids.
    Reads only ``G.adjacency``, so it also ranks a ``score.Window``."""
    if not (0 <= count <= len(G.adjacency)):
        raise ValueError(f"count {count} out of range for n={len(G.adjacency)}")
    # A stable sort of the ids in order keeps ties in id order.
    order = sorted(range(len(G.adjacency)), key=[-len(nb) for nb in G.adjacency].__getitem__)
    return tuple(order[:count])


def induced_subgraph(G: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """The induced subgraph on ``vertices`` with ids compacted to ``0..|S|-1``.

    Returns ``(subgraph, original_ids)`` where ``original_ids[new] = old``.
    """
    old_ids = tuple(sorted(checked_vertices(G, vertices)))
    index = {old: new for new, old in enumerate(old_ids)}
    edges = [
        (index[u], index[v])
        for u, v in G.edges
        if u in index and v in index
    ]
    return graph_from_edges(len(old_ids), edges), old_ids


def remove_top_degrees(G: Graph, k: int) -> tuple[Graph, tuple[int, ...]]:
    """Drop the ``ceil(k/2)`` highest-degree vertices (ties to lower ids).

    Returns the remaining induced subgraph and its original-id map.  Requires
    that at least one vertex survives.
    """
    check_k(G, k)
    half = (k + 1) // 2
    if half >= G.n:
        raise ValueError(f"removing {half} of {G.n} vertices leaves nothing")
    removed = set(top_degree_vertices(G, half))
    keep = [v for v in range(G.n) if v not in removed]
    return induced_subgraph(G, keep)


def pad_most_neighbors(G: Graph, vertices: Iterable[int], k: int) -> tuple[int, ...]:
    """Grow the set to exactly ``k`` vertices, each time adding the outside
    vertex with the most neighbors already inside (ties to lower ids)."""
    vset = checked_vertices(G, vertices)
    if len(vset) > k:
        raise ValueError(f"set of size {len(vset)} already exceeds k={k}")
    if k > G.n:
        raise ValueError(f"k={k} exceeds n={G.n}")
    inside = [0] * G.n
    for v in vset:
        for u in G.adjacency[v]:
            inside[u] += 1
    # A lazy heap: a vertex's count only grows, so its newest entry has the
    # smallest key and pops first; older entries pop once it is inside.
    heap = [(-inside[v], v) for v in range(G.n) if v not in vset]
    heapq.heapify(heap)
    while len(vset) < k:
        _, best = heapq.heappop(heap)
        if best in vset:
            continue
        vset.add(best)
        for u in G.adjacency[best]:
            inside[u] += 1
            if u not in vset:
                heapq.heappush(heap, (-inside[u], u))
    return tuple(sorted(vset))


def gnp_graph(n: int, p: float, seed: int | str = 0) -> Graph:
    """Erdos-Renyi ``G(n, p)`` sample with a deterministic per-seed stream.

    It never returns a graph that ``parse_edge_list`` would refuse: past
    :data:`MAX_EDGES` edges, expected before drawing or drawn, it raises.
    """
    if n < 0:
        raise ValueError(f"vertex count must be non-negative, got {n}")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"edge probability {p} outside [0, 1]")
    pairs = n * (n - 1) // 2
    if pairs > MAX_GNP_PAIRS:
        raise ValueError(
            f"n={n} has {pairs} vertex pairs, over the limit of {MAX_GNP_PAIRS} "
            "(graph.MAX_GNP_PAIRS)"
        )
    if pairs * p > MAX_EDGES:
        raise ValueError(
            f"n={n}, p={p} expects {pairs * p:.0f} edges, over the limit of {MAX_EDGES} "
            "(graph.MAX_EDGES)"
        )
    rng = random.Random(f"gnp:{seed}")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    if len(edges) > MAX_EDGES:
        raise ValueError(
            f"n={n}, p={p} drew {len(edges)} edges, over the limit of {MAX_EDGES} "
            "(graph.MAX_EDGES)"
        )
    return graph_from_edges(n, edges)
