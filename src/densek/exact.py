"""The exhaustive densest-subgraph solver used as ground truth by the
heuristics, for the exactly-k, at-least-k and at-most-k constraints.

One pass scores every vertex subset of every size.  The vertices split into
a low block ``0..b-1`` (``b = min(n, LOW_BITS)``) and a high block.  numpy
tables hold, for all ``2^b`` low masks ``L``, the induced edge count of ``L``
and, per high vertex ``v``, the number of ``v``'s neighbours in ``L``.  A
Gray code then walks the ``2^(n-b)`` high masks ``H``: each step adds or
subtracts one high vertex's table in place, so one vector holds the edge
count of ``L + H`` for every ``L``, and one ``np.maximum.reduceat`` over the
low masks grouped by popcount gives every size's best.  Ties within a size
go to the lexicographically smallest vertex tuple, which for sets of equal
size is the one with the largest bit-reversed mask, so a single int64 key
``edges << n | reversed mask`` ranks them.  The per-size bests are then
ranked by :func:`graph.pick_best`.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .graph import Graph, SubgraphResult, check_k, pick_best

DEFAULT_ENUMERATION_CAP = 24
# Vertices in the low block, whose 2^LOW_BITS masks each numpy table spans.
LOW_BITS = 12
# Largest n whose keys edges << n | mask fit in int64: with at most
# n(n-1)/2 edges, (n(n-1)/2 + 1) * 2^n must not exceed 2^63.
MAX_KEY_VERTICES = 52


class ProblemKind(str, Enum):
    """Which cardinality constraint the subgraph objective carries; the
    values are the problem names of the command line and its records."""

    EXACTLY_K = "dks"
    AT_LEAST_K = "dalks"
    AT_MOST_K = "damks"

    def sizes(self, k: int, n: int) -> range:
        """The set sizes the constraint admits for ``k`` in an ``n``-vertex
        graph."""
        if self is ProblemKind.EXACTLY_K:
            return range(k, k + 1)
        if self is ProblemKind.AT_LEAST_K:
            return range(k, n + 1)
        return range(0, k + 1)


class EnumerationCapError(ValueError):
    """Instance too large for exhaustive subset enumeration."""


def _adjacency_masks(G: Graph) -> list[int]:
    masks = [0] * G.n
    for u, v in G.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _best_key_by_size(G: Graph) -> list[int]:
    """``out[s]`` = the largest key ``edges << n | reversed mask`` over the
    ``s``-vertex subsets: the most induced edges, ties to the smallest vertex
    tuple.  ``reversed mask`` reverses the subset's n-bit mask."""
    n = G.n
    b = min(n, LOW_BITS)
    high = n - b
    adj = _adjacency_masks(G)
    masks = np.arange(1 << b, dtype=np.int64)
    # Edge count and bit-reversed mask of every low mask, built one vertex
    # at a time: the masks with top bit v are those below 2^v plus v.
    edges = np.zeros(1 << b, dtype=np.int64)
    rev = np.zeros(1 << b, dtype=np.int64)
    for v in range(b):
        half = 1 << v
        edges[half:2 * half] = edges[:half] + np.bitwise_count(masks[:half] & adj[v])
        rev[half:2 * half] = rev[:half] | (1 << (n - 1 - v))
    # Group the low masks by popcount, so one reduceat gives each size.
    sizes = np.bitwise_count(masks)
    order = np.argsort(sizes, kind="stable")
    starts = np.searchsorted(sizes[order], np.arange(b + 1))
    cur = ((edges << n) | rev)[order]
    cross = [
        (np.bitwise_count(masks & adj[v]).astype(np.int64) << n)[order]
        for v in range(b, n)
    ]
    high_adj = [adj[v] >> b for v in range(b, n)]

    best = np.full(n + 1, -1, dtype=np.int64)
    best[: b + 1] = np.maximum.reduceat(cur, starts)
    h = 0  # high mask, bit j for vertex b + j
    h_size = 0
    h_key = 0  # (edges inside h) << n | reversed bits of h's vertices
    for t in range(1, 1 << high):
        j = (t & -t).bit_length() - 1
        bit = 1 << j
        if h & bit:
            h ^= bit
            h_size -= 1
            h_key -= (high_adj[j] & h).bit_count() << n
            cur -= cross[j]
        else:
            h_key += (high_adj[j] & h).bit_count() << n
            h ^= bit
            h_size += 1
            cur += cross[j]
        h_key ^= 1 << (high - 1 - j)
        top = np.maximum.reduceat(cur, starts)
        top += h_key
        seg = best[h_size : h_size + b + 1]
        np.maximum(seg, top, out=seg)
    return best.tolist()


def exact_solve(
    G: Graph,
    k: int,
    kind: ProblemKind = ProblemKind.EXACTLY_K,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> SubgraphResult:
    """Maximum-average-degree vertex set under the ``kind`` size constraint.

    Ties are broken toward larger edge count, then the lexicographically
    smallest vertex tuple.  The empty set (average degree 0) is a legal
    candidate whenever the size constraint admits it.  Raises
    ``EnumerationCapError`` when ``G.n`` exceeds ``cap`` or
    ``MAX_KEY_VERTICES``.
    """
    kind = ProblemKind(kind)
    if G.n > cap:
        raise EnumerationCapError(
            f"n={G.n} exceeds the enumeration cap {cap}; refusing 2^{G.n} subsets"
        )
    if G.n > MAX_KEY_VERTICES:
        raise EnumerationCapError(
            f"n={G.n} exceeds {MAX_KEY_VERTICES}, the most vertices whose "
            "subset keys fit in int64"
        )
    check_k(G, k)

    n = G.n
    keys = _best_key_by_size(G)

    def result(key: int) -> SubgraphResult:
        # The key's low n bits hold the set with vertex v at bit n - 1 - v.
        verts = tuple(v for v in range(n) if key >> (n - 1 - v) & 1)
        ec = key >> n
        return SubgraphResult(verts, ec, 2.0 * ec / len(verts) if verts else 0.0)

    return pick_best(result(keys[size]) for size in kind.sizes(k, n))
