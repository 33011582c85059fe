"""The exhaustive densest-subgraph solver used as ground truth by the
heuristics, for the exactly-k, at-least-k and at-most-k constraints.

Subset enumeration walks a Gray code over bitmask vertex sets so each step
flips one vertex and updates the induced edge count from a precomputed
adjacency mask in O(1) big-int operations.  All density comparisons are done
in exact integer arithmetic.
"""

from __future__ import annotations

from enum import Enum

from .graph import Graph, SubgraphResult

DEFAULT_ENUMERATION_CAP = 24


class ProblemKind(str, Enum):
    """Which cardinality constraint the subgraph objective carries."""

    EXACTLY_K = "exactly-k"
    AT_LEAST_K = "at-least-k"
    AT_MOST_K = "at-most-k"


class EnumerationCapError(ValueError):
    """Instance too large for exhaustive subset enumeration."""


def _adjacency_masks(G: Graph) -> list[int]:
    masks = [0] * G.n
    for u, v in G.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _mask_lex_less(a: int, b: int) -> bool:
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


def _mask_to_tuple(mask: int) -> tuple[int, ...]:
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def exact_solve(
    G: Graph,
    k: int,
    kind: ProblemKind = ProblemKind.EXACTLY_K,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> SubgraphResult:
    """Maximum-average-degree vertex set under the ``kind`` size constraint.

    Ties are broken toward larger edge count, then the lexicographically
    smallest vertex tuple.  The empty set (average degree 0) is a legal
    candidate whenever the size constraint admits it.
    """
    kind = ProblemKind(kind)
    if G.n > cap:
        raise EnumerationCapError(
            f"n={G.n} exceeds the enumeration cap {cap}; refusing 2^{G.n} subsets"
        )
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
        # Cross-multiplied average-degree comparison; an empty set has
        # edge count 0 and denominator 1, so the substitution below is exact.
        lhs = ec * (best_size if best_size else 1)
        rhs = best_ec * (size if size else 1)
        if lhs > rhs:
            best_ec, best_size, best_mask = ec, size, cur
        elif lhs == rhs:
            if ec > best_ec:
                best_ec, best_size, best_mask = ec, size, cur
            elif ec == best_ec and _mask_lex_less(cur, best_mask):
                best_ec, best_size, best_mask = ec, size, cur

    if not have_best:  # pragma: no cover - legal[] always admits some size
        raise RuntimeError("no feasible subset size")
    verts = _mask_to_tuple(best_mask)
    avg = 0.0 if not verts else 2.0 * best_ec / len(verts)
    return SubgraphResult(verts, best_ec, avg)
