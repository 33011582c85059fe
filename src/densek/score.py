"""Batched exactly-k scoring of candidate vertex sets inside windows of a
graph.

A :class:`Window` is a set of a graph's vertices in local ids that keep the
graph's order.  :func:`best_in_windows` takes runs of candidate sets, each
in one window's local ids, pads every set with its window's lowest free ids
to k vertices, counts its edges inside the window and keeps the best: the
most edges, then the smallest tuple of the graph's ids.  Candidates become
numpy bool masks, scored in batches of at most ``SCORE_CELLS`` cells that
span as many runs of like width as fit.  :func:`whole` is the window that
holds every vertex, in the graph's own ids; :func:`completed`, the one
completion step of :mod:`densek.fkp`, scores candidates in it alone.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, chain, islice
from typing import Collection, Iterable, NamedTuple, Sequence

import numpy as np

from .graph import Graph, SubgraphResult, check_k

# Most cells one scoring batch holds: rows times the largest max(width + 1,
# edges) of its windows, so that neither the row masks nor the per-edge test
# grow with the number of candidates.  Each row also holds its candidate as
# a Python list, so it counts as at least ROW_CELLS cells.  At 2^20 a batch
# takes about 12 MB.
SCORE_CELLS = 1 << 20
ROW_CELLS = 64


class Window(NamedTuple):
    """Vertices ``verts`` of a graph (its ids, ascending) in local ids
    ``0..len(verts)-1``: ``adjacency`` lists each local vertex's neighbours
    inside, ascending, and ``ends`` is the flat ``(a, b)`` pairs of the
    edges inside, ``a < b``, in the graph's edge order.  a1-a3's rules read
    only ``adjacency``, so they run on a window as on a :class:`Graph`."""

    verts: Sequence[int]
    adjacency: Sequence[Sequence[int]]
    ends: Sequence[int]


def window_on(G: Graph, verts: list[int]) -> Window:
    """The window of ``G`` on ``verts`` (ascending)."""
    local = dict(zip(verts, range(len(verts))))
    adjacency = [[local[y] for y in G.adjacency[x] if y in local] for x in verts]
    ends = [c for i, nb in enumerate(adjacency) for j in nb if j > i for c in (i, j)]
    return Window(verts, adjacency, ends)


def whole(G: Graph) -> Window:
    """The window of ``G`` that holds every vertex."""
    return Window(range(G.n), G.adjacency, G.ends.reshape(-1))


def _best_padded(
    batch: list[tuple[Window, list[Collection[int]]]], k: int
) -> tuple[int, tuple[int, ...]]:
    """One batch of :func:`best_in_windows`: its best row padded to k
    inside its window, as ``(edges, G's ids)``."""
    rows = [row for _, part in batch for row in part]
    counts = [len(part) for _, part in batch]
    sizes = np.fromiter(map(len, rows), np.intp, len(rows))
    flat = np.fromiter(chain.from_iterable(rows), np.intp, int(sizes.sum()))
    # Ids are checked against the widest window; a4's rows of a smaller one
    # come from its own adjacency.
    width = max(len(window.verts) for window, _ in batch)
    if flat.size and (flat.min() < 0 or flat.max() >= width):
        bad = flat[(flat < 0) | (flat >= width)][0]
        raise ValueError(f"vertex {bad} out of range for n={width}")
    # Whole bytes of columns, at least one past the widest window: a row's
    # columns past its window are never padded in (it has enough free ids
    # inside), so the spare column stands in for a smaller window's missing
    # edges.
    mask = np.zeros((len(rows), width // 8 * 8 + 8), dtype=bool)
    mask[np.repeat(np.arange(len(rows)), sizes), flat] = True
    missing = k - mask.sum(axis=1)
    if missing.min() < 0:
        raise ValueError(f"set of size {k - missing.min()} already exceeds k={k}")
    # A free vertex is padded in when its rank among the row's free ids is
    # at most what the row is missing.
    mask |= np.cumsum(~mask, axis=1, dtype=np.int32) <= missing[:, None]
    if len(batch) == 1:
        ends = np.asarray(batch[0][0].ends, dtype=np.intp).reshape(-1, 2)
        edges = (mask[:, ends[:, 0]] & mask[:, ends[:, 1]]).sum(axis=1)
    else:
        # Every window's edges, filled up with the spare column to the most
        # edges of a window, looked up in each row's own mask by flat
        # position, one end at a time.
        per = np.array([len(window.ends) // 2 for window, _ in batch])
        ends = np.full((2, len(batch), int(per.max())), width, dtype=np.intp)
        slot = np.arange(per.sum()) - np.repeat(per.cumsum() - per, per)
        ends[:, np.repeat(np.arange(len(batch)), per), slot] = np.fromiter(
            chain.from_iterable(window.ends for window, _ in batch), np.intp, 2 * int(per.sum())
        ).reshape(-1, 2).T
        part = np.repeat(np.arange(len(batch)), counts)
        offset = (np.arange(len(rows)) * mask.shape[1])[:, None]
        flat_mask = mask.reshape(-1)
        at = ends[0][part]
        at += offset
        hits = flat_mask[at]
        np.take(ends[1], part, axis=0, out=at, mode="clip")
        at += offset
        hits &= flat_mask[at]
        edges = hits.sum(axis=1)
    # Among the rows with the most edges, the smallest tuple of G's ids
    # (local ids keep G's order inside one window), narrowed one position
    # at a time.
    top = (edges == edges.max()).nonzero()[0]
    row = top[0]
    if len(top) > 1:
        ids = mask[top].nonzero()[1].reshape(len(top), k)
        if len(batch) > 1:
            widths = [len(window.verts) for window, _ in batch]
            verts = np.fromiter(
                chain.from_iterable(window.verts for window, _ in batch), np.intp, sum(widths)
            )
            ids = verts[np.repeat(np.cumsum(widths) - widths, counts)[top, None] + ids]
        alive = np.arange(len(top))
        for column in ids.T:
            values = column[alive]
            alive = alive[values == values.min()]
            if len(alive) == 1:
                break
        row = top[alive[0]]
    verts = batch[bisect_right(list(accumulate(counts)), row) if len(batch) > 1 else 0][0].verts
    return int(edges[row]), tuple(map(verts.__getitem__, mask[row].nonzero()[0].tolist()))


def best_in_windows(
    runs: Iterable[tuple[Window, Iterable[Collection[int]]]], k: int
) -> tuple[int, tuple[int, ...]]:
    """The best of the candidates of ``runs`` (``(window, candidates)``,
    each window of at least k vertices) once each is padded with its
    window's lowest free ids to k vertices, as ``(edges, G's ids
    ascending)``.  Raises ``ValueError`` when there are no candidates.

    Every padded set has k vertices, so the best one has the most edges
    inside its window (which are its edges in G) and, among those, the
    smallest tuple of G's ids.  Candidates are padded and scored as bool
    mask batches of at most ``SCORE_CELLS`` cells (:func:`_best_padded`)
    that span as many runs of like width as fit; a run larger than a batch
    spreads over several.
    """
    bests: list[tuple[int, tuple[int, ...]]] = []
    batch: list[tuple[Window, list[Collection[int]]]] = []
    held = width = 0
    for window, candidates in runs:
        cost = max(len(window.verts) + 1, len(window.ends) // 2, ROW_CELLS)
        pending = iter(candidates)
        while True:
            room = SCORE_CELLS // max(width, cost) - held
            # Every row is scored at its batch's widest window, so a run
            # more than twice as wide or as narrow as the batch starts a new
            # one (a4's whole-graph run among its edge windows).
            if held and (room < 1 or max(width, cost) > 2 * min(width, cost)):
                bests.append(_best_padded(batch, k))
                batch, held, width = [], 0, 0
                continue
            take = max(1, room)
            part = list(islice(pending, take))
            if part:
                batch.append((window, part))
                held, width = held + len(part), max(width, cost)
            if len(part) < take:
                break
    if batch:
        bests.append(_best_padded(batch, k))
    if not bests:
        raise ValueError("no candidate results")
    # More edges, then the smaller tuple.
    return min(bests, key=lambda best: (-best[0], best[1]))


def completed(G: Graph, candidates: Iterable[Collection[int]], k: int) -> SubgraphResult:
    """The best of ``candidates``, each padded with the lowest free ids to
    exactly k, scored on ``G``: what ``pick_best`` of ``induced_stats`` over
    the padded sets returns.  This is :func:`best_in_windows` on the window
    that holds every vertex.  Raises ``ValueError`` on an id out of range,
    a set of more than k vertices, or no candidates.
    """
    check_k(G, k)
    count, verts = best_in_windows([(whole(G), candidates)], k)
    return SubgraphResult(verts, count)
