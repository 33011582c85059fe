"""Reference answers computed without densek.

* Bitmask enumeration of every vertex subset gives the exactly-, at-least-
  and at-most-k optima of small graphs.
* Charikar's LP relaxation of the densest-subgraph problem, solved with
  scipy's HiGHS, gives the densest set of graphs too large to enumerate; a
  level set of the LP solution certifies it exactly.
* The paper's exponents and the size of the analyzer's lattice are closed
  forms.

Run as a script, it reads a manifest written by ``run.py`` and writes one
reference record per instance, so that scipy and the enumeration arrays
never enter the measured process.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import numpy as np

# Worst-case approximation exponents from the paper: n^0.32258 for the five
# combinatorial algorithms and n^0.3159 once the LP rounding joins them.
PAPER_EXPONENTS = {"fkp5": Fraction(10, 31), "a6combo": Fraction(6, 19)}


def lattice_size(N: int) -> int:
    """Points of the analyzer's lattice for step 1/N: g-slice i holds the
    (d, K) pairs in [i, N]^2, so the total is sum_{i=0}^{N} (N - i + 1)^2."""
    return sum((N - i + 1) ** 2 for i in range(N + 1))


def lattice_error_bound(delta: float) -> float:
    """Largest gap between the lattice maximum and the continuous one: every
    ratio formula moves by at most 13/3 per unit step in (g, K, d)."""
    return 13.0 * delta / 3.0


def best_edges_by_size(n: int, edges) -> list[int]:
    """``out[s]`` = most edges induced by any s-vertex subset (bitmask sweep).

    Subsets are built one vertex at a time: the masks containing vertex b as
    their highest member add, to the count of the same mask without b, the
    neighbours of b below it.
    """
    if n > 24:
        raise ValueError(f"n={n} is too large to enumerate")
    lower = [0] * n
    for u, v in edges:
        lo, hi = min(u, v), max(u, v)
        lower[hi] |= 1 << lo
    counts = np.zeros(1, dtype=np.int16)
    sizes = np.zeros(1, dtype=np.int8)
    for b in range(n):
        prefix = np.arange(1 << b, dtype=np.int32)
        counts = np.concatenate(
            [counts, counts + np.bitwise_count(prefix & lower[b]).astype(np.int16)]
        )
        sizes = np.concatenate([sizes, sizes + 1])
    best = np.full(n + 1, -1, dtype=np.int64)
    np.maximum.at(best, sizes, counts)
    return [int(x) for x in best]


def optimum(n: int, edges, k: int, kind: str) -> Fraction:
    """Largest average degree 2|E(S)|/|S| over the sets of the given size
    class ("exactly", "at-least" or "at-most" k); the empty set counts 0."""
    best = best_edges_by_size(n, edges)
    if kind == "exactly":
        sizes = [k]
    elif kind == "at-least":
        sizes = range(k, n + 1)
    elif kind == "at-most":
        sizes = range(1, k + 1)
    else:
        raise ValueError(f"unknown size class {kind!r}")
    return max((Fraction(2 * best[s], s) for s in sizes), default=Fraction(0))


def densest_subgraph(n: int, edges) -> tuple[Fraction, int]:
    """(average degree, size) of a densest subgraph, from Charikar's LP:
    maximise sum x_e subject to x_e <= y_u, x_e <= y_v, sum y = 1, x, y >= 0.

    The LP optimum is the maximum of |E(S)|/|S|.  The largest level set
    {v : y_v >= r} that reaches it is returned, its density recounted
    exactly; a gap between the two raises, since then nothing is certified.
    """
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    m = len(edges)
    rows, cols, vals = [], [], []
    for e, (u, v) in enumerate(edges):
        for r, w in ((2 * e, u), (2 * e + 1, v)):
            rows += [r, r]
            cols += [e, m + w]
            vals += [1.0, -1.0]
    a_ub = coo_matrix((vals, (rows, cols)), shape=(2 * m, m + n)).tocsr()
    a_eq = np.concatenate([np.zeros(m), np.ones(n)])[None, :]
    res = linprog(
        c=np.concatenate([-np.ones(m), np.zeros(n)]),
        A_ub=a_ub, b_ub=np.zeros(2 * m), A_eq=a_eq, b_eq=[1.0],
        bounds=(0, None), method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"densest-subgraph LP failed: {res.message}")
    lp_value = -res.fun
    y = res.x[m:]
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    order = sorted(range(n), key=lambda v: (-y[v], v))
    inside: set[int] = set()
    count = 0
    best, best_size = Fraction(-1), 0
    for i, v in enumerate(order):
        count += sum(1 for w in adj[v] if w in inside)
        inside.add(v)
        last_of_level = i + 1 == n or y[order[i + 1]] < y[v] - 1e-9
        if last_of_level and y[v] > 1e-9:
            density = Fraction(count, len(inside))
            if density >= best:
                best, best_size = density, len(inside)
    if abs(float(best) - lp_value) > 1e-7 * max(1.0, lp_value):
        raise RuntimeError(f"no level set reaches the LP value {lp_value}")
    return 2 * best, best_size


def reference_record(inst: dict) -> dict:
    """The reference answer for one instance of the manifest."""
    n, edges, k = inst["n"], [tuple(e) for e in inst["edges"]], inst["k"]
    if inst["reference"] == "enumerate":
        opt = optimum(n, edges, k, inst["size_class"])
        return {"optimum": [opt.numerator, opt.denominator],
                "best_edges": best_edges_by_size(n, edges)[k]}
    if inst["reference"] == "densest-lp":
        opt, size = densest_subgraph(n, edges)
        if size < k:
            raise RuntimeError(
                f"densest set has {size} < k={k} vertices: the at-least-k "
                "optimum is not certified"
            )
        return {"optimum": [opt.numerator, opt.denominator], "densest_size": size}
    raise ValueError(f"unknown reference {inst['reference']!r}")


def main(argv: list[str]) -> int:
    manifest_path, out_path = argv
    with open(manifest_path, encoding="utf-8") as handle:
        instances = json.load(handle)
    records = [reference_record(inst) for inst in instances]
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(records, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
