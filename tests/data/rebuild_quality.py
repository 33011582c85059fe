#!/usr/bin/env python3
"""Rebuild ``quality.jsonl``, the quality ledger, next to this script.

The ledger is one JSON line (sorted keys) per seeded ``gnp_graph`` and k:
the graph's ``n``, ``p`` and ``seed``, ``k``, the exact optimum's edge
count ``opt``, the edge count of ``best`` (the densest candidate of
``fkp.dks_candidates(G, k, 0)`` over both branches, as ``helpers.combined_dks``
returns it) and each algorithm's main-branch edge count under its own name.
An algorithm skipped below its least k has no field on that line.  All
algorithms run at their default repetitions.

The instances are the five oracle-envelope graphs ``G(12, 0.15 + 0.7*i/49)``
with seed i = 0..4 at every k, the corpus's g7 (``G(20, 0.1)``, seed 8) at
k = 10, and ``G(24, 0.15)``, seed 110, at k = 12.
``tests/test_corpus.py`` replays the same list and compares line by line,
so a change that moves an answer's quality shows up as a diff of this file.

Run it from anywhere:

    python tests/data/rebuild_quality.py

and commit the rewritten file together with the change that moved it.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
LEDGER = os.path.join(HERE, "quality.jsonl")

ENVELOPE_GRAPHS = 5

# (n, p, seed, ks): the graphs and the k each is measured at.
INSTANCES = (
    *(
        (12, 0.15 + 0.7 * i / 49, i, range(1, 13))
        for i in range(ENVELOPE_GRAPHS)
    ),
    (20, 0.1, 8, (10,)),
    (24, 0.15, 110, (12,)),
)


def replay() -> list[str]:
    """Every ledger line, computed afresh."""
    from densek.exact import exact_solve
    from densek.fkp import dks_candidates
    from densek.graph import gnp_graph, pick_best

    lines = []
    for n, p, seed, ks in INSTANCES:
        G = gnp_graph(n, p, seed)
        for k in ks:
            candidates = list(dks_candidates(G, k, 0))
            entry = {
                "n": n,
                "p": p,
                "seed": seed,
                "k": k,
                "opt": exact_solve(G, k).edge_count,
                "best": pick_best(res for _, _, res in candidates).edge_count,
            }
            for branch, algo, res in candidates:
                if branch == "main":
                    entry[algo] = res.edge_count
            lines.append(json.dumps(entry, sort_keys=True))
    return lines


def main() -> int:
    root = os.path.dirname(os.path.dirname(HERE))
    sys.path.insert(0, os.path.join(root, "src"))
    lines = replay()
    with open(LEDGER, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} lines to {LEDGER}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
