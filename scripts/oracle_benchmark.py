#!/usr/bin/env python3
"""Empirical quality sweep: the combined heuristic suite versus the exact
solver on a ladder of random instances.

For each instance we draw G(n, p) with a fixed seed, solve every k exactly
(enumeration; the default n=12 keeps that cheap), run the combined suite, and
record the density ratio combined/exact.  The headline number is the envelope:
the worst ratio across every (instance, k) with a nonzero optimum.

JSON-lines records go to stdout, progress to stderr.  The envelope for the
default arguments is the regression value pinned in the test suite.  A bad
argument (an unknown algorithm, an n past the enumeration cap, a p bound
outside [0, 1]) ends the run with exit code 2 and one line on stderr, before
any record is written.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from densek.exact import exact_solve
from densek.fkp import ALGO_NAMES, combined_dks
from densek.graph import gnp_graph


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--instances", type=int, default=50)
    ap.add_argument("--n", type=int, default=12)
    ap.add_argument("--p-lo", type=float, default=0.15)
    ap.add_argument("--p-hi", type=float, default=0.85)
    ap.add_argument("--seed-base", type=int, default=0)
    ap.add_argument(
        "--include",
        default=",".join(ALGO_NAMES),
        help="comma-separated algorithm subset (default: all)",
    )
    ap.add_argument(
        "--a6-reps",
        type=int,
        default=None,
        help="rounding repetitions for a6 (default: 16n)",
    )
    ap.add_argument(
        "--per-k",
        action="store_true",
        help="emit one record per (instance, k) instead of per instance",
    )
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return sweep(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def sweep(args) -> int:
    for flag, p in (("--p-lo", args.p_lo), ("--p-hi", args.p_hi)):
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"{flag} {p} outside [0, 1]")
    include = tuple(args.include.split(","))
    envelope: Fraction | None = None
    envelope_at = None

    for i in range(args.instances):
        if args.instances > 1:
            p = args.p_lo + (args.p_hi - args.p_lo) * i / (args.instances - 1)
        else:
            p = args.p_lo
        G = gnp_graph(args.n, p, args.seed_base + i)
        worst: Fraction | None = None
        for k in range(1, G.n + 1):
            opt = exact_solve(G, k)
            got = combined_dks(G, k, include=include, a6_reps=args.a6_reps)
            if opt.edge_count == 0:
                continue
            ratio = Fraction(got.edge_count, opt.edge_count)
            if worst is None or ratio < worst:
                worst = ratio
            if envelope is None or ratio < envelope:
                envelope = ratio
                envelope_at = {"instance": i, "p": p, "k": k}
            if args.per_k:
                print(json.dumps({
                    "type": "benchmark",
                    "instance": i,
                    "k": k,
                    "exact_avg": opt.average_degree,
                    "combined_avg": got.average_degree,
                    "ratio": float(ratio),
                }, sort_keys=True))
        if not args.per_k:
            print(json.dumps({
                "type": "benchmark",
                "instance": i,
                "p": round(p, 4),
                "edges": G.m,
                "worst_ratio": float(worst) if worst is not None else None,
            }, sort_keys=True))
        print(f"instance {i}: worst ratio {float(worst) if worst else 'n/a'}",
              file=sys.stderr)

    if envelope is None:
        print("no instance had a nonzero optimum", file=sys.stderr)
        return 1
    print(json.dumps({
        "type": "envelope",
        "min_ratio": float(envelope),
        "min_ratio_exact": [envelope.numerator, envelope.denominator],
        "at": envelope_at,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
