"""Command-line front end.

Machine-readable results go to stdout as one JSON object per line
(``json.dumps(..., sort_keys=True)``, so identical runs are byte-identical
except for the ``wall_time_ms`` field); human-oriented notes go to stderr.
Exit codes: 0 success, 1 verification mismatch (a recounted edge count or
average degree, or a size that breaks the record's problem constraint on k),
2 usage/input errors
(including a graph file of more than ``graph.MAX_EDGES`` edges, ``solve
--reps`` past :data:`MAX_REPS`, ``reduce`` on a graph whose padded copy
would pass ``reduction.MAX_GADGET_EDGES`` edges, and ``gen`` past
``graph.MAX_GNP_PAIRS`` vertex pairs or past ``graph.MAX_EDGES`` edges,
expected or drawn), 3 refusal because an instance exceeds
the exact-enumeration cap (or the 52 vertices past which exact's int64 subset
keys would overflow).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

from . import exact, fkp, ratio, reduction
from .graph import (
    Graph,
    GraphParseError,
    check_k,
    gnp_graph,
    induced_stats,
    parse_edge_list,
    pick_best,
    serialize_edge_list,
)

USAGE_ERROR = 2
CAP_ERROR = 3
# Most a6 rounding reps ``solve --reps`` takes: 16 batches of
# ``damks.ROUND_CHUNK``.  The default of 16n reps is not held to it.
MAX_REPS = 1 << 16


def _emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")


def _note(message: str) -> None:
    sys.stderr.write(message + "\n")


def _load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_edge_list(handle.read())


def _result_record(
    rtype: str, problem: str, algorithm: str, k: int, result, params: dict,
    wall_ms: float,
) -> dict:
    return {
        "type": rtype,
        "problem": problem,
        "algorithm": algorithm,
        "k": k,
        "vertices": list(result.vertices),
        "edge_count": result.edge_count,
        "average_degree": result.average_degree,
        "params": params,
        "wall_time_ms": wall_ms,
    }


def _cmd_solve(args: argparse.Namespace) -> int:
    G = _load_graph(args.graph)
    k = args.k
    check_k(G, k)
    if args.reps is not None and not 1 <= args.reps <= MAX_REPS:
        raise ValueError(f"reps must be from 1 to {MAX_REPS} (cli.MAX_REPS), got {args.reps}")
    shared = {"seed": args.seed, "reps": args.reps}
    include = fkp.ALGO_NAMES if args.algo == "all" else (args.algo,)
    for name in include:
        _, least_k = fkp.ALGORITHMS[name]
        if k < least_k:
            if args.algo == name:
                raise ValueError(f"{name} needs k >= {least_k}, got k={k}")
            _note(f"skipping {name}: needs k >= {least_k}, got k={k}")
    runs = fkp.dks_candidates(G, k, args.seed, include, a6_reps=args.reps)
    candidates = []
    total = 0.0
    start = time.perf_counter()
    for branch, name, res in runs:
        wall = (time.perf_counter() - start) * 1000.0
        total += wall
        candidates.append(res)
        if branch == "main":
            _emit(_result_record("run", "dks", name, k, res, shared, wall))
        if args.algo != "all":
            break  # a single algorithm runs on the main branch only
        start = time.perf_counter()
    best = pick_best(candidates)
    label = "combined" if args.algo == "all" else args.algo
    _emit(_result_record("best", "dks", label, k, best, shared, total))
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    G = _load_graph(args.graph)
    start = time.perf_counter()
    res = exact.exact_solve(G, args.k, args.problem, cap=args.cap)
    wall = (time.perf_counter() - start) * 1000.0
    _emit(
        _result_record(
            "run", args.problem, "exact", args.k, res, {"cap": args.cap}, wall
        )
    )
    return 0


# The one-row ``analyze --csv`` summary: the JSON record's fields with
# ``argmax`` flattened to g, K, d and ``algorithms`` space-joined.
_CSV_COLUMNS = (
    "set", "delta", "algorithms", "max_exponent",
    "g", "K", "d", "error_bound", "evaluations",
)


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.set in ratio.RATIO_SETS:
        algos = ratio.RATIO_SETS[args.set]
    elif args.set.startswith("custom:"):
        algos = frozenset(
            name for name in args.set[len("custom:"):].split(",") if name
        )
    else:
        raise ValueError(
            f"unknown set {args.set!r}; use fkp5, a6combo or custom:a1,a2,..."
        )
    start = time.perf_counter()
    grid = ratio.grid_max_min(args.delta, algos)
    wall = (time.perf_counter() - start) * 1000.0
    record = {
        "type": "analysis",
        "set": args.set,
        "delta": grid.delta,
        "algorithms": list(grid.algorithms),
        "max_exponent": grid.max_exponent,
        "argmax": {"g": grid.argmax.g, "K": grid.argmax.K, "d": grid.argmax.d},
        "error_bound": ratio.error_bound(grid.delta),
        "evaluations": grid.evaluations,
        "wall_time_ms": wall,
    }
    _emit(record)
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, _CSV_COLUMNS, extrasaction="ignore")
            writer.writeheader()
            algorithms = " ".join(grid.algorithms)
            writer.writerow({**record, **record["argmax"], "algorithms": algorithms})
        _note(f"wrote {args.csv}")
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    G = _load_graph(args.graph)
    padded, k_prime = reduction.dalks_gadget(G, args.k)
    sys.stdout.write(serialize_edge_list(padded))
    sys.stdout.write(f"# at-least-k target: k' = {k_prime}\n")
    _note(
        f"added a {3 * G.n}-clique: n'={padded.n}, m'={padded.m}, k'={k_prime}"
    )
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.n <= 0:
        raise ValueError(f"need a positive vertex count, got {args.n}")
    G = gnp_graph(args.n, args.p, seed=args.seed)
    sys.stdout.write(serialize_edge_list(G))
    return 0


# The word a note uses for each problem's size constraint on k; the rule
# itself is ``exact.ProblemKind.sizes``.
_SIZE_WORDS = {
    exact.ProblemKind.EXACTLY_K.value: "exactly",
    exact.ProblemKind.AT_LEAST_K.value: "at least",
    exact.ProblemKind.AT_MOST_K.value: "at most",
}


def _size_breach(problem: str, k: int, size: int, n: int) -> str | None:
    """Why a record of ``size`` vertices breaks its problem's constraint on
    ``k`` in an ``n``-vertex graph, or None when it keeps it."""
    if problem not in _SIZE_WORDS:
        return f"unknown problem {problem!r}; expected one of {', '.join(_SIZE_WORDS)}"
    if not 1 <= k <= n:
        return f"k={k} out of range [1, {n}]"
    if size not in exact.ProblemKind(problem).sizes(k, n):
        return f"{size} vertices, but {problem} needs {_SIZE_WORDS[problem]} k={k}"
    return None


def _cmd_verify(args: argparse.Namespace) -> int:
    G = _load_graph(args.graph)
    checked = 0
    mismatches = 0
    with open(args.records, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                raise ValueError(f"{args.records}: line {lineno} is not JSON") from None
            if not isinstance(record, dict):
                raise ValueError(f"{args.records}: line {lineno}: not a JSON object")
            if record.get("type") not in ("run", "best") or "vertices" not in record:
                continue
            vertices = record["vertices"]
            if not (
                isinstance(vertices, list)
                and all(type(v) is int and 0 <= v < G.n for v in vertices)
                and len(set(vertices)) == len(vertices)
            ):
                raise ValueError(
                    f"{args.records}: line {lineno}: vertices must be a list of "
                    f"distinct integer ids in [0, {G.n})"
                )
            edges, avg = record.get("edge_count"), record.get("average_degree")
            if type(edges) is not int or type(avg) not in (int, float):
                raise ValueError(
                    f"{args.records}: line {lineno}: edge_count must be an integer "
                    "and average_degree a number"
                )
            problem, k = record.get("problem"), record.get("k")
            if type(problem) is not str or type(k) is not int:
                raise ValueError(
                    f"{args.records}: line {lineno}: problem must be a string and k "
                    "an integer"
                )
            checked += 1
            breach = _size_breach(problem, k, len(vertices), G.n)
            if breach:
                _note(f"line {lineno}: {breach}")
            actual = induced_stats(G, vertices)
            # written with "not <=" so that a NaN average counts as a mismatch
            wrong = actual.edge_count != edges or not abs(actual.average_degree - avg) <= 1e-9
            if wrong:
                _note(
                    f"line {lineno}: recorded {edges} edges / avg {avg}, recomputed "
                    f"{actual.edge_count} / {actual.average_degree}"
                )
            if breach or wrong:
                mismatches += 1
    _emit({"type": "verify", "checked": checked, "mismatches": mismatches})
    return 1 if mismatches else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densek",
        description="Dense-k-subgraph heuristics, exact baselines and the "
        "approximation-ratio grid analyzer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run heuristics on an exactly-k instance")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("-k", type=int, required=True, help="subgraph size")
    p.add_argument(
        "--algo", default="all", choices=[*fkp.ALGO_NAMES, "all"],
        help="which algorithm to run (default: all)",
    )
    p.add_argument("--seed", type=int, default=0, help="base random seed")
    p.add_argument(
        "--reps", type=int, default=None,
        help=f"rounding repetitions for a6, at most {MAX_REPS} (default: 16n)",
    )
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("exact", help="exhaustive baseline solver")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("-k", type=int, required=True)
    p.add_argument(
        "--problem", default="dks",
        choices=sorted(kind.value for kind in exact.ProblemKind),
        help="size constraint: exactly / at-least / at-most k",
    )
    p.add_argument(
        "--cap", type=int, default=exact.DEFAULT_ENUMERATION_CAP,
        help="refuse instances with more vertices than this "
        f"(never more than {exact.MAX_KEY_VERTICES})",
    )
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("analyze", help="worst-case ratio-exponent lattice sweep")
    p.add_argument("--delta", type=float, required=True, help="lattice step")
    p.add_argument(
        "--set", default="fkp5",
        help="fkp5 | a6combo | custom:a1,a3,... (default: fkp5)",
    )
    p.add_argument("--csv", default=None, help="also write a one-row CSV summary")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser(
        "reduce", help="pad with a 3n-clique: exactly-k becomes at-least-k'"
    )
    p.add_argument("graph", help="edge-list file")
    p.add_argument("-k", type=int, required=True)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("gen", help="sample a random graph")
    p.add_argument("-n", type=int, required=True, help="vertex count")
    p.add_argument("-p", type=float, required=True, help="edge probability")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="recheck recorded results against a graph")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("records", help="JSON-lines file written by solve/exact")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except exact.EnumerationCapError as err:
        _note(f"error: {err}")
        return CAP_ERROR
    except (GraphParseError, ValueError, OSError) as err:
        _note(f"error: {err}")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
