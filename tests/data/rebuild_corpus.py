#!/usr/bin/env python3
"""Rebuild ``corpus.jsonl``, the determinism corpus, next to this script.

The corpus is one JSON line per invocation of ``densek.cli.main`` (run in
process, inside one scratch directory) or per library call that no command
reaches.  A command's line holds its ``argv``, exit code, stdout lines with
``wall_time_ms`` dropped from every JSON record, stderr lines and, for
``analyze --csv``, the CSV lines.  ``tests/test_corpus.py`` replays the same
list and compares line by line, so a change that moves an output shows up as
a diff of this file naming the invocation.

Run it from anywhere:

    python tests/data/rebuild_corpus.py

and commit the rewritten file together with the change that moved it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "corpus.jsonl")

# (file, n, p, seed, the two solve k): seeded ``densek gen`` graphs.
GRAPHS = (
    ("g0.txt", 8, 0.4, 1, (1, 4)),
    ("g1.txt", 10, 0.3, 2, (2, 5)),
    ("g2.txt", 12, 0.5, 3, (3, 6)),
    ("g3.txt", 14, 0.2, 4, (3, 7)),
    ("g4.txt", 16, 0.3, 5, (4, 8)),
    ("g5.txt", 18, 0.15, 6, (5, 9)),
    ("g6.txt", 20, 0.25, 7, (4, 10)),
    ("g7.txt", 20, 0.1, 8, (6, 10)),
)
REDUCED = ("g0.txt", "g1.txt")
DRIVER_GRAPHS = ("g0.txt", "g1.txt", "g2.txt", "g3.txt")
ANALYZE_SETS = ("fkp5", "a6combo", "custom:a2,a5")
ANALYZE_DELTAS = ("0.01", "0.002")


def _invocations():
    """The corpus in order: ``("cli", argv, save_as)`` runs ``cli.main`` and
    writes its raw stdout to ``save_as`` when given; ``(call, file, k)``
    runs a library route on a graph written earlier."""
    for name, n, p, seed, _ in GRAPHS:
        yield "cli", ["gen", "-n", str(n), "-p", str(p), "--seed", str(seed)], name
    for i, (name, n, _, _, ks) in enumerate(GRAPHS):
        runs = f"{name[:-4]}-k{ks[0]}.jsonl"
        for k in ks:
            argv = ["solve", name, "-k", str(k), "--algo", "all", "--seed", str(i)]
            yield "cli", argv, runs if k == ks[0] else None
        for problem in ("dks", "dalks", "damks"):
            yield "cli", ["exact", name, "-k", str(ks[1]), "--problem", problem], None
        yield "cli", ["verify", name, runs], None
        if name in REDUCED:
            yield "cli", ["reduce", name, "-k", str(ks[1])], None
        if name in DRIVER_GRAPHS:
            yield "dks_via_damks", name, ks[1]
        for k in ks:
            yield "dalks_2approx", name, k
    for set_name in ANALYZE_SETS:
        for delta in ANALYZE_DELTAS:
            yield "cli", ["analyze", "--delta", delta, "--set", set_name, "--csv", "a.csv"], None


def _scrub(line: str) -> str:
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        return line
    if isinstance(record, dict):
        record.pop("wall_time_ms", None)
    return json.dumps(record, sort_keys=True)


def _run_cli(argv: list[str], save_as: str | None) -> dict:
    from densek import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if save_as is not None:
        with open(save_as, "w", encoding="utf-8") as handle:
            handle.write(out.getvalue())
    entry = {
        "argv": argv,
        "exit": code,
        "stdout": [_scrub(line) for line in out.getvalue().splitlines()],
        "stderr": err.getvalue().splitlines(),
    }
    if "--csv" in argv:
        with open(argv[argv.index("--csv") + 1], encoding="utf-8") as handle:
            entry["csv"] = handle.read().splitlines()
    return entry


def _run_call(call: str, name: str, k: int) -> dict:
    from densek.flow import dalks_2approx
    from densek.graph import parse_edge_list
    from densek.reduction import dks_via_damks
    from helpers import oracle_damks

    with open(name, encoding="utf-8") as handle:
        G = parse_edge_list(handle.read())
    if call == "dks_via_damks":
        res = dks_via_damks(G, k, oracle_damks)
    else:
        res = dalks_2approx(G, k)
    return {
        "call": call,
        "graph": name,
        "k": k,
        "vertices": list(res.vertices),
        "edge_count": res.edge_count,
        "average_degree": res.average_degree,
    }


def replay() -> list[str]:
    """Every corpus line, computed afresh in the current directory (which
    should be an empty scratch directory: graphs and records are written
    there)."""
    lines = []
    for item in _invocations():
        entry = _run_cli(*item[1:]) if item[0] == "cli" else _run_call(*item)
        lines.append(json.dumps(entry, sort_keys=True))
    return lines


def main() -> int:
    root = os.path.dirname(os.path.dirname(HERE))
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "tests")]
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            lines = replay()
        finally:
            os.chdir(start)
    with open(CORPUS, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} lines to {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
