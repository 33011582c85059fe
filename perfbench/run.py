"""Fixed-work benchmark of densek.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {solve,dalks,analyze,exact}
        --seed N --seconds S --trace {0,1}

A run makes its inputs from the workload seed, computes reference answers
in a child process (so scipy and the enumeration arrays stay out of the
measured process), times several fresh-process set-ups, and then runs a
fixed list of operations for a fixed number of rounds in this process, on
one thread.  ``--seconds`` only chooses that round count, through each
workload's nominal round cost; the run never stops on the clock, so two
runs of one seed do the same work.  Every output is checked, and the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 1`` runs the rounds once untraced
and once under the per-layer trace of ``layertrace.py`` and reports the
per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import os

# One thread, fixed before numpy is imported here or in any child.
os.environ.pop("DENSEK_THREADS", None)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import reference  # noqa: E402
from layertrace import METRIC_UNITS, Tracer  # noqa: E402

WORKLOADS = ("solve", "dalks", "analyze", "exact")
# Wall seconds of one round of each workload on a 2-vCPU x86 VM (Python
# 3.11, numpy 2.4); --seconds / this = rounds per run.  Rounds are many and
# short so that each operation's median repeat shrugs off bursts of load.
ROUND_SECONDS = {"solve": 4.9, "dalks": 2.2, "analyze": 3.9, "exact": 3.1}
SOLVE_SEED = 1  # densek's own --seed; the workload seed only shapes inputs
ANALYZE_DELTA = 0.002  # 1/delta = 500: a few seconds per sweep, not 20
ANALYZE_SETS = ("fkp5", "a6combo")
EXACT_PROBLEMS = {"dks": "exactly", "dalks": "at-least", "damks": "at-most"}
SETUP_PROBES = 7


# ---------------------------------------------------------------- inputs

def gnm_edges(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """Uniform graph with exactly m edges: G(n, p) conditioned on its edge
    count, so every seed gives operations of the same size."""
    return sorted(rng.sample(list(itertools.combinations(range(n), 2)), m))


def make_instances(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The operations of one round.  ``tiny`` shrinks them for tests."""
    def graph(tag, n, m, k, **extra):
        rng = random.Random(f"perfbench/{workload}/{seed}/{tag}")
        return {"name": tag, "n": n, "k": k, "edges": gnm_edges(rng, n, m), **extra}

    if workload == "solve":
        n, m, k, count = (8, 12, 3, 1) if tiny else (16, 34, 5, 2)
        return [graph(f"g{i}", n, m, k, reference="enumerate", size_class="exactly")
                for i in range(count)]
    if workload == "dalks":
        # Small graphs take every guess (factor 2); large ones exceed the
        # guess budget and take the doubling ladder (factor 4).
        small = (8, 12, 3) if tiny else (20, 40, 4)
        large = (160, 640, 32) if tiny else (320, 1280, 64)
        out = []
        for i in range(1 if tiny else 2):
            out.append(graph(f"small{i}", *small, reference="enumerate",
                             size_class="at-least", mode="exact-guess", factor=[1, 2]))
            out.append(graph(f"large{i}", *large, reference="densest-lp",
                             mode="ladder", factor=[1, 4]))
        return out
    if workload == "exact":
        out = []
        for i in range(1 if tiny else 2):
            k = random.Random(f"perfbench/exact/{seed}/k{i}").randint(5, 8)
            n, m = (10, 20) if tiny else (20, 50)
            base = graph(f"g{i}", n, m, k)
            for problem, size_class in EXACT_PROBLEMS.items():
                out.append({**base, "name": f"g{i}-{problem}", "file": f"g{i}",
                            "problem": problem, "reference": "enumerate",
                            "size_class": size_class})
        return out
    if workload == "analyze":
        return [{"name": s, "set": s} for s in ANALYZE_SETS]
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(instances: list[dict], workdir: str) -> list[str]:
    """Write each graph once as an edge-list file; returns the file paths."""
    os.makedirs(workdir, exist_ok=True)
    paths = {}
    for inst in instances:
        if "edges" not in inst:
            continue
        path = os.path.join(workdir, inst.get("file", inst["name"]) + ".txt")
        if path not in paths:
            lines = [f"n {inst['n']}"] + [f"{u} {v}" for u, v in inst["edges"]]
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
            paths[path] = True
        inst["path"] = path
    return list(paths)


def compute_references(instances: list[dict], workdir: str) -> list[dict | None]:
    """Reference answers from reference.py, in a child process."""
    graphs = [inst for inst in instances if "reference" in inst]
    if not graphs:
        return [None] * len(instances)
    manifest = os.path.join(workdir, "manifest.json")
    refs_path = os.path.join(workdir, "references.json")
    with open(manifest, "w", encoding="utf-8") as handle:
        json.dump(graphs, handle)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "reference.py"), manifest, refs_path],
        check=True, timeout=150,
    )
    with open(refs_path, encoding="utf-8") as handle:
        found = iter(json.load(handle))
    return [next(found) if "reference" in inst else None for inst in instances]


def time_setups(paths: list[str], count: int) -> list[float]:
    """Fresh-process set-up times: start to 'ready' after import and parse."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, *paths],
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError("set-up probe failed")
        times.append(elapsed)
    return times


# ------------------------------------------------------------ operations

def load_densek():
    """Import densek from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "densek", "__init__.py")):
        raise SystemExit(f"error: no densek package under {SRC}")
    sys.path.insert(0, SRC)
    import densek
    import densek.cli

    if not os.path.abspath(densek.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: densek imported from {densek.__file__}")
    return densek


def load_graphs(densek, instances: list[dict]) -> dict[str, object]:
    """Set-up inside the measured process: parse every input file."""
    graphs = {}
    for inst in instances:
        path = inst.get("path")
        if path and path not in graphs:
            with open(path, encoding="utf-8") as handle:
                graphs[path] = densek.graph.parse_edge_list(handle.read())
    return graphs


def run_cli(densek, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = densek.cli.main(argv)
    return code, out.getvalue()


def operation(workload: str, densek, inst: dict, graphs: dict):
    """A zero-argument call doing one operation, with its inputs bound."""
    if workload == "solve":
        argv = ["solve", "-k", str(inst["k"]), "--seed", str(SOLVE_SEED), inst["path"]]
        return lambda: run_cli(densek, argv)
    if workload == "exact":
        argv = ["exact", "-k", str(inst["k"]), "--problem", inst["problem"], inst["path"]]
        return lambda: run_cli(densek, argv)
    if workload == "analyze":
        argv = ["analyze", "--delta", str(ANALYZE_DELTA), "--set", inst["set"]]
        return lambda: run_cli(densek, argv)
    G, k = graphs[inst["path"]], inst["k"]
    return lambda: densek.flow.dalks_2approx(G, k)


def run_rounds(calls, rounds: int, between=lambda slot: None):
    """Run every call once per round, calling ``between(slot)`` before each
    round and after the last.  Returns per-op times (op index -> list over
    rounds), the outputs of the calls that succeeded and the failure count."""
    op_times, outputs, failed = [[] for _ in calls], [], 0
    for r in range(rounds):
        between(r)
        for i, call in enumerate(calls):
            start = time.perf_counter()
            try:
                out = call()
            except Exception:  # a failed operation is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                out = None
            op_times[i].append(time.perf_counter() - start)
            if out is None or (isinstance(out, tuple) and out[0] != 0):
                failed += 1
            else:
                outputs.append((i, out))
    between(rounds)
    return op_times, outputs, failed


def typical(op_times) -> list[float]:
    """Each operation's median repeat: a burst of load on a shared machine
    moves single repeats by 20% or more, either way, but seldom the median."""
    return [statistics.median(times) for times in op_times]


# ---------------------------------------------------------------- checks

def check_subgraph(inst: dict, vertices, edge_count, average_degree) -> tuple[str | None, int]:
    """Recount a reported vertex set on the benchmark's own edge list.
    Returns (problem or None, induced edges)."""
    if not isinstance(vertices, (list, tuple)) or not all(
        isinstance(v, int) and 0 <= v < inst["n"] for v in vertices
    ):
        return "vertices are not in-range integer ids", 0
    inside = set(vertices)
    if len(inside) != len(vertices):
        return "repeated vertex ids", 0
    edges = sum(1 for u, v in inst["edges"] if u in inside and v in inside)
    if edge_count != edges:
        return f"edge_count {edge_count} != recount {edges}", edges
    expected = 2.0 * edges / len(vertices) if vertices else 0.0
    if abs(average_degree - expected) > 1e-9:
        return f"average_degree {average_degree} != {expected}", edges
    return None, edges


def density(edges: int, size: int) -> Fraction:
    return Fraction(2 * edges, size) if size else Fraction(0)


def check_solve(inst, ref, out) -> tuple[list[str], float]:
    errors = []
    records = [json.loads(line) for line in out[1].splitlines() if line.strip()]
    k = inst["k"]
    exactly_k_runs = []
    for rec in records:
        if rec.get("problem") != "dks" or rec.get("k") != k:
            errors.append(f"{rec.get('type')} {rec.get('algorithm')}: wrong problem or k")
        problem, edges = check_subgraph(
            inst, rec.get("vertices"), rec.get("edge_count"), rec.get("average_degree")
        )
        if problem:
            errors.append(f"{rec.get('type')} {rec.get('algorithm')}: {problem}")
        elif rec.get("type") == "run" and len(rec["vertices"]) == k:
            exactly_k_runs.append(edges)
    bests = [rec for rec in records if rec.get("type") == "best"]
    if len(bests) != 1:
        return errors + [f"{len(bests)} best records"], 0.0
    best = bests[0]
    if errors:
        return errors, 0.0
    if len(best["vertices"]) != k:
        errors.append(f"best has {len(best['vertices'])} vertices, not k={k}")
    if best["edge_count"] > ref["best_edges"]:
        errors.append(f"best {best['edge_count']} edges > optimum {ref['best_edges']}")
    if exactly_k_runs and best["edge_count"] < max(exactly_k_runs):
        errors.append(f"best {best['edge_count']} edges < a run's {max(exactly_k_runs)}")
    return errors, best["edge_count"] / ref["best_edges"]


def check_exact(inst, ref, out) -> tuple[list[str], float]:
    records = [json.loads(line) for line in out[1].splitlines() if line.strip()]
    if len(records) != 1:
        return [f"{len(records)} records"], 0.0
    rec, k = records[0], inst["k"]
    if rec.get("problem") != inst["problem"] or rec.get("k") != k:
        return ["wrong problem or k"], 0.0
    problem, edges = check_subgraph(
        inst, rec.get("vertices"), rec.get("edge_count"), rec.get("average_degree")
    )
    if problem:
        return [problem], 0.0
    size = len(rec["vertices"])
    fits = {"exactly": size == k, "at-least": size >= k, "at-most": size <= k}
    if not fits[inst["size_class"]]:
        return [f"{size} vertices break the {inst['size_class']}-{k} constraint"], 0.0
    found, opt = density(edges, size), Fraction(*ref["optimum"])
    if found != opt:
        return [f"optimum {found} != reference {opt}"], 0.0
    return [], 1.0 if opt == 0 else float(found / opt)


def check_dalks(inst, ref, out) -> tuple[list[str], float]:
    vertices = list(out.vertices)
    problem, edges = check_subgraph(inst, vertices, out.edge_count, out.average_degree)
    if problem:
        return [problem], 0.0
    if len(vertices) < inst["k"]:
        return [f"{len(vertices)} vertices < k={inst['k']}"], 0.0
    ratio = density(edges, len(vertices)) / Fraction(*ref["optimum"])
    if ratio < Fraction(*inst["factor"]):
        return [f"density ratio {float(ratio):.4f} below {Fraction(*inst['factor'])} "
                f"({inst['mode']})"], 0.0
    return [], float(ratio)


def check_analyze(inst, ref, out) -> tuple[list[str], float]:
    records = [json.loads(line) for line in out[1].splitlines() if line.strip()]
    if len(records) != 1 or records[0].get("type") != "analysis":
        return ["expected one analysis record"], 0.0
    rec = records[0]
    paper = float(reference.PAPER_EXPONENTS[inst["set"]])
    low = paper - reference.lattice_error_bound(ANALYZE_DELTA)
    errors = []
    # 1e-12 absorbs float rounding should a lattice point hit the optimum.
    if not low <= rec["max_exponent"] <= paper + 1e-12:
        errors.append(f"lattice maximum {rec['max_exponent']} outside [{low}, {paper}]")
    expected = reference.lattice_size(round(1 / ANALYZE_DELTA))
    if rec["evaluations"] != expected:
        errors.append(f"evaluations {rec['evaluations']} != {expected}")
    return errors, rec["max_exponent"] / paper


CHECKS = {"solve": check_solve, "exact": check_exact, "dalks": check_dalks,
          "analyze": check_analyze}


def check_outputs(workload, instances, refs, outputs) -> tuple[list[str], list[float]]:
    errors, qualities = [], []
    for i, out in outputs:
        problems, quality = CHECKS[workload](instances[i], refs[i], out)
        errors += [f"{instances[i]['name']}: {p}" for p in problems]
        qualities.append(quality)
    return errors, qualities


# ------------------------------------------------------------------ main

def run(workload: str, seed: int, seconds: int, trace: bool, tiny: bool = False) -> dict:
    densek = load_densek()
    instances = make_instances(workload, seed, tiny)
    workdir = os.path.join(OUT, f"{workload}-seed{seed}{'-tiny' if tiny else ''}")
    paths = write_inputs(instances, workdir)
    refs = compute_references(instances, workdir)

    graphs = load_graphs(densek, instances)
    calls = [operation(workload, densek, inst, graphs) for inst in instances]
    rounds = max(1, round(seconds / ROUND_SECONDS[workload]))
    # Set-up probes are spread over the gaps between rounds, so that one
    # burst of load on the machine meets few of them.
    setups: list[float] = []
    per_gap = [len(range(gap, SETUP_PROBES, rounds + 1)) for gap in range(rounds + 1)]
    op_times, outputs, failed = run_rounds(
        calls, rounds, lambda gap: setups.extend(time_setups(paths, per_gap[gap]))
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    op_seconds = typical(op_times)
    ops_per_s = len(calls) / sum(op_seconds)
    attempted = rounds * len(calls)
    detail = {"rounds": rounds, "setup_times": setups, "op_times": op_times}

    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            graphs = load_graphs(densek, instances)
            calls = [operation(workload, densek, inst, graphs) for inst in instances]
            traced_times, traced_outputs, traced_failed = run_rounds(calls, rounds)
            detail["traced_op_times"] = traced_times
        finally:
            tracer.uninstall()
        outputs += traced_outputs
        failed += traced_failed
        attempted *= 2
        values = tracer.metrics()
        values["trace.overhead_ratio"] = len(calls) / sum(typical(traced_times)) / ops_per_s
    errors, qualities = check_outputs(workload, instances, refs, outputs)
    if not trace:
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": ops_per_s,
            "op_p50_s": statistics.median(op_seconds),
            "peak_rss_mb": peak_rss_mb,
            "quality_mean": statistics.fmean(qualities) if qualities else 0.0,
        }
    units = {**METRIC_UNITS, "setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s",
             "peak_rss_mb": "MB", "quality_mean": "ratio"}
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
        "detail": {**detail, "qualities": qualities},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    detail = result.pop("detail")
    os.makedirs(OUT, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as handle:
        json.dump({**result, "detail": detail}, handle, indent=1)
    for metric, entry in result["metrics"].items():
        print(f"{metric} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
