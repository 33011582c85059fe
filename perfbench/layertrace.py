"""Per-layer trace of densek, installed from outside the program.

Each traced layer function is replaced by a wrapper in every densek module
that holds a reference to it, so calls through ``module.function`` and
through names bound by ``from .module import function`` are both seen.  A
wrapper counts calls, adds up inclusive time, and subtracts the time of the
traced calls nested directly inside it to get self time.  Counts never
depend on the clock, so two traced runs of the same inputs must agree on
them byte for byte; times are kept apart from them.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs wrapped by the trace.  A pair the program no
# longer has is skipped and reported as zero.
LAYERS = (
    ("graph", "parse_edge_list"),
    ("graph", "induced_stats"),
    ("graph", "pad_most_neighbors"),
    ("simplex", "solve_lp"),
    ("damks", "a6_damks"),
    ("damks", "build_damks_lp"),
    ("damks", "distance_layers"),
    ("damks", "round_once"),
    ("reduction", "fixing_trim"),
    ("fkp", "a1_matching"),
    ("fkp", "a2_top_degrees"),
    ("fkp", "a3_neighborhoods"),
    ("fkp", "a4_edge_dense"),
    ("fkp", "a5_walks"),
    ("fkp", "combined_dks"),
    ("flow", "dalks_2approx"),
    ("flow", "dalks_guesses"),
    ("flow", "max_quasi_density"),
    ("flow", "max_flow"),
    ("exact", "exact_solve"),
    ("ratio", "grid_max_min"),
    ("cli", "main"),
)

# Reported metric -> unit; the units match BENCHMARK.json.
METRIC_UNITS = {
    "graph.parse_edge_list.s": "s",
    "graph.induced_stats.calls": "count",
    "graph.induced_stats.s": "s",
    "graph.pad_most_neighbors.s": "s",
    "simplex.solve_lp.calls": "count",
    "simplex.solve_lp.s": "s",
    "simplex.solve_lp.infeasible": "count",
    "simplex.lp_cells_mean": "cells",
    "damks.a6_damks.calls": "count",
    "damks.a6_damks.self_s": "s",
    "damks.build_damks_lp.s": "s",
    "damks.round_once.calls": "count",
    "damks.round_once.s": "s",
    "damks.lp_useful_ratio": "ratio",
    "reduction.fixing_trim.calls": "count",
    "reduction.fixing_trim.s": "s",
    "fkp.a1_matching.s": "s",
    "fkp.a2_top_degrees.s": "s",
    "fkp.a3_neighborhoods.s": "s",
    "fkp.a4_edge_dense.s": "s",
    "fkp.a5_walks.s": "s",
    "fkp.combined_dks.calls": "count",
    "fkp.combined_dks.self_s": "s",
    "flow.dalks_guesses.s": "s",
    "flow.guesses": "count",
    "flow.max_quasi_density.calls": "count",
    "flow.max_flow.s": "s",
    "flow.distinct_sets_per_cut": "ratio",
    "exact.exact_solve.s": "s",
    "exact.subsets_per_s": "1/s",
    "ratio.grid_max_min.s": "s",
    "ratio.slices": "count",
    "ratio.points_per_s": "1/s",
    "cli.main.self_s": "s",
    "trace.overhead_ratio": "ratio",
}
# Metrics that never read the clock: they must repeat exactly.
CLOCK_FREE = frozenset(
    [name for name, unit in METRIC_UNITS.items() if unit in ("count", "cells")]
    + ["damks.lp_useful_ratio", "flow.distinct_sets_per_cut"]
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Wraps the layers on ``install`` and restores them on ``uninstall``."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []
        self._cut_sets: set = set()
        self._patched: list[tuple[object, str, object]] = []
        self._after = {
            "simplex.solve_lp": self._after_solve_lp,
            "flow.dalks_guesses": self._after_dalks_guesses,
            "flow.max_quasi_density": self._after_max_quasi_density,
            "exact.exact_solve": self._after_exact_solve,
            "ratio.grid_max_min": self._after_grid_max_min,
        }

    def _wrap(self, name: str, fn):
        after = self._after.get(name)
        stack, calls = self._stack, self.calls
        total, self_time = self.total, self.self_time
        clock = time.perf_counter

        def traced(*args, **kwargs):
            calls[name] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                spent = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += spent
                total[name] += spent
                self_time[name] += spent - frame[0]
            if after is not None:
                after(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _after_solve_lp(self, args, kwargs, out) -> None:
        lp = args[0]
        self.counts["lp_cells"] += len(lp.rows) * len(lp.objective)
        if out.status == "infeasible":
            self.counts["lp_infeasible"] += 1

    def _after_dalks_guesses(self, args, kwargs, out) -> None:
        self.counts["guesses"] += len(out[0])

    def _after_max_quasi_density(self, args, kwargs, out) -> None:
        # Sets are told apart per dalks_2approx call: the same set found by
        # two calls is two useful cuts.
        self._cut_sets.add((self.calls["flow.dalks_2approx"], out[0]))

    def _after_exact_solve(self, args, kwargs, out) -> None:
        self.counts["subsets"] += 1 << args[0].n

    def _after_grid_max_min(self, args, kwargs, out) -> None:
        self.counts["slices"] += int(round(1.0 / args[0])) + 1
        self.counts["points"] += out.evaluations

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "densek" or name.startswith("densek.")]
        for mod_name, fn_name in LAYERS:
            module = importlib.import_module(f"densek.{mod_name}")
            original = getattr(module, fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, attr, original))
                        setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except ``trace.overhead_ratio``; a layer
        the workload never calls reads 0."""
        c, t, s = self.calls, self.total, self.self_time
        return {
            "graph.parse_edge_list.s": t["graph.parse_edge_list"],
            "graph.induced_stats.calls": c["graph.induced_stats"],
            "graph.induced_stats.s": t["graph.induced_stats"],
            "graph.pad_most_neighbors.s": t["graph.pad_most_neighbors"],
            "simplex.solve_lp.calls": c["simplex.solve_lp"],
            "simplex.solve_lp.s": t["simplex.solve_lp"],
            "simplex.solve_lp.infeasible": self.counts["lp_infeasible"],
            "simplex.lp_cells_mean": _ratio(self.counts["lp_cells"], c["simplex.solve_lp"]),
            "damks.a6_damks.calls": c["damks.a6_damks"],
            "damks.a6_damks.self_s": s["damks.a6_damks"],
            "damks.build_damks_lp.s": t["damks.build_damks_lp"],
            "damks.round_once.calls": c["damks.round_once"],
            "damks.round_once.s": t["damks.round_once"],
            # a6 computes the BFS layers of a (root, gamma) pair only once
            # its LP passed the screen, right before rounding it.
            "damks.lp_useful_ratio": _ratio(c["damks.distance_layers"], c["simplex.solve_lp"]),
            "reduction.fixing_trim.calls": c["reduction.fixing_trim"],
            "reduction.fixing_trim.s": t["reduction.fixing_trim"],
            "fkp.a1_matching.s": t["fkp.a1_matching"],
            "fkp.a2_top_degrees.s": t["fkp.a2_top_degrees"],
            "fkp.a3_neighborhoods.s": t["fkp.a3_neighborhoods"],
            "fkp.a4_edge_dense.s": t["fkp.a4_edge_dense"],
            "fkp.a5_walks.s": t["fkp.a5_walks"],
            "fkp.combined_dks.calls": c["fkp.combined_dks"],
            "fkp.combined_dks.self_s": s["fkp.combined_dks"],
            "flow.dalks_guesses.s": t["flow.dalks_guesses"],
            "flow.guesses": self.counts["guesses"],
            "flow.max_quasi_density.calls": c["flow.max_quasi_density"],
            "flow.max_flow.s": t["flow.max_flow"],
            "flow.distinct_sets_per_cut": _ratio(len(self._cut_sets), c["flow.max_quasi_density"]),
            "exact.exact_solve.s": t["exact.exact_solve"],
            "exact.subsets_per_s": _ratio(self.counts["subsets"], t["exact.exact_solve"]),
            "ratio.grid_max_min.s": t["ratio.grid_max_min"],
            "ratio.slices": self.counts["slices"],
            "ratio.points_per_s": _ratio(self.counts["points"], t["ratio.grid_max_min"]),
            "cli.main.self_s": s["cli.main"],
        }
