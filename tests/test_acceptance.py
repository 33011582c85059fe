"""Release gate: twelve numbered end-to-end checks.  The terminal summary
hook in conftest prints one PASS/FAIL line per criterion.

Each check pins its tolerance inline and verifies against an oracle computed
by an independent route (bitmask sweeps, vertex enumeration, closed forms).
The stochastic ones run on seeded streams, so reruns are reproducible."""

from __future__ import annotations

import functools
import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from densek.damks import (
    LP_SCREEN_TOL,
    a6_damks,
    build_damks_lp,
    distance_layers,
)
from densek.exact import ProblemKind, exact_solve
from densek.fkp import ALGO_NAMES
from densek.flow import dalks_2approx
from densek.graph import (
    Graph,
    better_than,
    doubling_ladder,
    gnp_graph,
    graph_from_edges,
    induced_stats,
)
from densek.ratio import error_bound
from densek.reduction import dalks_gadget, dks_via_damks, fixing_trim
from densek.rng import derive_rng
from densek.simplex import OPTIMAL, solve_lp
from helpers import (
    best_density_at_least,
    combined_dks,
    best_density_at_most,
    best_edges_by_size,
    connected_random_graph,
    count_induced_edges,
    dalks_every_guess,
    min_degree_core,
    oracle_damks,
    random_box_lp,
    round_once,
    solve_general,
    vertex_enum_optimum,
    walk_count_matrix,
)


def skewed_graph(rng: random.Random, n_lo: int, n_hi: int) -> Graph:
    """Random graph biased toward the small end of [n_lo, n_hi] so that the
    exhaustive oracles stay fast while the range is still exercised."""
    span = n_hi - n_lo
    n = n_lo + min(rng.randint(0, span), rng.randint(0, span))
    p = rng.uniform(0.2, 0.8) if n <= 9 else rng.uniform(0.15, 0.45)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return graph_from_edges(n, edges)


@functools.lru_cache(maxsize=None)
def analysis_record(setname: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-m", "densek", "analyze", "--delta", "0.001",
         "--set", setname],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[0])


def test_criterion_01_grid_fkp5():
    rec = analysis_record("fkp5")
    assert 0.3182 <= rec["max_exponent"] <= 0.3227
    assert rec["evaluations"] > 2 * 10**8


def test_criterion_02_grid_a6combo():
    rec = analysis_record("a6combo")
    assert 0.3114 <= rec["max_exponent"] <= 0.3159
    assert rec["max_exponent"] < analysis_record("fkp5")["max_exponent"]


def test_criterion_03_error_bound_value():
    value = error_bound(0.00001)
    assert abs(value - (13.0 / 3.0) * 0.00001) <= 1e-9
    assert round(value, 7) == 0.0000433


def test_criterion_04_dalks_factor_two():
    rng = random.Random("criterion-04")
    violations = []
    for g in range(200):
        G = skewed_graph(rng, 4, 14)
        profile = best_edges_by_size(G)
        cuts: dict = {}
        for k in range(1, G.n + 1):
            res = dalks_2approx(G, k)
            assert res == dalks_every_guess(G, k, cuts)
            assert len(res.vertices) >= k
            opt = best_density_at_least(profile, k)
            if Fraction(4 * res.edge_count, len(res.vertices)) < opt:
                violations.append((g, k))
    assert violations == []


def test_criterion_05_driver_quarter():
    rng = random.Random("criterion-05")
    instances = 0
    violations = []
    while instances < 200:
        G = skewed_graph(rng, 4, 12)
        profile = best_edges_by_size(G)
        for k in range(1, G.n + 1):
            instances += 1
            res = dks_via_damks(G, k, oracle_damks)
            assert len(res.vertices) == k
            if 4 * res.edge_count < profile[k]:
                violations.append((G.edges, k))
    assert violations == []


def test_criterion_06_fixing_weight_floor():
    rng = random.Random("criterion-06")
    for trial in range(500):
        G = skewed_graph(rng, 3, 10)
        if G.n < 2:
            continue
        s = rng.randint(2, G.n)
        chosen = tuple(sorted(rng.sample(range(G.n), s)))
        k = rng.randint(1, s - 1)
        if trial % 2:
            weights = {
                e: Fraction(rng.randint(1, 10), rng.randint(1, 3))
                for e in G.edges
            }
        else:
            weights = None
        kept = fixing_trim(G, chosen, k, weights=weights)
        assert len(kept) == k

        def weight_of(vertices):
            inside = set(vertices)
            total = Fraction(0)
            for u, v in G.edges:
                if u in inside and v in inside:
                    total += weights[(u, v)] if weights else Fraction(1)
            return total

        before, after = weight_of(chosen), weight_of(kept)
        assert after * s * (s - 1) >= before * k * (k - 1)


def test_criterion_07_hardness_gadget():
    rng = random.Random("criterion-07")
    for _ in range(20):
        n = 5
        p = rng.uniform(0.3, 0.8)
        G = graph_from_edges(
            n,
            [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < p
            ],
        )
        k = rng.randint(1, n)
        profile = best_edges_by_size(G)
        Gp, kp = dalks_gadget(G, k)
        best = exact_solve(Gp, kp, ProblemKind.AT_LEAST_K)
        chosen = set(best.vertices)
        clique = set(range(n, 4 * n))
        assert clique <= chosen
        rest = sorted(chosen - clique)
        assert len(rest) == k
        assert count_induced_edges(G, rest) == profile[k]


def test_criterion_08_walk_count_floor():
    W5 = walk_count_matrix(
        graph_from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]), 5
    )
    assert W5[0][1] == 61
    assert max(W5[u][v] for u in range(4) for v in range(4)) == 61

    rng = random.Random("criterion-08")
    for _ in range(100):
        G = connected_random_graph(rng, 2, 12)
        for length in (2, 3, 5):
            W = walk_count_matrix(G, length)
            top = max(W[u][v] for u in range(G.n) for v in range(G.n))
            assert top * G.n ** (length + 1) >= (2 * G.m) ** length


def test_criterion_09_lp_oracle_agreement():
    rng = random.Random("criterion-09")
    for _ in range(20):
        lp = random_box_lp(rng)
        sol = solve_general(lp)
        status, best, _ = vertex_enum_optimum(lp)
        assert sol.status == status
        if status == OPTIMAL:
            assert abs(sol.objective - best) <= 1e-7

    examples = [
        (graph_from_edges(4, [(0, 1), (0, 2), (0, 3)]), 1, 2.0),
        (graph_from_edges(2, [(0, 1)]), 1, 2.0),
        (graph_from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]), 3, 4.0),
    ]
    for G, gamma, want in examples:
        sol = solve_lp(build_damks_lp(G, 0, gamma))
        assert sol.status == OPTIMAL
        assert abs(sol.objective - want) <= 1e-7


def test_criterion_10_relaxation_screen():
    rng = random.Random("criterion-10")
    violations = []
    for _ in range(40):
        G = skewed_graph(rng, 3, 14)
        profile = best_edges_by_size(G)
        for k in range(1, G.n + 1):
            d_am = best_density_at_most(profile, k)
            if d_am < 2:
                continue
            gamma = max(g for g in doubling_ladder(G.n) if g <= d_am / 2)
            witness = exact_solve(G, k, ProblemKind.AT_MOST_K).vertices
            core = min_degree_core(G, witness, d_am / 2)
            roots = list(core) + [v for v in range(G.n) if v not in set(core)]
            found = False
            for root in roots:
                if not G.adjacency[root]:
                    continue
                sol = solve_lp(build_damks_lp(G, root, gamma))
                if sol.status == OPTIMAL and sol.objective <= k + LP_SCREEN_TOL:
                    found = True
                    break
            if not found:
                violations.append((G.edges, k, gamma))
    assert violations == []


def test_criterion_11_a6_sanity():
    rng = random.Random("criterion-11")
    for i in range(100):
        G = skewed_graph(rng, 3, 14)
        k = rng.randint(1, G.n)
        res = a6_damks(G, k, seed=1000 + i, reps=4 * G.n)
        assert 1 <= len(res.vertices) <= k
        assert count_induced_edges(G, res.vertices) == res.edge_count
        if i % 4 == 0 and k >= 1:
            with_a6 = combined_dks(G, k, seed=i, include=ALGO_NAMES, a6_reps=4 * G.n)
            without = combined_dks(
                G, k, seed=i, include=("a1", "a2", "a3", "a4", "a5")
            )
            assert not better_than(without, with_a6)

    # rounding expectation identities: realised layer masses and window
    # edge counts agree with the independent-coins model at 3 sigma
    fixed = [
        (
            "petersen",
            graph_from_edges(
                10,
                [(i, (i + 1) % 5) for i in range(5)]
                + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                + [(i, i + 5) for i in range(5)],
            ),
            0,
            [((i * 7) % 10 + 1) / 11 for i in range(10)],
        ),
        (
            "clique-pair",
            graph_from_edges(
                6,
                [(u, v) for u in range(4) for v in range(u + 1, 4)] + [(4, 5)],
            ),
            1,
            [1.0, 1.0, 0.5, 0.25, 0.75, 0.3],
        ),
    ]
    trials = 10_000
    for name, G, root, y in fixed:
        layers = distance_layers(G, root)
        rng_r = derive_rng("criterion-11", "rounding", name)
        layer_totals = [0] * 4
        edge_total = 0
        for _ in range(trials):
            out = round_once(G, layers, y, rng_r)
            s1 = set(out.s1)
            for idx in range(3):
                layer_totals[idx] += len(s1 & layers[idx])
            layer_totals[3] += len(set(out.s2) & layers[3])
            edge_total += count_induced_edges(G, out.s1)

        for idx in range(4):
            mass = sum(y[v] for v in layers[idx])
            var = sum(y[v] * (1.0 - y[v]) for v in layers[idx])
            slack = 3.0 * (trials * var) ** 0.5 + 1e-9
            assert abs(layer_totals[idx] - trials * mass) <= slack, (name, idx)

        window = sorted(layers[0] | layers[1] | layers[2])
        inside = set(window)
        w_edges = [e for e in G.edges if e[0] in inside and e[1] in inside]
        mean_e = sum(y[u] * y[v] for u, v in w_edges)
        var_e = sum(y[u] * y[v] * (1.0 - y[u] * y[v]) for u, v in w_edges)
        for u, v in w_edges:
            for x, w in w_edges:
                if (u, v) >= (x, w):
                    continue
                shared = {u, v} & {x, w}
                if len(shared) == 1:
                    s = shared.pop()
                    others = ({u, v} | {x, w}) - {s}
                    a, b = others
                    var_e += 2.0 * y[s] * y[a] * y[b] * (1.0 - y[s])
        slack = 3.0 * (trials * var_e) ** 0.5 + 1e-9
        assert abs(edge_total - trials * mean_e) <= slack, name


def test_criterion_12_determinism():
    G = gnp_graph(12, 0.4, 77)

    def run_once() -> bytes:
        rng = random.Random("criterion-12")
        out = []
        for i in range(10):
            H = skewed_graph(rng, 3, 12)
            k = rng.randint(1, H.n)
            out.append(a6_damks(H, k, seed=i, reps=2 * H.n))
            out.append(combined_dks(H, k, seed=i))
            out.append(dalks_2approx(H, k))
        out.append(a6_damks(G, 5, seed=9))
        return json.dumps(
            [[r.vertices, r.edge_count, r.average_degree] for r in out]
        ).encode()

    assert run_once() == run_once()

    gen = [
        sys.executable, "-m", "densek", "gen", "-n", "14", "-p", "0.5",
        "--seed", "123",
    ]
    first = subprocess.run(gen, capture_output=True, check=True).stdout
    second = subprocess.run(gen, capture_output=True, check=True).stdout
    assert first == second
