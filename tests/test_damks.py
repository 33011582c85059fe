import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densek import damks, simplex
from densek.damks import (
    LP_SCREEN_TOL,
    a6_damks,
    build_damks_lp,
    core_numbers,
    distance_layers,
    lp_pairs,
    round_batch,
)
from densek.rng import derive_rng
from densek.simplex import INFEASIBLE, OPTIMAL, solve_lp
from densek.graph import doubling_ladder, gnp_graph, graph_from_edges, induced_stats
from helpers import (
    GeneralLp,
    check_cauchy_mass,
    count_induced_edges,
    dense_average_degrees,
    full_damks_lp,
    highs_optimum,
    lp_feasible,
    min_degree_core,
    petersen,
    random_box_lp,
    round_once,
    solve_general,
    vertex_enum_optimum,
)


def complete_graph(n):
    return graph_from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


# a6_damks(gnp_graph(n, p, graph_seed), k, reps=2 * n, seed=graph_seed) as
# computed before the LP moved to standard form, before a6 drew its
# roundings in chunks, and before its LPs took the dual route and its
# roundings drew only for fractional y.
PINNED_A6 = [
    (8, 0.5, 1, 3, (0, 1, 4), 3),
    (9, 0.4, 2, 4, (0, 5, 8), 3),
    (10, 0.3, 3, 5, (0, 2, 6, 7, 8), 5),
    (10, 0.6, 4, 6, (0, 1, 2, 5, 7), 10),
    (11, 0.45, 5, 4, (0, 2, 6, 8), 4),
    (12, 0.35, 6, 7, (0, 1, 4, 5, 11), 5),
    (13, 0.3, 7, 5, (0, 3, 4), 3),
    (14, 0.4, 8, 8, (2, 5, 7, 8, 9, 10, 11, 13), 19),
]
# How many of each PINNED_A6 input's usable relaxations have a fractional y
# in a window, and so draw their roundings; the other inputs have none.
FRACTIONAL_A6 = {(10, 0.6, 4): 5, (14, 0.4, 8): 9}


class TestLpConstruction:
    def test_shape(self):
        # cell for cell against a row-by-row build of the documented layout
        G = petersen()
        n, m = G.n, G.m

        def unit(j, value=1.0):
            return [value if c == j else 0.0 for c in range(n + m)]

        rows, rhs = [unit(2, -1.0)], [-1.0]
        for i in range(n):
            row = unit(i, 3.0)
            for e, edge in enumerate(G.edges):
                if i in edge:
                    row[n + e] = -1.0
            rows.append(row)
            rhs.append(0.0)
        for e, edge in enumerate(G.edges):
            for end in edge:
                row = unit(n + e)
                row[end] = -1.0
                rows.append(row)
                rhs.append(0.0)
        lp = build_damks_lp(G, root=2, gamma=3)
        assert lp.objective.tolist() == [1.0] * n + [0.0] * m
        assert lp.rows.tolist() == rows
        assert lp.rhs.tolist() == rhs

    def test_retargeted_program_is_a_fresh_build(self):
        # a6 rewrites one program for each (root, gamma) pair; every rewrite,
        # in the order a6 makes them and in a shuffled one, must give the
        # program build_damks_lp writes for that pair, cell for cell.
        rng = random.Random("retarget")
        for G in (petersen(), gnp_graph(12, 0.4, 3), graph_from_edges(5, [(0, 1)])):
            pairs = [(r, g) for r in range(G.n) for g in doubling_ladder(G.n)]
            for order in (pairs, rng.sample(pairs, len(pairs))):
                lp = build_damks_lp(G, *order[0])
                for root, gamma in order:
                    damks._retarget(lp, G.n, root, gamma)
                    fresh = build_damks_lp(G, root, gamma)
                    for field in ("objective", "rows", "rhs"):
                        assert getattr(lp, field).tobytes() == getattr(fresh, field).tobytes()

    def test_validation(self):
        G = complete_graph(3)
        with pytest.raises(ValueError):
            build_damks_lp(G, root=3, gamma=1)
        with pytest.raises(ValueError):
            build_damks_lp(G, root=0, gamma=0)

    @pytest.mark.parametrize("G,root,gamma,want", [
        (graph_from_edges(4, [(0, 1), (0, 2), (0, 3)]), 0, 1, 2.0),
        (graph_from_edges(2, [(0, 1)]), 0, 1, 2.0),
        (complete_graph(4), 0, 3, 4.0),
        (complete_graph(4), 0, 2, 3.0),
    ])
    def test_known_optima(self, G, root, gamma, want):
        sol = solve_lp(build_damks_lp(G, root, gamma))
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(want)

    def test_isolated_root_infeasible(self):
        G = graph_from_edges(3, [(1, 2)])
        assert solve_lp(build_damks_lp(G, 0, 1)).status == INFEASIBLE

    def test_matches_scipy(self):
        rng = random.Random("damks-lp")
        for _ in range(12):
            G = gnp_graph(rng.randint(3, 7), 0.6, rng.randint(0, 99))
            root = rng.randrange(G.n)
            gamma = rng.choice([1, 2, 3])
            lp = build_damks_lp(G, root, gamma)
            sol = solve_lp(lp)
            status, optimum = highs_optimum(lp)
            if status == 0:
                assert sol.status == OPTIMAL
                assert sol.objective == pytest.approx(optimum, abs=1e-6)
            elif status == 2:
                assert sol.status == INFEASIBLE


# Graphs and k on which a two-phase primal simplex stalled or took seconds
# per LP: the (6, 8) LP of the first ran all MAX_PIVOTS pivots.
STALL_INPUTS = [((22, 0.5, 4), 16), ((24, 0.5, 2), 10), ((30, 0.25, 7), 6)]


class TestDualRoute:
    def test_full_relaxation_has_the_same_optimum(self):
        # the rows y_i <= 1 that build_damks_lp leaves out do not move the
        # optimum, which capping at 1 keeps feasible
        for root, gamma in [(0, 1), (0, 2), (3, 2)]:
            capped = solve_lp(build_damks_lp(petersen(), root, gamma))
            full = solve_lp(full_damks_lp(petersen(), root, gamma))
            assert capped.status == full.status == OPTIMAL
            assert full.objective == pytest.approx(capped.objective, abs=1e-9)

    def test_known_stall_is_solved(self):
        lp = build_damks_lp(gnp_graph(22, 0.5, 4), 6, 8)
        status, optimum = highs_optimum(lp)
        sol = solve_lp(lp)
        assert status == 0 and sol.status == OPTIMAL
        assert sol.objective == pytest.approx(optimum, abs=1e-6)

    @pytest.mark.parametrize("dantzig_limit", [simplex.DANTZIG_LIMIT, 0])
    def test_matches_highs_on_stall_inputs(self, monkeypatch, dantzig_limit):
        # A seeded sample of each input's lp_pairs, under Dantzig's rule and
        # under Bland's rule from the first pivot.  Every optimum capped at 1
        # must be an optimum of the full relaxation, with its y <= 1 rows.
        monkeypatch.setattr(simplex, "DANTZIG_LIMIT", dantzig_limit)
        rng = random.Random("dual-route")
        for args, k in STALL_INPUTS:
            G = gnp_graph(*args)
            for root, gamma in rng.sample(lp_pairs(G, k), 5):
                lp = build_damks_lp(G, root, gamma)
                status, optimum = highs_optimum(lp)
                sol = solve_lp(lp)
                assert status == 0 and sol.status == OPTIMAL, (args, root, gamma)
                assert sol.objective == pytest.approx(optimum, abs=1e-6)
                capped = np.minimum(sol.x, 1.0)
                simplex._verify_feasible(full_damks_lp(G, root, gamma), capped)
                assert capped[: G.n].sum() == pytest.approx(optimum, abs=1e-6)

    @pytest.mark.parametrize("dantzig_limit", [simplex.DANTZIG_LIMIT, 0])
    def test_random_boxes_with_nonnegative_costs(self, monkeypatch, dantzig_limit):
        # Box LPs with costs >= 0, which standard_form shifts by their lower
        # bounds and does not complement.
        monkeypatch.setattr(simplex, "DANTZIG_LIMIT", dantzig_limit)
        rng = random.Random("dual-boxes")
        statuses = set()
        for _ in range(80):
            lp = random_box_lp(rng)
            lp = GeneralLp([abs(c) for c in lp.objective], lp.bounds, lp.rows)
            sol = solve_general(lp)
            status, best, _ = vertex_enum_optimum(lp)
            assert sol.status == status
            statuses.add(status)
            if status == OPTIMAL:
                assert sol.objective == pytest.approx(best, abs=1e-6)
                assert lp_feasible(lp, sol.x, tol=1e-6)
        assert statuses == {OPTIMAL, INFEASIBLE}


class TestDistanceLayers:
    def test_path(self):
        P5 = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        L = distance_layers(P5, 0)
        assert [sorted(s) for s in L] == [[0], [1], [2], [3]]
        assert L[0] == frozenset({0}) and L[3] == frozenset({3})
        # vertex 4 sits at distance 4 and is outside every tracked layer
        assert all(4 not in s for s in L)

    def test_disconnected(self):
        G = graph_from_edges(4, [(0, 1)])
        L = distance_layers(G, 0)
        assert L[0] == {0} and L[1] == {1}
        assert L[2] == frozenset() and L[3] == frozenset()

    def test_clique(self):
        L = distance_layers(complete_graph(5), 2)
        assert L[0] == {2}
        assert L[1] == {0, 1, 3, 4}

    def test_root_validation(self):
        with pytest.raises(ValueError):
            distance_layers(complete_graph(3), -1)


class TestRounding:
    def test_all_ones_keeps_windows(self):
        G = petersen()
        L = distance_layers(G, 0)
        out = round_once(G, L, [1.0] * G.n, derive_rng(0, "t"))
        assert set(out.s1) == set(L[0] | L[1] | L[2])
        assert set(out.s2) == set(L[1] | L[2] | L[3])

    def test_all_zeros(self):
        G = petersen()
        L = distance_layers(G, 0)
        out = round_once(G, L, [0.0] * G.n, derive_rng(0, "t"))
        assert out.s1 == () and out.s2 == () and out.d1 == 0.0

    def test_draws_only_for_fractional_y(self):
        G = petersen()
        L = distance_layers(G, 0)
        y = [1.0, 0.0, 1.0, 0.5, 0.0, 1.0, 0.25, 1.0, 0.0, 1.0]
        fractional = [v for v in sorted(L[0] | L[1] | L[2]) if 0 < y[v] < 1]
        fractional += [v for v in sorted(L[1] | L[2] | L[3]) if 0 < y[v] < 1]
        rng, reference = derive_rng(3, "draws"), derive_rng(3, "draws")
        s1, s2 = round_batch(G, L, y, rng, 5)
        for _ in range(5 * len(fractional)):
            reference.random()
        assert rng.getstate() == reference.getstate()
        integral = [v for v in range(G.n) if y[v] in (0.0, 1.0)]
        window1 = L[0] | L[1] | L[2]
        assert (s1[:, integral] == [[y[v] == 1.0 and v in window1 for v in integral]]).all()
        assert not s2[:, [v for v in range(G.n) if y[v] == 0.0]].any()

    def test_integral_outcome_is_every_rounding(self):
        # With every y in {0, 1}, each rep of round_batch gives the same two
        # samples; the direct outcome must be the one set _rounded_sets
        # keeps, windows of equal density (window 1 wins) included.  One
        # fractional y in either window, and only there, sends the
        # relaxation to the rounding path.
        rng = random.Random("integral-outcome")
        ties = fractional = 0
        for _ in range(300):
            G = gnp_graph(rng.randint(2, 10), rng.uniform(0.1, 0.9), rng.randint(0, 999))
            layers = distance_layers(G, rng.randrange(G.n))
            windows = damks._windows(layers)
            y = [float(rng.random() < 0.6) for _ in range(G.n)]
            outcome = damks._integral_outcome(G, windows, y)
            rounded = list(damks._rounded_sets(G, layers, y, derive_rng(0), 3, G.n))
            assert rounded == ([list(outcome)] if outcome else [])
            s1, s2 = (
                induced_stats(G, [v for v in window if y[v] == 1.0]) for window in windows
            )
            ties += s1.vertices != s2.vertices and s1.average_degree == s2.average_degree
            for v in range(G.n):
                y_v = [0.5 if u == v else y[u] for u in range(G.n)]
                in_window = any(v in window for window in windows)
                fractional += in_window
                assert (damks._integral_outcome(G, windows, y_v) is None) == in_window
        assert ties > 0 and fractional > 0

    def test_deterministic_per_seed(self):
        G = petersen()
        L = distance_layers(G, 3)
        y = [0.5] * G.n
        a = round_once(G, L, y, derive_rng(7, "round"))
        b = round_once(G, L, y, derive_rng(7, "round"))
        assert (a.s1, a.s2) == (b.s1, b.s2)

    def test_length_check(self):
        G = petersen()
        with pytest.raises(ValueError):
            round_once(G, distance_layers(G, 0), [1.0], derive_rng(0))
        with pytest.raises(ValueError):
            round_batch(G, distance_layers(G, 0), [1.0], derive_rng(0), 3)

    @pytest.mark.parametrize("name,G,root,y", [
        ("fractional", petersen(), 0, [((i * 7) % 10 + 1) / 11 for i in range(10)]),
        ("all-zero", petersen(), 4, [0.0] * 10),
        ("all-one", petersen(), 7, [1.0] * 10),
        # path 0-1-2-3 and isolated 4: seen from vertex 1, layer 3 is empty
        ("empty-layer-3", graph_from_edges(5, [(0, 1), (1, 2), (2, 3)]), 1,
         [0.9, 0.5, 0.25, 0.75, 1.0]),
        ("edges-at-gnp", gnp_graph(12, 0.4, 3), 5, [i / 11 for i in range(12)]),
    ])
    def test_batch_matches_one_at_a_time(self, name, G, root, y):
        layers = distance_layers(G, root)
        if name == "empty-layer-3":
            assert layers[3] == frozenset()
        reps = 37
        loop_rng, batch_rng = derive_rng(5, name), derive_rng(5, name)
        outcomes = [round_once(G, layers, y, loop_rng) for _ in range(reps)]
        s1, s2 = round_batch(G, layers, y, batch_rng, reps)
        assert s1.shape == s2.shape == (reps, G.n)
        for rep, out in enumerate(outcomes):
            assert tuple(np.flatnonzero(s1[rep]).tolist()) == out.s1
            assert tuple(np.flatnonzero(s2[rep]).tolist()) == out.s2
        assert batch_rng.getstate() == loop_rng.getstate()

    @pytest.mark.parametrize("name,G", [
        ("gnp-sparse", gnp_graph(14, 0.2, 1)),
        ("gnp-dense", gnp_graph(17, 0.7, 2)),
        ("edgeless", graph_from_edges(6, [])),
        # vertices 5 and 6 have no edges
        ("isolated", graph_from_edges(7, [(0, 1), (1, 2), (2, 0), (3, 4)])),
        ("petersen", petersen()),
    ])
    def test_edge_list_scorer_matches_dense_reference(self, name, G):
        rng = np.random.default_rng(len(name))
        masks = np.vstack([
            np.zeros(G.n, dtype=bool),
            np.ones(G.n, dtype=bool),
            rng.random((40, G.n)) < rng.random((40, 1)),
        ])
        got = damks._average_degrees(G, masks)
        assert got.dtype == np.float64
        assert got.tobytes() == dense_average_degrees(G, masks).tobytes()


class TestA6:
    def test_k4_power_of_two_ladder(self):
        # gamma 3 is not on the {1,2,4} ladder and gamma 4 is infeasible, so
        # the gamma-2 relaxation wins and its optimum rounds to a triangle.
        res = a6_damks(complete_graph(4), 4, seed=0)
        assert res.vertices == (0, 1, 2) and res.average_degree == 2.0

    def test_finds_clique_next_to_noise(self):
        K4K2 = graph_from_edges(
            6, [(u, v) for u in range(4) for v in range(u + 1, 4)] + [(4, 5)]
        )
        res = a6_damks(K4K2, 3, seed=0)
        assert res.vertices == (0, 1, 2) and res.edge_count == 3

    def test_edgeless_fallback(self):
        res = a6_damks(graph_from_edges(3, []), 2, seed=1)
        assert res.vertices == (0,) and res.edge_count == 0

    def test_deterministic(self):
        G = gnp_graph(9, 0.4, 5)
        a = a6_damks(G, 4, seed=11)
        b = a6_damks(G, 4, seed=11)
        assert a == b

    def test_size_and_consistency(self):
        rng = random.Random("a6-sweep")
        for _ in range(6):
            G = gnp_graph(rng.randint(4, 9), rng.uniform(0.3, 0.7), rng.randint(0, 50))
            k = rng.randint(2, G.n)
            res = a6_damks(G, k, seed=3, reps=4 * G.n)
            assert 1 <= len(res.vertices) <= k
            assert count_induced_edges(G, res.vertices) == res.edge_count

    @pytest.mark.parametrize("n,p,graph_seed,k,vertices,edges", PINNED_A6)
    def test_pinned_outputs(self, n, p, graph_seed, k, vertices, edges):
        res = a6_damks(gnp_graph(n, p, graph_seed), k, reps=2 * n, seed=graph_seed)
        assert (res.vertices, res.edge_count) == (vertices, edges)

    @pytest.mark.parametrize("n,p,graph_seed,k,vertices,edges", PINNED_A6)
    def test_chunked_rounding_keeps_outputs(
        self, monkeypatch, n, p, graph_seed, k, vertices, edges
    ):
        # With chunks of 7, the 2n reps of each relaxation with a fractional
        # window column span three or four batches, the last one partial;
        # every other relaxation takes its one outcome directly and draws
        # nothing.  The answer must not change.
        monkeypatch.setattr(damks, "ROUND_CHUNK", 7)
        batches: dict[int, list[int]] = {}
        held = []  # keeps each generator alive, so that its id stays unique
        fractional = []
        integral = damks._integral_outcome

        def spy(G, layers, y, rng, reps):
            window = frozenset().union(*layers)
            assert any(0 < y[v] < 1 for v in window), "an integral relaxation drew"
            held.append(rng)
            batches.setdefault(id(rng), []).append(reps)
            return round_batch(G, layers, y, rng, reps)

        def route(G, windows, y):
            outcome = integral(G, windows, y)
            fractional.append(outcome is None)
            return outcome

        monkeypatch.setattr(damks, "round_batch", spy)
        monkeypatch.setattr(damks, "_integral_outcome", route)
        res = a6_damks(gnp_graph(n, p, graph_seed), k, reps=2 * n, seed=graph_seed)
        assert (res.vertices, res.edge_count) == (vertices, edges)
        assert len(batches) == sum(fractional) == FRACTIONAL_A6.get((n, p, graph_seed), 0)
        for sizes in batches.values():
            assert max(sizes) <= 7 and sum(sizes) == 2 * n

    def test_direct_outcome_matches_the_rounding_path(self, monkeypatch):
        # An integral relaxation rounds alike in every rep: drawing all of
        # its reps through round_batch must trim and score the same sets,
        # in the same order, as taking its one outcome directly.
        rng = random.Random("a6-direct")
        cases = []
        for _ in range(14):
            G = gnp_graph(rng.randint(4, 14), rng.uniform(0.15, 0.8), rng.randint(0, 999))
            cases.append((G, rng.randint(2, G.n), rng.randint(0, 99)))
        integral = damks._integral_outcome
        taken = []
        trimmed = []
        real_trim = damks.fixing_trim

        def recorded_trim(G, vertices, k):
            trimmed.append(tuple(vertices))
            return real_trim(G, vertices, k)

        def counted(G, windows, y):
            outcome = integral(G, windows, y)
            taken.append(outcome is not None)
            return outcome

        def run_all():
            trimmed.clear()
            outs = [a6_damks(G, k, reps=2 * G.n, seed=seed) for G, k, seed in cases]
            return outs, list(trimmed)

        monkeypatch.setattr(damks, "fixing_trim", recorded_trim)
        monkeypatch.setattr(damks, "_integral_outcome", counted)
        want = run_all()
        assert sum(taken) > 50 and not all(taken)
        monkeypatch.setattr(damks, "_integral_outcome", lambda G, windows, y: None)
        assert run_all() == want

    def test_numerical_error_skips_the_pair(self, monkeypatch):
        # An LP the simplex cannot certify is skipped like an infeasible one.
        G = gnp_graph(10, 0.6, 4)
        real = simplex.solve_lp
        failed = []

        def failing_on_root_1_gamma_2(outcome):
            def solve(lp):
                root = int(np.argmin(lp.rows[0]))
                if (root, lp.rows[1 + root, root]) != (1, 2.0):
                    return real(lp)
                failed.append(root)
                return outcome()
            return solve

        def numerical_error():
            raise simplex.LpNumericalError("row 2: 0.0013 > 0.0")

        monkeypatch.setattr(
            simplex, "solve_lp", failing_on_root_1_gamma_2(numerical_error)
        )
        skipped = a6_damks(G, 6, reps=20, seed=4)
        monkeypatch.setattr(simplex, "solve_lp", failing_on_root_1_gamma_2(
            lambda: simplex.LpSolution(simplex.INFEASIBLE)
        ))
        assert skipped == a6_damks(G, 6, reps=20, seed=4)
        assert failed == [1, 1]

    def test_screens_skip_only_lps_that_cannot_be_rounded(self):
        # Every (root, gamma) pair lp_pairs leaves out, for any k, must be an
        # LP a6 would have skipped after solving it: not optimal, not
        # certifiable, or with optimum above k.
        rng = random.Random("a6-screens")
        skipped = 0
        for _ in range(30):
            G = gnp_graph(rng.randint(3, 14), rng.uniform(0.1, 0.7), rng.randint(0, 999))
            solved = {}
            for k in range(1, G.n + 1):
                kept = set(lp_pairs(G, k))
                for root in range(G.n):
                    for gamma in doubling_ladder(G.n):
                        if (root, gamma) in kept:
                            continue
                        skipped += 1
                        if (root, gamma) not in solved:
                            try:
                                solved[root, gamma] = solve_lp(build_damks_lp(G, root, gamma))
                            except simplex.LpNumericalError:
                                solved[root, gamma] = None
                        sol = solved[root, gamma]
                        assert (
                            sol is None
                            or sol.status != OPTIMAL
                            or sol.objective > k + LP_SCREEN_TOL
                        ), (G.edges, k, root, gamma)
        assert skipped > 0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            a6_damks(complete_graph(3), 0)
        with pytest.raises(ValueError):
            a6_damks(complete_graph(3), 2, reps=0)


class TestCoreAndLadder:
    def test_cycle_survives(self):
        C5 = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        assert min_degree_core(C5, range(5), 2) == (0, 1, 2, 3, 4)
        assert min_degree_core(C5, range(5), 3) == ()

    def test_star_collapses(self):
        star = graph_from_edges(6, [(0, i) for i in range(1, 6)])
        assert min_degree_core(star, range(6), 1) == (0, 1, 2, 3, 4, 5)
        assert min_degree_core(star, range(6), 2) == ()

    def test_partial_vertex_set(self):
        K4 = complete_graph(4)
        assert min_degree_core(K4, [0, 1, 2], 2) == (0, 1, 2)
        with pytest.raises(ValueError):
            min_degree_core(K4, [0, 9], 1)

    @staticmethod
    def reverse_order_core(G, thr):
        """The threshold-``thr`` core, peeled in reverse id order."""
        alive = set(range(G.n))
        while True:
            doomed = [
                v
                for v in sorted(alive, reverse=True)
                if sum(1 for u in G.adjacency[v] if u in alive) < thr
            ]
            if not doomed:
                return alive
            alive.remove(doomed[0])

    def test_matches_independent_peeler(self):
        rng = random.Random("core")
        for _ in range(25):
            G = gnp_graph(rng.randint(3, 10), rng.uniform(0.2, 0.8), rng.randint(0, 99))
            thr = rng.randint(1, 4)
            got = set(min_degree_core(G, range(G.n), thr))
            # the result must not depend on the peeling order
            assert got == self.reverse_order_core(G, thr)
            assert all(
                sum(1 for u in G.adjacency[v] if u in got) >= thr for v in got
            )

    def test_core_numbers_give_every_core(self):
        rng = random.Random("core-numbers")
        graphs = [
            gnp_graph(rng.randint(3, 14), rng.uniform(0.1, 0.9), rng.randint(0, 999))
            for _ in range(25)
        ]
        graphs += [graph_from_edges(n, []) for n in (1, 4)]
        graphs += [complete_graph(n) for n in (1, 2, 5, 8)]
        for G in graphs:
            cores = core_numbers(G, range(G.n))
            assert sorted(cores) == list(range(G.n))
            top = max(cores.values())
            for thr in range(top + 2):
                want = self.reverse_order_core(G, thr)
                assert {v for v, c in cores.items() if c >= thr} == want, (G.edges, thr)

    def test_gamma_ladder(self):
        # a6's density guesses on an n-vertex graph: doubling_ladder(n)
        assert doubling_ladder(1) == [1]
        assert doubling_ladder(6) == [1, 2, 4]
        assert doubling_ladder(16) == [1, 2, 4, 8, 16]
        assert doubling_ladder(17) == [1, 2, 4, 8, 16]


class TestCauchyMass:
    @settings(max_examples=80)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
    def test_always_holds(self, y):
        assert check_cauchy_mass(y)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            check_cauchy_mass([1.0], n=0)
