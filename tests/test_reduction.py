import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densek.exact import ProblemKind, exact_solve
from densek.graph import (
    doubling_ladder,
    gnp_graph,
    graph_from_edges,
    induced_stats,
    pick_best,
)
from densek.reduction import (
    MAX_GADGET_EDGES,
    SolverContractError,
    dalks_gadget,
    dks_via_damks,
    fixing_trim,
    run_damks_driver,
)
from helpers import count_induced_edges, exact_best_subsets, has_edge, oracle_damks


def complete_graph(n):
    return graph_from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


class TestFixingTrim:
    def test_clique(self):
        assert fixing_trim(complete_graph(4), (0, 1, 2, 3), 3) == (1, 2, 3)

    def test_star_keeps_center(self):
        star = graph_from_edges(6, [(0, i) for i in range(1, 6)])
        assert fixing_trim(star, tuple(range(6)), 3) == (0, 4, 5)

    def test_weighted_prefers_heavy_edge(self):
        tri = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
        w = {(0, 1): Fraction(1), (1, 2): Fraction(5), (0, 2): Fraction(1)}
        assert fixing_trim(tri, (0, 1, 2), 2, weights=w) == (1, 2)

    def test_weight_lower_bound(self):
        rng = random.Random("trim-bound")
        for _ in range(40):
            G = gnp_graph(rng.randint(3, 9), rng.uniform(0.3, 0.9), rng.randint(0, 999))
            s = G.n
            k = rng.randint(2, s - 1)
            kept = fixing_trim(G, tuple(range(s)), k)
            assert len(kept) == k
            total = G.m
            kept_edges = count_induced_edges(G, kept)
            # dropping minimum-degree vertices keeps at least the average share
            assert kept_edges * s * (s - 1) >= total * k * (k - 1)

    def test_validation(self):
        G = complete_graph(4)
        # A set of at most k vertices comes back whole and sorted.
        assert fixing_trim(G, (1, 0), 3) == (0, 1)
        assert fixing_trim(G, (2, 0, 1), 3) == (0, 1, 2)
        missing = {(0, 1): Fraction(1)}
        zero = {(0, 1): Fraction(0), (1, 2): Fraction(1), (0, 2): Fraction(1)}
        # Bad input raises whether the set is larger than k or not.
        for k in (2, 3, 4):
            with pytest.raises(ValueError, match="out of range"):
                fixing_trim(G, (0, 1, 9), k)
            with pytest.raises(ValueError, match="missing weight"):
                fixing_trim(G, (0, 1, 2), k, weights=missing)
            with pytest.raises(ValueError, match="must be positive"):
                fixing_trim(G, (0, 1, 2), k, weights=zero)
        for vertices in ((), (0, 1), (0, 1, 2)):
            with pytest.raises(ValueError, match="k=0"):
                fixing_trim(G, vertices, 0)


class TestDriver:
    def test_single_round_on_triangle(self):
        G = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)])
        run = run_damks_driver(G, 3, oracle_damks, Fraction(2))
        assert not run.aborted
        assert len(run.picks) == 1
        assert run.result.vertices == (0, 1, 2) and run.result.edge_count == 3

    def test_zero_guess_is_pure_padding(self):
        run = run_damks_driver(complete_graph(4), 2, oracle_damks, 0)
        assert run.picks == ()
        assert run.result.vertices == (0, 1) and run.result.edge_count == 1

    def test_solver_contract(self):
        def greedy_all(g, k):
            return induced_stats(g, tuple(range(g.n)))

        with pytest.raises(SolverContractError, match="4 > k=2"):
            run_damks_driver(complete_graph(4), 2, greedy_all, Fraction(1))

    def test_stalled_solver_aborts_but_finalises(self):
        def stuck(g, k):
            return induced_stats(g, ())

        run = run_damks_driver(complete_graph(4), 3, stuck, Fraction(3))
        assert run.aborted and len(run.picks) == 1
        assert run.result.vertices == (0, 1, 2) and run.result.edge_count == 3

    def test_iteration_totals_are_consistent(self):
        rng = random.Random("driver")
        for _ in range(20):
            G = gnp_graph(rng.randint(4, 9), rng.uniform(0.3, 0.8), rng.randint(0, 99))
            k = rng.randint(1, G.n)
            dhat = Fraction(rng.randint(0, 2 * max(G.m, 1)), rng.randint(1, 3))
            run = run_damks_driver(G, k, oracle_damks, dhat)
            for picked in run.picks:
                assert len(picked) <= k
            assert len(run.result.vertices) == k
            assert count_induced_edges(G, run.result.vertices) == run.result.edge_count

    def test_quarter_guarantee_with_exact_solver(self):
        # with the exact inner solver and the right density guess the driver
        # collects at least a quarter of the best exactly-k average degree
        rng = random.Random("driver-q")
        for _ in range(15):
            G = gnp_graph(rng.randint(4, 9), rng.uniform(0.4, 0.9), rng.randint(0, 99))
            k = rng.randint(2, G.n)
            best, _ = exact_best_subsets(G, [k])
            res = run_damks_driver(G, k, oracle_damks, best).result
            assert Fraction(2 * res.edge_count, k) * 4 >= best

    def test_edgeless(self):
        res = dks_via_damks(graph_from_edges(5, []), 3, oracle_damks)
        assert res.vertices == (0, 1, 2) and res.edge_count == 0

    def test_best_branch_over_the_ladder(self):
        rng = random.Random("driver-ladder")
        for _ in range(10):
            G = gnp_graph(rng.randint(2, 9), rng.uniform(0.2, 0.9), rng.randint(0, 99))
            k = rng.randint(1, G.n)
            branches = [
                run_damks_driver(G, k, oracle_damks, dhat).result
                for dhat in doubling_ladder(G.n)
            ]
            assert dks_via_damks(G, k, oracle_damks) == pick_best(branches)


class TestGadget:
    def test_single_edge_shape(self):
        Gp, kp = dalks_gadget(graph_from_edges(2, [(0, 1)]), 2)
        assert (Gp.n, Gp.m, kp) == (8, 16, 8)
        # vertices n..4n-1 form a clique and keep no other edges
        for u in range(2, 8):
            for v in range(u + 1, 8):
                assert has_edge(Gp, u, v)
        assert has_edge(Gp, 0, 1) and Gp.degree(0) == 1

    def test_triangle_shape(self):
        tri = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
        Gp, kp = dalks_gadget(tri, 2)
        assert (Gp.n, Gp.m, kp) == (12, 39, 11)

    @pytest.mark.parametrize("n,p,seed", [(1, 0.0, 0), (5, 0.5, 1), (9, 0.3, 2), (12, 1.0, 3)])
    def test_equals_the_validated_build(self, n, p, seed):
        # The padded graph is assembled directly; graph_from_edges, which
        # checks and sorts every edge, must build the identical graph.
        G = gnp_graph(n, p, seed)
        Gp, _ = dalks_gadget(G, 1)
        clique = itertools.combinations(range(n, 4 * n), 2)
        assert Gp == graph_from_edges(4 * n, [*G.edges, *clique])

    def test_gadget_optimum_is_at_least_clique(self):
        # the appended clique alone averages 3n-1, so the at-most-k' optimum
        # can never fall below that
        rng = random.Random("gadget")
        for _ in range(5):
            G = gnp_graph(rng.randint(2, 3), 0.7, rng.randint(0, 99))
            k = rng.randint(1, G.n)
            Gp, kp = dalks_gadget(G, k)
            best = exact_solve(Gp, kp, ProblemKind.AT_MOST_K)
            assert Fraction(2 * best.edge_count, len(best.vertices)) >= 3 * G.n - 1

    def test_single_edge_optimum(self):
        Gp, kp = dalks_gadget(graph_from_edges(2, [(0, 1)]), 2)
        best = exact_solve(Gp, kp, ProblemKind.AT_MOST_K)
        # the bare clique (average 5) beats clique plus the original edge
        assert best.vertices == (2, 3, 4, 5, 6, 7)
        assert best.average_degree == 5.0

    def test_refuses_before_building_past_the_limit(self):
        # n = 241 pads with a 723-clique of 261,003 edges; the input's own
        # edges count too, so 1,142 of them put the total one past 2^18.
        pairs = itertools.combinations(range(241), 2)
        G = graph_from_edges(241, itertools.islice(pairs, 1142))
        with pytest.raises(ValueError, match=str(MAX_GADGET_EDGES)):
            dalks_gadget(G, 1)
        with pytest.raises(ValueError, match=str(MAX_GADGET_EDGES)):
            dalks_gadget(graph_from_edges(242, []), 1)


class TestOracle:
    def test_returns_exact_at_most_k(self):
        rng = random.Random("oracle-handle")
        for _ in range(10):
            G = gnp_graph(rng.randint(2, 7), 0.5, rng.randint(0, 99))
            k = rng.randint(1, G.n)
            got = oracle_damks(G, k)
            best, _ = exact_best_subsets(G, range(0, k + 1))
            value = (
                Fraction(2 * got.edge_count, len(got.vertices))
                if got.vertices
                else Fraction(0)
            )
            assert value == best

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_never_exceeds_k(self, salt):
        rng = random.Random(f"oracle-{salt}")
        G = gnp_graph(rng.randint(1, 7), rng.uniform(0.1, 0.9), salt)
        k = rng.randint(1, G.n)
        assert len(oracle_damks(G, k).vertices) <= k
