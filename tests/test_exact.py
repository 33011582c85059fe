import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densek.exact import (
    MAX_KEY_VERTICES,
    EnumerationCapError,
    ProblemKind,
    exact_solve,
)
from densek.graph import graph_from_edges
from helpers import (
    brute_quasi_density,
    count_induced_edges,
    exact_best_subsets,
    gray_exact_solve,
    mask_lex_less,
    petersen,
    walk_count_matrix,
)


# The constraint names these tests' ids and random streams were first keyed
# by, kept so that both stay the same whatever ``ProblemKind``'s values are.
KIND_LABELS = {
    ProblemKind.EXACTLY_K: "exactly-k",
    ProblemKind.AT_LEAST_K: "at-least-k",
    ProblemKind.AT_MOST_K: "at-most-k",
}


def complete_graph(n):
    return graph_from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


class TestExactSolve:
    def test_petersen_k5(self):
        G = petersen()
        res = exact_solve(G, 5, ProblemKind.EXACTLY_K)
        assert res.average_degree == 2.0 and res.edge_count == 5
        best, optima = exact_best_subsets(G, [5])
        assert Fraction(2 * res.edge_count, 5) == best
        assert res.vertices == min(optima)

    def test_k4_triangle(self):
        res = exact_solve(complete_graph(4), 3)
        assert res.vertices == (0, 1, 2) and res.edge_count == 3

    @pytest.mark.parametrize("kind,sizes_of", [
        (ProblemKind.EXACTLY_K, lambda k, n: [k]),
        (ProblemKind.AT_LEAST_K, lambda k, n: range(k, n + 1)),
        (ProblemKind.AT_MOST_K, lambda k, n: range(0, k + 1)),
    ], ids=KIND_LABELS.get)
    def test_matches_combinations_oracle(self, kind, sizes_of):
        import random

        rng = random.Random(f"exact-{KIND_LABELS[kind]}")
        for _ in range(25):
            n = rng.randint(2, 8)
            G = graph_from_edges(
                n,
                [
                    (u, v)
                    for u in range(n)
                    for v in range(u + 1, n)
                    if rng.random() < 0.5
                ],
            )
            k = rng.randint(1, n)
            res = exact_solve(G, k, kind)
            best, optima = exact_best_subsets(G, sizes_of(k, n))
            got = (
                Fraction(2 * res.edge_count, len(res.vertices))
                if res.vertices
                else Fraction(0)
            )
            assert got == best
            assert count_induced_edges(G, res.vertices) == res.edge_count

    def test_tie_prefers_more_edges(self):
        # triangle and 4-cycle both average 2, and so does their union —
        # which has the most edges, so at-least-3 must take everything.
        G = graph_from_edges(
            7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)]
        )
        res = exact_solve(G, 3, ProblemKind.AT_LEAST_K)
        assert res.vertices == tuple(range(7)) and res.edge_count == 7

    def test_tie_prefers_lex_smallest(self):
        G = graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert exact_solve(G, 3).vertices == (0, 1, 2)

    def test_edgeless_prefers_empty_then_lowest(self):
        G = graph_from_edges(5, [])
        assert exact_solve(G, 3, ProblemKind.AT_MOST_K).vertices == ()
        assert exact_solve(G, 3, ProblemKind.EXACTLY_K).vertices == (0, 1, 2)

    def test_cap(self):
        G = graph_from_edges(25, [])
        with pytest.raises(EnumerationCapError, match="cap 24"):
            exact_solve(G, 3)
        with pytest.raises(EnumerationCapError):
            exact_solve(graph_from_edges(10, []), 2, cap=9)

    def test_k_range(self):
        with pytest.raises(ValueError):
            exact_solve(complete_graph(3), 0)
        with pytest.raises(ValueError):
            exact_solve(complete_graph(3), 4)


class TestBlockEnumerator:
    """``exact_solve`` against the one-subset-per-step Gray walk."""

    @pytest.mark.parametrize("kind", list(ProblemKind), ids=KIND_LABELS.get)
    def test_matches_gray_walk(self, kind):
        import random

        rng = random.Random(f"block-{KIND_LABELS[kind]}")
        # n <= 12 has no high block; n >= 13 walks one.
        for n in list(range(1, 17)) * 3:
            p = rng.choice([0.0, 0.2, 0.5, 0.8, 1.0])
            G = graph_from_edges(
                n, [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
            )
            k = rng.randint(1, n)
            assert exact_solve(G, k, kind) == gray_exact_solve(G, k, kind), (n, p, k)

    def test_matches_gray_walk_on_gnm_20_50(self):
        import random

        rng = random.Random("block-gnm")
        G = graph_from_edges(20, rng.sample(list(itertools.combinations(range(20), 2)), 50))
        for kind in ProblemKind:
            assert exact_solve(G, 6, kind) == gray_exact_solve(G, 6, kind)

    @pytest.mark.parametrize("n", range(1, 25))
    def test_closed_forms(self, n):
        empty, full = graph_from_edges(n, []), complete_graph(n)
        for k in sorted({1, (n + 1) // 2, n}):
            prefix = tuple(range(k))
            assert exact_solve(empty, k, ProblemKind.AT_MOST_K).vertices == ()
            assert exact_solve(empty, k, ProblemKind.EXACTLY_K).vertices == prefix
            assert exact_solve(empty, k, ProblemKind.AT_LEAST_K).vertices == prefix
            assert exact_solve(full, k, ProblemKind.AT_LEAST_K).vertices == tuple(range(n))
            assert exact_solve(full, k, ProblemKind.EXACTLY_K).vertices == prefix
            # At k = 1 every legal set has no edge, so the empty set wins.
            assert exact_solve(full, k, ProblemKind.AT_MOST_K).vertices == (
                prefix if k > 1 else ()
            )

    def test_key_limit_is_int64_tight(self):
        def key_bound(n):
            return (n * (n - 1) // 2 + 1) << n

        assert key_bound(MAX_KEY_VERTICES) <= 2**63 < key_bound(MAX_KEY_VERTICES + 1)

    def test_key_limit_ignores_cap(self):
        G = graph_from_edges(MAX_KEY_VERTICES + 1, [])
        with pytest.raises(EnumerationCapError, match=str(MAX_KEY_VERTICES)):
            exact_solve(G, 3, cap=200)


class TestMaskLexLess:
    @settings(max_examples=120)
    @given(st.integers(0, 2**12 - 1), st.integers(0, 2**12 - 1))
    def test_matches_tuple_order(self, a, b):
        def to_tuple(mask):
            return tuple(i for i in range(12) if mask >> i & 1)

        assert mask_lex_less(a, b) == (to_tuple(a) < to_tuple(b))


class TestBruteQuasiDensity:
    def test_k4_values(self):
        K4 = complete_graph(4)
        assert brute_quasi_density(K4, 1) == ((0, 1, 2, 3), Fraction(2))
        assert brute_quasi_density(K4, 2) == ((), Fraction(0))
        # at q = 3/2 the whole clique ties the empty set at 0; smaller wins
        assert brute_quasi_density(K4, Fraction(3, 2)) == ((), Fraction(0))

    def test_matches_itertools_oracle(self):
        import random

        rng = random.Random("quasi")
        for _ in range(30):
            n = rng.randint(1, 7)
            G = graph_from_edges(
                n,
                [
                    (u, v)
                    for u in range(n)
                    for v in range(u + 1, n)
                    if rng.random() < 0.5
                ],
            )
            q = Fraction(rng.randint(1, 6), rng.randint(1, 4))
            verts, value = brute_quasi_density(G, q)
            best = max(
                count_induced_edges(G, combo) - q * len(combo)
                for size in range(n + 1)
                for combo in itertools.combinations(range(n), size)
            )
            assert value == best
            assert count_induced_edges(G, verts) - q * len(verts) == value


class TestWalkCounts:
    def test_k4_length5(self):
        W = walk_count_matrix(complete_graph(4), 5)
        # adjacency of K_4 is J - I: eigenvalues 3 and -1 give
        # (3^5+1)/4 = 61 off the diagonal and (3^5-3)/4 = 60 on it.
        for u in range(4):
            for v in range(4):
                assert W[u][v] == (61 if u != v else 60)

    def test_path_squares(self):
        G = graph_from_edges(3, [(0, 1), (1, 2)])
        W = walk_count_matrix(G, 2)
        assert W == [[1, 0, 1], [0, 2, 0], [1, 0, 1]]

    def test_length_validation(self):
        with pytest.raises(ValueError):
            walk_count_matrix(complete_graph(3), 0)

    def test_power_composition(self):
        import random

        rng = random.Random("walks")
        for _ in range(10):
            n = rng.randint(2, 7)
            G = graph_from_edges(
                n,
                [
                    (u, v)
                    for u in range(n)
                    for v in range(u + 1, n)
                    if rng.random() < 0.6
                ],
            )
            W2 = walk_count_matrix(G, 2)
            W3 = walk_count_matrix(G, 3)
            W5 = walk_count_matrix(G, 5)
            product = [
                [
                    sum(W2[u][w] * W3[w][v] for w in range(n))
                    for v in range(n)
                ]
                for u in range(n)
            ]
            assert product == W5

    @settings(max_examples=40)
    @given(st.integers(2, 6), st.integers(1, 5))
    def test_symmetry(self, n, length):
        G = complete_graph(n)
        W = walk_count_matrix(G, length)
        assert all(W[u][v] == W[v][u] for u in range(n) for v in range(n))
