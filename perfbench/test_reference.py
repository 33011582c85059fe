"""The benchmark's reference answers on graphs whose answers are known by
hand.  Run with ``python3 -m pytest perfbench``."""

import itertools
from fractions import Fraction

import pytest

import reference


def complete(n):
    return list(itertools.combinations(range(n), 2))


def star(n):
    return [(0, i) for i in range(1, n)]


def path(n):
    return [(i, i + 1) for i in range(n - 1)]


# Outer 5-cycle, spokes, inner pentagram.
PETERSEN = (
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
)
# K5 on 0..4, joined by the edge (4, 5) to the path 5-6-7-8-9.
CLIQUE_AND_PATH = complete(5) + [(4, 5)] + [(i, i + 1) for i in range(5, 9)]


def test_best_edges_by_size():
    assert reference.best_edges_by_size(6, complete(6)) == [0, 0, 1, 3, 6, 10, 15]
    assert reference.best_edges_by_size(7, star(7)) == [0, 0, 1, 2, 3, 4, 5, 6]
    assert reference.best_edges_by_size(7, path(7)) == [0, 0, 1, 2, 3, 4, 5, 6]
    # Girth 5: trees up to 4 vertices, the 5-cycle, then each vertex removed
    # from the whole graph takes 3 edges minus those to other removed ones.
    assert reference.best_edges_by_size(10, PETERSEN) == [0, 0, 1, 2, 3, 5, 6, 8, 10, 12, 15]
    assert reference.best_edges_by_size(10, CLIQUE_AND_PATH) == [
        0, 0, 1, 3, 6, 10, 11, 12, 13, 14, 15
    ]


@pytest.mark.parametrize(
    "n, edges, k, exactly, at_least, at_most",
    [
        (6, complete(6), 3, Fraction(2), Fraction(5), Fraction(2)),
        (7, star(7), 3, Fraction(4, 3), Fraction(12, 7), Fraction(4, 3)),
        (7, path(7), 3, Fraction(4, 3), Fraction(12, 7), Fraction(4, 3)),
        (10, PETERSEN, 5, Fraction(2), Fraction(3), Fraction(2)),
        (10, CLIQUE_AND_PATH, 7, Fraction(24, 7), Fraction(24, 7), Fraction(4)),
    ],
)
def test_optimum(n, edges, k, exactly, at_least, at_most):
    assert reference.optimum(n, edges, k, "exactly") == exactly
    assert reference.optimum(n, edges, k, "at-least") == at_least
    assert reference.optimum(n, edges, k, "at-most") == at_most


@pytest.mark.parametrize(
    "n, edges, degree, size",
    [
        (6, complete(6), Fraction(5), 6),
        (7, star(7), Fraction(12, 7), 7),
        (7, path(7), Fraction(12, 7), 7),
        (10, PETERSEN, Fraction(3), 10),
        (10, CLIQUE_AND_PATH, Fraction(4), 5),
    ],
)
def test_densest_subgraph_lp(n, edges, degree, size):
    pytest.importorskip("scipy")
    assert reference.densest_subgraph(n, edges) == (degree, size)


def test_lattice_size_counts_the_lattice():
    for N in range(1, 25):
        points = sum(
            1
            for i in range(N + 1)
            for _ in itertools.product(range(i, N + 1), repeat=2)
        )
        assert reference.lattice_size(N) == points
        assert reference.lattice_size(N) == (N + 1) * (N + 2) * (2 * N + 3) // 6


def test_paper_exponents():
    assert round(float(reference.PAPER_EXPONENTS["fkp5"]), 5) == 0.32258
    # 6/19 = 0.315789..., which the paper prints as n^0.3159.
    assert abs(float(reference.PAPER_EXPONENTS["a6combo"]) - 0.3159) < 2e-4
