import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from densek import fkp, ratio, score
from densek.fkp import (
    ALGO_NAMES,
    ALGORITHMS,
    EPSILON_LADDER,
    MAX_CANDIDATES,
    MAX_WALK_DEGREE,
    SAMPLE_RETRIES,
    _best_pair,
    _greedy_matching,
    _walk_layers,
    a1_matching,
    a2_top_degrees,
    a3_neighborhoods,
    a4_edge_dense,
    a5_walks,
    attachment_counts,
    dks_candidates,
    walk_rows,
)
from densek.graph import better_than, gnp_graph, graph_from_edges, remove_top_degrees
from densek.rng import derive_seed
from densek.score import completed
from helpers import (
    combined_dks,
    count_induced_edges,
    good_vertex_candidates_rebuild,
    petersen,
    reference_a4,
    reference_completed,
    reference_neighborhood_candidates,
    walk_count_matrix,
    walk_powers,
)


def complete_graph(n):
    return graph_from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def degree_example():
    # one dominating vertex, a triangle hanging off it, two pendant leaves
    return graph_from_edges(
        6, [(0, i) for i in range(1, 6)] + [(1, 2), (2, 3), (1, 3)]
    )


def random_graphs(key, count, lo=3, hi=10):
    rng = random.Random(key)
    for _ in range(count):
        yield gnp_graph(rng.randint(lo, hi), rng.uniform(0.2, 0.8), rng.randint(0, 999))


class TestParams:
    def test_defaults_are_valid(self):
        assert EPSILON_LADDER[0] < 1 < EPSILON_LADDER[-1]
        assert all(0 < a < b for a, b in zip(EPSILON_LADDER, EPSILON_LADDER[1:]))
        assert MAX_CANDIDATES >= 1 and SAMPLE_RETRIES >= 0


@st.composite
def completion_cases(draw):
    """A graph, k and a batch of candidate sets of at most k ids: empty
    sets, sets of exactly k, and graphs with no edges or all of them, where
    every padded set ties."""
    n = draw(st.integers(1, 12))
    G = gnp_graph(n, draw(st.sampled_from([0.0, 0.3, 0.6, 1.0])), draw(st.integers(0, 999)))
    k = draw(st.integers(1, n))
    sets = st.one_of(
        st.just(()),
        st.lists(st.integers(0, n - 1), max_size=k, unique=True),
        st.sets(st.integers(0, n - 1), min_size=k, max_size=k),
    )
    return G, draw(st.lists(sets, min_size=1, max_size=25)), k


def batch_cells(batch):
    """Cells of one scoring batch: its rows times the largest
    max(width + 1, edges) of its windows."""
    rows = sum(len(part) for _, part in batch)
    return rows * max(max(len(w.verts) + 1, len(w.ends) // 2) for w, _ in batch)


class TestCompleted:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(completion_cases())
    def test_matches_per_set_reference(self, case):
        G, batch, k = case
        assert completed(G, batch, k) == reference_completed(G, batch, k)

    def test_checks_ids_and_sizes(self):
        G = petersen()
        with pytest.raises(ValueError, match="out of range"):
            completed(G, [[0, 1], [10]], 3)
        with pytest.raises(ValueError, match="out of range"):
            completed(G, [[-1]], 3)
        with pytest.raises(ValueError, match="exceeds k=2"):
            completed(G, [[0], [1, 2, 3]], 2)
        with pytest.raises(ValueError, match="no candidate"):
            completed(G, [], 2)

    @pytest.mark.parametrize("cells", [40, 97])
    def test_batches_stay_under_the_cell_cap(self, monkeypatch, cells):
        # Batches of one row (a row counts at least score.ROW_CELLS cells),
        # so that the best set often comes from a later batch or ties with
        # an earlier batch's best.
        graphs = [gnp_graph(14, 0.3, 5), gnp_graph(20, 0.2, 6), petersen()]

        def outputs(G):
            return [
                a3_neighborhoods(G, 5), a4_edge_dense(G, 5), a5_walks(G, 5, seed=3),
                list(dks_candidates(G, 5, seed=3, include=("a1", "a3", "a5"))),
            ]

        want = [outputs(G) for G in graphs]
        batches = []
        one_batch = score._best_padded

        def recorded(batch, k):
            batches.append(batch_cells(batch))
            return one_batch(batch, k)

        monkeypatch.setattr(score, "SCORE_CELLS", cells)
        monkeypatch.setattr(score, "_best_padded", recorded)
        assert all(max(G.n + 1, G.m) <= cells for G in graphs)
        assert [outputs(G) for G in graphs] == want
        assert max(batches) <= cells
        assert len(batches) > 10 * len(graphs)


class TestA1:
    def test_path(self):
        G = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        res = a1_matching(G, 4)
        assert res.vertices == (0, 1, 2, 3) and res.edge_count == 3
        assert len(_greedy_matching(G, 4)) // 2 == 2

    def test_pads_with_lowest_ids(self):
        G = graph_from_edges(5, [(3, 4)])
        res = a1_matching(G, 4)
        assert res.vertices == (0, 1, 3, 4) and res.edge_count == 1

    def test_matching_floor(self):
        for G in random_graphs("a1", 30):
            k = random.Random(G.n * 131 + G.m).randint(1, G.n)
            res = a1_matching(G, k)
            assert len(res.vertices) == k
            assert res.edge_count >= min(len(_greedy_matching(G, k)) // 2, k // 2)
            assert count_induced_edges(G, res.vertices) == res.edge_count


class TestA2:
    def test_degree_example(self):
        res = a2_top_degrees(degree_example(), 4)
        assert res.vertices == (0, 1, 2, 3)
        assert res.average_degree == 3.0

    def test_requires_two(self):
        with pytest.raises(ValueError):
            a2_top_degrees(complete_graph(3), 1)

    def test_heavy_half_has_top_degrees(self):
        for G in random_graphs("a2", 30, lo=4):
            k = random.Random(G.m).randint(2, G.n)
            res = a2_top_degrees(G, k)
            assert len(res.vertices) == k
            degrees = sorted((G.degree(v) for v in range(G.n)), reverse=True)
            heavy = sorted((G.degree(v) for v in res.vertices), reverse=True)
            top = (k + 1) // 2
            assert heavy[:top] == degrees[:top]

    def test_attachment_counts(self):
        counts = attachment_counts(degree_example(), {0, 2})
        assert counts == {1: 2, 3: 2, 4: 1, 5: 1}


class TestA3:
    def test_complete_bipartite(self):
        K23 = graph_from_edges(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)])
        res = a3_neighborhoods(K23, 4)
        assert res.vertices == (0, 1, 2, 3) and res.average_degree == 2.0

    def test_size_and_recount(self):
        for G in random_graphs("a3", 25):
            k = random.Random(G.m + 7).randint(1, G.n)
            res = a3_neighborhoods(G, k)
            assert len(res.vertices) == k
            assert count_induced_edges(G, res.vertices) == res.edge_count

    def test_wedge_pairs_match_the_pair_scan(self):
        graphs = [*random_graphs("a3-wedges", 40, lo=1, hi=16), complete_graph(6), petersen()]
        for G in [*graphs, graph_from_edges(5, []), graph_from_edges(1, [])]:
            for k in sorted({1, 2, 3, G.n} & set(range(1, G.n + 1))):
                want = list(reference_neighborhood_candidates(G, k))
                assert sorted(fkp._neighborhood_candidates(G, k)) == sorted(want)
                assert a3_neighborhoods(G, k) == completed(G, want, k)


@st.composite
def a4_cases(draw):
    """A graph and k for a4: G(n, p) samples, edgeless and complete graphs, a
    star beside isolated vertices (its windows hold fewer than k vertices
    once k passes the star), and disjoint copies of one small graph, whose
    windows tie exactly; k is 1, where a2 is skipped, a fifth of the time."""
    kind = draw(st.sampled_from(["gnp", "edgeless", "complete", "star", "copies"]))
    if kind == "gnp":
        n = draw(st.integers(1, 13))
        G = gnp_graph(n, draw(st.sampled_from([0.15, 0.3, 0.5, 0.8])), draw(st.integers(0, 9999)))
    elif kind == "edgeless":
        G = graph_from_edges(draw(st.integers(1, 8)), [])
    elif kind == "complete":
        G = complete_graph(draw(st.integers(1, 9)))
    elif kind == "star":
        leaves, spare = draw(st.integers(1, 6)), draw(st.integers(0, 6))
        G = graph_from_edges(leaves + 1 + spare, [(0, i) for i in range(1, leaves + 1)])
    else:
        part = gnp_graph(draw(st.integers(2, 5)), 0.7, draw(st.integers(0, 99)))
        copies = draw(st.integers(2, 3))
        G = graph_from_edges(
            part.n * copies,
            [(u + c * part.n, v + c * part.n) for c in range(copies) for u, v in part.edges],
        )
    k = draw(st.integers(1, G.n)) if draw(st.integers(0, 4)) else 1
    return G, k


class TestA4:
    def test_at_least_a1(self):
        for G in random_graphs("a4", 20, hi=9):
            k = random.Random(G.n + G.m).randint(1, G.n)
            res = a4_edge_dense(G, k)
            base = a1_matching(G, k)
            assert len(res.vertices) == k
            assert not better_than(base, res)

    def test_two_cliques_bridge(self):
        # two K_4s joined by one edge: the local pass finds a whole clique
        edges = (
            [(u, v) for u in range(4) for v in range(u + 1, 4)]
            + [(u, v) for u in range(4, 8) for v in range(u + 1, 8)]
            + [(3, 4)]
        )
        res = a4_edge_dense(graph_from_edges(8, edges), 4)
        assert res.average_degree == 3.0

    @settings(derandomize=True, max_examples=320, deadline=None)
    @given(a4_cases())
    # a4's a2 windows win here: (0, 2, 4, 6, 8, 9) holds 8 edges, the exact
    # optimum, while a1 and a3 in the same windows reach only 7
    @example((graph_from_edges(10, [(0, 6), (0, 8), (1, 3), (1, 7), (1, 8), (2, 4), (2, 8),
                                    (4, 6), (4, 7), (4, 9), (5, 7), (5, 9), (6, 9), (8, 9)]), 6))
    def test_matches_the_per_edge_reference(self, case):
        G, k = case
        assert a4_edge_dense(G, k) == reference_a4(G, k)

    @pytest.mark.parametrize("cells", [150, 400])
    def test_batches_stay_under_the_cell_cap(self, monkeypatch, cells):
        # Windows of up to 9 vertices: small caps split a window's candidates
        # over several batches, and put several windows in one batch.
        star = graph_from_edges(9, [(0, i) for i in range(1, 6)])
        graphs = [gnp_graph(12, 0.45, 3), complete_graph(7), petersen(), star]
        cases = [(G, k) for G in graphs for k in (1, 3, 5, 7)]
        want = [a4_edge_dense(G, k) for G, k in cases]
        batches = []
        one_batch = score._best_padded

        def recorded(batch, k):
            batches.append((batch_cells(batch), len(batch)))
            return one_batch(batch, k)

        monkeypatch.setattr(score, "SCORE_CELLS", cells)
        monkeypatch.setattr(score, "_best_padded", recorded)
        assert [a4_edge_dense(G, k) for G, k in cases] == want
        assert max(cells_used for cells_used, _ in batches) <= cells
        assert max(windows for _, windows in batches) > 1
        assert len(batches) > 4 * len(cases)


    def test_whole_graph_run_is_not_batched_with_narrow_windows(self, monkeypatch):
        # m = 187 cells a row for the whole-graph run against at most 64 for
        # each edge window: every batch keeps its windows within twice each
        # other's cost, so no window row is scored at the whole graph's.
        G = gnp_graph(60, 0.1, 0)
        want = a4_edge_dense(G, 6)
        costs = []
        one_batch = score._best_padded

        def recorded(batch, k):
            costs.append(
                [max(len(w.verts) + 1, len(w.ends) // 2, score.ROW_CELLS) for w, _ in batch]
            )
            return one_batch(batch, k)

        monkeypatch.setattr(score, "_best_padded", recorded)
        assert a4_edge_dense(G, 6) == want
        assert costs[0] == [G.m] and len(costs) > 1
        assert all(max(c) <= 2 * min(c) for c in costs)


class TestWalkRows:
    def test_matches_reference_powers(self):
        for G in random_graphs("walk-rows", 20, lo=1, hi=12):
            powers = walk_powers(G, 5)
            for w in range(G.n):
                rows = walk_rows(G, w, 5)
                assert all(row.dtype == np.int64 for row in rows)
                assert rows[0].tolist() == [int(z == w) for z in range(G.n)]
                for i in range(1, 6):
                    assert rows[i].tolist() == powers[i][w]

    @pytest.mark.parametrize("w", [-1, 4])
    def test_rejects_unknown_vertex(self, w):
        with pytest.raises(ValueError, match="out of range"):
            walk_rows(complete_graph(4), w, 2)


def first_most_walked_pair(G):
    W5 = walk_count_matrix(G, 5)
    best, best_count = None, 0
    for a in range(G.n):
        for b in range(G.n):
            if a != b and W5[a][b] > best_count:
                best, best_count = (a, b), W5[a][b]
    return best


class TestBestPair:
    # Cycles, cliques and the Petersen graph tie many pairs across blocks of
    # one or three sources; the first pair in row-major order must win.
    @pytest.mark.parametrize("block", [1, 3, fkp.WALK_BLOCK])
    def test_matches_first_argmax(self, monkeypatch, block):
        monkeypatch.setattr(fkp, "WALK_BLOCK", block)
        cycle = graph_from_edges(7, [(i, (i + 1) % 7) for i in range(7)])
        graphs = [cycle, complete_graph(5), petersen(), graph_from_edges(4, [])]
        graphs += list(random_graphs("best-pair", 30, lo=1, hi=14))
        for G in graphs:
            assert _best_pair(G) == first_most_walked_pair(G), G.edges


class TestWalkLayers:
    def test_matches_walk_matrix_definition(self):
        for G in random_graphs("layers", 10, lo=4, hi=8):
            if G.m == 0:
                continue
            powers = walk_powers(G, 4)
            u, v = G.edges[0]
            L = _walk_layers(walk_rows(G, u, 5), walk_rows(G, v, 5))
            assert len(L) == 6 and L[0] == {u} and L[5] == {v}
            for i in range(1, 5):
                expect = {
                    w
                    for w in range(G.n)
                    if powers[i][u][w] > 0 and powers[5 - i][w][v] > 0
                }
                assert L[i] == expect

    def test_clique_with_tail(self):
        G = graph_from_edges(
            7,
            [(u, v) for u in range(4) for v in range(u + 1, 4)]
            + [(4, 5), (5, 6)],
        )
        L = _walk_layers(walk_rows(G, 0, 5), walk_rows(G, 1, 5))
        assert L[1] == {1, 2, 3}
        assert L[2] == {0, 1, 2, 3}
        assert L[4] == {0, 2, 3}


# a5_walks(gnp_graph(n, p, graph_seed), k, seed=seed) as computed before a5
# trimmed each distinct candidate once and built its cut list once per call.
PINNED_A5 = [
    (12, 0.4, 1, 4, (2, 6, 7, 9), 5),
    (14, 0.3, 2, 5, (3, 4, 5, 10, 11), 7),
    (16, 0.5, 3, 6, (2, 3, 11, 12, 13, 14), 12),
    (18, 0.25, 4, 7, (0, 2, 5, 8, 14, 15, 17), 10),
    (20, 0.35, 5, 5, (0, 4, 12, 13, 16), 10),
    (24, 0.2, 6, 8, (0, 1, 2, 9, 10, 15, 20, 23), 14),
    (27, 0.3, 7, 9, (1, 10, 15, 18, 19, 21, 23, 24, 26), 21),
    (30, 0.25, 8, 10, (7, 8, 12, 15, 16, 19, 22, 24, 25, 28), 24),
]


class TestA5:
    @pytest.mark.parametrize("n,p,graph_seed,k,vertices,edges", PINNED_A5)
    @pytest.mark.parametrize("seed", [1, 7])
    def test_pinned_outputs(self, n, p, graph_seed, k, vertices, edges, seed):
        res = a5_walks(gnp_graph(n, p, graph_seed), k, seed=seed)
        assert (res.vertices, res.edge_count) == (vertices, edges)

    def test_finds_clique(self):
        G = graph_from_edges(
            7,
            [(u, v) for u in range(4) for v in range(u + 1, 4)]
            + [(4, 5), (5, 6)],
        )
        assert a5_walks(G, 4).vertices == (0, 1, 2, 3)
        assert a5_walks(G, 3).vertices == (0, 1, 2)

    def test_edgeless_falls_back_to_matching(self):
        G = graph_from_edges(4, [])
        assert a5_walks(G, 2) == a1_matching(G, 2)

    def test_deterministic(self):
        G = gnp_graph(11, 0.35, 8)
        assert a5_walks(G, 5, seed=4) == a5_walks(G, 5, seed=4)

    def test_refuses_degrees_whose_walk_counts_overflow(self):
        assert MAX_WALK_DEGREE == 55108
        assert MAX_WALK_DEGREE**4 < 2**63 <= (MAX_WALK_DEGREE + 1) ** 4
        star = graph_from_edges(55110, [(0, leaf) for leaf in range(1, 55110)])
        with pytest.raises(ValueError, match="maximum degree at most 55108, got 55109"):
            a5_walks(star, 2)

    def test_good_vertex_sweep_matches_rebuild(self, monkeypatch):
        one_pass = fkp._good_vertex_candidates
        seen = []

        def checked(layers, cut, tau, k):
            got = one_pass(layers, cut, tau, k)
            want = good_vertex_candidates_rebuild(G, layers, [c[:3] for c in cut], tau, k)
            assert got == want, (G.edges, k, tau)
            seen.append(bool(got))
            return got

        monkeypatch.setattr(fkp, "_good_vertex_candidates", checked)
        for G in random_graphs("a5-good", 40, lo=5, hi=24):
            for k in sorted({1, 3, G.n // 2, G.n}):
                a5_walks(G, k, seed=G.m)
        assert any(seen) and not all(seen)

    def test_size_and_recount(self):
        for G in random_graphs("a5", 12, lo=4, hi=9):
            k = random.Random(G.m + 13).randint(1, G.n)
            res = a5_walks(G, k)
            assert len(res.vertices) == k
            assert count_induced_edges(G, res.vertices) == res.edge_count


class TestCombined:
    def test_clique_with_tail(self):
        G = graph_from_edges(
            7,
            [(u, v) for u in range(4) for v in range(u + 1, 4)]
            + [(4, 5), (5, 6)],
        )
        res = combined_dks(G, 4)
        assert res.vertices == (0, 1, 2, 3) and res.average_degree == 3.0

    def test_each_answer_is_completed_in_the_graphs_ids(self):
        # Each branch's answer, mapped to G's ids and padded on G: the
        # peeled branch runs on a subgraph whose ids G's ``ids`` name.
        for G in random_graphs("dks-candidates", 12, lo=2, hi=12):
            k = random.Random(G.m + 41).randint(1, G.n)
            sub, ids = remove_top_degrees(G, k)
            branches = []
            for branch, algo, res in dks_candidates(G, k, seed=5, a6_reps=8):
                branches.append(branch)
                bg, bids = (G, range(G.n)) if branch == "main" else (sub, ids)
                algo_seed = 5 if branch == "main" else derive_seed(5, branch, algo)
                found = ALGORITHMS[algo][0](bg, min(k, bg.n), algo_seed, 8, G.n).vertices
                assert res == reference_completed(G, [[bids[v] for v in found]], k)
            assert "peeled" in branches

    def test_monotone_in_algorithm_subset(self):
        for G in random_graphs("combined", 8, lo=4, hi=9):
            k = random.Random(G.m + 29).randint(2, G.n)
            small = combined_dks(G, k, seed=17, include=("a1", "a3"))
            full = combined_dks(G, k, seed=17, include=ALGO_NAMES)
            assert not better_than(small, full)
            assert len(full.vertices) == k

    def test_exactly_k_and_deterministic(self):
        G = gnp_graph(10, 0.45, 21)
        a = combined_dks(G, 5)
        b = combined_dks(G, 5)
        assert a == b and len(a.vertices) == 5

    def test_peeled_a5_takes_its_ladder_from_the_whole_graph(self):
        # The peeled branch has 26 of the 33 vertices.  Its a5 guesses
        # densities up to 64, as on the main branch; a ladder that stopped
        # at 32 picks a different set of the same edge count here.
        G = gnp_graph(33, 0.6118898549715303, 24)
        runs = {
            branch: res
            for branch, _, res in dks_candidates(G, 13, seed=24, include=("a5",))
        }
        assert runs["peeled"].vertices == (1, 2, 5, 6, 8, 10, 11, 12, 18, 20, 22, 26, 32)
        assert runs["peeled"].edge_count == 59

    def test_least_k_is_each_algorithms_own(self):
        # A runner accepts k = least_k, and refuses anything smaller.
        G = petersen()
        for name, (run, least_k) in ALGORITHMS.items():
            assert len(run(G, least_k, 0, 4, G.n).vertices) <= least_k, name
            with pytest.raises(ValueError):
                run(G, least_k - 1, 0, 4, G.n)

    def test_names_are_the_tables(self):
        assert ALGO_NAMES == tuple(ALGORITHMS) == ratio.ALGOS

    def test_k_one(self):
        res = combined_dks(complete_graph(3), 1)
        assert len(res.vertices) == 1 and res.edge_count == 0

    def test_validation(self):
        G = complete_graph(3)
        with pytest.raises(ValueError):
            combined_dks(G, 2, include=("a9",))
        with pytest.raises(ValueError):
            combined_dks(G, 2, include=())
        with pytest.raises(ValueError):
            combined_dks(G, 0)
