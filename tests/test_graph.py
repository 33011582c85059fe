import ast
import random
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import densek
from densek.graph import (
    MAX_GNP_PAIRS,
    MAX_VERTICES,
    Graph,
    GraphParseError,
    SubgraphResult,
    better_than,
    check_k,
    checked_vertices,
    gnp_graph,
    graph_from_edges,
    induced_stats,
    induced_subgraph,
    pad_most_neighbors,
    parse_edge_list,
    pick_best,
    remove_top_degrees,
    serialize_edge_list,
    top_degree_vertices,
)
from densek.reduction import MAX_GADGET_EDGES, dalks_gadget
from helpers import (
    count_induced_edges,
    has_edge,
    pad_lowest_id,
    petersen,
    random_graph,
    reference_pad_most_neighbors,
)


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    return graph_from_edges(n, sorted(chosen))


class TestConstruction:
    def test_basic(self):
        G = graph_from_edges(4, [(2, 0), (1, 2), (3, 2)])
        assert G.edges == ((0, 2), (1, 2), (2, 3))
        assert G.adjacency == ((2,), (2,), (0, 1, 3), (2,))
        assert G.m == 3
        assert G.degree(2) == 3
        assert has_edge(G, 0, 2) and has_edge(G, 2, 0)
        assert not has_edge(G, 0, 1)

    def test_adjacency_sorted_whatever_the_edge_order(self):
        rng = random.Random("adjacency-order")
        for _ in range(30):
            n = rng.randint(0, 30)
            edges = [
                (v, u) if rng.random() < 0.5 else (u, v)
                for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3
            ]
            rng.shuffle(edges)
            G = graph_from_edges(n, edges)
            for x in range(n):
                expected = sorted(u for e in edges if x in e for u in e if u != x)
                assert G.adjacency[x] == tuple(expected)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self loop"):
            graph_from_edges(3, [(1, 1)])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            graph_from_edges(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            graph_from_edges(2, [(0, 2)])


class TestEdgeView:
    @pytest.mark.parametrize("G", [
        graph_from_edges(0, []),
        graph_from_edges(5, []),
        graph_from_edges(4, [(2, 0), (1, 2), (3, 2)]),
        gnp_graph(20, 0.3, 4),
    ], ids=["empty", "edgeless", "star", "gnp"])
    def test_equals_the_edge_tuple(self, G):
        assert G.ends.dtype == np.intp
        assert G.ends.shape == (G.m, 2)
        assert G.ends.tolist() == [list(e) for e in G.edges]

    def test_is_read_only(self):
        G = petersen()
        with pytest.raises(ValueError, match="read-only"):
            G.ends[0, 0] = 5
        assert G.ends is G.ends

    def test_is_built_on_first_use_only(self):
        G = parse_edge_list("0 1\n1 2\n")
        assert "ends" not in G.__dict__
        G.ends
        assert "ends" in G.__dict__

    def test_leaves_equality_and_hash_alone(self):
        G, H = gnp_graph(12, 0.4, 1), gnp_graph(12, 0.4, 1)
        G.ends
        assert "ends" not in H.__dict__
        assert G == H and hash(G) == hash(H)
        assert G != gnp_graph(12, 0.4, 2)

    def test_on_a_directly_built_graph(self):
        G = gnp_graph(6, 0.5, 3)
        Gp, _ = dalks_gadget(G, 2)
        assert Gp.ends.tolist() == [list(e) for e in Gp.edges]
        assert Gp.ends[: G.m].tolist() == G.ends.tolist()


class TestChecks:
    def test_check_k(self):
        G = petersen()
        check_k(G, 1)
        check_k(G, 10)
        check_k(G, 2, minimum=2)
        for k, minimum in ((0, 1), (11, 1), (1, 2)):
            with pytest.raises(ValueError, match=rf"k={k} out of range \[{minimum}, 10\]"):
                check_k(G, k, minimum=minimum)

    def test_checked_vertices(self):
        G = petersen()
        assert checked_vertices(G, [3, 0, 3, 9]) == {0, 3, 9}
        assert checked_vertices(G, ()) == set()
        for bad in (-1, 10):
            with pytest.raises(ValueError, match=f"vertex {bad} out of range for n=10"):
                checked_vertices(G, [0, bad])


def _edge_arrays_built(path: Path) -> list[int]:
    """Lines of ``path`` that pass an ``.edges`` attribute to ``np.array``,
    ``np.asarray`` or ``np.fromiter``."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("array", "asarray", "fromiter")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
            and any(
                isinstance(sub, ast.Attribute) and sub.attr == "edges"
                for arg in (*node.args, *(kw.value for kw in node.keywords))
                for sub in ast.walk(arg)
            )
        ):
            lines.append(node.lineno)
    return lines


def test_only_graph_builds_the_edge_view():
    # Every other module reads Graph.ends, so the edges become a numpy
    # array in one place.
    src = Path(densek.__file__).parent
    found = {
        path.name: _edge_arrays_built(path)
        for path in sorted(src.glob("*.py"))
        if path.name != "graph.py"
    }
    assert _edge_arrays_built(src / "graph.py")
    assert {name: lines for name, lines in found.items() if lines} == {}


class TestParsing:
    def test_simple(self):
        G = parse_edge_list("0 1\n1 2\n")
        assert G.n == 3
        assert G.edges == ((0, 1), (1, 2))

    def test_comments_blanks_header(self):
        text = "# sample\n\nn 5\n0 1\n\n# trailing\n3 4\n"
        G = parse_edge_list(text)
        assert G.n == 5
        assert G.edges == ((0, 1), (3, 4))

    def test_header_preserves_isolated(self):
        G = parse_edge_list("n 4\n0 1\n")
        assert G.n == 4 and G.degree(3) == 0

    def test_empty_text(self):
        G = parse_edge_list("# nothing\n")
        assert G.n == 0 and G.m == 0

    @pytest.mark.parametrize(
        "text,line,fragment",
        [
            ("0 1\n1 1\n", 2, "self loop"),
            ("0 1\n# c\n1 0\n", 3, "duplicate edge"),
            ("0 1 2\n", 1, "two vertex ids"),
            ("0 x\n", 1, "non-integer"),
            ("0 -1\n", 1, "negative vertex id"),
            ("n 2\n0 1\n0 2\n", 3, "exceeds declared"),
            ("n 2\nn 3\n", 2, "duplicate 'n' header"),
            ("n -1\n", 1, "negative vertex count"),
            ("n two\n", 1, "non-integer vertex count"),
            ("0 1000000000\n", 1, "exceeds the limit"),
            ("n 1000000000\n", 1, "exceeds the limit"),
            (f"0 1\n1 {MAX_VERTICES}\n", 2, "exceeds the limit"),
            (f"# c\nn {MAX_VERTICES + 1}\n", 2, "exceeds the limit"),
        ],
    )
    def test_errors_name_the_line(self, text, line, fragment):
        with pytest.raises(GraphParseError, match=fragment) as info:
            parse_edge_list(text)
        assert info.value.line == line
        assert f"line {line}" in str(info.value)

    def test_edge_cap_names_the_first_line_past_it(self, monkeypatch):
        monkeypatch.setattr(densek.graph, "MAX_EDGES", 2)
        assert parse_edge_list("0 1\n# c\n1 2\n").m == 2
        with pytest.raises(GraphParseError, match="more than 2 edges") as info:
            parse_edge_list("0 1\n# c\n1 2\n2 3\n3 4\n")
        assert info.value.line == 4

    def test_edge_cap_holds_every_padded_graph(self):
        # reduce writes graphs of up to MAX_GADGET_EDGES edges, and they
        # must parse back.
        assert densek.graph.MAX_EDGES == MAX_GADGET_EDGES

    @settings(max_examples=80)
    @given(graphs())
    def test_serialize_round_trip(self, G):
        assert parse_edge_list(serialize_edge_list(G)) == G

    def test_serializer_format(self):
        G = graph_from_edges(3, [(1, 2), (0, 2)])
        assert serialize_edge_list(G) == "n 3\n0 2\n1 2\n"


class TestStats:
    def test_petersen_outer_cycle(self):
        G = petersen()
        res = induced_stats(G, range(5))
        assert res == SubgraphResult(vertices=(0, 1, 2, 3, 4), edge_count=5,
                                     average_degree=2.0)
        assert count_induced_edges(G, range(5)) == 5

    def test_empty_set(self):
        res = induced_stats(petersen(), [])
        assert res.edge_count == 0 and res.average_degree == 0.0

    @settings(max_examples=60)
    @given(graphs(), st.data())
    def test_matches_edge_recount(self, G, data):
        verts = data.draw(st.sets(st.integers(0, max(G.n - 1, 0)))) if G.n else set()
        res = induced_stats(G, verts)
        assert res.edge_count == count_induced_edges(G, verts)
        if res.vertices:
            assert res.average_degree == pytest.approx(
                2 * res.edge_count / len(res.vertices)
            )


class TestDegreeSelections:
    def _example(self):
        # hub of degree 5 over a triangle among 1,2,3; degrees 5,3,3,3,1,1
        return graph_from_edges(
            6, [(0, i) for i in range(1, 6)] + [(1, 2), (2, 3), (1, 3)]
        )

    def test_degree_ties_take_lower_id(self):
        assert top_degree_vertices(self._example(), 3) == (0, 1, 2)

    def test_remove_top_degrees(self):
        G = self._example()
        peeled, ids = remove_top_degrees(G, 4)  # removes vertices 0 and 1
        assert ids == (2, 3, 4, 5)
        assert peeled.edges == ((0, 1),)  # the surviving 2-3 edge, relabeled

    def test_remove_everything_rejected(self):
        with pytest.raises(ValueError, match="leaves nothing"):
            remove_top_degrees(graph_from_edges(1, []), 1)

    @settings(max_examples=50)
    @given(graphs(max_n=7), st.data())
    def test_induced_subgraph_preserves_stats(self, G, data):
        if G.n == 0:
            return
        verts = data.draw(st.sets(st.integers(0, G.n - 1), min_size=1))
        sub, ids = induced_subgraph(G, verts)
        assert sub.n == len(ids)
        assert sub.m == count_induced_edges(G, verts)
        back = [(ids[u], ids[v]) for u, v in sub.edges]
        assert all(has_edge(G, u, v) for u, v in back)


class TestPaddingAndRanking:
    def test_pad_lowest_id(self):
        G = graph_from_edges(5, [(3, 4)])
        assert pad_lowest_id(G, {3}, 3) == (0, 1, 3)

    def test_pad_most_neighbors_prefers_attachment(self):
        G = graph_from_edges(5, [(2, 3), (2, 4), (3, 4)])
        # starting from {3, 4}: vertex 2 has two inside neighbors
        assert pad_most_neighbors(G, {3, 4}, 3) == (2, 3, 4)

    def test_pad_most_neighbors_tie_low_id(self):
        G = graph_from_edges(4, [])
        assert pad_most_neighbors(G, set(), 2) == (0, 1)

    def test_pad_most_neighbors_matches_reference(self):
        # Sparse graphs and empty starts make most steps a tie on the count.
        rng = random.Random("pad-most-neighbors")
        for _ in range(400):
            G = random_graph(rng, 0, 30, 0.0, 0.5)
            start = [v for v in range(G.n) if rng.random() < rng.choice([0.0, 0.1, 0.4])]
            k = rng.randint(len(start), G.n)
            assert pad_most_neighbors(G, start, k) == reference_pad_most_neighbors(G, start, k)

    @pytest.mark.parametrize("start", [{-1}, {7}])
    def test_pad_most_neighbors_rejects_unknown_vertex(self, start):
        G = graph_from_edges(4, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="out of range"):
            pad_most_neighbors(G, start, 2)

    def test_pad_rejects_oversize(self):
        G = graph_from_edges(3, [])
        with pytest.raises(ValueError, match="exceeds"):
            pad_lowest_id(G, {0, 1}, 1)

    def test_better_than_orders(self):
        denser = SubgraphResult((0, 1), 1, 1.0)
        sparser = SubgraphResult((0, 1, 2), 1, 2 / 3)
        assert better_than(denser, sparser)
        more_edges = SubgraphResult((0, 1, 2, 3), 4, 2.0)
        square_tie = SubgraphResult((2, 3, 4), 3, 2.0)
        assert better_than(more_edges, square_tie)
        lex_a = SubgraphResult((0, 3), 1, 1.0)
        lex_b = SubgraphResult((1, 2), 1, 1.0)
        assert better_than(lex_a, lex_b) and not better_than(lex_b, lex_a)

    def test_pick_best_empty(self):
        with pytest.raises(ValueError):
            pick_best([])


class TestGnp:
    def test_deterministic(self):
        assert gnp_graph(10, 0.4, seed=3) == gnp_graph(10, 0.4, seed=3)

    def test_extremes(self):
        assert gnp_graph(5, 0.0, seed=1).m == 0
        assert gnp_graph(5, 1.0, seed=1).m == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            gnp_graph(-1, 0.5)
        with pytest.raises(ValueError):
            gnp_graph(3, 1.5)

    def test_refuses_too_many_pairs_before_drawing(self):
        # n = 2048 is the largest accepted; a huge n, past MAX_VERTICES too,
        # is refused at once instead of drawing its pairs one by one.
        assert 2048 * 2047 // 2 == MAX_GNP_PAIRS
        assert gnp_graph(2048, 0.0).n == 2048
        for n in (2049, MAX_VERTICES + 1, 10**12):
            start = time.perf_counter()
            with pytest.raises(ValueError, match=str(MAX_GNP_PAIRS)):
                gnp_graph(n, 0.5)
            assert time.perf_counter() - start < 1.0
