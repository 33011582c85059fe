import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densek import flow
from densek.flow import dalks_2approx, max_flow, max_quasi_density
from densek.graph import gnp_graph, graph_from_edges, induced_stats
from helpers import (
    average_degree_fraction,
    best_edges_by_size,
    brute_bounded_quasi_density,
    brute_min_cut,
    brute_quasi_density,
    connected_random_graph,
    count_induced_edges,
    dalks_every_guess,
    goldberg_arcs,
    random_graph,
    reference_max_flow,
)


def unfolded_reference(arcs, supply, demand):
    """``reference_max_flow`` on the network unfolded to an explicit
    ``s = n`` and ``t = n + 1``, its source side taken without ``s``."""
    n = len(supply)
    s, t = n, n + 1
    full = [
        *arcs,
        *((s, v, cap, 0) for v, cap in enumerate(supply)),
        *((v, t, cap, 0) for v, cap in enumerate(demand)),
    ]
    value, side = reference_max_flow(n + 2, full, s, t)
    return value, side - {s}


def random_network(rng, low, high, density):
    """A random network on ``low..high`` nodes: each ordered pair is one
    residual arc pair with probability ``density`` (so two nodes may share
    two), and every capacity, supplies and demands included, is random and
    possibly zero."""
    n = rng.randint(low, high)
    arcs = [
        (u, v, rng.randint(0, 9), rng.randint(0, 9))
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < density
    ]
    supply = [rng.randint(0, 9) if rng.random() < 0.5 else 0 for _ in range(n)]
    demand = [rng.randint(0, 9) if rng.random() < 0.5 else 0 for _ in range(n)]
    return arcs, supply, demand


class TestMaxFlow:
    def test_single_arc(self):
        assert max_flow([(0, 1, 7, 0)], [9, 0], [0, 9]) == (7, frozenset({0}))

    def test_diamond(self):
        value, side = max_flow([(0, 1, 1, 0)], [3, 2], [2, 3])
        assert value == 5
        assert side == frozenset()

    def test_matches_brute_min_cut(self):
        rng = random.Random("flow-nets")
        for _ in range(60):
            arcs, supply, demand = random_network(rng, 1, 5, 0.6)
            value, side = max_flow(arcs, supply, demand)
            n = len(supply)
            plain = [(t, h, c) for t, h, c, _ in arcs] + [(h, t, r) for t, h, _, r in arcs]
            plain += [(n, v, c) for v, c in enumerate(supply)]
            plain += [(v, n + 1, c) for v, c in enumerate(demand)]
            best, sides = brute_min_cut(n + 2, plain, n, n + 1)
            assert type(value) is int and value == best
            assert side | {n} in sides
            # the returned side is the inclusion-minimal minimizer
            assert not any(other < side | {n} for other in sides)

    def test_matches_reference_dinic(self):
        rng = random.Random("flow-reference")
        for _ in range(300):
            arcs, supply, demand = random_network(rng, 0, 12, 0.4)
            rng.shuffle(arcs)
            kept = list(supply), list(demand)
            got = max_flow(arcs, supply, demand)
            assert got == unfolded_reference(arcs, supply, demand)
            assert (supply, demand) == kept  # the lists are not consumed

    @pytest.mark.parametrize(
        "arcs, supply, demand, expected",
        [
            pytest.param(
                [(0, 1, 0, 0), (1, 2, 0, 0), (0, 2, 0, 0)], [0, 0, 0], [0, 0, 0],
                (0, frozenset()), id="zero-capacities",
            ),
            pytest.param(
                [(0, 1, 9, 9)], [0, 0], [0, 0], (0, frozenset()),
                id="no-supply-or-demand-beside-an-open-middle",
            ),
            # node 3 has supply and no arcs, node 4 nothing at all
            pytest.param(
                [(0, 1, 4, 4), (1, 2, 5, 0), (0, 2, 6, 0)], [3, 6, 0, 5, 0],
                [0, 0, 8, 0, 0], (8, frozenset({0, 1, 2, 3})),
                id="nodes-without-arcs-beside-a-busy-network",
            ),
            # node 0's direct path is saturated before any search
            pytest.param(
                [(0, 1, 2, 2), (1, 2, 5, 0), (0, 2, 1, 0)], [9, 3, 0], [4, 0, 6],
                (10, frozenset({0})), id="a-node-with-supply-and-demand",
            ),
            pytest.param([], [], [], (0, frozenset()), id="zero-nodes"),
        ],
    )
    def test_small_networks_match_reference(self, arcs, supply, demand, expected):
        assert max_flow(arcs, supply, demand) == expected
        assert unfolded_reference(arcs, supply, demand) == expected

    def test_matches_reference_on_density_networks(self):
        rng = random.Random("flow-goldberg")
        for _ in range(40):
            G = random_graph(rng, 1, 60, 0.02, 0.5)
            q = Fraction(rng.randint(1, 3 * G.n), rng.randint(1, 2 * G.n))
            net = goldberg_arcs(G, q)
            assert max_flow(*net) == unfolded_reference(*net), (G, q)
        # bounded networks, as max_quasi_density builds them for the chain
        for _ in range(60):
            G = random_graph(rng, 1, 40, 0.05, 0.6)
            outer = [v for v in range(G.n) if rng.random() < 0.8]
            inner = [v for v in outer if rng.random() < 0.3]
            q = Fraction(rng.randint(1, 3 * G.n), rng.randint(1, 2 * G.n))
            net = goldberg_arcs(G, q, inner, outer)
            assert max_flow(*net) == unfolded_reference(*net), (G, q, inner, outer)


class TestMaxQuasiDensity:
    def test_k4_examples(self):
        K4 = graph_from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        verts, value = max_quasi_density(K4, Fraction(1))
        assert (verts, value) == ((0, 1, 2, 3), Fraction(2))
        verts, value = max_quasi_density(K4, Fraction(2))
        assert (verts, value) == ((), Fraction(0))
        verts, value = max_quasi_density(K4, Fraction(3, 2))
        assert (verts, value) == ((), Fraction(0))

    def test_matches_enumeration(self, monkeypatch):
        # Besides random penalties, the ties where only minimality decides:
        # the maximum density, where the densest sets tie the empty set, and
        # every penalty the chain walk cuts at, and its two ends, which it
        # takes without a cut.
        cuts = []

        def recorded(graph, q, **bounds):
            cuts.append(q)
            return max_quasi_density(graph, q, **bounds)

        monkeypatch.setattr(flow, "max_quasi_density", recorded)
        rng = random.Random("quasi-flow")
        for _ in range(200):
            G = random_graph(rng, 1, 12, 0.1, 0.9)
            penalties = {Fraction(rng.randint(1, 6), rng.randint(1, 4))}
            if G.m:
                profile = best_edges_by_size(G)
                densest = max(Fraction(profile[s], s) for s in range(1, G.n + 1))
                assert max_quasi_density(G, densest) == ((), 0)
                cuts.clear()
                lo, hi = Fraction(1, 2 * G.n), Fraction(G.m, 2)
                flow._quasi_chain(G, lo, hi)
                penalties.update(cuts, [densest, lo, hi])
            for q in penalties:
                assert max_quasi_density(G, q) == brute_quasi_density(G, q), (G, q)

    def test_rejects_nonpositive_q(self):
        G = graph_from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            max_quasi_density(G, Fraction(0))

    def test_bounded_matches_enumeration(self):
        rng = random.Random("quasi-bounded")
        for _ in range(150):
            G = random_graph(rng, 1, 11, 0.1, 0.9)
            outer = [v for v in range(G.n) if rng.random() < 0.8]
            inner = [v for v in outer if rng.random() < 0.3]
            q = Fraction(rng.randint(1, 12), rng.randint(1, 4))
            # the cut reports its gain over inner
            base = count_induced_edges(G, inner) - q * len(inner)
            best, value = brute_bounded_quasi_density(G, q, inner, outer)
            got = max_quasi_density(G, q, inner=inner, outer=outer)
            assert got == (best, value - base), (G, q, inner, outer)
            # no free vertex: the cut runs on the zero-node network
            got = max_quasi_density(G, q, inner=inner, outer=inner)
            assert got == (tuple(sorted(inner)), 0), (G, q, inner)

    def test_rejects_bounds_that_do_not_nest(self):
        G = graph_from_edges(3, [(0, 1), (1, 2)])
        for inner, outer in [((0, 2), (0, 1)), ((), (0, 3)), ((-1,), None)]:
            with pytest.raises(ValueError):
                max_quasi_density(G, Fraction(1), inner=inner, outer=outer)


class TestDalksChain:
    def corpus(self):
        rng = random.Random("dalks-chain")
        yield graph_from_edges(6, [])
        yield graph_from_edges(7, [(u, v) for u in range(7) for v in range(u + 1, 7)])
        for n in range(2, 15):
            yield random_graph(rng, n, n, 0.15, 0.5)

    def test_matches_every_guess(self):
        for G in self.corpus():
            cuts: dict = {}
            for k in range(1, G.n + 1):
                assert dalks_2approx(G, k) == dalks_every_guess(G, k, cuts), (G, k)

    def test_chain_set_without_a_guess_is_skipped(self):
        # One chain set's penalty interval holds no guess a/(2b), so trying
        # every guess never sees it; counting it would return (2, 4, 6, 9).
        G = graph_from_edges(10, [(0, 8), (1, 5), (2, 9), (4, 6), (4, 9), (7, 8)])
        res = dalks_2approx(G, 4)
        assert res == dalks_every_guess(G, 4)
        assert res.vertices == (0, 2, 4, 6, 7, 8, 9)

    def test_large_complete_graph(self):
        n = 60
        G = graph_from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        assert dalks_2approx(G, 2).vertices == tuple(range(n))

    def test_cut_count_linear_in_n(self, monkeypatch):
        G = gnp_graph(40, 0.2, seed=4)
        calls = []

        def counted(graph, q, **bounds):
            calls.append(q)
            return max_quasi_density(graph, q, **bounds)

        monkeypatch.setattr(flow, "max_quasi_density", counted)
        dalks_2approx(G, 8)
        assert 0 < len(calls) <= 2 * (G.n + 1)

    def test_cuts_contract_to_the_free_vertices(self, monkeypatch):
        # The chain's two ends, which would be whole-graph cuts, take no
        # flow, and each of the 13 crossing cuts spans only the vertices
        # between its chain neighbours; on whole-graph networks they would
        # span 13n.
        G = gnp_graph(200, 0.04, 1)
        free = []

        def counted(arcs, supply, demand):
            free.append(len(supply))
            return max_flow(arcs, supply, demand)

        monkeypatch.setattr(flow, "max_flow", counted)
        dalks_2approx(G, 20)
        assert len(free) == 13 and sum(free) < 5 * G.n


class TestChainEnds:
    """The chain's two ends, taken without a cut, against the cuts they
    replace: ``S(lo)`` is the set of non-isolated vertices for ``lo < 1/2``,
    and ``S(hi)`` is empty for ``2*hi >= `` the maximum degree."""

    @staticmethod
    def walk(monkeypatch, G, lo, hi):
        """The chain, and the penalties of the cuts it ran without an
        ``inner`` bound (the ends; crossing cuts all have one)."""
        ends = []

        def recorded(graph, q, **bounds):
            if "inner" not in bounds:
                ends.append(q)
            return max_quasi_density(graph, q, **bounds)

        with monkeypatch.context() as mp:
            mp.setattr(flow, "max_quasi_density", recorded)
            chain = flow._quasi_chain(G, lo, hi)
        return chain, ends

    def graphs(self):
        # isolated vertices, single-edge components, a perfect matching
        yield graph_from_edges(7, [(0, 1), (3, 4), (4, 5), (3, 5)])
        yield graph_from_edges(5, [(1, 3)])
        yield graph_from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
        rng = random.Random("chain-ends")
        for _ in range(80):
            G = random_graph(rng, 2, 24, 0.03, 0.6)
            # drop every edge of a few vertices, so isolated ones are common
            gone = set(rng.sample(range(G.n), rng.randint(0, G.n // 3)))
            yield graph_from_edges(
                G.n, [(u, v) for u, v in G.edges if u not in gone and v not in gone]
            )

    def test_ends_match_the_cuts_they_replace(self, monkeypatch):
        ran = {True: 0, False: 0}
        for G in self.graphs():
            if not G.m:
                continue
            lo = Fraction(1, 2 * G.n)
            degree = max(map(G.degree, range(G.n)))
            first = max_quasi_density(G, lo)[0]
            assert first == tuple(v for v in range(G.n) if G.degree(v)), G
            for hi in sorted({Fraction(G.m, 2 * k) for k in range(1, G.n + 1)}):
                chain, ends = self.walk(monkeypatch, G, lo, hi)
                assert chain[0] == (lo, first, G.m)
                assert chain[-1][1] == max_quasi_density(G, hi, outer=first)[0], (G, hi)
                cut = 2 * hi < degree
                assert ends == ([hi] if cut else []), (G, hi)
                ran[cut] += 1
        # both ends of the rule are exercised, with the cut and without it
        assert min(ran.values()) > 20

    def test_lone_edge_bounds_the_lower_end(self, monkeypatch):
        # At penalty 1/2 a lone edge breaks even (1 - 2/2 = 0), so the
        # minimal optimiser drops it: the closed form holds only below 1/2,
        # which is why the chain requires lo < 1/2.
        G = graph_from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4)])
        assert max_quasi_density(G, Fraction(1, 2))[0] == (0, 1, 2)
        assert max_quasi_density(G, Fraction(49, 100))[0] == (0, 1, 2, 3, 4)
        chain, ends = self.walk(monkeypatch, G, Fraction(1, 12), Fraction(3, 2))
        assert chain[0] == (Fraction(1, 12), (0, 1, 2, 3, 4), 4) and ends == []

    def test_upper_end_cuts_below_half_the_max_degree(self, monkeypatch):
        # K5 plus an isolated vertex: at hi = 3/2 < 4/2 the clique still
        # pays (10 - 5*3/2 > 0), so S(hi) is not empty and the cut must run.
        G = graph_from_edges(6, [(u, v) for u in range(5) for v in range(u + 1, 5)])
        chain, ends = self.walk(monkeypatch, G, Fraction(1, 12), Fraction(3, 2))
        assert chain == [(Fraction(1, 12), (0, 1, 2, 3, 4), 10)]
        assert ends == [Fraction(3, 2)]
        chain, ends = self.walk(monkeypatch, G, Fraction(1, 12), Fraction(2))
        assert chain[-1][1] == () and ends == []


class TestDalks2Approx:
    def test_triangle_with_tail(self):
        # C5 plus a chord: the whole graph averages 12/5, beating the
        # chord triangle's 2, so at-least-3 keeps everything.
        G = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)])
        res = dalks_2approx(G, 3)
        assert res.vertices == (0, 1, 2, 3, 4) and res.edge_count == 6

    def test_isolated_triangle(self):
        # here the triangle really is the densest at-least-3 choice
        G = graph_from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
        res = dalks_2approx(G, 3)
        assert res.vertices == (0, 1, 2) and res.edge_count == 3

    def test_size_and_factor_two(self):
        rng = random.Random("dalks")
        for _ in range(25):
            G = connected_random_graph(rng, 4, 10)
            k = rng.randint(1, G.n)
            res = dalks_2approx(G, k)
            assert len(res.vertices) >= k
            assert count_induced_edges(G, res.vertices) == res.edge_count
            best = max(
                average_degree_fraction(induced_stats(G, combo))
                for size in range(k, G.n + 1)
                for combo in __import__("itertools").combinations(range(G.n), size)
            )
            assert 2 * Fraction(2 * res.edge_count, len(res.vertices)) >= best

    def test_edgeless(self):
        G = graph_from_edges(6, [])
        res = dalks_2approx(G, 4)
        assert res.vertices == (0, 1, 2, 3) and res.edge_count == 0


class TestFlowProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_quasi_density_certificate(self, salt):
        rng = random.Random(f"qd-{salt}")
        n = rng.randint(2, 8)
        G = graph_from_edges(
            n,
            [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.6
            ],
        )
        q = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        verts, value = max_quasi_density(G, q)
        assert count_induced_edges(G, verts) - q * len(verts) == value
        assert value >= 0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_chain_nests_and_bounded_cuts_match_whole_graph(self, salt):
        rng = random.Random(f"chain-{salt}")
        G = random_graph(rng, 2, 30, 0.05, 0.6)
        if not G.m:
            return
        cuts = []

        def recorded(graph, q, **bounds):
            out = max_quasi_density(graph, q, **bounds)
            cuts.append((q, bounds.get("inner", ()), out))
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(flow, "max_quasi_density", recorded)
            chain = flow._quasi_chain(G, Fraction(1, 2 * G.n), Fraction(G.m, 2))
        sets = [set(chosen) for _, chosen, _ in chain]
        assert all(later < earlier for earlier, later in zip(sets, sets[1:]))
        for q, inner, (chosen, gain) in cuts:
            base = count_induced_edges(G, inner) - q * len(inner)
            assert (chosen, base + gain) == max_quasi_density(G, q), (G, q)
        # the edge count each set carries is its true one, and each start is
        # where its set's line crosses its predecessor's
        for _, chosen, edges in chain:
            assert edges == count_induced_edges(G, chosen), (G, chosen)
        for (_, a, ea), (start, b, eb) in zip(chain, chain[1:]):
            assert start == Fraction(ea - eb, len(a) - len(b)), (G, a, b)
