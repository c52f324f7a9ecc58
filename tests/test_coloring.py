"""Proper edge coloring and chromatic index tests."""

import random

import pytest

import rainbowdisc.coloring as coloring_module

from rainbowdisc import (BudgetExceededError, EdgeColoring, Graph,
                         InvalidInputError, chromatic_index_exact,
                         find_proper_k_coloring, is_proper,
                         proper_coloring_delta_plus_one)
from rainbowdisc.generators import (complete_graph, cycle_graph, flower_snark,
                                    petersen_graph, random_cubic_graph)
from corpus import (bridged_cubic_pair, cubic_3ec_corpus, k33_graph,
                    random_connected_graph)
from oracles import (chromatic_index_enumeration_oracle, chromatic_index_oracle,
                     exists_proper_k_coloring_oracle)


def star(leaves: int) -> Graph:
    return Graph(leaves + 1, tuple((0, i) for i in range(1, leaves + 1)))


class TestIsProper:
    def test_star_distinct(self):
        assert is_proper(star(3), EdgeColoring((1, 2, 3))) is True

    def test_star_repeat(self):
        assert is_proper(star(3), EdgeColoring((1, 1, 2))) is False

    def test_single_edge(self):
        assert is_proper(Graph(2, ((0, 1),)), EdgeColoring((4,))) is True

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            is_proper(star(3), EdgeColoring((1, 2)))

    def test_reads_the_rainbow_stars(self):
        # _rainbow_stars lists, ascending, the vertices whose edges carry
        # distinct colors; a coloring is proper when that is every vertex
        assert coloring_module._rainbow_stars(star(3), EdgeColoring((1, 1, 2))) == [1, 2, 3]
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(2, 7)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            g = Graph(n, tuple(rng.sample(pairs, rng.randint(1, len(pairs)))))
            c = EdgeColoring(tuple(rng.randrange(3) for _ in range(g.edge_count)))
            want = [v for v in range(n)
                    if all(c.colors[a] != c.colors[b]
                           for a, (p, q) in enumerate(g.edges)
                           for b, (x, y) in enumerate(g.edges)
                           if a < b and v in (p, q) and v in (x, y))]
            assert coloring_module._rainbow_stars(g, c) == want
            assert is_proper(g, c) is (want == list(range(n)))


class TestConstructiveColoring:
    def test_single_edge_one_color(self):
        c = proper_coloring_delta_plus_one(Graph(2, ((0, 1),)))
        assert c.color_count == 1

    def test_star_uses_all_distinct(self):
        g = star(4)
        c = proper_coloring_delta_plus_one(g)
        assert c.color_count == 4
        assert is_proper(g, c)

    def test_c5_within_three_colors(self):
        g = cycle_graph(5)
        c = proper_coloring_delta_plus_one(g)
        assert is_proper(g, c)
        assert c.color_count <= 3

    def test_empty_graph_rejected(self):
        with pytest.raises(InvalidInputError):
            proper_coloring_delta_plus_one(Graph(3, ()))

    def test_proper_within_bound_on_random_graphs(self):
        rng = random.Random(101)
        for _ in range(60):
            g = random_connected_graph(rng, rng.randint(2, 9), max_extra=10)
            c = proper_coloring_delta_plus_one(g)
            assert is_proper(g, c)
            assert c.color_count <= g.max_degree + 1

    def test_deterministic(self):
        g = petersen_graph()
        assert proper_coloring_delta_plus_one(g) == proper_coloring_delta_plus_one(g)


class TestChromaticIndex:
    def test_c5(self):
        r = chromatic_index_exact(cycle_graph(5))
        assert (r.chi_prime, r.vizing_class) == (3, 2)
        assert is_proper(cycle_graph(5), r.witness)

    def test_k4(self):
        r = chromatic_index_exact(complete_graph(4))
        assert (r.chi_prime, r.vizing_class) == (3, 1)
        assert exists_proper_k_coloring_oracle(complete_graph(4), 3)

    def test_petersen(self):
        g = petersen_graph()
        r = chromatic_index_exact(g)
        assert (r.chi_prime, r.vizing_class) == (4, 2)
        assert is_proper(g, r.witness)
        assert not exists_proper_k_coloring_oracle(g, 3)

    def test_k33_class_one(self):
        r = chromatic_index_exact(k33_graph())
        assert (r.chi_prime, r.vizing_class) == (3, 1)

    def test_witness_uses_exactly_chi_colors(self):
        rng = random.Random(103)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(2, 7))
            r = chromatic_index_exact(g)
            assert is_proper(g, r.witness)
            assert r.witness.color_count == r.chi_prime
            assert r.vizing_class == (1 if r.chi_prime == g.max_degree else 2)

    def test_matches_backtracking_oracle(self):
        rng = random.Random(107)
        for _ in range(50):
            g = random_connected_graph(rng, rng.randint(2, 7))
            assert chromatic_index_exact(g).chi_prime == chromatic_index_oracle(g)

    def test_oracle_agrees_with_pure_enumeration(self):
        rng = random.Random(109)
        for _ in range(20):
            g = random_connected_graph(rng, rng.randint(2, 5), max_extra=3)
            if g.edge_count <= 6:
                assert chromatic_index_oracle(g) == chromatic_index_enumeration_oracle(g)

    def test_bipartite_graphs_are_class_one(self):
        # König: bipartite graphs have chi' = max degree
        rng = random.Random(113)
        for _ in range(40):
            left = rng.randint(1, 4)
            right = rng.randint(1, 4)
            edges = [(u, left + v) for u in range(left) for v in range(right)
                     if rng.random() < 0.7]
            if not edges:
                continue
            g = Graph(left + right, tuple(edges))
            assert chromatic_index_exact(g).chi_prime == g.max_degree

    def test_determinism(self):
        # K5 is overfull; the random cubic graphs take the Kempe walk
        for g in [complete_graph(5)] + [random_cubic_graph(100, s) for s in range(5)]:
            assert chromatic_index_exact(g) == chromatic_index_exact(g)

    def test_budget_exceeded_raises(self):
        with pytest.raises(BudgetExceededError):
            chromatic_index_exact(petersen_graph(), node_budget=5)

    def test_empty_graph_rejected(self):
        with pytest.raises(InvalidInputError):
            chromatic_index_exact(Graph(2, ()))


def test_find_proper_k_coloring_edgeless_graph():
    # the empty coloring is proper; chromatic_index_exact still rejects the
    # graph, through proper_coloring_delta_plus_one
    assert find_proper_k_coloring(Graph(3, ()), 2) == EdgeColoring((), 2)


def test_find_proper_k_coloring_exhaustive_failure():
    assert find_proper_k_coloring(cycle_graph(5), 2) is None
    found = find_proper_k_coloring(cycle_graph(6), 2)
    assert found is not None
    assert is_proper(cycle_graph(6), found)


class TestSearchDepth:
    """The search is deeper than the interpreter's recursion limit."""

    def test_long_even_cycle_two_colored(self):
        g = cycle_graph(2000)
        found = find_proper_k_coloring(g, 2)
        assert found is not None and found.palette == 2
        assert is_proper(g, found)

    def test_long_odd_cycle_has_none(self):
        assert find_proper_k_coloring(cycle_graph(2001), 2) is None

    def test_large_snark_exhausts_budget(self):
        with pytest.raises(BudgetExceededError):
            find_proper_k_coloring(flower_snark(169), 3, 100_000)

    @pytest.mark.parametrize("g, nodes", [(petersen_graph(), 55), (flower_snark(5), 1183)],
                             ids=["petersen", "J5"])
    def test_class_two_proof_node_count(self, g, nodes):
        # the exact number of colors placed in the search that proves no 3-coloring
        assert find_proper_k_coloring(g, 3, nodes) is None
        with pytest.raises(BudgetExceededError):
            find_proper_k_coloring(g, 3, nodes - 1)


class TestWitnessFirst:
    @pytest.mark.parametrize("n", [60, 100, 200, 300])
    def test_random_cubic_class_one_without_search(self, n):
        # a node budget of 1 would be exceeded by any exhaustive search
        for seed in range(10):
            g = random_cubic_graph(n, seed)
            r = chromatic_index_exact(g, node_budget=1)
            assert (r.chi_prime, r.vizing_class) == (3, 1)
            assert r.witness.palette == 3
            assert is_proper(g, r.witness)

    def test_agrees_with_oracle_and_search_on_small_corpus(self):
        rng = random.Random(127)
        graphs = [g for _, g in cubic_3ec_corpus()]
        graphs += [random_connected_graph(rng, rng.randint(2, 7)) for _ in range(40)]
        for g in graphs:
            r = chromatic_index_exact(g)
            assert r.chi_prime == chromatic_index_oracle(g)
            found = find_proper_k_coloring(g, g.max_degree)
            assert r.vizing_class == (1 if found is not None else 2)
            assert is_proper(g, r.witness)
            assert r.witness.palette == r.chi_prime

    def test_overfull_graphs_need_no_search(self):
        # a component with more than max_degree * floor(n_i/2) edges: class 2
        # with no node spent, also when the whole graph is not overfull
        c5_and_vertex = Graph(6, cycle_graph(5).edges)
        k5_and_edge = Graph(7, complete_graph(5).edges + ((5, 6),))
        for g in (cycle_graph(2001), complete_graph(5), complete_graph(7),
                  c5_and_vertex, k5_and_edge):
            r = chromatic_index_exact(g, node_budget=1)
            assert (r.chi_prime, r.vizing_class) == (g.max_degree + 1, 2)
            assert is_proper(g, r.witness)

    def test_regular_with_bridge_needs_no_walk_or_search(self, monkeypatch):
        # parity lemma: a Delta-regular component with a bridge is class 2,
        # so neither the Kempe walk nor any node of the search is spent
        def no_walk(g, start):
            raise AssertionError("Kempe walk ran")

        monkeypatch.setattr(coloring_module, "_kempe_walk_delta_coloring", no_walk)
        pair = bridged_cubic_pair(10, 3)
        n = pair.vertex_count
        cubic_and_cycle = Graph(n + 4, pair.edges + tuple(
            (u + n, v + n) for u, v in cycle_graph(4).edges))
        for g in (bridged_cubic_pair(4, 0), bridged_cubic_pair(100, 0),
                  bridged_cubic_pair(250, 0), cubic_and_cycle):
            r = chromatic_index_exact(g, node_budget=1)
            assert (r.chi_prime, r.vizing_class) == (4, 2)
            assert is_proper(g, r.witness)

    def test_bridged_graphs_that_are_not_regular_still_walk(self):
        # a bridge alone proves nothing: a path is class 1, and so is a
        # cubic pair whose bridge ends have degree below Delta = 4
        g = bridged_cubic_pair(10, 0)
        hub = Graph(g.vertex_count + 1, g.edges + ((0, g.vertex_count),))
        for h in (Graph(4, ((0, 1), (1, 2), (2, 3))), hub):
            r = chromatic_index_exact(h, node_budget=1)
            assert r.vizing_class == 1
            assert is_proper(h, r.witness)

    @pytest.mark.parametrize("k", [3, 5, 7, 9])
    def test_flower_snarks_proved_class_two(self, k):
        g = flower_snark(k)
        r = chromatic_index_exact(g)
        assert (r.chi_prime, r.vizing_class) == (4, 2)
        assert is_proper(g, r.witness)
