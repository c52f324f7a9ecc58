"""Generator shapes, determinism, and parameter validation."""

import pytest

from rainbowdisc import (Graph, InvalidInputError, gen_cnf, gen_graph,
                         global_edge_connectivity, is_connected)
from rainbowdisc import errors
from rainbowdisc.generators import (GRAPH_KINDS, complete_graph, cycle_graph,
                                    flower_snark, petersen_graph, prism_graph,
                                    random_cubic_graph, random_tree)


class TestShapes:
    def test_cycle(self):
        g = cycle_graph(5)
        assert (g.vertex_count, g.edge_count) == (5, 5)
        assert all(d == 2 for d in g.degrees)

    def test_complete(self):
        g = complete_graph(5)
        assert g.edge_count == 10
        assert all(d == 4 for d in g.degrees)

    def test_petersen(self):
        g = petersen_graph()
        assert (g.vertex_count, g.edge_count) == (10, 15)
        assert all(d == 3 for d in g.degrees)
        assert global_edge_connectivity(g) == 3

    def test_prism(self):
        g = prism_graph()
        assert (g.vertex_count, g.edge_count) == (6, 9)
        assert all(d == 3 for d in g.degrees)

    def test_tree(self):
        for seed in range(8):
            g = random_tree(9, seed)
            assert g.edge_count == g.vertex_count - 1
            assert is_connected(g)

    def test_flower_snark(self):
        for k in (3, 5, 7, 9):
            g = flower_snark(k)
            assert (g.vertex_count, g.edge_count) == (4 * k, 6 * k)
            assert all(d == 3 for d in g.degrees)
            assert global_edge_connectivity(g) == 3

    def test_random_cubic(self):
        for n in (4, 6, 8, 10):
            g = random_cubic_graph(n, seed=n)
            assert g.vertex_count == n
            assert all(d == 3 for d in g.degrees)
            assert is_connected(g)
            assert g.edges == tuple(sorted(g.edges))


class TestDeterminism:
    def test_random_cubic_repeats(self):
        assert random_cubic_graph(8, 42) == random_cubic_graph(8, 42)

    def test_tree_repeats(self):
        assert random_tree(12, 5) == random_tree(12, 5)

    def test_cnf_repeats(self):
        assert gen_cnf(8, 8, 7) == gen_cnf(8, 8, 7)

    def test_different_seeds_differ_somewhere(self):
        assert any(random_tree(12, a) != random_tree(12, a + 1) for a in range(5))


class TestDispatch:
    def test_all_kinds_listed(self):
        assert set(GRAPH_KINDS) == {"cycle", "tree", "random_cubic", "prism",
                                    "petersen", "complete"}

    def test_dispatch_matches_direct(self):
        assert gen_graph("cycle", 6) == cycle_graph(6)
        assert gen_graph("petersen") == petersen_graph()
        assert gen_graph("prism") == prism_graph()
        assert gen_graph("tree", 7, seed=3) == random_tree(7, 3)
        assert gen_graph("random_cubic", 8, seed=1) == random_cubic_graph(8, 1)
        assert isinstance(gen_graph("complete", 4), Graph)

    def test_unknown_kind(self):
        with pytest.raises(InvalidInputError, match="unknown"):
            gen_graph("hypercube", 4)

    def test_missing_n(self):
        with pytest.raises(InvalidInputError, match="requires n"):
            gen_graph("cycle")


class TestParameterErrors:
    def test_cycle_too_small(self):
        with pytest.raises(InvalidInputError):
            cycle_graph(2)

    @pytest.mark.parametrize("k", [1, 4])
    def test_flower_snark_needs_odd_k_at_least_3(self, k):
        with pytest.raises(InvalidInputError, match="odd"):
            flower_snark(k)

    def test_cubic_odd_n(self):
        with pytest.raises(InvalidInputError, match="even"):
            random_cubic_graph(7, 0)

    def test_cubic_too_small(self):
        with pytest.raises(InvalidInputError):
            random_cubic_graph(2, 0)

    def test_cnf_too_few_variables(self):
        with pytest.raises(InvalidInputError):
            gen_cnf(2, 1, 0)

    def test_cnf_negative_clauses(self):
        with pytest.raises(InvalidInputError):
            gen_cnf(3, -1, 0)

    def test_cap_on_edges_and_clauses(self, monkeypatch):
        # the cap is read from n and m: exactly the cap is built, one more is
        # an input error
        monkeypatch.setattr(errors, "MAX_GENERATED", 10)
        assert gen_graph("complete", 5).edge_count == 10
        assert gen_graph("cycle", 10).edge_count == 10
        assert gen_graph("tree", 11).edge_count == 10
        assert gen_cnf(5, 10, 0).clause_count == 10
        for kind, n in (("complete", 6), ("cycle", 11), ("tree", 12), ("random_cubic", 8)):
            with pytest.raises(InvalidInputError, match="edges requested, over the cap of 10$"):
                gen_graph(kind, n)
        with pytest.raises(InvalidInputError, match="^11 clauses requested, over the cap of 10$"):
            gen_cnf(5, 11, 0)


def test_gen_cnf_shape():
    f = gen_cnf(6, 9, 11)
    assert f.variable_count == 6
    assert f.clause_count == 9
    for cl in f.clauses:
        assert len({abs(lit) for lit in cl}) == 3
        assert all(1 <= abs(lit) <= 6 for lit in cl)
