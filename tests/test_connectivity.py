"""Edge connectivity and Gomory-Hu tree tests, cross-checked against
bipartition enumeration oracles."""

import math
import random
from itertools import combinations

import pytest

from rainbowdisc import (Graph, InvalidInputError, components, connectivity_range,
                         gomory_hu, global_edge_connectivity, local_edge_connectivity,
                         rd_exact, serialize_graph, upper_edge_connectivity)
from rainbowdisc import connectivity
from rainbowdisc.cli import main
from rainbowdisc.connectivity import blocks, bridges
from rainbowdisc.generators import (complete_graph, cycle_graph, petersen_graph,
                                    random_cubic_graph, random_tree)
from corpus import (all_connected_graphs, bridged_cubic_pair, cubic_3ec_corpus,
                    cubic_not_3ec_graph, random_connected_graph, relabel)
from oracles import (cycle_edge_sets, global_min_cut_oracle, min_cut_value_oracle,
                     upper_connectivity_oracle)


def bridged_triangles():
    return Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)))


def swap_with_zero(g: Graph, v: int) -> Graph:
    """g with the labels of v and vertex 0 exchanged."""
    name = {v: 0, 0: v}
    return Graph(g.vertex_count,
                 tuple((name.get(a, a), name.get(b, b)) for a, b in g.edges))


def grid_graph(rows: int, cols: int) -> Graph:
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph(rows * cols, tuple(edges))


def wheel_graph(rim: int) -> Graph:
    """A rim-cycle on 0..rim-1 plus a hub, vertex rim, joined to all of it."""
    return Graph(rim + 1, tuple((i, (i + 1) % rim) for i in range(rim))
                 + tuple((i, rim) for i in range(rim)))


def two_k5_joined() -> Graph:
    """Two K5 on 0..4 and 5..9 joined by the edges 0-5 and 1-6."""
    k5 = complete_graph(5).edges
    return Graph(10, k5 + tuple((u + 5, v + 5) for u, v in k5) + ((0, 5), (1, 6)))


class TestLocalConnectivity:
    def test_tree_pairs_are_bridges(self):
        for seed in range(5):
            g = random_tree(7, seed)
            for s in range(7):
                for t in range(s + 1, 7):
                    value, cert = local_edge_connectivity(g, s, t)
                    assert value == 1
                    assert len(cert.cut_edges) == 1

    def test_c4_opposite(self):
        value, cert = local_edge_connectivity(cycle_graph(4), 0, 2)
        assert value == 2
        assert len(cert.cut_edges) == 2

    def test_petersen_all_pairs(self):
        g = petersen_graph()
        for s in range(10):
            for t in range(s + 1, 10):
                value, _ = local_edge_connectivity(g, s, t)
                assert value == 3

    def test_petersen_oracle_spot_checks(self):
        g = petersen_graph()
        for s, t in ((0, 1), (0, 7), (3, 9)):
            assert min_cut_value_oracle(g, s, t) == 3

    def test_certificate_sides_partition(self):
        g = bridged_triangles()
        value, cert = local_edge_connectivity(g, 0, 5)
        assert value == 1
        assert cert.side_s | cert.side_t == frozenset(range(6))
        assert not cert.side_s & cert.side_t
        assert 0 in cert.side_s and 5 in cert.side_t

    def test_rejects_equal_endpoints(self):
        with pytest.raises(InvalidInputError):
            local_edge_connectivity(cycle_graph(4), 1, 1)

    def test_rejects_non_integer_vertex(self):
        # 1.5 is not a vertex of the path 0-1-2, not vertex 1 truncated
        path = Graph(3, ((0, 1), (1, 2)))
        with pytest.raises(InvalidInputError, match="^vertex 1.5 is not an integer$"):
            local_edge_connectivity(path, 0, 1.5)

    def test_rejects_disconnected(self):
        with pytest.raises(InvalidInputError):
            local_edge_connectivity(Graph(4, ((0, 1), (2, 3))), 0, 2)

    def test_matches_oracle_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(2, 7))
            n = g.vertex_count
            for s in range(n):
                for t in range(s + 1, n):
                    value, cert = local_edge_connectivity(g, s, t)
                    assert value == min_cut_value_oracle(g, s, t)
                    assert len(cert.cut_edges) == value


class TestGlobalConnectivity:
    def test_cycle(self):
        assert global_edge_connectivity(cycle_graph(6)) == 2

    def test_complete(self):
        assert global_edge_connectivity(complete_graph(4)) == 3

    def test_bridge(self):
        assert global_edge_connectivity(bridged_triangles()) == 1

    def test_at_most_min_degree(self):
        rng = random.Random(23)
        for _ in range(30):
            g = random_connected_graph(rng, rng.randint(2, 8))
            assert global_edge_connectivity(g) <= g.min_degree

    def test_matches_oracle(self):
        rng = random.Random(29)
        graphs = [g for n in range(2, 6) for g in all_connected_graphs(n)]
        graphs += [random_connected_graph(rng, rng.randint(2, 7)) for _ in range(30)]
        for g in graphs:
            assert global_edge_connectivity(g) == global_min_cut_oracle(g)

    def test_rejects_single_vertex(self):
        with pytest.raises(InvalidInputError):
            global_edge_connectivity(Graph(1, ()))

    def test_start_vertex_of_any_degree_or_on_a_bridge(self):
        # the prefix order starts at vertex 0: put the least-degree vertex,
        # the greatest-degree vertex, or a bridge's end there
        rng = random.Random(59)
        for _ in range(25):
            g = random_connected_graph(rng, rng.randint(3, 8), max_extra=rng.randint(0, 14))
            h = random_connected_graph(rng, rng.randint(1, 4), max_extra=4)
            n = g.vertex_count
            bridged = Graph(n + h.vertex_count, g.edges + ((rng.randrange(n), n),)
                            + tuple((u + n, v + n) for u, v in h.edges))
            for other in (min(range(n), key=g.degrees.__getitem__),
                          max(range(n), key=g.degrees.__getitem__)):
                relabeled = swap_with_zero(g, other)
                assert global_edge_connectivity(relabeled) == global_min_cut_oracle(g)
            for end in bridged.edges[g.edge_count]:
                relabeled = swap_with_zero(bridged, end)
                assert global_edge_connectivity(relabeled) == 1 == global_min_cut_oracle(bridged)


class TestGomoryHu:
    def test_path_flows(self):
        tree = gomory_hu(Graph(3, ((0, 1), (1, 2))))
        assert sorted(tree.flow[1:]) == [1, 1]
        assert tree.parent[0] is None

    def test_k4_uniform(self):
        tree = gomory_hu(complete_graph(4))
        assert all(f == 3 for f in tree.flow[1:])

    def test_min_on_path_equals_direct_flow(self):
        # the tree promises flow equivalence only, so every pair is checked
        rng = random.Random(31)
        graphs = [g for n in range(2, 6) for g in all_connected_graphs(n)]
        graphs += [random_connected_graph(rng, rng.randint(2, 8)) for _ in range(40)]
        for g in graphs:
            tree = gomory_hu(g)
            n = g.vertex_count
            for s in range(n):
                for t in range(s + 1, n):
                    assert tree.connectivity(s, t) == local_edge_connectivity(g, s, t)[0]

    def test_connectivity_rejects_bad_pairs(self):
        # the same rule and messages as a Graph's vertex pairs
        tree = gomory_hu(cycle_graph(4))
        with pytest.raises(InvalidInputError, match="^s and t must differ$"):
            tree.connectivity(2, 2)
        with pytest.raises(InvalidInputError, match="^vertex 4 out of range$"):
            tree.connectivity(0, 4)
        with pytest.raises(InvalidInputError, match="^vertex -1 out of range$"):
            tree.connectivity(-1, 1)

    def test_rejects_disconnected(self):
        with pytest.raises(InvalidInputError, match="connected"):
            gomory_hu(Graph(3, ((0, 1),)))
        with pytest.raises(InvalidInputError, match="two vertices"):
            gomory_hu(Graph(1, ()))

    def test_min_flow_is_global_connectivity(self):
        graphs = [g for _, g in cubic_3ec_corpus()]
        graphs += [cubic_not_3ec_graph(), bridged_triangles()]
        graphs += [random_cubic_graph(n, seed) for n in (12, 20, 40) for seed in range(5)]
        rng = random.Random(43)
        graphs += [random_connected_graph(rng, rng.randint(2, 8)) for _ in range(30)]
        for g in graphs:
            assert gomory_hu(g).connectivity_range() == (
                global_edge_connectivity(g), upper_edge_connectivity(g))
        for n in range(2, 6):
            for g in all_connected_graphs(n):
                assert gomory_hu(g).connectivity_range() == (
                    global_min_cut_oracle(g), upper_connectivity_oracle(g))


    def test_degree_cap_at_either_end(self, monkeypatch):
        # a Gusfield flow that reaches min(deg i, deg p) takes the smaller
        # star as its cut, side {i} or V - {p}; both must give a correct tree
        fired = set()
        flow = connectivity._max_flow

        def spy(g, arcs, s, sink, limit=math.inf):
            value, side = flow(g, arcs, s, sink, limit)
            if side is None and len(sink) == 1:
                fired.add("i" if value == g.degrees[s] else "p")
            return value, side

        monkeypatch.setattr(connectivity, "_max_flow", spy)
        k25 = Graph(7, tuple((a, b) for a in (0, 1) for b in range(2, 7)))
        rng = random.Random(61)
        for g in (k25, wheel_graph(6), two_k5_joined()):
            for h in (g, swap_with_zero(g, g.vertex_count - 1), relabel(g, rng)):
                tree = gomory_hu(h)
                n = h.vertex_count
                for s in range(n):
                    for t in range(s + 1, n):
                        assert tree.connectivity(s, t) == local_edge_connectivity(h, s, t)[0]
        assert fired == {"i", "p"}


class TestConnectivityRange:
    def test_matches_oracles_on_both_sides_of_the_shortcut(self):
        # lambda = d2, the second-largest degree, needs no Gomory-Hu tree
        rng = random.Random(67)
        graphs = [g for n in range(2, 6) for g in all_connected_graphs(n)]
        graphs += [random_connected_graph(rng, rng.randint(6, 9), max_extra=rng.randint(0, 20))
                   for _ in range(30)]
        graphs += [wheel_graph(5), grid_graph(3, 3), cycle_graph(7), complete_graph(6)]
        shortcut = set()
        for g in graphs:
            lam, lam_plus = connectivity_range(g)
            assert (lam, lam_plus) == (global_min_cut_oracle(g), upper_connectivity_oracle(g))
            shortcut.add(lam == sorted(g.degrees)[-2])
        assert shortcut == {True, False}

    def test_trees_built_by_bounds_and_rd_exact(self, monkeypatch, tmp_path, capsys):
        built = []
        tree_of = connectivity.gomory_hu

        def counting(g):
            built.append(g)
            return tree_of(g)

        monkeypatch.setattr(connectivity, "gomory_hu", counting)
        for g in (petersen_graph(), random_cubic_graph(20, 0), complete_graph(6),
                  cycle_graph(7)):
            assert connectivity_range(g)[0] == sorted(g.degrees)[-2]
            path = tmp_path / "g.graph"
            path.write_text(serialize_graph(g))
            assert main(["bounds", str(path)]) == 0
            rd_exact(g)
            assert built == []
        path.write_text(serialize_graph(grid_graph(4, 4)))
        assert main(["bounds", str(path)]) == 0
        assert capsys.readouterr().out.endswith("lambda=2 lambda_plus=4 delta=4 chi_upper<=5\n")
        assert len(built) == 1


class TestUpperConnectivity:
    def test_path(self):
        assert upper_edge_connectivity(Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4)))) == 1

    def test_bridged_triangles(self):
        g = bridged_triangles()
        assert upper_edge_connectivity(g) == 2
        assert upper_connectivity_oracle(g) == 2

    def test_complete(self):
        assert upper_edge_connectivity(complete_graph(4)) == 3

    def test_matches_oracle(self):
        rng = random.Random(37)
        for _ in range(30):
            g = random_connected_graph(rng, rng.randint(2, 7))
            assert upper_edge_connectivity(g) == upper_connectivity_oracle(g)

    def test_at_least_global(self):
        rng = random.Random(41)
        for _ in range(30):
            g = random_connected_graph(rng, rng.randint(2, 8))
            assert global_edge_connectivity(g) <= upper_edge_connectivity(g)


class TestBlocks:
    def test_matches_cycle_oracle(self):
        # two edges share a block iff some cycle holds both; the bridges are
        # the one-edge blocks, the edges on no cycle
        rng = random.Random(53)
        graphs = [g for n in range(2, 6) for g in all_connected_graphs(n)]
        graphs += [random_connected_graph(rng, rng.randint(6, 12)) for _ in range(60)]
        for g in graphs:
            listed = blocks(g)
            assert listed == sorted(tuple(sorted(block)) for block in listed)
            block_of = {eid: i for i, block in enumerate(listed) for eid in block}
            assert sorted(block_of) == list(range(g.edge_count))
            assert sum(map(len, listed)) == g.edge_count
            cycles = cycle_edge_sets(g)
            for e, f in combinations(range(g.edge_count), 2):
                assert (block_of[e] == block_of[f]) == any(
                    e in cycle and f in cycle for cycle in cycles)
            on_no_cycle = {e for e in range(g.edge_count)
                           if not any(e in cycle for cycle in cycles)}
            assert bridges(g) == on_no_cycle == {b[0] for b in listed if len(b) == 1}

    def test_named_graphs(self):
        assert blocks(bridged_triangles()) == [(0, 1, 2), (3, 4, 5), (6,)]
        bowtie = Graph(5, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)))
        assert blocks(bowtie) == [(0, 1, 2), (3, 4, 5)]
        assert blocks(Graph(4, ((2, 3), (0, 1)))) == [(0,), (1,)]
        assert blocks(petersen_graph()) == [tuple(range(15))]


class TestBridges:
    def test_matches_component_count_on_random_graphs(self):
        # an edge is a bridge iff deleting it adds a component
        rng = random.Random(43)
        for _ in range(60):
            g = random_connected_graph(rng, rng.randint(1, 9), max_extra=rng.randint(0, 8))
            if rng.random() < 0.5:
                g = Graph(g.vertex_count + 3, g.edges + ((g.vertex_count, g.vertex_count + 1),))
            base = len(components(g))
            want = {eid for eid in range(g.edge_count)
                    if len(components(g, [eid])) > base}
            assert bridges(g) == want

    def test_named_graphs(self):
        assert bridges(bridged_triangles()) == {6}
        assert bridges(cycle_graph(5)) == frozenset()
        assert bridges(random_tree(9, 2)) == frozenset(range(8))
        g = bridged_cubic_pair(10, 0)
        assert bridges(g) == {g.edge_count - 1}

    def test_long_path_needs_no_recursion(self):
        n = 5000
        g = Graph(n, tuple((i, i + 1) for i in range(n - 1)))
        assert bridges(g) == frozenset(range(n - 1))
