"""Rainbow cut search, disconnection checks, rd computation, splitting."""

import itertools
import random
import tracemalloc

import pytest

import rainbowdisc.coloring as coloring_module
import rainbowdisc.graphs as graphs_module
import rainbowdisc.rainbow as rainbow_module
from rainbowdisc.connectivity import blocks, bridges
from rainbowdisc.graphs import (CutCertificate, check_cut_certificate, check_edge_id,
                               reachable_from)

from rainbowdisc import (DEFAULT_NODE_BUDGET, Assignment, BudgetExceededError, CnfFormula,
                         EdgeColoring, Graph, build_cut_from_assignment,
                         InvalidInputError, build_reduction, certify_rd3_coloring_proper,
                         chromatic_index_exact, decide_rd_cubic,
                         find_rainbow_cut_exact, find_rainbow_cut_fixed_k,
                         global_edge_connectivity, is_connected, is_proper, is_rainbow,
                         is_rainbow_disconnected,
                         proper_coloring_delta_plus_one, rd_exact,
                         split_along_rainbow_cut, upper_edge_connectivity)
from rainbowdisc.generators import (complete_graph, cycle_graph, flower_snark, gen_cnf,
                                    petersen_graph, prism_graph, random_cubic_graph,
                                    random_tree)
from corpus import (all_connected_graphs, bridged_cubic_pair, cubic_3ec_corpus,
                    cubic_not_3ec_graph, k33_graph, random_coloring,
                    random_connected_graph, relabel, truncate, two_hub_graph)
from oracles import (bipartition_sides, crossing_edges, first_level_coloring_oracle,
                     known_cut_scan_oracle,
                     rainbow_cut_exists_oracle, rainbow_disconnected_oracle, rd_oracle,
                     splitting_cut_reference)


def mono(g: Graph) -> EdgeColoring:
    return EdgeColoring((1,) * g.edge_count)


PRISM_PROPER = EdgeColoring((3, 1, 2, 3, 1, 2, 1, 2, 3))


def splitting_cut(g: Graph, c: EdgeColoring):
    """The splitting scan of certify on g's cycle-space labels."""
    return rainbow_module._smallest_splitting_cut(g, c, rainbow_module._cycle_space_labels(g))


def cubic_lambda_graphs():
    """(g, lambda) for the 3-edge-connected cubic corpus and cubic graphs of
    lambda 1 and 2, fixed and random."""
    graphs = [g for _, g in cubic_3ec_corpus()]
    graphs += [cubic_not_3ec_graph(), bridged_cubic_pair(6, 0), bridged_cubic_pair(8, 3)]
    graphs += [random_cubic_graph(n, seed) for n in (10, 14, 20, 30) for seed in range(6)]
    return [(g, global_edge_connectivity(g)) for g in graphs]


def scan_graphs(rng: random.Random):
    """3-edge-connected cubic graphs for the splitting scan: the corpus,
    truncations of K4, K3,3 and the prism (the truncated Petersen graph is
    class 2) under a random relabelling, and class-1 random cubic graphs up
    to n = 60."""
    graphs = [g for _, g in cubic_3ec_corpus(random_count=4)]
    graphs += [relabel(truncate(g), rng) for g in graphs[:3]]
    for n in (12, 20, 24, 32, 40, 50, 60):
        seed = 0
        while (global_edge_connectivity(g := random_cubic_graph(n, seed)) < 3
               or chromatic_index_exact(g).chi_prime != 3):
            seed += 1
        graphs.append(g)
    return graphs


def count_flows(monkeypatch) -> list[int]:
    """The vertex counts of the graphs _check_cubic_3ec runs a flow on, in
    call order."""
    flows = []

    def counting_flow(h):
        flows.append(h.vertex_count)
        return global_edge_connectivity(h)

    monkeypatch.setattr(rainbow_module, "global_edge_connectivity", counting_flow)
    return flows


def assert_valid_certificates(g: Graph, c: EdgeColoring, certificates) -> None:
    """Each certificate separates its pair, with s on side_s, by a rainbow cut."""
    for (s, t), cert in certificates.items():
        check_cut_certificate(g, cert, s, t)
        assert is_rainbow(c, cert.cut_edges)


def rainbow_star(g: Graph, c: EdgeColoring, v: int) -> bool:
    return is_rainbow(c, [eid for eid, _ in g.adjacency[v]])


def rd_by_level_search(g: Graph) -> int:
    """rd from _search_disconnection_coloring alone, level by level from
    lambda+ to max_degree, with no witness-first step."""
    for k in range(upper_edge_connectivity(g), g.max_degree + 1):
        if rainbow_module._search_disconnection_coloring(
                g, k, DEFAULT_NODE_BUDGET) is not None:
            return k
    return g.max_degree + 1


def cycle_and_pendant(n: int) -> Graph:
    """An n-cycle with one pendant vertex, n, joined to vertex 0."""
    return Graph(n + 1, tuple((i, (i + 1) % n) for i in range(n)) + ((0, n),))


@pytest.fixture
def searched_levels(monkeypatch):
    """The (level k, node_budget) pairs that rd_exact hands to
    _search_disconnection_coloring."""
    levels = []
    search = rainbow_module._search_disconnection_coloring

    def recording_search(g, k, node_budget):
        levels.append((k, node_budget))
        return search(g, k, node_budget)

    monkeypatch.setattr(rainbow_module, "_search_disconnection_coloring", recording_search)
    return levels


def assert_no_stranded_vertex(g: Graph, side_s, s: int) -> None:
    for v in side_s - {s}:
        assert any(w in side_s for _, w in g.adjacency[v]), v


def listed_sides(g, labels, cap, s, t):
    """The side-0 vertex sets that _sides yields, in order."""
    return [frozenset(v for v, x in enumerate(side) if x == 0)
            for side in rainbow_module._sides(g, labels, cap, s, t, lambda: None)]


class TestSides:
    def test_level_listing_matches_oracle(self):
        # one label with cap k: every side holding vertex 0 with at most k
        # crossing edges, each once (plus the side holding every vertex)
        rng = random.Random(37)
        graphs = [g for n in range(2, 7) for g in all_connected_graphs(n)]
        graphs += [random_connected_graph(rng, rng.randint(7, 9), max_extra=8)
                   for _ in range(40)]
        for g in graphs:
            n = g.vertex_count
            sizes = {frozenset(side): len(crossing_edges(g, side))
                     for side in bipartition_sides(n)}
            for k in range(1, g.max_degree + 1):
                listed = listed_sides(g, [0] * g.edge_count, k, 0, None)
                assert len(listed) == len(set(listed))
                expected = {side for side, size in sizes.items() if 1 <= size <= k}
                assert set(listed) == expected | {frozenset(range(n))}

    def test_cut_listing_matches_oracle(self):
        # one label per color with cap 1 and both ends fixed: every rainbow
        # s-t cut's s side, the first one being the all-pairs check's search;
        # find_rainbow_cut_exact finds a valid cut iff one is listed. When
        # the star of t is rainbow it meets no conflict, and t's side is the
        # closure of {t} under adding a vertex other than s whose neighbours
        # all lie in it, which is t and its degree-1 neighbours other than s
        rng = random.Random(41)
        for _ in range(300):
            g = random_connected_graph(rng, rng.randint(2, 8))
            c = random_coloring(rng, g.edge_count, rng.randint(1, 5))
            n = g.vertex_count
            s, t = rng.sample(range(n), 2)
            listed = listed_sides(g, c.colors, 1, s, t)
            expected = set()
            for side in bipartition_sides(n):
                s_side = frozenset(side if s in side else set(range(n)) - side)
                cols = [c.colors[e] for e in crossing_edges(g, s_side)]
                if t not in s_side and len(set(cols)) == len(cols):
                    expected.add(s_side)
            assert sorted(listed, key=sorted) == sorted(expected, key=sorted)
            assert bool(listed) == rainbow_cut_exists_oracle(g, c, s, t)
            found = find_rainbow_cut_exact(g, c, s, t)
            assert (found is not None) == bool(listed)
            if found is not None:
                check_cut_certificate(g, found, s, t)
                assert is_rainbow(c, found.cut_edges)
                if rainbow_star(g, c, t):
                    assert found.side_t == {t} | {w for _, w in g.adjacency[t]
                                                  if w != s and len(g.adjacency[w]) == 1}


class TestFixedK:
    def test_path_separates_with_one_edge(self):
        g = Graph(3, ((0, 1), (1, 2)))
        cert = find_rainbow_cut_fixed_k(g, EdgeColoring((1, 1)), 0, 2)
        assert cert is not None
        assert len(cert.cut_edges) == 1

    def test_mono_c4_has_none(self):
        g = cycle_graph(4)
        assert find_rainbow_cut_fixed_k(g, mono(g), 0, 2) is None

    def test_alternating_c4(self):
        g = cycle_graph(4)
        c = EdgeColoring((1, 2, 1, 2))
        cert = find_rainbow_cut_fixed_k(g, c, 0, 2)
        assert cert is not None
        assert len(cert.cut_edges) == 2
        assert {c.colors[e] for e in cert.cut_edges} == {1, 2}
        assert rainbow_cut_exists_oracle(g, c, 0, 2)

    def test_same_endpoints_rejected(self):
        g = cycle_graph(4)
        with pytest.raises(InvalidInputError):
            find_rainbow_cut_fixed_k(g, mono(g), 1, 1)


class TestExact:
    def test_tree_always_cut(self):
        rng = random.Random(11)
        for _ in range(20):
            g = random_tree(rng.randint(2, 8), rng.randrange(1000))
            c = random_coloring(rng, g.edge_count, rng.randint(1, 4))
            s = rng.randrange(g.vertex_count)
            t = rng.choice([v for v in range(g.vertex_count) if v != s])
            cert = find_rainbow_cut_exact(g, c, s, t)
            assert cert is not None
            assert is_rainbow(c, cert.cut_edges)

    def test_mono_tree_cut_is_a_single_bridge(self):
        g = random_tree(7, 3)
        cert = find_rainbow_cut_exact(g, mono(g), 0, 6)
        assert cert is not None
        assert len(cert.cut_edges) == 1

    def test_mono_k4_has_none(self):
        g = complete_graph(4)
        assert find_rainbow_cut_exact(g, mono(g), 0, 3) is None

    def test_reduction_graph_has_st_cut(self):
        art = build_reduction(CnfFormula(3, ((1, 2, 3),)))
        cert = find_rainbow_cut_exact(art.graph, art.coloring, art.s, art.t)
        assert cert is not None
        assert is_rainbow(art.coloring, cert.cut_edges)

    def test_budget_exceeded(self):
        # the encoding of all eight clauses over three variables has no cut,
        # and refuting it takes more than 2 decisions plus conflicts
        f = CnfFormula(3, tuple((a, 2 * b, 3 * c)
                                for a, b, c in itertools.product((1, -1), repeat=3)))
        art = build_reduction(f)
        with pytest.raises(BudgetExceededError):
            find_rainbow_cut_exact(art.graph, art.coloring, art.s, art.t, node_budget=2)
        assert find_rainbow_cut_exact(art.graph, art.coloring, art.s, art.t) is None

    def test_agrees_with_fixed_k_and_oracle(self):
        rng = random.Random(13)
        for _ in range(80):
            g = random_connected_graph(rng, rng.randint(2, 6))
            c = random_coloring(rng, g.edge_count, rng.randint(1, 4))
            s = rng.randrange(g.vertex_count)
            t = rng.choice([v for v in range(g.vertex_count) if v != s])
            via_exact = find_rainbow_cut_exact(g, c, s, t)
            via_fixed = find_rainbow_cut_fixed_k(g, c, s, t)
            expected = rainbow_cut_exists_oracle(g, c, s, t)
            assert (via_exact is not None) == expected
            assert (via_fixed is not None) == expected

    def test_agrees_with_oracle_on_pendants_and_class_sizes(self):
        # n <= 6, some graphs with degree-1 vertices at t (t's side holds
        # them), colored in classes of 2 to 7 edges, so that both the
        # pairwise (at most 5 edges) and the counter (6 or 7) at-most-one run
        rng = random.Random(47)
        class_sizes = set()
        for _ in range(400):
            pendants = rng.randint(0, 2)
            core = random_connected_graph(rng, rng.randint(2, 6 - pendants), max_extra=10)
            n = core.vertex_count + pendants
            t = rng.randrange(core.vertex_count)
            g = Graph(n, core.edges + tuple((t, v) for v in range(core.vertex_count, n)))
            s = rng.choice([v for v in range(n) if v != t])
            ids = list(range(g.edge_count))
            rng.shuffle(ids)
            colors, col = [0] * g.edge_count, 0
            while ids:
                size = rng.randint(2, 7)
                class_sizes.add(min(size, len(ids)))
                for eid in ids[:size]:
                    colors[eid] = col
                del ids[:size]
                col += 1
            c = EdgeColoring(tuple(colors))
            found = find_rainbow_cut_exact(g, c, s, t)
            assert (found is not None) == rainbow_cut_exists_oracle(g, c, s, t)
            if found is not None:
                check_cut_certificate(g, found, s, t)
                assert is_rainbow(c, found.cut_edges)
                assert_no_stranded_vertex(g, found.side_s, s)
        assert class_sizes >= set(range(2, 8))

    def test_s_side_strands_no_vertex_on_encodings(self):
        # every vertex of a found s side but s has a neighbour there
        for seed in range(20):
            art = build_reduction(gen_cnf(5, 12, seed))
            found = find_rainbow_cut_exact(art.graph, art.coloring, art.s, art.t)
            assert found is not None
            assert_no_stranded_vertex(art.graph, found.side_s, art.s)

    def test_few_colors_stay_within_class_product(self):
        # each placed vertex has a placed neighbour, so live nodes at a depth
        # are distinct rainbow edge sets: at most 2n * prod(|class| + 1) nodes;
        # placing by id alone spends about 2^40 on the two-hub graph
        rng = random.Random(23)
        cases = [(two_hub_graph(40), 0, 1, 1)]
        for _ in range(60):
            g = random_connected_graph(rng, rng.randint(2, 12), max_extra=14)
            s = rng.randrange(g.vertex_count)
            t = rng.choice([v for v in range(g.vertex_count) if v != s])
            cases.append((g, s, t, rng.randint(1, 3)))
        for g, s, t, palette in cases:
            c = random_coloring(rng, g.edge_count, palette)
            bound = 2 * g.vertex_count
            for col in set(c.colors):
                bound *= c.colors.count(col) + 1
            via_exact = find_rainbow_cut_exact(g, c, s, t, node_budget=bound)
            via_fixed = find_rainbow_cut_fixed_k(g, c, s, t)
            assert (via_exact is None) == (via_fixed is None)


class TestDisconnectionCheck:
    def test_mono_tree_ok(self):
        g = random_tree(7, 3)
        check = is_rainbow_disconnected(g, mono(g))
        assert check.ok and bool(check)
        assert check.failing_pair is None
        assert len(check.certificates) == 21

    def test_mono_c4_fails_on_first_pair(self):
        g = cycle_graph(4)
        check = is_rainbow_disconnected(g, mono(g))
        assert not check.ok
        assert check.failing_pair == (0, 1)

    def test_certificates_hold_the_settled_pairs_only(self):
        # one color on the path 0-1-2-3-4 with a chord 2-4: pairs (0, t) and
        # (1, t) are cut by edges 0 and 1, and (2, 3) has no rainbow cut
        g = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (2, 4)))
        check = is_rainbow_disconnected(g, mono(g))
        assert check.failing_pair == (2, 3)
        assert list(check.certificates) == [(0, 1), (0, 2), (0, 3), (0, 4),
                                            (1, 2), (1, 3), (1, 4)]
        assert check.certificates[(1, 4)] == CutCertificate({1}, {0, 1}, {2, 3, 4})
        for key in ((2, 3), (2, 4), (1, 1), (4, 1), (0, 5), (-1, 2), (0, 1.0), (0.0, 2), 7,
                    (0, 1, 2), None):
            assert key not in check.certificates
            with pytest.raises(KeyError):
                check.certificates[key]
        # every star of a proper coloring is rainbow, so a float s must be
        # refused before the star of t is looked at
        k4 = complete_graph(4)
        stars = is_rainbow_disconnected(k4, chromatic_index_exact(k4).witness).certificates
        assert (0, 2) in stars and (0.0, 2) not in stars

    def test_proper_k4_ok(self):
        g = complete_graph(4)
        c = chromatic_index_exact(g).witness
        assert is_rainbow_disconnected(g, c).ok
        assert rainbow_disconnected_oracle(g, c)

    def test_agrees_with_oracle(self):
        rng = random.Random(17)
        for _ in range(60):
            g = random_connected_graph(rng, rng.randint(2, 5))
            c = random_coloring(rng, g.edge_count, rng.randint(1, 3))
            got = is_rainbow_disconnected(g, c)
            assert got.ok == rainbow_disconnected_oracle(g, c)

    def test_exact_path_matches_fixed_k_path(self):
        # the per-class enumeration is the reference: it and the bipartition
        # search agree on every pair, and the check fails at the first pair
        # where the enumeration finds no cut, with a valid rainbow cut for
        # every pair before it
        rng = random.Random(19)
        for _ in range(30):
            g = random_connected_graph(rng, rng.randint(2, 5))
            c = random_coloring(rng, g.edge_count, 3)
            uncut = []
            cut_first = []
            for s in range(g.vertex_count):
                for t in range(s + 1, g.vertex_count):
                    via_fixed = find_rainbow_cut_fixed_k(g, c, s, t)
                    via_exact = find_rainbow_cut_exact(g, c, s, t)
                    assert (via_fixed is None) == (via_exact is None)
                    if via_fixed is None:
                        uncut.append((s, t))
                    elif not uncut:
                        cut_first.append((s, t))
            check = is_rainbow_disconnected(g, c)
            assert check.ok == (not uncut)
            assert check.failing_pair == (uncut[0] if uncut else None)
            assert list(check.certificates) == cut_first
            assert_valid_certificates(g, c, check.certificates)

    def test_star_first_certificates_match_pair_by_pair_search(self):
        # the verdict and failing pair are the pair-by-pair search's. A pair
        # whose star at t is rainbow takes no search; its certificate is the
        # first side _sides lists for it, which is that star. Any other pair
        # holds the star of s, a one-edge bridge cut, or one of at most
        # n - 1 searched cuts, each in either orientation.
        rng = random.Random(23)
        graphs = [random_connected_graph(rng, rng.randint(2, 10)) for _ in range(40)]
        graphs += [relabel(random_cubic_graph(n, seed), rng)
                   for n in (4, 6, 8, 10) for seed in range(3)]
        graphs += [relabel(truncate(h), rng) for h in (complete_graph(4), k33_graph())]
        for g in graphs:
            n = g.vertex_count
            for c in (chromatic_index_exact(g).witness, proper_coloring_delta_plus_one(g),
                      random_coloring(rng, g.edge_count, 3)):
                want, failing = {}, None
                for s, t in itertools.combinations(range(n), 2):
                    listed = listed_sides(g, c.colors, 1, s, t)
                    if not listed:
                        failing = (s, t)
                        break
                    want[(s, t)] = listed[0]
                check = is_rainbow_disconnected(g, c)
                assert (check.ok, check.failing_pair) == (failing is None, failing)
                assert check.certificates.keys() == want.keys()
                assert_valid_certificates(g, c, check.certificates)
                searched = set()
                for (s, t), cert in check.certificates.items():
                    if rainbow_star(g, c, t):
                        assert cert.side_s == want[(s, t)] and cert.side_t == {t}
                    elif cert.side_s != {s} and len(cert.cut_edges) > 1:
                        searched.add(frozenset((cert.side_s, cert.side_t)))
                assert len(searched) <= n - 1

    def test_matches_first_listed_side_scan_with_bridges_and_cut_vertices(self):
        # trees plus a few edges have bridges and cut vertices. The check
        # answers as a scan of every pair by its first listed side, a pair
        # whose star at t is rainbow keeps that star, and a pair that a
        # bridge separates but neither star does gets a one-edge cut
        rng = random.Random(29)
        for _ in range(300):
            g = random_connected_graph(rng, rng.randint(2, 12))
            n, cut_by_bridge = g.vertex_count, bridges(g)
            for c in [random_coloring(rng, g.edge_count, k) for k in (1, 2, 3, 5)] + [
                    proper_coloring_delta_plus_one(g)]:
                settled, failing = 0, None
                for s, t in itertools.combinations(range(n), 2):
                    if next(rainbow_module._sides(g, c.colors, 1, s, t, lambda: None),
                            None) is None:
                        failing = (s, t)
                        break
                    settled += 1
                check = is_rainbow_disconnected(g, c)
                assert (check.ok, check.failing_pair) == (failing is None, failing)
                assert len(check.certificates) == settled
                assert_valid_certificates(g, c, check.certificates)
                for (s, t), cert in check.certificates.items():
                    if rainbow_star(g, c, t):
                        assert cert.side_t == {t}
                    elif not rainbow_star(g, c, s) and any(
                            t not in reachable_from(g, s, [eid]) for eid in cut_by_bridge):
                        assert len(cert.cut_edges) == 1 and cert.cut_edges <= cut_by_bridge

    def test_searches_and_certificates_match_known_cut_scan(self, monkeypatch):
        # the check searches the pairs that a lexicographic scan over the
        # known cuts searches, in the scan's order, and certifies each pair
        # by the lowest known cut separating it; a search's cut is the first
        # side _sides lists for the pair
        sides, searched = rainbow_module._sides, []

        def recording_sides(g, labels, cap, s, t, spend):
            if t is not None:
                searched.append((s, t))
            return sides(g, labels, cap, s, t, spend)

        def first_side_t(g, c, s, t):
            side = next(sides(g, c.colors, 1, s, t, lambda: None), None)
            return None if side is None else {v for v, x in enumerate(side) if x}

        monkeypatch.setattr(rainbow_module, "_sides", recording_sides)
        rng = random.Random(53)
        cases = []
        for _ in range(150):
            g = random_connected_graph(rng, rng.randint(2, 12))
            cases += [(g, random_coloring(rng, g.edge_count, k)) for k in (1, 2, 3, 5)]
            cases.append((g, proper_coloring_delta_plus_one(g)))
        for n in range(4, 16, 2):
            for seed in range(3):
                g = random_cubic_graph(n, seed)
                cases += [(g, random_coloring(rng, g.edge_count, k)) for k in (2, 3, 4)]
        for g, c in cases:
            want_searched, want_side_s, failing = known_cut_scan_oracle(
                g, c, lambda s, t: first_side_t(g, c, s, t))
            searched.clear()
            check = is_rainbow_disconnected(g, c)
            assert searched == want_searched
            assert (check.ok, check.failing_pair) == (failing is None, failing)
            assert {pair: cert.side_s for pair, cert in check.certificates.items()} == want_side_s

    def test_at_most_n_minus_1_searches(self, monkeypatch):
        # a searched pair shares a class, and its cut splits that class; the
        # level search lists sides with no t, the check's searches fix t
        calls = []
        sides = rainbow_module._sides

        def counting_sides(g, labels, cap, s, t, spend):
            if t is not None:
                calls.append((s, t))
            return sides(g, labels, cap, s, t, spend)

        monkeypatch.setattr(rainbow_module, "_sides", counting_sides)
        # one color on a path: every edge is a bridge, so no pair is searched
        path = Graph(200, tuple((v, v + 1) for v in range(199)))
        check = is_rainbow_disconnected(path, mono(path))
        assert check.ok and len(check.certificates) == 19900
        assert calls == []
        rng = random.Random(47)
        for k in (2, 5, 9):
            g = two_hub_graph(k)
            for palette in (1, 2, 3, 4, 6):
                c = random_coloring(rng, g.edge_count, palette)
                calls.clear()
                check = is_rainbow_disconnected(g, c)
                assert len(calls) <= g.vertex_count - 1
                assert_valid_certificates(g, c, check.certificates)

    def test_star_pairs_spend_no_nodes(self):
        # every star of a proper coloring is rainbow, so a budget of 0 is
        # enough; the single-pair search still spends its placements
        g = complete_graph(5)
        c = chromatic_index_exact(g).witness
        assert is_rainbow_disconnected(g, c, node_budget=0).ok
        with pytest.raises(BudgetExceededError):
            find_rainbow_cut_exact(g, c, 0, 4, node_budget=0)
        # bridges and stars of s spend none either: one color on a path or
        # a tree, where every edge is a bridge, and a triangle whose pair
        # (0, 2) only the star of 0 separates
        path = Graph(200, tuple((v, v + 1) for v in range(199)))
        trees = [random_tree(60, seed) for seed in range(3)]
        for h in [path] + trees:
            assert is_rainbow_disconnected(h, mono(h), node_budget=0).ok
        triangle = Graph(3, ((0, 1), (0, 2), (1, 2)))
        check = is_rainbow_disconnected(triangle, EdgeColoring((0, 1, 1)), node_budget=0)
        assert check.ok and check.certificates[(0, 2)] == CutCertificate({0, 1}, {0}, {1, 2})

    def test_validates_connectivity_once(self, monkeypatch):
        calls = []

        def counting_is_connected(g):
            calls.append(g)
            return is_connected(g)

        # Graph.check_connected looks is_connected up in the graphs module
        monkeypatch.setattr(graphs_module, "is_connected", counting_is_connected)
        assert is_rainbow_disconnected(prism_graph(), PRISM_PROPER).ok
        assert len(calls) == 1

    def test_huge_color_ids_match_small_ids(self):
        # only color equality matters, so ids {0, 1, 10**7} give the verdict,
        # failing pair and certificates of ids {0, 1, 2}, in memory bounded
        # by the graph rather than by the largest id
        g = random_cubic_graph(12, 0)
        proper = chromatic_index_exact(g).witness
        assert proper.palette == 3
        for c in (proper, random_coloring(random.Random(31), g.edge_count, 3)):
            huge = EdgeColoring(tuple(10**7 if col == 2 else col for col in c.colors))
            tracemalloc.start()
            try:
                got = is_rainbow_disconnected(g, huge)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            want = is_rainbow_disconnected(g, c)
            assert (got.ok, got.failing_pair) == (want.ok, want.failing_pair)
            assert got.certificates == want.certificates
            assert peak < 5 * 2**20

    def test_disconnected_graph_rejected(self):
        g = Graph(3, ((0, 1),))
        with pytest.raises(InvalidInputError):
            is_rainbow_disconnected(g, EdgeColoring((1,)))

    def test_certificates_looked_up_by_any_integer_type(self):
        # ids are read by operator.index, as NumPy integers are; an int-like
        # key equal to (0, 1) and hashing the same finds that pair
        class IntLike:
            def __init__(self, value):
                self.value = value

            def __index__(self):
                return self.value

            def __eq__(self, other):
                return self.value == other

            def __hash__(self):
                return hash(self.value)

        g = cycle_graph(4)
        check = is_rainbow_disconnected(g, EdgeColoring((0, 1, 0, 1)))
        key = (IntLike(0), IntLike(1))
        assert key == (0, 1) and hash(key) == hash((0, 1))
        assert key in check.certificates
        assert check.certificates[key] == check.certificates[(0, 1)]
        assert check.certificates.get((IntLike(0), 1.0)) is None

    def test_every_returned_cut_is_checked_to_be_rainbow(self, monkeypatch):
        # each cut the package returns, built when asked for or when looked
        # up, passes through _rainbow_certificate, which raises the one
        # error about a non-rainbow cut; here every cut is called not rainbow
        k4 = complete_graph(4)
        proper = chromatic_index_exact(k4).witness
        check = is_rainbow_disconnected(k4, proper)  # every star is rainbow: no search
        rd = rd_exact(k4)
        diamond = Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2)))
        searched = EdgeColoring((0, 0, 1, 1, 2))  # the check searches pair (1, 3)
        artifact = build_reduction(CnfFormula(3, ((1, 2, 3),)))
        monkeypatch.setattr(rainbow_module, "is_rainbow", lambda c, cut: False)
        calls = [lambda: find_rainbow_cut_fixed_k(k4, proper, 0, 1),
                 lambda: find_rainbow_cut_exact(k4, proper, 0, 1),
                 lambda: check.certificates[(0, 1)],
                 lambda: rd.per_pair_cuts[(2, 3)],
                 lambda: is_rainbow_disconnected(diamond, searched),
                 lambda: build_cut_from_assignment(artifact, Assignment((True, True, True)))]
        for call in calls:
            with pytest.raises(RuntimeError, match="^built a cut that is not rainbow$"):
                call()


class TestRdExact:
    def test_trees_are_one(self, searched_levels):
        # every block of a tree is a bridge, so no level is searched
        for n, seed in [(6, seed) for seed in range(5)] + [(40, 1)]:
            g = random_tree(n, seed)
            r = rd_exact(g)
            assert r.rd_value == 1
            assert r.witness == EdgeColoring((0,) * (n - 1), 1)
        assert searched_levels == []

    def test_cycles_are_two(self):
        for n in (3, 4, 5, 6):
            r = rd_exact(cycle_graph(n))
            assert r.rd_value == 2

    def test_k4_is_three(self):
        r = rd_exact(complete_graph(4))
        assert r.rd_value == 3
        assert is_rainbow_disconnected(complete_graph(4), r.witness).ok

    def test_petersen_is_four(self):
        assert rd_exact(petersen_graph()).rd_value == 4

    def test_matches_oracle(self):
        rng = random.Random(23)
        for _ in range(25):
            g = random_connected_graph(rng, rng.randint(2, 5), max_extra=3)
            if g.edge_count > 7:
                continue
            r = rd_exact(g)
            assert r.rd_value == rd_oracle(g)
            assert len(r.per_pair_cuts) == g.vertex_count * (g.vertex_count - 1) // 2

    def test_bounds_chain(self):
        rng = random.Random(29)
        for _ in range(25):
            g = random_connected_graph(rng, rng.randint(2, 6))
            r = rd_exact(g)
            assert upper_edge_connectivity(g) <= r.rd_value <= g.max_degree + 1

    def test_budget_exceeded(self, searched_levels):
        # K5 is class 2 by shape alone, so its level Delta = 4 is searched,
        # with the caller's node_budget as its own
        with pytest.raises(BudgetExceededError,
                           match="rainbow disconnection number search"):
            rd_exact(complete_graph(5), node_budget=10)
        assert searched_levels == [(4, 10)]
        assert all(type(budget) is int for _, budget in searched_levels)
        searched_levels.clear()
        # Petersen's class-2 proof is chromatic_index_exact's search, which
        # needs 55 nodes
        with pytest.raises(BudgetExceededError, match="proper edge coloring search"):
            rd_exact(petersen_graph(), node_budget=10)
        with pytest.raises(BudgetExceededError, match="proper edge coloring search"):
            rd_exact(petersen_graph(), node_budget=54)
        assert rd_exact(petersen_graph(), node_budget=55).rd_value == 4
        assert searched_levels == []

    @pytest.mark.parametrize("n", [14, 16])
    def test_class_one_cubic_within_small_budget(self, n, searched_levels):
        # level Delta = lambda+ = 3 is settled by the Kempe walk's proper
        # 3-coloring, so no level is searched
        for seed in range(10):
            g = random_cubic_graph(n, seed)
            assert chromatic_index_exact(g).vizing_class == 1
            r = rd_exact(g, node_budget=100_000)
            assert r.rd_value == 3
            assert r.witness.palette == 3
            assert is_proper(g, r.witness)
            assert is_rainbow_disconnected(g, r.witness).ok
            assert len(r.per_pair_cuts) == n * (n - 1) // 2
        assert searched_levels == []

    def test_k6_is_five(self, searched_levels):
        r = rd_exact(complete_graph(6))
        assert r.rd_value == 5
        assert is_proper(complete_graph(6), r.witness)
        assert searched_levels == []

    def test_prism_is_three(self, searched_levels):
        r = rd_exact(prism_graph())
        assert r.rd_value == 3
        assert is_rainbow_disconnected(prism_graph(), r.witness).ok
        assert searched_levels == []

    def test_class_two_reaches_the_level_search(self, searched_levels):
        # class 2 decides rd = 4 on a 3-edge-connected cubic graph (Petersen,
        # J_3), but not on K5, which is overfull: its level Delta is
        # searched, and rd(K5) = Delta = 4
        for g in (petersen_graph(), flower_snark(3)):
            assert rd_exact(g).rd_value == 4
        assert searched_levels == []
        assert rd_exact(complete_graph(5)).rd_value == 4
        assert searched_levels == [(4, DEFAULT_NODE_BUDGET)]

    def test_class_two_3ec_cubic_within_small_budget(self, searched_levels):
        g = random_cubic_graph(16, 232)
        r = rd_exact(g, node_budget=100_000)
        assert r.rd_value == 4
        assert is_proper(g, r.witness)
        assert searched_levels == []

    def test_bridged_cubic_skips_the_walk(self, monkeypatch, searched_levels):
        # a cubic graph with a bridge is class 2 by the parity lemma: rd_exact
        # goes straight to the level search
        def no_walk(g, start):
            raise AssertionError("Kempe walk ran")

        monkeypatch.setattr(coloring_module, "_kempe_walk_delta_coloring", no_walk)
        g = bridged_cubic_pair(4, 0)
        assert rd_exact(g).rd_value == rd_by_level_search(g)
        assert searched_levels[-1][0] == 3

    def test_sparse_24_vertices_within_small_budget(self, searched_levels):
        # a level search spends nodes only on the bipartitions it lists, so
        # n = 24 can fit a budget of 1e5; the graphs whose listings outgrow
        # it still exit on the budget
        rng = random.Random(43)
        answered = 0
        for _ in range(8):
            g = random_connected_graph(rng, 24, max_extra=6)
            try:
                r = rd_exact(g, node_budget=100_000)
            except BudgetExceededError:
                continue
            answered += 1
            assert upper_edge_connectivity(g) <= r.rd_value <= g.max_degree + 1
        assert answered >= 6
        assert searched_levels

    def test_level_search_on_a_million_separated_pairs(self):
        # level 2 of a 64-cycle with a pendant vertex lists 2,018 candidates,
        # which separate about 1.4e6 vertex pairs counted once per candidate;
        # the search keeps one bit per candidate and vertex or edge, not one
        # entry per such pair, nor each candidate's side once it is listed
        g = cycle_and_pendant(64)
        tracemalloc.start()
        try:
            c = rainbow_module._search_disconnection_coloring(g, 2, DEFAULT_NODE_BUDGET)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert c is not None and is_rainbow_disconnected(g, c).ok
        assert peak < 0.3 * 2**20
        assert rainbow_module._search_disconnection_coloring(g, 1, DEFAULT_NODE_BUDGET) is None

    def test_level_search_node_counts_at_the_budget_boundary(self):
        # the nodes a level spends in all, with the answer it gives at
        # exactly that budget: one node fewer exits on the budget
        cases = [(complete_graph(5), 4, 72, EdgeColoring((0, 0, 0, 0, 1, 2, 3, 3, 2, 1), 4)),
                 (petersen_graph(), 3, 3394, None), (cycle_and_pendant(64), 1, 4224, None)]
        for g, k, nodes, want in cases:
            assert rainbow_module._search_disconnection_coloring(g, k, nodes) == want
            with pytest.raises(BudgetExceededError):
                rainbow_module._search_disconnection_coloring(g, k, nodes - 1)

    def test_level_search_returns_the_first_coloring(self):
        # the witness of a level is the lexicographically first coloring
        # under its symmetry breaking, or None when the level has none
        rng = random.Random(5)
        graphs = [g for n in range(2, 6) for g in all_connected_graphs(n) if g.edge_count <= 7]
        graphs += [random_connected_graph(rng, rng.randint(5, 7), max_extra=2)
                   for _ in range(15)]
        found = 0
        for g in graphs:
            for k in range(1, g.max_degree + 1):
                want = first_level_coloring_oracle(g, k)
                assert rainbow_module._search_disconnection_coloring(
                    g, k, DEFAULT_NODE_BUDGET) == want
                found += want is not None
        assert found >= 1000

    def test_matches_level_search_on_small_graphs(self):
        # an independent cross-check of level Delta, which rd_exact settles
        # with chromatic_index_exact and, on the class-2 3-edge-connected
        # cubic graphs (Petersen, J_3), with the cubic theorem
        rng = random.Random(31)
        graphs = [g for _, g in cubic_3ec_corpus()] + [flower_snark(3)]
        graphs += [random_cubic_graph(n, seed) for n in (10, 12) for seed in range(4)]
        graphs += [complete_graph(5), complete_graph(6), cycle_graph(6), cycle_graph(7),
                   bridged_cubic_pair(4, 0), cubic_not_3ec_graph()]
        graphs += [random_connected_graph(rng, rng.randint(2, 10), max_extra=5)
                   for _ in range(30)]
        graphs += [Graph(6, complete_graph(5).edges + ((4, 5),)),
                   Graph(5, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4))),
                   Graph(8, complete_graph(4).edges + tuple(
                       (u + 3, v + 3) for u, v in cycle_graph(5).edges))]
        with_cut_vertex = 0
        for g in graphs:
            assert g.vertex_count <= 12
            r = rd_exact(g)
            assert r.rd_value == rd_by_level_search(g)
            assert is_rainbow_disconnected(g, r.witness).ok
            with_cut_vertex += len(blocks(g)) > 1
        # rd_exact searches these block by block, the level search whole
        assert with_cut_vertex >= 20

    def test_budget_exits_with_a_cut_vertex_are_answered(self):
        # searched whole, each of these exits on a budget of 1e5; block by
        # block it is answered at lambda+, so rd is exact
        k8 = complete_graph(8)
        cases = [(random_cubic_graph(16, 48), 3), (random_cubic_graph(16, 199), 3),
                 (random_connected_graph(random.Random("sparse12-124"), 12, 6), 3),
                 (Graph(9, k8.edges + ((0, 8),)), 7)]
        for g, rd in cases:
            assert len(blocks(g)) > 1
            r = rd_exact(g, node_budget=100_000)
            assert r.rd_value == rd == upper_edge_connectivity(g)
            assert r.witness.palette == rd
            assert is_rainbow_disconnected(g, r.witness).ok

    def test_per_pair_cuts_are_shared_per_side(self):
        # a class-1 cubic graph: every star of the witness is rainbow, so its
        # 19,900 pairs hold the 199 star cuts of t = 1..199. The cuts are
        # built when looked up, so the check holds no entry per pair.
        tracemalloc.start()
        try:
            r = rd_exact(random_cubic_graph(200, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.rd_value == 3 and len(r.per_pair_cuts) == 19900
        assert len(set(r.per_pair_cuts.values())) == 199
        assert peak < 5 * 2**20
        # one color on a path: no star inside it is rainbow, so its pairs hold
        # the one-edge cuts of its 199 bridges (the star of 0 is edge 0's)
        # and the star of 199
        path = Graph(200, tuple((v, v + 1) for v in range(199)))
        tracemalloc.start()
        try:
            cuts = rd_exact(path).per_pair_cuts
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert len(set(cuts.values())) == 199
        assert all(cuts[(s, t)].cut_edges == {s} for s, t in cuts if t < 199)

    def test_disconnected_rejected(self):
        with pytest.raises(InvalidInputError):
            rd_exact(Graph(3, ((0, 1),)))


class TestCubicDecision:
    def test_k4(self):
        d = decide_rd_cubic(complete_graph(4))
        assert d.rd_value == 3
        assert is_proper(complete_graph(4), d.witness)

    def test_k33(self):
        assert decide_rd_cubic(k33_graph()).rd_value == 3

    def test_petersen(self):
        d = decide_rd_cubic(petersen_graph())
        assert d.rd_value == 4
        assert is_proper(petersen_graph(), d.witness)

    def test_flower_snark_j5(self):
        g = flower_snark(5)
        d = decide_rd_cubic(g)
        assert d.rd_value == 4
        assert is_proper(g, d.witness)

    def test_matches_rd_exact_on_corpus(self):
        for _, g in cubic_3ec_corpus(random_count=3):
            assert decide_rd_cubic(g).rd_value == rd_exact(g).rd_value

    def test_not_cubic_rejected(self):
        with pytest.raises(InvalidInputError, match="not cubic"):
            decide_rd_cubic(cycle_graph(4))

    def test_not_3ec_rejected(self):
        with pytest.raises(InvalidInputError, match="not 3-edge-connected"):
            decide_rd_cubic(cubic_not_3ec_graph())


class TestSplit:
    def test_prism_matching_gives_two_k4s(self):
        g = prism_graph()
        pair = split_along_rainbow_cut(g, PRISM_PROPER, (6, 7, 8))
        for (part, pcol), fresh in ((pair.part_1, pair.new_vertex_1),
                                    (pair.part_2, pair.new_vertex_2)):
            assert part.vertex_count == 4
            assert part.edge_count == 6
            assert fresh == 3
            assert sorted(d for d in part.degrees) == [3, 3, 3, 3]
            fresh_colors = {pcol.colors[eid] for eid, w in part.adjacency[fresh]}
            assert fresh_colors == {1, 2, 3}
            assert is_proper(part, pcol)

    def test_shared_vertex_rejected(self):
        g = complete_graph(4)
        c = EdgeColoring((1, 2, 3, 4, 5, 6))
        with pytest.raises(InvalidInputError, match="share"):
            split_along_rainbow_cut(g, c, (0, 1, 2))

    def test_non_rainbow_rejected(self):
        g = prism_graph()
        c = EdgeColoring((3, 1, 2, 3, 1, 2, 1, 1, 3))
        with pytest.raises(InvalidInputError, match="not rainbow"):
            split_along_rainbow_cut(g, c, (6, 7, 8))

    def test_wrong_component_count_rejected(self):
        g = petersen_graph()
        # spoke edges are pairwise non-adjacent but leave the graph connected
        spokes = [eid for eid, (u, v) in enumerate(g.edges) if u < 5 <= v]
        trio = tuple(spokes[:3])
        c = EdgeColoring(tuple(
            (eid % 3) + 1 if eid in trio else 0 for eid in range(g.edge_count)))
        with pytest.raises(InvalidInputError, match="components"):
            split_along_rainbow_cut(g, c, trio)

    def test_wrong_size_rejected(self):
        g = prism_graph()
        with pytest.raises(InvalidInputError, match="three"):
            split_along_rainbow_cut(g, PRISM_PROPER, (6, 7))


@pytest.mark.parametrize("call, message", [
    (lambda: is_rainbow(PRISM_PROPER, [0.5]), "edge id 0.5"),
    (lambda: find_rainbow_cut_exact(prism_graph(), PRISM_PROPER, 0, 1.5), "vertex 1.5"),
    (lambda: split_along_rainbow_cut(prism_graph(), PRISM_PROPER, (0.5, 1, 2)),
     "edge id 0.5"),
], ids=["is_rainbow", "find_rainbow_cut_exact", "split_along_rainbow_cut"])
def test_non_integer_ids_are_input_errors(call, message):
    # an input error, not a bare TypeError from indexing with a float
    with pytest.raises(InvalidInputError, match=f"^{message} is not an integer$"):
        call()


class TestCertify:
    def test_splitting_scan_is_smallest_valid_split(self):
        # the scan's short test agrees with every check split_along_rainbow_cut
        # makes, on 3-edge-connected cubic graphs with proper and random colorings
        def splits(g, c, trio):
            try:
                split_along_rainbow_cut(g, c, trio)
            except InvalidInputError:
                return False
            return True

        rng = random.Random(3)
        for _, g in cubic_3ec_corpus(random_count=4):
            colorings = [chromatic_index_exact(g).witness]
            colorings += [EdgeColoring(tuple(rng.randrange(3) for _ in range(g.edge_count)), 3)
                          for _ in range(3)]
            for c in colorings:
                expected = next((trio for trio in itertools.combinations(range(g.edge_count), 3)
                                 if splits(g, c, trio)), None)
                assert splitting_cut(g, c) == expected

    def test_splitting_scan_matches_combinations_reference(self):
        # the pruned nested loops pick the trio the plain lexicographic scan
        # over every C(m, 3) trio picks, on the 3-edge-connected graphs the
        # scan is defined for
        def reference(g, c):
            n = g.vertex_count
            for trio in itertools.combinations(range(g.edge_count), 3):
                endpoints = {v for eid in trio for v in g.edges[eid]}
                if (len(endpoints) == 6 and len({c.colors[eid] for eid in trio}) == 3
                        and len(reachable_from(g, 0, trio)) < n):
                    return trio
            return None

        rng = random.Random(29)
        for n in range(8, 22, 2):
            for seed in range(2):
                g = random_cubic_graph(n, seed)
                if global_edge_connectivity(g) < 3:
                    continue
                for c in (chromatic_index_exact(g).witness, random_coloring(rng, g.edge_count, 3),
                          random_coloring(rng, g.edge_count, 5)):
                    assert splitting_cut(g, c) == reference(g, c)

    def test_labeled_scan_matches_triple_loop_with_one_walk(self, monkeypatch):
        # the cycle-space labels pick the reference scan's trio on the corpora
        # above, their truncations under a random relabelling, and class-1
        # 3-edge-connected random cubic graphs up to n = 60, under proper,
        # random 3- and random 5-colorings; with the fixed seed each scan
        # walks only the trio it returns
        walks = []

        def counting_walk(*args):
            walks.append(args[2])
            return graphs_module._walk(*args)

        monkeypatch.setattr(rainbow_module, "_walk", counting_walk)
        rng = random.Random(31)
        splits = 0
        for g in scan_graphs(rng):
            chi = chromatic_index_exact(g)
            colorings = [random_coloring(rng, g.edge_count, 3),
                         random_coloring(rng, g.edge_count, 5)]
            if chi.chi_prime == 3:
                colorings.append(chi.witness)
            for c in colorings:
                walks.clear()
                trio = splitting_cut(g, c)
                assert trio == splitting_cut_reference(g, c)
                assert walks == ([] if trio is None else [trio])
                splits += trio is not None
        assert splits > 20

    def test_check_reads_labels_and_flows_only_when_they_do_not_prove(self, monkeypatch):
        # a 3-edge-connected cubic graph gets its labels back with no flow;
        # for any seed, a cubic graph with a bridge or a 2-edge cut runs
        # exactly one flow, which rejects it; a disconnected one runs none
        graphs = cubic_lambda_graphs()
        assert {lam for _, lam in graphs} == {1, 2, 3}
        flows = count_flows(monkeypatch)
        for g, lam in graphs:
            if lam >= 3:
                assert rainbow_module._check_cubic_3ec(g) == rainbow_module._cycle_space_labels(g)
                assert flows == []
        for seed in range(20):
            monkeypatch.setattr(rainbow_module, "_LABEL_SEED", seed)
            for g, lam in graphs:
                if lam < 3:
                    flows.clear()
                    with pytest.raises(InvalidInputError, match="^graph is not 3-edge-connected$"):
                        rainbow_module._check_cubic_3ec(g)
                    assert flows == [g.vertex_count]
        k4 = complete_graph(4)
        two_k4 = Graph(8, k4.edges + tuple((u + 4, v + 4) for u, v in k4.edges))
        flows.clear()
        with pytest.raises(InvalidInputError, match="^graph is not 3-edge-connected$"):
            rainbow_module._check_cubic_3ec(two_k4)
        assert flows == []
        assert rainbow_module._cycle_space_labels(Graph(4, ((0, 1), (2, 3)))) is None

    def test_certify_and_decide_run_no_flow_and_reject_a_bad_part(self, monkeypatch):
        # the entry check's labels seed the splitting stack and every part's
        # labels prove its 3-edge-connectivity, so no flow runs; a part with
        # a bridge or a 2-edge cut still raises, after one flow
        flows = count_flows(monkeypatch)
        g = relabel(truncate(prism_graph()), random.Random(2))
        c = chromatic_index_exact(g).witness
        assert decide_rd_cubic(g).rd_value == 3
        assert certify_rd3_coloring_proper(g, c) is True
        assert flows == []
        for bad in (cubic_not_3ec_graph(), bridged_cubic_pair(6, 0)):
            part = (bad, EdgeColoring((0,) * bad.edge_count))
            monkeypatch.setattr(rainbow_module, "split_along_rainbow_cut",
                                lambda h, hc, cut: rainbow_module.SplitPair(part, part, 0, 0))
            with pytest.raises(RuntimeError, match="not cubic and 3-edge-connected") as caught:
                certify_rd3_coloring_proper(g, c)
            assert caught.value.__cause__ is None and caught.value.__suppress_context__
            assert flows == [bad.vertex_count]
            flows.clear()

    def test_four_bit_labels_keep_check_scan_and_certify_exact(self, monkeypatch):
        # keeping each label's low 4 bits is XOR-linear, so every cut still
        # XORs to 0 while labels collide: the check falls back to the flow
        # with the same verdicts, the scan returns the reference trio, and
        # certify passes the proper witnesses
        real = rainbow_module._cycle_space_labels

        def four_bits(g):
            labels = real(g)
            return None if labels is None else [label & 15 for label in labels]

        monkeypatch.setattr(rainbow_module, "_cycle_space_labels", four_bits)
        flows = count_flows(monkeypatch)
        for g, lam in cubic_lambda_graphs():
            flows.clear()
            if lam >= 3:
                assert rainbow_module._check_cubic_3ec(g) == four_bits(g)
            else:
                with pytest.raises(InvalidInputError, match="^graph is not 3-edge-connected$"):
                    rainbow_module._check_cubic_3ec(g)
            # 16 label values cannot be nonzero and distinct on more edges
            if g.edge_count > 15:
                assert flows == [g.vertex_count]
        rng = random.Random(31)
        pairs = splits = 0
        for g in scan_graphs(rng):
            chi = chromatic_index_exact(g)
            colorings = [random_coloring(rng, g.edge_count, 3),
                         random_coloring(rng, g.edge_count, 5)]
            if chi.chi_prime == 3:
                colorings.append(chi.witness)
                assert certify_rd3_coloring_proper(g, chi.witness) is True
            for c in colorings:
                trio = splitting_cut(g, c)
                assert trio == splitting_cut_reference(g, c)
                pairs += 1
                splits += trio is not None
        assert pairs > 50 and splits > 20

    def test_searches_do_not_revalidate_their_own_edge_ids(self, monkeypatch):
        calls = []

        def counting_check_edge_id(edge_count, e):
            calls.append(e)
            return check_edge_id(edge_count, e)

        # is_rainbow and components look check_edge_id up in the graphs module
        monkeypatch.setattr(graphs_module, "check_edge_id", counting_check_edge_id)
        for _, g in cubic_3ec_corpus(random_count=2):
            splitting_cut(g, chromatic_index_exact(g).witness)
        assert calls == []
        # the candidate cuts of fixed k are walked unchecked; only the
        # certificate returned is checked for rainbowness
        g = random_cubic_graph(12, 0)
        cert = find_rainbow_cut_fixed_k(g, chromatic_index_exact(g).witness, 0, 1)
        assert cert is not None
        assert sorted(calls) == sorted(cert.cut_edges)

    def test_k4_proper_witness(self):
        g = complete_graph(4)
        c = chromatic_index_exact(g).witness
        assert certify_rd3_coloring_proper(g, c) is True

    def test_prism_proper(self):
        assert certify_rd3_coloring_proper(prism_graph(), PRISM_PROPER) is True

    def test_corpus_class_one_witnesses(self):
        for _, g in cubic_3ec_corpus(random_count=2):
            d = decide_rd_cubic(g)
            if d.rd_value == 3:
                assert certify_rd3_coloring_proper(g, d.witness) is True

    def test_non_disconnecting_coloring_rejected(self):
        g = complete_graph(4)
        c = EdgeColoring((1, 1, 2, 2, 3, 3))
        assert not is_rainbow_disconnected(g, c).ok
        with pytest.raises(InvalidInputError, match="rainbow"):
            certify_rd3_coloring_proper(g, c)

    def test_too_many_colors_rejected(self):
        g = complete_graph(4)
        with pytest.raises(InvalidInputError, match="3 distinct"):
            certify_rd3_coloring_proper(g, EdgeColoring((1, 2, 3, 4, 1, 2)))

    def test_not_cubic_rejected(self):
        with pytest.raises(InvalidInputError, match="not cubic"):
            certify_rd3_coloring_proper(cycle_graph(5), EdgeColoring((1, 2, 1, 2, 3)))
