"""Graph type, file format, and cut predicate tests."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from rainbowdisc import (CnfFormatError, CutCertificate, EdgeColoring, Graph,
                         GraphFormatError, InvalidInputError, certificate_from_side,
                         check_cut_certificate, components, is_connected,
                         is_rainbow, parse_graph, reachable_from, separates,
                         serialize_graph)
from rainbowdisc.graphs import read_dimacs
from corpus import EDGE_RULE_FILES, random_connected_graph
from oracles import bipartition_sides, crossing_edges


def p3():
    return Graph(3, ((0, 1), (1, 2)))


def c4():
    return Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))


class TestGraphType:
    def test_adjacency_and_degrees(self):
        g = c4()
        assert g.edge_count == 4
        assert g.degrees == (2, 2, 2, 2)
        assert g.max_degree == 2
        assert g.min_degree == 2
        assert g.adjacency[0] == ((0, 1), (3, 3))

    # each edge rule's text is parse_graph's too, after "line N: "
    def test_rejects_self_loop(self):
        with pytest.raises(InvalidInputError, match="^edge 1: self-loop$"):
            Graph(3, ((0, 1), (2, 2)))

    def test_rejects_parallel_edges(self):
        for repeat in ((0, 1), (1, 0)):
            with pytest.raises(InvalidInputError,
                               match="^edge 1: parallel to an earlier edge$"):
                Graph(2, ((0, 1), repeat))

    def test_rejects_out_of_range_endpoint(self):
        for edge in ((0, 2), (-1, 1)):
            with pytest.raises(InvalidInputError, match="^edge 0: endpoint out of range$"):
                Graph(2, (edge,))

    def test_coloring_palette_and_color_count(self):
        c = EdgeColoring((0, 2, 2))
        assert c.palette == 3
        assert c.color_count == 2
        with pytest.raises(InvalidInputError,
                           match="^edge 1: color 3 outside palette of size 3$"):
            EdgeColoring((0, 3), palette=3)
        with pytest.raises(InvalidInputError,
                           match="^edge 0: color -3 outside palette of size 0$"):
            EdgeColoring((-3, -2))

    def test_non_integer_endpoints_are_rejected(self):
        for edges in (((0, 1.9), (1, 2)), ((0, 1), ("1", 2))):
            with pytest.raises(InvalidInputError, match="endpoint is not an integer"):
                Graph(3, edges)
        with pytest.raises(InvalidInputError, match="vertex count 3.0 is not an integer"):
            Graph(3.0, ())

    def test_edges_of_the_wrong_shape_are_rejected(self):
        for edges, eid in ((((0, 1, 2),), 0), ((5,), 0), (((0, 1), (1,)), 1)):
            with pytest.raises(InvalidInputError,
                               match=f"^edge {eid}: not a pair of endpoints$"):
                Graph(3, edges)

    def test_edges_that_are_not_iterable_are_rejected(self):
        # an input error, not a bare TypeError from enumerate
        with pytest.raises(InvalidInputError, match="^edges 5 is not iterable$"):
            Graph(3, 5)

    def test_colors_that_are_not_iterable_are_rejected(self):
        with pytest.raises(InvalidInputError, match="^colors 5 is not iterable$"):
            EdgeColoring(5)

    def test_non_integer_colors_are_rejected(self):
        with pytest.raises(InvalidInputError, match="edge 0: color 0.7 is not an integer"):
            EdgeColoring((0.7, 1.2))
        with pytest.raises(InvalidInputError, match="palette 2.5 is not an integer"):
            EdgeColoring((0, 1), palette=2.5)

    def test_what_operator_index_accepts_is_stored_as_int(self):
        class Two:
            def __index__(self):
                return 2

        g = Graph(Two(), ((True, False),))
        c = EdgeColoring((True, Two()))
        assert (g.vertex_count, g.edges, c.colors, c.palette) == (2, ((1, 0),), (1, 2), 3)
        assert EdgeColoring((0, True), palette=Two()).palette == 2
        assert all(type(x) is int for x in (g.vertex_count, *g.edges[0], *c.colors))

    def test_check_connected(self):
        for g in (Graph(0, ()), Graph(1, ())):
            with pytest.raises(InvalidInputError, match="at least two vertices"):
                g.check_connected()
        with pytest.raises(InvalidInputError, match="graph must be connected"):
            Graph(3, ((0, 1),)).check_connected()
        p3().check_connected()

    def test_check_coloring(self):
        p3().check_coloring(EdgeColoring((0, 5)))
        for colors in ((0,), (0, 1, 2)):
            with pytest.raises(InvalidInputError, match="coloring length"):
                p3().check_coloring(EdgeColoring(colors))


class TestParse:
    def test_uncolored_path(self):
        g, c = parse_graph("p edge 3 2\ne 1 2\ne 2 3\n")
        assert c is None
        assert g.vertex_count == 3
        assert g.edges == ((0, 1), (1, 2))

    def test_colored_single_edge(self):
        g, c = parse_graph("p edge 2 1\ne 1 2 7\n")
        assert g.edges == ((0, 1),)
        assert c is not None
        assert c.colors == (7,)
        assert len(c.colors) == 1

    def test_comments_and_blank_lines_ignored(self):
        g, c = parse_graph("c a comment\n\np edge 2 1\nc another\ne 1 2\n")
        assert g.edge_count == 1

    def test_mixed_color_fields_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_graph("p edge 3 2\ne 1 2 1\ne 2 3\n")

    def test_missing_header(self):
        with pytest.raises(GraphFormatError, match="line 1: data before header"):
            parse_graph("e 1 2\n")
        with pytest.raises(GraphFormatError, match="missing header"):
            parse_graph("c no header\n\n")

    def test_malformed_header(self):
        for text in ("p graph 2 1\ne 1 2\n", "p edge 2\n", "p edge 2 -1\n",
                     "p cnf 2 1\ne 1 2\n"):
            with pytest.raises(GraphFormatError, match="line 1: malformed header"):
                parse_graph(text)

    def test_read_dimacs_body_lines(self):
        text = "c comment\np cnf 3 1\n\n1 2\nc inside\n3 0\n"
        assert read_dimacs(text, "cnf", CnfFormatError) == (
            3, 1, [(4, ["1", "2"]), (6, ["3", "0"])])

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphFormatError):
            parse_graph("p edge 3 2\ne 1 2\n")

    def test_unknown_line_type(self):
        with pytest.raises(GraphFormatError):
            parse_graph("p edge 2 1\nx 1 2\n")

    @pytest.mark.parametrize("text, rule", [case[1:] for case in EDGE_RULE_FILES],
                             ids=[case[0] for case in EDGE_RULE_FILES])
    def test_edge_rule_names_the_file_line(self, text, rule):
        # the bad edge is edge 1 on line 7: the message names the line
        with pytest.raises(GraphFormatError) as info:
            parse_graph(text)
        assert str(info.value) == f"line 7: {rule}"

    def test_declared_count_is_reported_before_edge_rules(self):
        with pytest.raises(GraphFormatError,
                           match="^header declares 3 edges, found 2$"):
            parse_graph("p edge 3 3\ne 1 1\ne 1 2\n")

    def test_endpoint_rules_are_reported_before_colors(self):
        # the whole graph is checked first, then the coloring
        with pytest.raises(GraphFormatError, match="^line 3: self-loop$"):
            parse_graph("p edge 3 2\ne 1 2 -1\ne 3 3 0\n")


class TestSerialize:
    def test_plain(self):
        text = serialize_graph(p3())
        assert text == "p edge 3 2\ne 1 2\ne 2 3\n"

    def test_colored(self):
        text = serialize_graph(p3(), EdgeColoring((4, 0)))
        assert text == "p edge 3 2\ne 1 2 4\ne 2 3 0\n"

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            serialize_graph(p3(), EdgeColoring((1,)))


@st.composite
def graphs(draw, max_vertices=6):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    pairs = list(combinations(range(n), 2))
    picked = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
                  if pairs else st.just([]))
    return Graph(n, tuple(picked))


@st.composite
def colored_graphs(draw):
    g = draw(graphs())
    if g.edge_count == 0:
        return g, None
    colors = draw(st.lists(st.integers(min_value=0, max_value=5),
                           min_size=g.edge_count, max_size=g.edge_count))
    return g, EdgeColoring(tuple(colors))


@settings(max_examples=120, derandomize=True)
@given(colored_graphs())
def test_round_trip(gc):
    g, c = gc
    parsed_g, parsed_c = parse_graph(serialize_graph(g, c))
    assert parsed_g == g
    assert parsed_c == c


@settings(max_examples=120, derandomize=True)
@given(graphs(), st.data())
def test_separates_matches_components(g, data):
    if g.vertex_count < 2:
        return
    cut = data.draw(st.sets(st.integers(min_value=0, max_value=g.edge_count - 1))
                    if g.edge_count else st.just(set()))
    s = data.draw(st.integers(min_value=0, max_value=g.vertex_count - 1))
    t = data.draw(st.integers(min_value=0, max_value=g.vertex_count - 1))
    if s == t:
        return
    blocks = components(g, cut)
    in_block = {}
    for idx, block in enumerate(blocks):
        for v in block:
            in_block[v] = idx
    assert separates(g, cut, s, t) == (in_block[s] != in_block[t])


class TestComponents:
    def test_connected_path(self):
        assert components(p3()) == ((0, 1, 2),)

    def test_bridge_deletion(self):
        assert components(p3(), {0}) == ((0,), (1, 2))

    def test_c4_opposite_edges(self):
        comps = components(c4(), {0, 2})
        assert comps == ((0, 3), (1, 2))

    def test_edge_id_out_of_range(self):
        with pytest.raises(InvalidInputError):
            components(p3(), {5})

    @pytest.mark.parametrize("walk", [lambda removed: components(p3(), removed),
                                      lambda removed: reachable_from(p3(), 0, removed)],
                             ids=["components", "reachable_from"])
    def test_non_integer_edge_id_rejected(self, walk):
        # edge id 0.5 names no edge; it is not skipped as "not an edge of the walk"
        with pytest.raises(InvalidInputError, match="^edge id 0.5 is not an integer$"):
            walk([0.5])


class TestSeparates:
    def test_path_bridge(self):
        assert separates(p3(), {0}, 0, 2) is True

    def test_cycle_survives_single_deletion(self):
        g = c4()
        for eid in range(4):
            for s in range(4):
                for t in range(s + 1, 4):
                    assert separates(g, {eid}, s, t) is False

    def test_star_isolates_vertex(self):
        k4 = Graph(4, tuple(combinations(range(4), 2)))
        star = {eid for eid, (u, v) in enumerate(k4.edges) if 0 in (u, v)}
        for t in range(1, 4):
            assert separates(k4, star, 0, t) is True

    def test_equal_endpoints_rejected(self):
        with pytest.raises(InvalidInputError):
            separates(p3(), set(), 1, 1)


class TestIsRainbow:
    def test_empty_cut(self):
        assert is_rainbow(EdgeColoring((1, 1)), set()) is True

    def test_repeated_color(self):
        assert is_rainbow(EdgeColoring((1, 1, 2)), {0, 1}) is False

    def test_distinct_colors(self):
        assert is_rainbow(EdgeColoring((1, 2, 3)), {0, 1, 2}) is True

    def test_out_of_range(self):
        with pytest.raises(InvalidInputError):
            is_rainbow(EdgeColoring((1,)), {3})


class TestCertificates:
    def test_from_side_is_boundary(self):
        g = c4()
        cert = certificate_from_side(g, {0})
        assert cert.cut_edges == frozenset({0, 3})
        assert cert.side_s == frozenset({0})
        assert cert.side_t == frozenset({1, 2, 3})
        check_cut_certificate(g, cert, 0, 2)

    def test_accepts_superset_cuts(self):
        g = c4()
        cert = CutCertificate(frozenset({0, 1, 3}), frozenset({0}), frozenset({1, 2, 3}))
        check_cut_certificate(g, cert, 0, 2)

    def test_rejects_missing_crossing_edge(self):
        g = c4()
        cert = CutCertificate(frozenset({0}), frozenset({0}), frozenset({1, 2, 3}))
        with pytest.raises(InvalidInputError):
            check_cut_certificate(g, cert, 0, 2)

    def test_rejects_bad_sides(self):
        g = c4()
        cert = certificate_from_side(g, {0})
        with pytest.raises(InvalidInputError):
            check_cut_certificate(g, cert, 1, 2)
        overlapping = CutCertificate(cert.cut_edges, frozenset({0, 1}),
                                     frozenset({1, 2, 3}))
        with pytest.raises(InvalidInputError):
            check_cut_certificate(g, overlapping, 0, 2)

    def test_random_boundaries_validate(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(2, 7)
            g = random_connected_graph(rng, n)
            for side in bipartition_sides(n):
                cert = certificate_from_side(g, side)
                assert set(cert.cut_edges) == set(crossing_edges(g, side))
                t_candidates = sorted(cert.side_t)
                check_cut_certificate(g, cert, 0, t_candidates[0])


@settings(max_examples=300, derandomize=True)
@given(graphs(), st.data())
def test_check_cut_certificate_accepts_exactly_separations(g, data):
    # accepted exactly when the sides partition V with s and t apart and
    # every crossing edge is cut; every accepted certificate separates s from
    # t, so a walk over the remaining graph could never reject one
    if g.vertex_count < 2:
        return
    vertices = set(range(g.vertex_count))
    s, t = data.draw(st.lists(st.sampled_from(sorted(vertices)), min_size=2,
                              max_size=2, unique=True))
    side_s = (data.draw(st.sets(st.sampled_from(sorted(vertices)))) | {s}) - {t}
    # a partition, or one vertex off it: missing from both sides or on both
    side_t = (vertices - side_s) ^ data.draw(
        st.sets(st.sampled_from(sorted(vertices)), max_size=1))
    crossing = set(crossing_edges(g, side_s))
    ids = st.integers(min_value=0, max_value=max(g.edge_count - 1, 0))
    extra = data.draw(st.sets(ids, max_size=min(2, g.edge_count)))
    dropped = data.draw(st.sets(ids, max_size=min(1, g.edge_count)))
    cut = (crossing | extra) - dropped
    cert = CutCertificate(frozenset(cut), frozenset(side_s), frozenset(side_t))
    valid = (s in side_s and t in side_t and not side_s & side_t
             and side_s | side_t == vertices and crossing <= cut)
    try:
        check_cut_certificate(g, cert, s, t)
    except InvalidInputError:
        assert not valid
    else:
        assert valid
        assert separates(g, cert.cut_edges, s, t)


def test_is_connected():
    assert is_connected(p3()) is True
    assert is_connected(Graph(2, ())) is False
    assert is_connected(Graph(1, ())) is True
