"""CNF handling, the SAT-to-rainbow-cut encoding, and witness translation."""

import hashlib
import json
import random

import pytest

from rainbowdisc import errors
from rainbowdisc import (Assignment, CnfFormatError, CnfFormula, CutCertificate,
                         InvalidInputError, build_cut_from_assignment,
                         certificate_from_side, check_cut_certificate,
                         build_reduction, extract_assignment_from_cut,
                         find_rainbow_cut_exact, gen_cnf, is_rainbow,
                         parse_dimacs_cnf, reduction_sidecar,
                         serialize_dimacs_cnf, serialize_graph,
                         solve_sat_bruteforce, verify_reduction)
from oracles import sat_oracle

ONE_CLAUSE = CnfFormula(3, ((1, 2, 3),))
TWO_CLAUSE = CnfFormula(4, ((1, -2, 3), (-1, 2, 4)))
# every sign pattern over three variables; unsatisfiable
ALL_SIGNS = CnfFormula(3, tuple(
    (a * 1, b * 2, c * 3) for a in (1, -1) for b in (1, -1) for c in (1, -1)))


class TestFormula:
    def test_clause_count(self):
        assert ONE_CLAUSE.clause_count == 1
        assert ALL_SIGNS.clause_count == 8

    def test_evaluate(self):
        assert ONE_CLAUSE.evaluate(Assignment((True, False, False)))
        assert not ONE_CLAUSE.evaluate(Assignment((False, False, False)))
        assert TWO_CLAUSE.evaluate(Assignment((False, False, False, True)))

    def test_repeated_variable_rejected(self):
        with pytest.raises(InvalidInputError, match="distinct"):
            CnfFormula(3, ((1, -1, 2),))

    def test_out_of_range_literal_rejected(self):
        with pytest.raises(InvalidInputError, match="range"):
            CnfFormula(2, ((1, 2, 3),))

    def test_wrong_arity_rejected(self):
        with pytest.raises(InvalidInputError, match="3 literals"):
            CnfFormula(3, ((1, 2),))

    def test_non_integer_literal_rejected(self):
        # 1.5 is not literal 1 truncated
        with pytest.raises(InvalidInputError,
                           match="^clause 1: literal is not an integer$"):
            CnfFormula(3, ((1.5, -2, 3),))
        with pytest.raises(InvalidInputError, match="^variable count 3.0 is not an integer$"):
            CnfFormula(3.0, ())

    def test_clause_of_the_wrong_shape_rejected(self):
        with pytest.raises(InvalidInputError,
                           match="^clause 2: not a sequence of literals$"):
            CnfFormula(3, ((1, 2, 3), 5))

    def test_clauses_that_are_not_iterable_rejected(self):
        # an input error, not a bare TypeError from enumerate
        with pytest.raises(InvalidInputError, match="^clauses 5 is not iterable$"):
            CnfFormula(3, 5)

    def test_assignment_values_that_are_not_iterable_rejected(self):
        with pytest.raises(InvalidInputError, match="^values 5 is not iterable$"):
            Assignment(5)

    def test_assignment_holds_bools_only(self):
        # no bool() coercion: 'no' is not False, and 1 is not True
        for values, position, shown in ((("False", 0.5, []), 1, "'False'"),
                                        ((True, 1, False), 2, "1"),
                                        ((False, False, "no"), 3, "'no'")):
            with pytest.raises(InvalidInputError,
                               match=f"^variable {position}: value {shown} is not a bool$"):
                Assignment(values)
        assert Assignment([True, False]).values == (True, False)

    def test_assignment_value_range(self):
        a = Assignment((True, False, True))
        assert (a.value(1), a.value(2), a.value(3)) == (True, False, True)
        for variable in (0, 4):
            with pytest.raises(InvalidInputError,
                               match=f"^variable {variable} out of range$"):
                a.value(variable)


class TestDimacs:
    def test_parse_basic(self):
        f = parse_dimacs_cnf("c comment\np cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n")
        assert f.variable_count == 3
        assert f.clauses == ((1, -2, 3), (-1, 2, -3))

    def test_clause_split_across_lines(self):
        f = parse_dimacs_cnf("p cnf 3 1\n1 2\n3 0\n")
        assert f.clauses == ((1, 2, 3),)

    def test_round_trip(self):
        rng = random.Random(31)
        for _ in range(20):
            f = gen_cnf(rng.randint(3, 8), rng.randint(1, 8), rng.randrange(10000))
            assert parse_dimacs_cnf(serialize_dimacs_cnf(f)) == f

    def test_missing_header(self):
        with pytest.raises(CnfFormatError, match="line 2: data before header"):
            parse_dimacs_cnf("c clause first\n1 2 3 0\n")
        with pytest.raises(CnfFormatError, match="missing header"):
            parse_dimacs_cnf("")

    def test_malformed_header(self):
        for text in ("p cnf three 1\n1 2 3 0\n", "p edge 3 1\n1 2 3 0\n"):
            with pytest.raises(CnfFormatError, match="line 1: malformed header"):
                parse_dimacs_cnf(text)

    def test_duplicate_header(self):
        with pytest.raises(CnfFormatError, match="line 2: duplicate header"):
            parse_dimacs_cnf("p cnf 3 1\np cnf 3 1\n1 2 3 0\n")

    def test_unterminated_clause(self):
        with pytest.raises(CnfFormatError, match="unterminated"):
            parse_dimacs_cnf("p cnf 3 1\n1 2 3\n")

    def test_clause_count_mismatch(self):
        with pytest.raises(CnfFormatError, match="declares"):
            parse_dimacs_cnf("p cnf 3 2\n1 2 3 0\n")

    def test_bad_literal_token(self):
        with pytest.raises(CnfFormatError, match="line 2: invalid literal"):
            parse_dimacs_cnf("p cnf 3 1\n1 two 3 0\n")

    def test_repeated_variable_in_clause(self):
        with pytest.raises(CnfFormatError, match="distinct"):
            parse_dimacs_cnf("p cnf 3 1\n1 -1 2 0\n")


class TestBruteForce:
    def test_lexicographically_first(self):
        assert solve_sat_bruteforce(ONE_CLAUSE) == Assignment((False, False, True))

    def test_unsat_returns_none(self):
        assert solve_sat_bruteforce(ALL_SIGNS) is None

    def test_no_clauses_all_false(self):
        assert solve_sat_bruteforce(CnfFormula(2, ())) == Assignment((False, False))

    def test_variable_limit(self):
        with pytest.raises(InvalidInputError, match="24"):
            solve_sat_bruteforce(CnfFormula(25, ()))

    def test_matches_oracle(self):
        rng = random.Random(37)
        for _ in range(40):
            f = gen_cnf(rng.randint(3, 7), rng.randint(1, 10), rng.randrange(10000))
            got = solve_sat_bruteforce(f)
            assert (got is not None) == sat_oracle(f)
            if got is not None:
                assert f.evaluate(got)


class TestBuild:
    def test_small_sizes(self):
        art = build_reduction(ONE_CLAUSE)
        assert art.graph.vertex_count == 12
        assert art.graph.edge_count == 17
        assert art.coloring.color_count == 9
        assert (art.s, art.t) == (0, 1)

    def test_two_clause_sizes(self):
        art = build_reduction(TWO_CLAUSE)
        assert art.graph.vertex_count == 18
        assert art.graph.edge_count == 29
        assert art.coloring.color_count == 15

    def test_sizes_track_formula(self):
        rng = random.Random(41)
        for _ in range(15):
            f = gen_cnf(rng.randint(3, 8), rng.randint(1, 8), rng.randrange(10000))
            art = build_reduction(f)
            n, m = f.variable_count, f.clause_count
            assert art.graph.vertex_count == 4 * m + 2 * n + 2
            assert art.graph.edge_count == 10 * m + 2 * n + 1
            assert art.coloring.color_count == 5 * m + n + 1

    def test_color_class_sizes(self):
        f = TWO_CLAUSE
        art = build_reduction(f)
        n, m = f.variable_count, f.clause_count
        sizes: dict[int, int] = {}
        for col in art.coloring.colors:
            sizes[col] = sizes.get(col, 0) + 1
        ct = art.color_table
        assert sizes[ct["r0"]] == m + 1
        for j in range(1, n + 1):
            assert sizes[ct[f"r{j}"]] == 2
        for i in range(1, m + 1):
            for k in (1, 2, 3):
                assert sizes[ct[f"r{i}^{k}"]] == 1
            assert sizes[ct[f"r{i}^4"]] == 3
            assert sizes[ct[f"r{i}^5"]] == 3

    def test_cap_on_encoding_edges(self, monkeypatch):
        # 10m + 2n + 1 edges: exactly the cap is built, more is an input error
        monkeypatch.setattr(errors, "MAX_GENERATED", 31)
        assert build_reduction(CnfFormula(15, ())).graph.edge_count == 31
        assert build_reduction(CnfFormula(10, ((1, 2, 3),))).graph.edge_count == 31
        for f, edges in ((CnfFormula(16, ()), 33), (CnfFormula(11, ((1, 2, 3),)), 33)):
            with pytest.raises(InvalidInputError,
                               match=f"^{edges} encoding edges requested, over the cap of 31$"):
                build_reduction(f)

    def test_deterministic(self):
        assert build_reduction(TWO_CLAUSE) == build_reduction(TWO_CLAUSE)

    def test_tables_follow_the_documented_layout(self):
        # build_reduction's docstring: s=0, t=1, x_j^b = 2j + b, hub
        # c_i = 2n + 4i - 2 with junctions c_i + k; r0 = 0, r_j = j,
        # r_i^k = n + 5(i - 1) + k; keys in exactly this order
        for f in (CnfFormula(4, ()), ONE_CLAUSE, TWO_CLAUSE, gen_cnf(11, 12, 3)):
            n, m = f.variable_count, f.clause_count
            vertices = [("s", 0), ("t", 1)]
            for j in range(1, n + 1):
                vertices += [(f"x{j}^0", 2 * j), (f"x{j}^1", 2 * j + 1)]
            for i in range(1, m + 1):
                hub = 2 * n + 4 * i - 2
                vertices += [(f"c{i}", hub)] + [(f"c{i}^{k}", hub + k) for k in (1, 2, 3)]
            colors = [(f"r{j}", j) for j in range(n + 1)]
            colors += [(f"r{i}^{k}", n + 5 * (i - 1) + k)
                       for i in range(1, m + 1) for k in range(1, 6)]
            art = build_reduction(f)
            assert list(art.vertex_table.items()) == vertices
            assert list(art.color_table.items()) == colors

    def test_encoding_bytes_are_pinned(self):
        # graph files and sidecars of a small grid, byte for byte: any change
        # to the encoded graph, its colors or its name tables changes this
        h = hashlib.sha256()
        for n in range(3, 7):
            for m in (0, 1, 4, 9):
                for seed in (0, 1):
                    art = build_reduction(gen_cnf(n, m, seed))
                    h.update(serialize_graph(art.graph, art.coloring).encode())
                    h.update(json.dumps(reduction_sidecar(art, "pinned")).encode())
        assert h.hexdigest() == (
            "54242594794ea4800168b8b830e911e006e8faea447538eea6eb363b4e1872c6")


class TestCutFromAssignment:
    def test_one_clause(self):
        art = build_reduction(ONE_CLAUSE)
        cert = build_cut_from_assignment(art, Assignment((True, False, False)))
        assert is_rainbow(art.coloring, cert.cut_edges)
        assert art.s in cert.side_s and art.t in cert.side_t
        # literals 2 and 3 are falsified; the second one's junction moves over
        assert art.vertex_table["c1^3"] in cert.side_s
        assert art.vertex_table["c1^2"] in cert.side_t

    def test_two_clause(self):
        art = build_reduction(TWO_CLAUSE)
        cert = build_cut_from_assignment(art, Assignment((False, False, False, True)))
        assert is_rainbow(art.coloring, cert.cut_edges)

    def test_unsatisfying_assignment_rejected(self):
        art = build_reduction(ONE_CLAUSE)
        with pytest.raises(InvalidInputError, match="does not satisfy"):
            build_cut_from_assignment(art, Assignment((False, False, False)))

    def test_wrong_length_rejected(self):
        art = build_reduction(ONE_CLAUSE)
        with pytest.raises(InvalidInputError, match="length"):
            build_cut_from_assignment(art, Assignment((True,)))


class TestExtract:
    def test_round_trip_identity(self):
        rng = random.Random(43)
        for _ in range(15):
            f = gen_cnf(rng.randint(3, 6), rng.randint(1, 5), rng.randrange(10000))
            a = solve_sat_bruteforce(f)
            if a is None:
                continue
            art = build_reduction(f)
            cert = build_cut_from_assignment(art, a)
            assert extract_assignment_from_cut(art, cert) == a

    def test_extract_from_search_cut(self):
        art = build_reduction(TWO_CLAUSE)
        found = find_rainbow_cut_exact(art.graph, art.coloring, art.s, art.t)
        assert found is not None
        a = extract_assignment_from_cut(art, found)
        assert TWO_CLAUSE.evaluate(a)

    def test_search_cut_exists_iff_satisfiable(self):
        # the cut search on the encoding decides satisfiability, and every
        # cut it finds reads back as a satisfying assignment
        rng = random.Random(53)
        answers = []
        for _ in range(200):
            n = rng.randint(3, 10)
            f = gen_cnf(n, rng.randint(1, 5 * n), rng.randrange(10000))
            art = build_reduction(f)
            found = find_rainbow_cut_exact(art.graph, art.coloring, art.s, art.t)
            assert (found is not None) == (solve_sat_bruteforce(f) is not None)
            answers.append(found is not None)
            if found is not None:
                check_cut_certificate(art.graph, found, art.s, art.t)
                assert is_rainbow(art.coloring, found.cut_edges)
                assert f.evaluate(extract_assignment_from_cut(art, found))
        assert min(answers.count(True), answers.count(False)) >= 10  # both verdicts occur

    def test_threshold_encoding_answers_within_benchmark_budget(self):
        # 14 variables at clause ratio 4.26, the largest reduce-sat + cut
        # size of the sat-cut benchmark
        f = gen_cnf(14, 60, 0)
        art = build_reduction(f)
        found = find_rainbow_cut_exact(art.graph, art.coloring, art.s, art.t,
                                       node_budget=200_000)
        assert (found is not None) == (solve_sat_bruteforce(f) is not None)

    def test_st_edge_is_the_only_shared_color_crossing(self):
        # the s-t edge's color class also covers every t-hub edge, so a
        # rainbow cut restricted to that class is exactly the s-t edge
        for f in (ONE_CLAUSE, TWO_CLAUSE):
            art = build_reduction(f)
            found = find_rainbow_cut_exact(art.graph, art.coloring, art.s, art.t)
            assert found is not None
            r0 = art.color_table["r0"]
            shared = {e for e in found.cut_edges if art.coloring.colors[e] == r0}
            assert shared == {0}
            assert art.graph.edges[0] == (art.s, art.t)

    def test_non_rainbow_cut_rejected(self):
        art = build_reduction(ONE_CLAUSE)
        side = frozenset({art.s})
        rest = frozenset(range(art.graph.vertex_count)) - side
        crossing = frozenset(
            e for e, (u, v) in enumerate(art.graph.edges) if (u in side) != (v in side))
        cert = CutCertificate(crossing, side, rest)
        with pytest.raises(InvalidInputError, match="not rainbow"):
            extract_assignment_from_cut(art, cert)
        # a satisfying cut with variable 1's x-vertex moved off the s side
        # cuts both s-edges of variable 1, which share color r_1
        vt = art.vertex_table
        side = (build_cut_from_assignment(art, Assignment((True, False, False))).side_s
                - {vt["x1^0"], vt["x1^1"]})
        cert = certificate_from_side(art.graph, side)
        s_edges = {e for e, (u, v) in enumerate(art.graph.edges)
                   if {u, v} in ({art.s, vt["x1^0"]}, {art.s, vt["x1^1"]})}
        assert len(s_edges) == 2 and s_edges <= cert.cut_edges
        with pytest.raises(InvalidInputError, match="^cut is not rainbow$"):
            extract_assignment_from_cut(art, cert)

    def test_malformed_certificate_rejected(self):
        art = build_reduction(ONE_CLAUSE)
        cert = build_cut_from_assignment(art, Assignment((True, False, False)))
        broken = CutCertificate(frozenset(), cert.side_s, cert.side_t)
        with pytest.raises(InvalidInputError):
            extract_assignment_from_cut(art, broken)


class TestVerify:
    def test_satisfiable_formula(self):
        report = verify_reduction(ONE_CLAUSE)
        assert report.satisfiable and report.cut_exists and report.equivalent
        assert report.assignment is not None
        assert report.cut_from_assignment is not None
        assert report.found_cut is not None
        assert report.extracted_assignment is not None
        assert ONE_CLAUSE.evaluate(report.extracted_assignment)

    def test_unsatisfiable_formula(self):
        report = verify_reduction(ALL_SIGNS)
        assert not report.satisfiable
        assert not report.cut_exists
        assert report.equivalent
        assert report.assignment is None
        assert report.found_cut is None

    def test_random_formulas_equivalent(self):
        rng = random.Random(47)
        for _ in range(25):
            f = gen_cnf(rng.randint(3, 8), rng.randint(1, 8), rng.randrange(10000))
            assert verify_reduction(f).equivalent

    def test_size_guards(self):
        with pytest.raises(InvalidInputError, match="limited"):
            verify_reduction(CnfFormula(17, ()))
        big = CnfFormula(3, tuple((1, 2, 3) for _ in range(13)))
        with pytest.raises(InvalidInputError, match="limited"):
            verify_reduction(big)


class TestSidecar:
    def test_structure(self):
        art = build_reduction(ONE_CLAUSE)
        side = reduction_sidecar(art, "0.1.0")
        assert side["s"] == 1 and side["t"] == 2
        assert side["vertex_table"]["s"] == 1
        assert side["vertex_table"]["x1^0"] == 3
        assert side["color_table"] == art.color_table
        assert side["provenance"]["tool"] == "rainbowdisc"
        assert side["provenance"]["version"] == "0.1.0"
        expected = hashlib.sha256(serialize_dimacs_cnf(ONE_CLAUSE).encode()).hexdigest()
        assert side["provenance"]["formula_sha256"] == expected
