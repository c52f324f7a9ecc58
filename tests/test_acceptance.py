"""Acceptance gate: the nine build criteria, one pass/fail line each.

Each test prints ``criterion N (...): PASS`` or ``FAIL`` straight to the
terminal (capture disabled for that line) and then asserts, so a plain
pytest run shows the whole gate at a glance.
"""

import itertools
import random

import pytest

from rainbowdisc import (CnfFormula, InvalidInputError, build_reduction,
                         certify_rd3_coloring_proper, check_cut_certificate,
                         chromatic_index_exact, decide_rd_cubic,
                         extract_assignment_from_cut, find_rainbow_cut_exact,
                         find_rainbow_cut_fixed_k, gen_cnf,
                         global_edge_connectivity, gomory_hu, is_proper,
                         is_rainbow, is_rainbow_disconnected,
                         local_edge_connectivity, proper_coloring_delta_plus_one,
                         rd_exact, solve_sat_bruteforce, upper_edge_connectivity,
                         verify_reduction)
from corpus import (all_connected_graphs, cubic_3ec_corpus, random_coloring,
                    random_connected_graph)
from oracles import rainbow_cut_exists_oracle


@pytest.fixture
def report(capsys):
    def _report(num: int, description: str, ok: bool) -> None:
        with capsys.disabled():
            print(f"criterion {num} ({description}): {'PASS' if ok else 'FAIL'}")
        assert ok, f"criterion {num} failed: {description}"
    return _report


@pytest.fixture(scope="module")
def cubic_results():
    """rd_exact, decide_rd_cubic, and chi' on the cubic corpus, shared by
    criteria 2, 3, and 7."""
    rows = []
    for name, g in cubic_3ec_corpus():
        rows.append((name, g, rd_exact(g), decide_rd_cubic(g),
                     chromatic_index_exact(g)))
    return rows


@pytest.fixture(scope="module")
def reduction_reports():
    """verify_reduction on 200 seeded formulas, shared by criteria 4 and 5."""
    rng = random.Random(4001)
    rows = []
    for _ in range(200):
        f = gen_cnf(rng.randint(3, 8), rng.randint(1, 8), rng.randrange(10 ** 6))
        rows.append((f, verify_reduction(f)))
    return rows


def _valid_cut(g, c, cert, s, t) -> bool:
    try:
        check_cut_certificate(g, cert, s, t)
    except InvalidInputError:
        return False
    return is_rainbow(c, cert.cut_edges)


def _valid_rainbow_cut(artifact, cert) -> bool:
    return _valid_cut(artifact.graph, artifact.coloring, cert, artifact.s, artifact.t)


def test_criterion_1_bound_chain(report):
    graphs = []
    for n in range(2, 6):
        graphs.extend(all_connected_graphs(n))
    rng = random.Random(1001)
    for _ in range(100):
        graphs.append(random_connected_graph(rng, rng.randint(2, 7)))
    ok = True
    for g in graphs:
        lam = global_edge_connectivity(g)
        lam_plus = upper_edge_connectivity(g)
        rd = rd_exact(g).rd_value
        chi = chromatic_index_exact(g).chi_prime
        if not lam <= lam_plus <= rd <= chi <= g.max_degree + 1:
            ok = False
            break
    report(1, "connectivity/rd/chromatic-index bound chain on the corpus", ok)


def test_criterion_2_cubic_rd_is_3_or_4(report, cubic_results):
    ok = all(r.rd_value in (3, 4) and (r.rd_value == 3) == (chi.chi_prime == 3)
             for _, _, r, _, chi in cubic_results)
    named = {name: r.rd_value for name, _, r, _, _ in cubic_results}
    ok = ok and named["K4"] == 3 and named["K3,3"] == 3 and named["petersen"] == 4
    report(2, "cubic 3-edge-connected rd is 3 iff 3-edge-colorable, else 4", ok)


def test_criterion_3_decision_matches_exact(report, cubic_results):
    ok = all(r.rd_value == d.rd_value for _, _, r, d, _ in cubic_results)
    report(3, "cubic decision procedure agrees with exhaustive rd", ok)


def test_criterion_4_sat_equivalence(report, reduction_reports):
    ok = True
    for f, rep in reduction_reports:
        if not rep.equivalent:
            ok = False
            break
        if rep.satisfiable:
            if not (_valid_rainbow_cut(rep.artifact, rep.cut_from_assignment)
                    and _valid_rainbow_cut(rep.artifact, rep.found_cut)):
                ok = False
                break
            round_trip = extract_assignment_from_cut(rep.artifact,
                                                     rep.cut_from_assignment)
            if not (f.evaluate(round_trip)
                    and f.evaluate(rep.extracted_assignment)):
                ok = False
                break
        elif rep.found_cut is not None or rep.cut_from_assignment is not None:
            ok = False
            break
    report(4, "satisfiable iff rainbow cut exists, witnesses in both directions", ok)


def test_criterion_5_structural_counts(report, reduction_reports):
    ok = True
    for f, rep in reduction_reports:
        g = rep.artifact.graph
        n, m = f.variable_count, f.clause_count
        if (g.vertex_count != 4 * m + 2 * n + 2
                or g.edge_count != 10 * m + 2 * n + 1
                or rep.artifact.coloring.color_count != 5 * m + n + 1):
            ok = False
            break
    report(5, "encoded graph has 4m+2n+2 vertices, 10m+2n+1 edges, 5m+n+1 colors", ok)


def test_criterion_6_fixed_k_matches_enumeration(report):
    rng = random.Random(6001)
    ok = True
    for _ in range(500):
        g = random_connected_graph(rng, rng.randint(2, 8))
        c = random_coloring(rng, g.edge_count, rng.randint(1, 4))
        s = rng.randrange(g.vertex_count)
        t = rng.choice([v for v in range(g.vertex_count) if v != s])
        cert = find_rainbow_cut_fixed_k(g, c, s, t)
        expected = rainbow_cut_exists_oracle(g, c, s, t)
        if (cert is not None) != expected:
            ok = False
            break
        if cert is not None:
            try:
                check_cut_certificate(g, cert, s, t)
            except InvalidInputError:
                ok = False
                break
            if not is_rainbow(c, cert.cut_edges):
                ok = False
                break
    report(6, "per-class cut search matches full bipartition enumeration", ok)


def test_criterion_7_proper_colorings_disconnect(report, cubic_results):
    rng = random.Random(7001)
    ok = True
    for _ in range(100):
        g = random_connected_graph(rng, rng.randint(2, 8))
        c = proper_coloring_delta_plus_one(g)
        if not is_proper(g, c) or not is_rainbow_disconnected(g, c).ok:
            ok = False
            break
    if ok:
        for _, g, r, _, _ in cubic_results:
            if r.rd_value != 3:
                continue
            if not (is_proper(g, r.witness)
                    and certify_rd3_coloring_proper(g, r.witness)):
                ok = False
                break
    report(7, "max-degree+1 colorings disconnect; rd=3 witnesses are proper", ok)


def test_criterion_8_connectivity_oracles(report):
    rng = random.Random(8001)
    ok = True
    for _ in range(100):
        g = random_connected_graph(rng, rng.randint(2, 8))
        tree = gomory_hu(g)
        for s in range(g.vertex_count):
            for t in range(s + 1, g.vertex_count):
                if tree.connectivity(s, t) != local_edge_connectivity(g, s, t)[0]:
                    ok = False
                    break
            if not ok:
                break
        if not ok or global_edge_connectivity(g) > g.min_degree:
            ok = False
            break
    report(8, "gomory-hu tree equals direct max-flow; lambda at most min degree", ok)


def test_criterion_9_rainbow_disconnection_is_the_formula(report):
    """The paper's third result: deciding whether an edge-colored graph is
    rainbow disconnected is NP-complete, because the encoding of a 3-CNF
    formula f is rainbow disconnected exactly when f is satisfiable.

    Only the pairs among s, t and the clause hubs need a search: every other
    vertex has a rainbow star, which separates any pair it is in. An
    x-vertex star holds r_j once, the literal colors r_i^k of its
    occurrences (all distinct), and r_i^4 at most once per clause, since a
    clause names three distinct variables. A junction star is r_i^5 and
    r_i^4. Each pair but (s, t) is searched all the same, each cut checked,
    and (s, t) has a cut exactly when brute force satisfies f. The pairs run
    through find_rainbow_cut_exact, not is_rainbow_disconnected, whose
    bipartition search of (s, t) exits on its budget.
    """
    formulas = [gen_cnf(3, m, seed) for m in (4, 6) for seed in range(3)]
    formulas.append(CnfFormula(3, tuple(itertools.product((1, -1), (2, -2), (3, -3)))))
    ok = True
    for f in formulas:
        artifact = build_reduction(f)
        g, c = artifact.graph, artifact.coloring
        # x_j^b and c_i^k: every vertex but s, t and the hubs c_i
        starred = [v for name, v in artifact.vertex_table.items() if "^" in name]
        ok = all(is_rainbow(c, [eid for eid, _ in g.adjacency[v]]) for v in starred)
        for s, t in itertools.combinations(range(g.vertex_count), 2):
            if ok and (s, t) != (artifact.s, artifact.t):
                cert = find_rainbow_cut_exact(g, c, s, t)
                ok = cert is not None and _valid_cut(g, c, cert, s, t)
        st_cut = find_rainbow_cut_exact(g, c, artifact.s, artifact.t)
        ok = ok and (st_cut is not None) == (solve_sat_bruteforce(f) is not None)
        if not ok:
            break
    report(9, "an encoding is rainbow disconnected iff its formula is satisfiable", ok)
