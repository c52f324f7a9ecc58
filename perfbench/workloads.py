"""The four workloads: their seeded request lists and the answer gate.

A request is one in-process ``rainbowdisc.cli.main`` call on a generated
file, or one library call where the CLI has no subcommand. Each request
carries the checks that judge its answer without trusting the search that
produced it, and the names of the output fields that form its verdict
(recorded per request in ``verdicts/``; witnesses are not pinned).

The budgets and instance counts below are part of each workload and stay
the same on every commit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from typing import Any, Callable

import rainbowdisc.rainbow as rainbow
from rainbowdisc.coloring import find_proper_k_coloring, is_proper, proper_coloring_delta_plus_one
from rainbowdisc.connectivity import global_edge_connectivity, upper_edge_connectivity
from rainbowdisc.generators import complete_graph, gen_cnf, petersen_graph, prism_graph, random_cubic_graph
from rainbowdisc.graphs import (CutCertificate, EdgeColoring, Graph, check_cut_certificate,
                                is_rainbow, serialize_graph)
from rainbowdisc.reduction import (Assignment, CnfFormula, build_reduction,
                                   serialize_dimacs_cnf, solve_sat_bruteforce)

from inputs import (ORACLE_MAX_VERTICES, dense_connected_graph, first_unseparated_pair,
                    has_bridge, k33_graph, permuted_coloring, random_coloring,
                    random_connected_graph, relabel, three_edge_connected_class1,
                    threshold_cnf, truncate)

# A run makes whole passes over CYCLES[workload] cycles of fresh instances;
# cycle c of seed s draws its instances from seed s * CYCLES + c, so seeds
# are consecutive within a run and disjoint between runs. Each cycle holds
# one instance of every class, so any run of whole cycles has the same mix.
CYCLES = {"rd-exact": 28, "rd-check": 6, "cubic-chi": 12, "sat-cut": 26}

# rd-exact: cubic and sparse connected graphs of every size, one named graph.
RD_EXACT_BUDGET = 100_000
RD_EXACT_CUBIC_SIZES = (10, 12, 14, 16)
RD_EXACT_SPARSE_SIZES = (8, 10, 12)
RD_EXACT_SPARSE_PER_SIZE = 2

# rd-check: proper and random 3-colorings of cubic and truncated cubic
# graphs, and proper (Delta+1) and random colorings of denser graphs with
# 7-11 colors. A proper 3-coloring is certified too: that costs one full
# all-pairs check (at least 95% of the time at n=18-24) plus the C(m,3)
# splitting scan (under 5%).
RD_CHECK_BUDGET = 1_000_000
RD_CHECK_CUBIC_SIZES = (12, 14, 16, 18, 20)
RD_CHECK_DENSE = ((8, 14), (9, 16), (10, 18), (11, 20), (12, 22))  # (n, extra edges)
RD_CHECK_DENSE_PER_CYCLE = 13

# cubic-chi: random cubic graphs on both sides of the size where the chi'
# search stops finishing within the budget (between 40 and 60 today).
CHI_BUDGET = 200_000
CHI_SMALL_SIZES = (20, 30, 40)
CHI_SMALL_PER_SIZE = 5
CHI_LARGE_SIZES = (60, 100, 200, 300)  # one graph each per cycle

# sat-cut: verify-reduction within its limits (16 variables, 12 clauses),
# and reduce-sat + cut on larger encodings at the satisfiability threshold.
SAT_BUDGET = 200_000
SAT_VERIFY_VARIABLES = (3,) * 16 + (4,) * 8 + (5,) * 8
SAT_VERIFY_CLAUSES = 12
SAT_LARGE_VARIABLES = (10, 12, 14)


class WrongAnswer(Exception):
    """An answer failed the gate."""


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise WrongAnswer(what)


@dataclass
class Request:
    """One request of a workload.

    ``check(exit_code, data)`` raises WrongAnswer on a wrong answer and
    returns True when the answer's witness (or the input's known verdict)
    verified it, False when nothing cheap could. ``pins`` names the output
    fields that make up the recorded verdict.
    """

    key: str
    check: Callable[[int, Any], bool]
    pins: tuple[str, ...]
    argv: list[str] | None = None
    call: Callable[[], Any] | None = None
    props: dict[str, bool | Callable[[], bool]] = field(default_factory=dict)

    def verdict(self, code: int, data: Any) -> list:
        """[exit code, *the pinned fields] (just the exit code when the
        request printed nothing)."""
        return [code] + ([data.get(k) for k in self.pins] if isinstance(data, dict) else [])


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _cli(key: str, argv: list[str], check, pins, **props) -> Request:
    return Request(key, check, pins, argv=argv, props=props)


# ---------------------------------------------------------------- rd-exact

def _rd_exact_request(key: str, g: Graph, path: str, named: str | None = None) -> Request:
    lam_plus = cache(lambda: upper_edge_connectivity(g))
    top = g.max_degree + 1

    def check(code: int, data: Any) -> bool:
        expect(code == 0, f"exit {code}")
        rd, colors = data["rd"], data["witness_colors"]
        expect(lam_plus() <= rd <= top, f"rd={rd} outside [{lam_plus()}, {top}]")
        expect(data["palette"] == rd and len(colors) == g.edge_count
               and len(set(colors)) <= rd and max(colors) < rd, "witness palette")
        if named == "petersen":
            expect(rd == 4, "Petersen rd must be 4")
        if g.vertex_count <= ORACLE_MAX_VERTICES:
            expect(first_unseparated_pair(g, colors) is None,
                   "witness is not a rainbow disconnection coloring")
            return True
        return False

    return _cli(key, ["rd-exact", path, "--json", "--budget", str(RD_EXACT_BUDGET)],
                check, ("rd",), cubic=all(d == 3 for d in g.degrees),
                n_ge_14=g.vertex_count >= 14)


NAMED = (("petersen", petersen_graph()), ("prism", prism_graph()),
         ("K5", complete_graph(5)), ("K6", complete_graph(6)))


def build_rd_exact(inst: int, workdir: Path) -> list[list[Request]]:
    graphs = [(f"cubic{n}-g{inst}", random_cubic_graph(n, inst)) for n in RD_EXACT_CUBIC_SIZES]
    graphs += [(f"sparse{n}-g{g}", random_connected_graph(random.Random(f"sparse{n}-{g}"), n, 6))
               for n in RD_EXACT_SPARSE_SIZES
               for g in range(RD_EXACT_SPARSE_PER_SIZE * inst, RD_EXACT_SPARSE_PER_SIZE * (inst + 1))]
    groups = []
    for name, g in graphs + [NAMED[inst % len(NAMED)]]:
        path = _write(workdir / f"{name}-{inst}.graph", serialize_graph(g))
        groups.append([_rd_exact_request(f"rd-exact/{name}", g, path, name)])
    return groups


# ---------------------------------------------------------------- rd-check

def _rd_check_requests(key: str, g: Graph, c: EdgeColoring, workdir: Path,
                       proper: bool, certify: bool) -> list[Request]:
    """rd-check on (g, c), plus the properness certificate when c is a
    proper 3-coloring of a 3-edge-connected cubic graph."""
    @cache
    def known() -> tuple[bool, tuple[int, int] | None] | None:
        if g.vertex_count <= ORACLE_MAX_VERTICES:
            pair = first_unseparated_pair(g, c.colors)
            return pair is None, pair
        if proper:  # a proper coloring separates every pair by a vertex star
            return True, None
        return None

    path = _write(workdir / (key.replace("/", "_") + ".graph"), serialize_graph(g, c))
    props = {"palette_gt_6": c.color_count > 6, "proper": proper,
             "oracle_sized": g.vertex_count <= ORACLE_MAX_VERTICES}

    def check(code: int, data: Any) -> bool:
        expect(code in (0, 1), f"exit {code}")
        expect(data["rainbow_disconnected"] == (code == 0), "verdict and exit code disagree")
        if known() is None:
            return False
        ok, pair = known()
        expect(data["rainbow_disconnected"] == ok, f"verdict should be {ok}")
        if not ok:
            expect(data["failing_pair"] == [pair[0] + 1, pair[1] + 1],
                   f"first failing pair should be {pair}")
        return True

    out = [_cli(key, ["rd-check", path, "--json", "--budget", str(RD_CHECK_BUDGET)],
                check, ("rainbow_disconnected", "failing_pair"), **props)]
    if certify:
        def certify_check(code: int, data: Any) -> bool:
            expect(code == 0 and data["result"] is True,
                   "a proper coloring must be certified proper")
            return True

        out.append(Request(
            key + "/certify", certify_check, ("result",),
            call=lambda: rainbow.certify_rd3_coloring_proper(g, c, node_budget=RD_CHECK_BUDGET),
            props=props))
    return out


def build_rd_check(inst: int, workdir: Path) -> list[list[Request]]:
    rng = random.Random(f"rd-check-{inst}")
    cubic = []
    for n in RD_CHECK_CUBIC_SIZES:
        gseed, g = three_edge_connected_class1(n, 3 * inst)
        cubic.append((f"cubic{n}-g{gseed}-r{inst}", g))
    for name, base in (("K4", complete_graph(4)), ("prism", prism_graph()), ("K33", k33_graph())):
        cubic.append((f"trunc{name}-r{inst}", relabel(truncate(base), rng)))
    groups = []
    for name, g in cubic:
        proper = permuted_coloring(rng, find_proper_k_coloring(g, 3))
        groups.append(_rd_check_requests(f"rd-check/{name}/proper", g, proper, workdir,
                                         proper=True, certify=True))
        groups.append(_rd_check_requests(f"rd-check/{name}/random3", g,
                                         random_coloring(rng, g, 3), workdir,
                                         proper=False, certify=False))
    for j in range(RD_CHECK_DENSE_PER_CYCLE):
        n, extra = RD_CHECK_DENSE[j % len(RD_CHECK_DENSE)]
        while True:
            g = dense_connected_graph(rng, n, extra)
            c = proper_coloring_delta_plus_one(g)
            if c.color_count > 6:
                break
        name = f"dense{n}-{j}-r{inst}"
        groups.append(_rd_check_requests(f"rd-check/{name}/delta1", g, c, workdir,
                                         proper=True, certify=False))
        groups.append(_rd_check_requests(f"rd-check/{name}/random{c.palette}", g,
                                         random_coloring(rng, g, c.palette), workdir,
                                         proper=False, certify=False))
    return groups


# --------------------------------------------------------------- cubic-chi

def _cubic_chi_requests(name: str, g: Graph, path: str) -> list[list[Request]]:
    lam = cache(lambda: global_edge_connectivity(g))
    bridge = cache(lambda: has_bridge(g))
    class2_known = cache(lambda: bridge() or name == "petersen")  # a bridge forces class 2
    props = {"three_edge_connected": lambda: lam() == 3, "n_ge_60": g.vertex_count >= 60}

    def witness_ok(colors: list[int], k: int) -> bool:
        return (len(colors) == g.edge_count and max(colors) < k
                and is_proper(g, EdgeColoring(tuple(colors), k)))

    def bounds_check(code: int, data: Any) -> bool:
        expect(code == 0, f"exit {code}")
        expect(data["delta"] == 3 and data["chi_upper_bound"] == 4, "degree bounds")
        expect(data["lambda"] == lam() and (lam() == 1) == bridge(), f"lambda should be {lam()}")
        expect(lam() <= data["lambda_plus"] <= 3, "lambda_plus out of range")
        return True

    def cubic3_check(code: int, data: Any) -> bool:
        if lam() < 3:
            expect(code == 3, "cubic3 must reject a graph that is not 3-edge-connected")
            return True
        expect(code in (0, 1), f"exit {code}")
        rd = data["rd"]
        expect(rd in (3, 4) and (rd == 3) == (code == 0), "rd must be 3 or 4")
        expect(witness_ok(data["witness_colors"], rd), "witness is not a proper coloring")
        return rd == 3 or class2_known()

    def chi_check(code: int, data: Any) -> bool:
        expect(code == 0, f"exit {code}")
        chi, cls = data["chi_prime"], data["class"]
        expect(chi in (3, 4) and cls == chi - 2, "chi' and class disagree")
        expect(witness_ok(data["witness_colors"], chi), "witness is not a proper coloring")
        if class2_known():
            expect(cls == 2, "a cubic graph with a bridge, or Petersen, is class 2")
        return cls == 1 or class2_known()

    flags = ["--json", "--budget", str(CHI_BUDGET)]
    return [[_cli(f"cubic-chi/{name}/bounds", ["bounds", path] + flags, bounds_check,
                  ("lambda", "lambda_plus", "delta"), **props)],
            [_cli(f"cubic-chi/{name}/cubic3", ["cubic3", path] + flags, cubic3_check,
                  ("rd",), **props)],
            [_cli(f"cubic-chi/{name}/chi", ["chi", path] + flags, chi_check,
                  ("chi_prime", "class"), **props)]]


def build_cubic_chi(inst: int, workdir: Path) -> list[list[Request]]:
    graphs = [(f"cubic{n}-g{g}", random_cubic_graph(n, g))
              for n in CHI_SMALL_SIZES
              for g in range(CHI_SMALL_PER_SIZE * inst, CHI_SMALL_PER_SIZE * (inst + 1))]
    graphs += [(f"cubic{n}-g{inst}", random_cubic_graph(n, inst)) for n in CHI_LARGE_SIZES]
    graphs.append(("petersen", petersen_graph()))
    groups = []
    for name, g in graphs:
        path = _write(workdir / f"{name}-{inst}.graph", serialize_graph(g))
        groups += _cubic_chi_requests(name, g, path)
    return groups


# ----------------------------------------------------------------- sat-cut

def _verify_request(name: str, f: CnfFormula, path: str) -> Request:
    sat = cache(lambda: solve_sat_bruteforce(f) is not None)

    def check(code: int, data: Any) -> bool:
        expect(code == 0, f"exit {code}")
        expect(data["satisfiable"] == sat(), f"satisfiable should be {sat()}")
        expect(data["rainbow_cut"] == sat() and data["equivalent"] is True,
               "cut existence must match satisfiability")
        if sat():
            for key in ("assignment", "extracted_assignment"):
                expect(f.evaluate(Assignment(tuple(data[key]))), f"{key} does not satisfy")
        return True

    return _cli(f"sat-cut/{name}", ["verify-reduction", path, "--json", "--budget", str(SAT_BUDGET)],
                check, ("satisfiable", "rainbow_cut", "equivalent"), satisfiable=sat, large=False)


def _reduce_and_cut_requests(name: str, f: CnfFormula, cnf: str, graph: str) -> list[Request]:
    sat = cache(lambda: solve_sat_bruteforce(f) is not None)
    art = cache(lambda: build_reduction(f))
    props = {"satisfiable": sat, "large": True}

    def reduce_check(code: int, data: Any) -> bool:
        expect(code == 0, f"exit {code}")
        n, m = f.variable_count, f.clause_count
        expect((data["vertices"], data["edges"], data["colors"], data["s"], data["t"])
               == (4 * m + 2 * n + 2, 10 * m + 2 * n + 1, 5 * m + n + 1, 1, 2),
               "encoding has the wrong size")
        return True

    def cut_check(code: int, data: Any) -> bool:
        expect(code in (0, 1), f"exit {code}")
        expect(data["found"] == (code == 0) == sat(), f"a cut exists iff satisfiable ({sat()})")
        if code == 0:
            g, c = art().graph, art().coloring
            side = frozenset(v - 1 for v in data["side_s"])
            cert = CutCertificate(frozenset(data["cut_edges"]), side,
                                  frozenset(range(g.vertex_count)) - side)
            try:
                check_cut_certificate(g, cert, art().s, art().t)
            except ValueError as exc:
                raise WrongAnswer(f"cut certificate: {exc}") from None
            expect(is_rainbow(c, cert.cut_edges), "cut is not rainbow")
        return True

    return [_cli(f"sat-cut/{name}/reduce-sat", ["reduce-sat", cnf, "-o", graph, "--json"],
                 reduce_check, ("vertices", "edges", "colors"), **props),
            _cli(f"sat-cut/{name}/cut", ["cut", graph, "--s", "1", "--t", "2", "--json",
                                         "--budget", str(SAT_BUDGET)],
                 cut_check, ("found",), **props)]


def build_sat_cut(inst: int, workdir: Path) -> list[list[Request]]:
    groups = []
    for i, n in enumerate(SAT_VERIFY_VARIABLES):
        fseed = inst * len(SAT_VERIFY_VARIABLES) + i
        name = f"verify-n{n}-f{fseed}"
        f = gen_cnf(n, SAT_VERIFY_CLAUSES, fseed)
        groups.append([_verify_request(name, f, _write(workdir / f"{name}.cnf",
                                                       serialize_dimacs_cnf(f)))])
    for n in SAT_LARGE_VARIABLES:  # reduce-sat writes the file its cut reads
        name = f"reduce-n{n}-f{inst}"
        f = threshold_cnf(n, inst)
        cnf = _write(workdir / f"{name}.cnf", serialize_dimacs_cnf(f))
        groups.append(_reduce_and_cut_requests(name, f, cnf, str(workdir / f"{name}.graph")))
    return groups


BUILDERS = {"rd-exact": build_rd_exact, "rd-check": build_rd_check,
            "cubic-chi": build_cubic_chi, "sat-cut": build_sat_cut}
