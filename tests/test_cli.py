"""End-to-end command line tests driven through main()."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from rainbowdisc import (CnfFormula, EdgeColoring, Graph, is_proper, parse_graph,
                         serialize_dimacs_cnf, serialize_graph)
from rainbowdisc.cli import main
from rainbowdisc.generators import (complete_graph, cycle_graph, petersen_graph,
                                    random_cubic_graph)
from corpus import EDGE_RULE_FILES, two_hub_graph

P3_TEXT = "p edge 3 2\ne 1 2\ne 2 3\n"
C4_MONO = "p edge 4 4\ne 1 2 1\ne 2 3 1\ne 3 4 1\ne 4 1 1\n"
C4_ALT = "p edge 4 4\ne 1 2 1\ne 2 3 2\ne 3 4 1\ne 4 1 2\n"
CNF_SAT = "p cnf 3 1\n1 2 3 0\n"
CNF_UNSAT = ("p cnf 3 8\n"
             "1 2 3 0\n-1 2 3 0\n1 -2 3 0\n1 2 -3 0\n"
             "-1 -2 3 0\n-1 2 -3 0\n1 -2 -3 0\n-1 -2 -3 0\n")


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.graph"
    path.write_text(P3_TEXT)
    return str(path)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestBounds:
    def test_path_text(self, p3_file, capsys):
        assert main(["bounds", p3_file]) == 0
        assert capsys.readouterr().out == "lambda=1 lambda_plus=1 delta=2 chi_upper<=3\n"

    def test_json_agrees(self, p3_file, capsys):
        assert main(["bounds", "--json", p3_file]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"lambda": 1, "lambda_plus": 1, "delta": 2,
                        "chi_upper_bound": 3}

    def test_petersen(self, tmp_path, capsys):
        path = write(tmp_path, "petersen.graph", serialize_graph(petersen_graph()))
        assert main(["bounds", path]) == 0
        assert capsys.readouterr().out.startswith("lambda=3 lambda_plus=3")


class TestCut:
    def test_mono_square_has_none(self, tmp_path, capsys):
        path = write(tmp_path, "c4.graph", C4_MONO)
        assert main(["cut", path, "--s", "1", "--t", "3"]) == 1
        assert capsys.readouterr().out == "no rainbow cut\n"

    def test_alternating_square(self, tmp_path, capsys):
        path = write(tmp_path, "c4.graph", C4_ALT)
        assert main(["cut", path, "--s", "1", "--t", "3"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "rainbow cut: size 2"
        assert len(out) == 3
        assert all(line.startswith("e ") for line in out[1:])

    def test_fixed_k_json(self, tmp_path, capsys):
        path = write(tmp_path, "c4.graph", C4_ALT)
        assert main(["cut", "--json", path, "--s", "1", "--t", "3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["found"] is True
        assert len(data["cut_edges"]) == 2
        assert 1 in data["side_s"] and 3 not in data["side_s"]
        # the per-color-class enumeration is no longer a command-line strategy
        assert main(["cut", "--json", path, "--s", "1", "--t", "3", "--k", "2"]) == 2

    def test_vertex_out_of_range(self, tmp_path, capsys):
        path = write(tmp_path, "c4.graph", C4_MONO)
        assert main(["cut", path, "--s", "1", "--t", "9"]) == 3

    def test_missing_s_flag_is_usage_error(self, tmp_path):
        path = write(tmp_path, "c4.graph", C4_MONO)
        assert main(["cut", path, "--t", "3"]) == 2

    def test_long_single_color_path(self, tmp_path, capsys):
        # the search places all 1198 inner vertices before it finds a cut,
        # deeper than the interpreter's recursion limit
        n = 1200
        g = Graph(n, tuple((i, i + 1) for i in range(n - 1)))
        path = write(tmp_path, "path.graph", serialize_graph(g, EdgeColoring((0,) * (n - 1))))
        assert main(["cut", path, "--s", "1", "--t", str(n)]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        assert out.out.startswith("rainbow cut: size 1\n")


class TestRdExact:
    def test_text(self, p3_file, capsys):
        assert main(["rd-exact", p3_file]) == 0
        assert capsys.readouterr().out == "rd=1\n"

    def test_witness_file(self, tmp_path, capsys):
        graph = write(tmp_path, "k4.graph", serialize_graph(complete_graph(4)))
        witness = str(tmp_path / "witness.graph")
        assert main(["rd-exact", graph, "-o", witness]) == 0
        assert capsys.readouterr().out == "rd=3\n"
        g, c = parse_graph(open(witness).read())
        assert c is not None
        assert g.edge_count == 6
        assert c.color_count == 3

    def test_json(self, tmp_path, capsys):
        path = write(tmp_path, "c4.graph", C4_MONO)
        assert main(["rd-exact", "--json", path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["rd"] == 2
        assert len(data["witness_colors"]) == 4

    def test_class_one_cubic_within_small_budget(self, tmp_path, capsys):
        # level Delta is settled by a proper 3-coloring, with no level search
        g = random_cubic_graph(16, 0)
        path = write(tmp_path, "cubic16.graph", serialize_graph(g))
        assert main(["rd-exact", "--json", "--budget", "100000", path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["rd"] == 3
        assert is_proper(g, EdgeColoring(tuple(data["witness_colors"])))

    def test_class_two_3ec_cubic_within_small_budget(self, tmp_path, capsys):
        # 3-edge-connected and class 2, so rd = chi' = 4 with no level search
        g = random_cubic_graph(16, 232)
        path = write(tmp_path, "cubic16-g232.graph", serialize_graph(g))
        assert main(["rd-exact", "--json", "--budget", "100000", path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["rd"] == 4
        assert is_proper(g, EdgeColoring(tuple(data["witness_colors"])))


def test_color_ids_from_10_to_the_20_keep_verdicts_and_exit_codes(tmp_path, capsys):
    # only color equality matters, so ids of 10**20 and more answer as small
    # ids would. On the 6-cycle the stars at 2, 4 and 6 repeat a color, so
    # rd-check searches three pairs and passes; on the one-color square its
    # first search fails. A cut between vertices 1 and 2 of a cycle has two
    # edges, so cut --s 1 --t 2 finds one on the 6-cycle and none on the
    # square.
    cases = [(cycle_graph(6), (0, 0, 1, 1, 2, 2), 0, "rainbow disconnected\n", 0),
             (cycle_graph(4), (0,) * 4, 1, "not rainbow disconnected: failing pair 1 2\n", 1)]
    for g, small, check_code, verdict, cut_code in cases:
        huge = tuple(10**20 + 2**70 * col for col in small)
        path = write(tmp_path, "huge.graph", serialize_graph(g, EdgeColoring(huge)))
        assert main(["rd-check", path]) == check_code
        assert capsys.readouterr().out == verdict
        assert main(["cut", "--json", path, "--s", "1", "--t", "2"]) == cut_code
        data = json.loads(capsys.readouterr().out)
        assert data["found"] == (cut_code == 0)
        if data["found"]:
            assert sorted(huge[e] for e in data["cut_edges"]) == [10**20, 10**20 + 2**70]


class TestRdCheck:
    def test_true(self, tmp_path, capsys):
        path = write(tmp_path, "c4.graph", C4_ALT)
        assert main(["rd-check", path]) == 0
        assert capsys.readouterr().out == "rainbow disconnected\n"

    def test_false_reports_pair(self, tmp_path, capsys):
        path = write(tmp_path, "c4.graph", C4_MONO)
        assert main(["rd-check", path]) == 1
        assert capsys.readouterr().out == "not rainbow disconnected: failing pair 1 2\n"

    def test_single_color_two_hub_graph_within_small_budget(self, tmp_path, capsys):
        g = two_hub_graph(16)
        path = write(tmp_path, "hubs.graph", serialize_graph(g, EdgeColoring((0,) * g.edge_count)))
        assert main(["rd-check", path, "--budget", "100000"]) == 1
        assert capsys.readouterr().out == "not rainbow disconnected: failing pair 1 2\n"

    @pytest.mark.parametrize("n, closed, code, verdict, bounds", [
        (3000, False, 0, "rainbow disconnected", "lambda=1 lambda_plus=1"),
        (1201, True, 1, "not rainbow disconnected: failing pair 1 2", "lambda=2 lambda_plus=2"),
    ], ids=["path3000", "cycle1201"])
    def test_long_one_color_path_and_cycle(self, tmp_path, capsys, n, closed, code, verdict,
                                           bounds):
        # every edge of a path is a bridge, a known cut, so no pair is
        # searched; a cycle has no bridge and no rainbow star, so its first
        # pair is searched and has no rainbow cut
        g = cycle_graph(n) if closed else Graph(n, tuple((v, v + 1) for v in range(n - 1)))
        path = write(tmp_path, "long.graph", serialize_graph(g, EdgeColoring((0,) * g.edge_count)))
        assert main(["rd-check", path]) == code
        assert capsys.readouterr() == (verdict + "\n", "")
        assert main(["bounds", path]) == 0
        assert capsys.readouterr() == (f"{bounds} delta=2 chi_upper<=3\n", "")

    def test_uncolored_input_rejected(self, p3_file, capsys):
        assert main(["rd-check", p3_file]) == 3
        assert "colors required" in capsys.readouterr().err


class TestCubic3:
    def test_k4(self, tmp_path, capsys):
        path = write(tmp_path, "k4.graph", serialize_graph(complete_graph(4)))
        assert main(["cubic3", path]) == 0
        assert capsys.readouterr().out == "rd=3\n"

    def test_petersen(self, tmp_path, capsys):
        path = write(tmp_path, "petersen.graph", serialize_graph(petersen_graph()))
        assert main(["cubic3", path]) == 1
        assert capsys.readouterr().out == "rd=4\n"

    def test_not_cubic(self, tmp_path, capsys):
        path = write(tmp_path, "c4.graph", C4_MONO)
        assert main(["cubic3", path]) == 3
        assert "not cubic" in capsys.readouterr().err


class TestChi:
    def test_petersen(self, tmp_path, capsys):
        path = write(tmp_path, "petersen.graph", serialize_graph(petersen_graph()))
        assert main(["chi", path]) == 0
        assert capsys.readouterr().out == "chi_prime=4 class=2\n"

    def test_budget_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "petersen.graph", serialize_graph(petersen_graph()))
        assert main(["chi", "--budget", "1", path]) == 4
        assert "budget" in capsys.readouterr().err

    def test_edgeless_is_input_error(self, tmp_path, capsys):
        path = write(tmp_path, "edgeless.graph", "p edge 3 0\n")
        assert main(["chi", path]) == 3
        assert capsys.readouterr().err == "error: graph has no edges\n"

    @pytest.mark.parametrize("n, isolated, chi", [(2000, 0, 2), (2001, 0, 3), (2001, 1, 3)],
                             ids=["2000-2", "2001-3", "2001+isolated-3"])
    def test_long_cycles(self, tmp_path, capsys, n, isolated, chi):
        g = Graph(n + isolated, cycle_graph(n).edges)
        path = write(tmp_path, f"c{n}.graph", serialize_graph(g))
        assert main(["chi", path]) == 0
        out = capsys.readouterr()
        assert out.out == f"chi_prime={chi} class={chi - 1}\n"
        assert out.err == ""


class TestReduceSat:
    def test_writes_graph_and_sidecar(self, tmp_path, capsys):
        cnf = write(tmp_path, "f.cnf", CNF_SAT)
        out = str(tmp_path / "encoded.graph")
        assert main(["reduce-sat", cnf, "-o", out]) == 0
        text = capsys.readouterr().out
        assert "12 vertices, 17 edges, 9 colors" in text
        g, c = parse_graph(open(out).read())
        assert c is not None
        assert (g.vertex_count, g.edge_count) == (12, 17)
        side = json.loads(open(out + ".json").read())
        assert side["s"] == 1 and side["t"] == 2
        assert side["provenance"]["tool"] == "rainbowdisc"

    def test_encoded_graph_round_trips_through_cut(self, tmp_path, capsys):
        cnf = write(tmp_path, "f.cnf", CNF_SAT)
        out = str(tmp_path / "encoded.graph")
        assert main(["reduce-sat", cnf, "-o", out]) == 0
        side = json.loads(open(out + ".json").read())
        capsys.readouterr()
        code = main(["cut", out, "--s", str(side["s"]), "--t", str(side["t"])])
        assert code == 0
        assert capsys.readouterr().out.startswith("rainbow cut: size")


class TestVerifyReduction:
    def test_satisfiable(self, tmp_path, capsys):
        cnf = write(tmp_path, "f.cnf", CNF_SAT)
        assert main(["verify-reduction", cnf]) == 0
        assert capsys.readouterr().out == \
            "satisfiable=true rainbow_cut=true equivalent=true\n"

    def test_unsatisfiable_still_equivalent(self, tmp_path, capsys):
        cnf = write(tmp_path, "f.cnf", CNF_UNSAT)
        assert main(["verify-reduction", cnf]) == 0
        assert capsys.readouterr().out == \
            "satisfiable=false rainbow_cut=false equivalent=true\n"

    def test_json(self, tmp_path, capsys):
        cnf = write(tmp_path, "f.cnf", CNF_SAT)
        assert main(["verify-reduction", "--json", cnf]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["equivalent"] is True
        assert data["assignment"] == [False, False, True]


class TestGen:
    def test_stdout(self, capsys):
        assert main(["gen", "cycle", "--n", "5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("p edge 5 5\n")

    def test_deterministic(self, capsys):
        assert main(["gen", "random_cubic", "--n", "8", "--seed", "42"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "random_cubic", "--n", "8", "--seed", "42"]) == 0
        assert capsys.readouterr().out == first

    def test_cnf_to_file(self, tmp_path, capsys):
        out = str(tmp_path / "f.cnf")
        assert main(["gen", "cnf", "--n", "5", "--m", "4", "-o", out]) == 0
        assert open(out).read().startswith("p cnf 5 4\n")

    def test_cnf_missing_m(self, capsys):
        assert main(["gen", "cnf", "--n", "5"]) == 3
        assert "requires --n and --m" in capsys.readouterr().err

    def test_unknown_kind_is_usage_error(self):
        assert main(["gen", "moebius"]) == 2

    @pytest.mark.parametrize("argv", [["complete", "--n", "20000"],
                                      ["cnf", "--n", "5", "--m", "1000000000"]],
                             ids=["complete", "cnf"])
    def test_over_the_cap_builds_nothing(self, argv, capsys):
        # 199,990,000 edges or 10^9 clauses: refused from --n and --m alone
        tracemalloc.start()
        try:
            code = main(["gen"] + argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert peak < 2**20
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "over the cap of" in lines[0]


@pytest.mark.parametrize("command", ("bounds", "rd-exact", "rd-check", "cut", "cubic3",
                                     "chi", "verify-reduction"))
def test_negative_budget_is_usage_error(tmp_path, capsys, command):
    path = (write(tmp_path, "sat.cnf", CNF_SAT) if command == "verify-reduction"
            else write(tmp_path, "c4.graph", C4_ALT))
    flags = ["--s", "1", "--t", "3"] if command == "cut" else []
    assert main([command, path, "--budget", "-1"] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --budget" in captured.err


class TestTopLevel:
    def test_no_arguments_is_usage_error(self):
        assert main([]) == 2

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == 2

    def test_missing_file_is_input_error(self, capsys):
        assert main(["bounds", "/nonexistent/z.graph"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_malformed_graph_is_input_error(self, tmp_path, capsys):
        path = write(tmp_path, "bad.graph", "p edge 3 1\ne 1 9\n")
        assert main(["bounds", path]) == 3

    @pytest.mark.parametrize("text", [case[1] for case in EDGE_RULE_FILES],
                             ids=[case[0] for case in EDGE_RULE_FILES])
    def test_edge_rule_names_the_file_line(self, tmp_path, capsys, text):
        # the file's edge 1 is on line 7 and breaks one edge rule
        path = write(tmp_path, "bad.graph", text)
        assert main(["bounds", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: line 7: ")

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip() == "rainbowdisc 0.1.0"

    def test_import_loads_no_hashlib(self):
        # hashlib loads OpenSSL; only reduce-sat's sidecar needs it
        import rainbowdisc
        src = os.path.dirname(os.path.dirname(os.path.abspath(rainbowdisc.__file__)))
        probe = ("import sys\n"
                 f"sys.path.insert(0, {src!r})\n"
                 "import rainbowdisc.cli\n"
                 "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n")
        run = subprocess.run([sys.executable, "-I", "-c", probe],
                             capture_output=True, text=True, timeout=60)
        assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")

    def test_reduce_sat_loads_no_hashlib(self, tmp_path):
        # the sidecar digest comes from CPython's built-in SHA-256 module
        import rainbowdisc
        src = os.path.dirname(os.path.dirname(os.path.abspath(rainbowdisc.__file__)))
        cnf = write(tmp_path, "f.cnf", CNF_SAT)
        argv = ["reduce-sat", cnf, "-o", str(tmp_path / "f.graph")]
        probe = ("import sys\n"
                 f"sys.path.insert(0, {src!r})\n"
                 "import rainbowdisc.cli\n"
                 f"code = rainbowdisc.cli.main({argv!r})\n"
                 "print(code, sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n")
        run = subprocess.run([sys.executable, "-I", "-c", probe],
                             capture_output=True, text=True, timeout=60)
        assert (run.returncode, run.stdout.splitlines()[-1], run.stderr) == (0, "0 []", "")
        side = json.loads((tmp_path / "f.graph.json").read_text())
        assert len(side["provenance"]["formula_sha256"]) == 64


GRAPH_COMMANDS = ("bounds", "rd-exact", "rd-check", "cut", "cubic3", "chi")
CNF_COMMANDS = ("reduce-sat", "verify-reduction")
# tokens that the mutations splice in: header and line kinds, small counts,
# out-of-range and non-numeric values
TOKENS = ("p", "edge", "cnf", "c", "e", "0", "1", "2", "3", "9", "-1", "x")


@st.composite
def graph_texts(draw, colored):
    # a random tree plus extra edges, so that most files pass the connectivity
    # check until a mutation breaks them
    n = draw(st.integers(min_value=0, max_value=9))
    edges = [(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)]
    pairs = [p for p in combinations(range(n), 2) if p not in edges]
    edges += draw(st.lists(st.sampled_from(pairs), unique=True, max_size=14 - len(edges))
                  if pairs else st.just([]))
    colors = draw(st.lists(st.integers(min_value=0, max_value=4),
                           min_size=len(edges), max_size=len(edges))) if colored else None
    g = Graph(n, tuple(edges))
    return serialize_graph(g, EdgeColoring(tuple(colors)) if colors else None)


@st.composite
def cnf_texts(draw):
    n = draw(st.integers(min_value=3, max_value=9))
    literal_triples = st.lists(st.integers(min_value=1, max_value=n), min_size=3,
                               max_size=3, unique=True)
    clauses = draw(st.lists(literal_triples.flatmap(
        lambda vs: st.tuples(*(st.sampled_from((v, -v)) for v in vs))), max_size=14))
    return serialize_dimacs_cnf(CnfFormula(n, tuple(clauses)))


@st.composite
def mutated(draw, texts):
    """A valid file with up to three lines dropped, doubled, inserted, or
    with one token replaced or appended."""
    lines = [line.split() for line in draw(texts).splitlines()]
    for _ in range(draw(st.sampled_from((0, 0, 1, 2, 3)))):
        op = draw(st.sampled_from(("drop", "double", "insert", "replace", "append")))
        i = draw(st.integers(min_value=0, max_value=len(lines)))
        token = st.sampled_from(TOKENS)
        if op == "insert":
            lines.insert(i, draw(st.lists(token, max_size=4)))
        elif i == len(lines):
            continue
        elif op == "drop":
            del lines[i]
        elif op == "double":
            lines.insert(i, list(lines[i]))
        elif op == "append":
            lines[i].append(draw(token))
        elif lines[i]:
            lines[i][draw(st.integers(min_value=0, max_value=len(lines[i]) - 1))] = draw(token)
    return "".join(" ".join(line) + "\n" for line in lines)


@st.composite
def requests(draw, command):
    text = draw(mutated(cnf_texts() if command in CNF_COMMANDS
                        else graph_texts(colored=command in ("cut", "rd-check"))))
    flags = []
    if command == "cut":
        flags += ["--s", str(draw(st.integers(min_value=0, max_value=10))),
                  "--t", str(draw(st.integers(min_value=0, max_value=10)))]
    if command != "reduce-sat":
        flags += ["--budget", str(draw(st.integers(min_value=0, max_value=10**4)))]
    return text, flags + draw(st.sampled_from(([], ["--json"])))


@pytest.mark.parametrize("command", GRAPH_COMMANDS + CNF_COMMANDS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_file_commands_keep_the_exit_code_contract(command, data):
    # exit codes 0-4 only, and any error is one "error: " line on stderr
    text, flags = data.draw(requests(command))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        if command == "reduce-sat":
            flags = flags + ["-o", os.path.join(tmp, "out.graph")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, path] + flags)
    assert code in range(5)
    lines = err.getvalue().splitlines()
    assert lines == [] or (len(lines) == 1 and lines[0].startswith("error: "))


@pytest.mark.parametrize("command", GRAPH_COMMANDS + CNF_COMMANDS)
def test_file_that_is_not_utf8_is_an_input_error(command, tmp_path, capsys):
    # a valid file with one byte that no UTF-8 text holds: exit 3 with one
    # "error: " line, not a decode traceback
    text = CNF_SAT if command in CNF_COMMANDS else "p edge 2 1\ne 1 2\n"
    path = tmp_path / "input"
    path.write_bytes(text.encode() + b"\xff\n")
    flags = {"cut": ["--s", "1", "--t", "2"],
             "reduce-sat": ["-o", str(tmp_path / "out.graph")]}.get(command, [])
    assert main([command, str(path)] + flags) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "UTF-8" in lines[0]


def test_long_path_rd_exact_keeps_the_exit_code_contract(tmp_path, capsys):
    # A path is a tree: every block is a bridge, so rd = 1 with no level
    # search, and its witness check settles every pair by an end's star or
    # a bridge, with no cut search and no entry per pair, so a 3000-vertex
    # path answers in 1 GiB too, in well under a second. A 1201-vertex odd cycle
    # is one block whose level 2 is searched: about n^3/6 separated pairs,
    # so that search must end on its budget, not on time or memory, also at
    # the default budget. The default-budget runs have 1 GiB of address
    # space.
    n = 1200
    paths = [write(tmp_path, f"path{k}.graph",
                   serialize_graph(Graph(k, tuple((i, i + 1) for i in range(k - 1)))))
             for k in (n, 3000)]
    cycle = write(tmp_path, "cycle.graph", serialize_graph(cycle_graph(n + 1)))
    assert main(["rd-exact", cycle, "--budget", "100000"]) == 4
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    capped = ("import resource, sys\n"
              "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
              "from rainbowdisc.cli import main\n"
              "sys.exit(main(['rd-exact', sys.argv[1]]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))

    def run_capped(graph_file):
        return subprocess.run([sys.executable, "-c", capped, graph_file], env=env,
                              capture_output=True, text=True, timeout=60)

    for path in paths:
        run = run_capped(path)
        assert (run.returncode, run.stdout, run.stderr) == (0, "rd=1\n", "")
    run = run_capped(cycle)
    assert run.returncode == 4
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def run_capped(tmp_path, command, path):
    """main(command + [path]) in a child process with 256 MiB of address space."""
    capped = ("import resource, sys\n"
              "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))\n"
              "from rainbowdisc.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-c", capped, command[0], path, *command[1:]],
                          env=env, cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)


@pytest.mark.parametrize("name, header, command", [
    ("h.graph", "p edge 5000000 0\n", ["bounds"]),
], ids=["bounds"])
def test_out_of_memory_exits_like_a_budget(tmp_path, name, header, command):
    # a header alone declares millions of vertices; with 256 MiB of address
    # space building them runs out of memory, which is a resource limit
    # (exit 4, one error line), not a "false" decision with a traceback
    run = run_capped(tmp_path, command, write(tmp_path, name, header))
    assert run.returncode == 4
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("variables", [100_000, 3_000_000])
def test_encoding_over_the_cap_writes_nothing(tmp_path, variables):
    # 10m + 2n + 1 encoding edges over the cap of 100,000: refused before the
    # graph is built (it used to run out of memory under 256 MiB, and
    # 100,000 variables wrote 10 MB with exit 0)
    path = write(tmp_path, "h.cnf", f"p cnf {variables} 0\n")
    run = run_capped(tmp_path, ["reduce-sat", "-o", "out.graph"], path)
    assert (run.returncode, run.stdout) == (3, "")
    assert run.stderr == (f"error: {2 * variables + 1} encoding edges requested, "
                          "over the cap of 100000\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["h.cnf"]


def test_edge_rules_are_checked_before_the_vertices_are_allocated(tmp_path):
    # five million declared vertices and one self-loop: Graph rejects the
    # edge before it allocates a list per vertex, so 256 MiB is plenty
    run = run_capped(tmp_path, ["bounds"], write(tmp_path, "h.graph", "p edge 5000000 1\ne 1 1\n"))
    assert (run.returncode, run.stdout, run.stderr) == (3, "", "error: line 2: self-loop\n")
