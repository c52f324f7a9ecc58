"""Command line front end.

Exit codes: 0 success (and decision true), 1 decision false / no cut found,
2 usage error, 3 input error, 4 node budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .coloring import chromatic_index_exact
from .connectivity import connectivity_range
from .errors import DEFAULT_NODE_BUDGET, BudgetExceededError, InvalidInputError
from .generators import GRAPH_KINDS, gen_cnf, gen_graph
from .graphs import EdgeColoring, Graph, parse_graph, serialize_graph
from .rainbow import (decide_rd_cubic, find_rainbow_cut_exact,
                      is_rainbow_disconnected, rd_exact)
from .reduction import (build_reduction, parse_dimacs_cnf, reduction_sidecar,
                        serialize_dimacs_cnf, verify_reduction)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_BUDGET = 4


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_graph(path: str, *, colored: bool = False) -> tuple[Graph, EdgeColoring | None]:
    g, c = parse_graph(_read(path))
    if colored and c is None:
        raise InvalidInputError(f"{path}: edge colors required")
    return g, c


def _internal_vertex(g: Graph, label: int, flag: str) -> int:
    if not (1 <= label <= g.vertex_count):
        raise InvalidInputError(f"{flag}={label} out of range 1..{g.vertex_count}")
    return label - 1


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def _emit(args: argparse.Namespace, data: dict, text: str) -> None:
    print(json.dumps(data, indent=2) if args.json else text)


def _write_witness(args: argparse.Namespace, g: Graph, coloring: EdgeColoring) -> None:
    if args.output:
        _write(args.output, serialize_graph(g, coloring))


def cmd_bounds(args: argparse.Namespace) -> int:
    g, _ = _load_graph(args.graph_file)
    lam, lam_plus = connectivity_range(g)
    delta = g.max_degree
    _emit(args,
          {"lambda": lam, "lambda_plus": lam_plus, "delta": delta,
           "chi_upper_bound": delta + 1},
          f"lambda={lam} lambda_plus={lam_plus} delta={delta} chi_upper<={delta + 1}")
    return EXIT_OK


def cmd_rd_exact(args: argparse.Namespace) -> int:
    g, _ = _load_graph(args.graph_file)
    result = rd_exact(g, args.budget)
    _write_witness(args, g, result.witness)
    _emit(args,
          {"rd": result.rd_value, "palette": result.witness.palette,
           "witness_colors": list(result.witness.colors)},
          f"rd={result.rd_value}")
    return EXIT_OK


def cmd_rd_check(args: argparse.Namespace) -> int:
    g, c = _load_graph(args.graph_file, colored=True)
    assert c is not None
    check = is_rainbow_disconnected(g, c, node_budget=args.budget)
    if check.ok:
        _emit(args, {"rainbow_disconnected": True, "failing_pair": None},
              "rainbow disconnected")
        return EXIT_OK
    s, t = check.failing_pair  # type: ignore[misc]
    _emit(args, {"rainbow_disconnected": False, "failing_pair": [s + 1, t + 1]},
          f"not rainbow disconnected: failing pair {s + 1} {t + 1}")
    return EXIT_FALSE


def cmd_cut(args: argparse.Namespace) -> int:
    g, c = _load_graph(args.graph_file, colored=True)
    assert c is not None
    s = _internal_vertex(g, args.s, "--s")
    t = _internal_vertex(g, args.t, "--t")
    cert = find_rainbow_cut_exact(g, c, s, t, args.budget)
    if cert is None:
        _emit(args, {"found": False}, "no rainbow cut")
        return EXIT_FALSE
    cut = sorted(cert.cut_edges)
    edge_lines = [f"e {g.edges[e][0] + 1} {g.edges[e][1] + 1} {c.colors[e]}"
                  for e in cut]
    _emit(args,
          {"found": True, "cut_edges": cut,
           "edges": [[g.edges[e][0] + 1, g.edges[e][1] + 1, c.colors[e]] for e in cut],
           "side_s": sorted(v + 1 for v in cert.side_s)},
          "\n".join([f"rainbow cut: size {len(cut)}"] + edge_lines))
    return EXIT_OK


def cmd_cubic3(args: argparse.Namespace) -> int:
    g, _ = _load_graph(args.graph_file)
    decision = decide_rd_cubic(g, args.budget)
    _write_witness(args, g, decision.witness)
    _emit(args, {"rd": decision.rd_value, "witness_colors": list(decision.witness.colors)},
          f"rd={decision.rd_value}")
    return EXIT_OK if decision.rd_value == 3 else EXIT_FALSE


def cmd_chi(args: argparse.Namespace) -> int:
    g, _ = _load_graph(args.graph_file)
    result = chromatic_index_exact(g, args.budget)
    _write_witness(args, g, result.witness)
    _emit(args,
          {"chi_prime": result.chi_prime, "class": result.vizing_class,
           "witness_colors": list(result.witness.colors)},
          f"chi_prime={result.chi_prime} class={result.vizing_class}")
    return EXIT_OK


def cmd_reduce_sat(args: argparse.Namespace) -> int:
    formula = parse_dimacs_cnf(_read(args.cnf_file))
    artifact = build_reduction(formula)
    _write(args.output, serialize_graph(artifact.graph, artifact.coloring))
    sidecar_path = args.output + ".json"
    _write(sidecar_path, json.dumps(reduction_sidecar(artifact, __version__),
                                    indent=2) + "\n")
    g = artifact.graph
    _emit(args,
          {"output": args.output, "sidecar": sidecar_path,
           "vertices": g.vertex_count, "edges": g.edge_count,
           "colors": artifact.coloring.color_count,
           "s": artifact.s + 1, "t": artifact.t + 1},
          f"wrote {args.output} ({g.vertex_count} vertices, {g.edge_count} edges, "
          f"{artifact.coloring.color_count} colors) and {sidecar_path}")
    return EXIT_OK


def cmd_verify_reduction(args: argparse.Namespace) -> int:
    formula = parse_dimacs_cnf(_read(args.cnf_file))
    report = verify_reduction(formula, node_budget=args.budget)
    data = {
        "satisfiable": report.satisfiable,
        "rainbow_cut": report.cut_exists,
        "equivalent": report.equivalent,
        "assignment": list(report.assignment.values) if report.assignment else None,
        "extracted_assignment": (list(report.extracted_assignment.values)
                                 if report.extracted_assignment else None),
    }
    text = (f"satisfiable={str(report.satisfiable).lower()} "
            f"rainbow_cut={str(report.cut_exists).lower()} "
            f"equivalent={str(report.equivalent).lower()}")
    _emit(args, data, text)
    return EXIT_OK if report.equivalent else EXIT_FALSE


def cmd_gen(args: argparse.Namespace) -> int:
    if args.kind == "cnf":
        if args.n is None or args.m is None:
            raise InvalidInputError("gen cnf requires --n and --m")
        content = serialize_dimacs_cnf(gen_cnf(args.n, args.m, args.seed))
    else:
        content = serialize_graph(gen_graph(args.kind, args.n, args.seed))
    if args.output:
        _write(args.output, content)
        _emit(args, {"kind": args.kind, "output": args.output}, f"wrote {args.output}")
    elif args.json:
        _emit(args, {"kind": args.kind, "content": content}, "")
    else:
        sys.stdout.write(content)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rainbowdisc",
        description="Rainbow disconnection colorings: bounds, exact values, "
                    "cut search, and the 3-SAT cut encoding.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, output_help: str | None = None) -> None:
        p.add_argument("--json", action="store_true",
                       help="emit JSON instead of text")
        p.add_argument("--budget", type=nonnegative_int, default=DEFAULT_NODE_BUDGET,
                       help="node budget per exhaustive search (bounds runs no "
                            "search but takes the flag, as every file command does)")
        if output_help:
            p.add_argument("--output", "-o", help=output_help)

    p = sub.add_parser("bounds", help="edge connectivity and coloring bounds")
    p.add_argument("graph_file")
    common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("rd-exact", help="exact rainbow disconnection number")
    p.add_argument("graph_file")
    common(p, "write the witness coloring as a colored graph file")
    p.set_defaults(func=cmd_rd_exact)

    p = sub.add_parser("rd-check",
                       help="check a colored graph is rainbow disconnected")
    p.add_argument("graph_file")
    common(p)
    p.set_defaults(func=cmd_rd_check)

    p = sub.add_parser("cut", help="find a rainbow s-t cut in a colored graph")
    p.add_argument("graph_file")
    p.add_argument("--s", type=int, required=True, help="source vertex (1-indexed)")
    p.add_argument("--t", type=int, required=True, help="target vertex (1-indexed)")
    common(p)
    p.set_defaults(func=cmd_cut)

    p = sub.add_parser("cubic3",
                       help="decide rd 3 vs 4 for a 3-edge-connected cubic graph")
    p.add_argument("graph_file")
    common(p, "write the witness coloring as a colored graph file")
    p.set_defaults(func=cmd_cubic3)

    p = sub.add_parser("chi", help="exact chromatic index")
    p.add_argument("graph_file")
    common(p, "write the witness coloring as a colored graph file")
    p.set_defaults(func=cmd_chi)

    p = sub.add_parser("reduce-sat",
                       help="encode a 3CNF formula as a colored graph")
    p.add_argument("cnf_file")
    p.add_argument("--output", "-o", required=True,
                   help="colored graph output path (sidecar written alongside)")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.set_defaults(func=cmd_reduce_sat)

    p = sub.add_parser("verify-reduction",
                       help="check satisfiability matches rainbow cut existence")
    p.add_argument("cnf_file")
    common(p)
    p.set_defaults(func=cmd_verify_reduction)

    p = sub.add_parser("gen", help="generate a graph or formula")
    p.add_argument("kind", choices=GRAPH_KINDS + ("cnf",))
    p.add_argument("--n", type=int, help="size parameter")
    p.add_argument("--m", type=int, help="clause count (cnf only)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.add_argument("--output", "-o", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        # a resource limit, like the node budget: not a "false" decision
        print("error: out of memory", file=sys.stderr)
        return EXIT_BUDGET
    except (InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    raise SystemExit(main())
