"""The names and argument shapes that perfbench/ relies on still exist."""

import importlib.util
from pathlib import Path

import pytest

from rainbowdisc.cli import build_parser

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, names in spans.TRACED.items():
        mod = importlib.import_module(f"rainbowdisc.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"


@pytest.mark.parametrize("argv", [
    [command, "in.graph", "--json", "--budget", "100"]
    for command in ("bounds", "cubic3", "chi", "rd-exact", "rd-check", "verify-reduction")
] + [
    ["cut", "in.graph", "--s", "1", "--t", "2", "--json", "--budget", "100"],
    ["reduce-sat", "in.cnf", "-o", "out.graph", "--json"],
], ids=lambda argv: argv[0])
def test_workload_argv_parses(argv):
    args = build_parser().parse_args(argv)
    assert args.command == argv[0]
    assert args.json is True
    if "--budget" in argv:
        assert args.budget == 100
