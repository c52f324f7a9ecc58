"""3CNF parsing, brute-force satisfiability, and the executable encoding of
3-SAT into rainbow s-t cut search, with certificate translation in both
directions.

The encoded graph has one gadget per variable (two vertices hanging off s,
both edges sharing that variable's color) and one per clause (a hub off t
plus one three-edge path per literal from the literal's "false" vertex to
its "true" vertex). Each literal path crosses any s-t bipartition an odd
number of times; satisfied literals can cross on their uniquely colored hub
edge, while falsified ones must consume one of the clause's two shared
colors, so a rainbow cut exists exactly when every clause has at most two
falsified literals, i.e. when the formula is satisfiable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import index

from .errors import DEFAULT_NODE_BUDGET, CnfFormatError, InvalidInputError, check_cap
from .graphs import (CutCertificate, EdgeColoring, Graph, _integer, _iterate,
                     certificate_from_side, check_cut_certificate, is_rainbow,
                     read_dimacs)
from .rainbow import find_rainbow_cut_exact

MAX_BRUTEFORCE_VARIABLES = 24
VERIFY_MAX_VARIABLES = 16
VERIFY_MAX_CLAUSES = 12


@dataclass(frozen=True)
class Assignment:
    """Truth values for variables 1..n; values[j-1] is variable j. Each is a
    bool: a string, a number or a list is an input error, not coerced."""

    values: tuple[bool, ...]

    def __post_init__(self) -> None:
        values = tuple(_iterate(self.values, "values"))
        for j, v in enumerate(values, start=1):
            if v is not True and v is not False:
                raise InvalidInputError(f"variable {j}: value {v!r} is not a bool")
        object.__setattr__(self, "values", values)

    def value(self, variable: int) -> bool:
        if not (1 <= variable <= len(self.values)):
            raise InvalidInputError(f"variable {variable} out of range")
        return self.values[variable - 1]


@dataclass(frozen=True)
class CnfFormula:
    """3CNF formula; clauses hold DIMACS-signed integer literals (by
    ``operator.index``) over distinct variables (positive literal j means
    variable j, negative means its negation)."""

    variable_count: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        n = _integer(self.variable_count, "variable count")
        if n < 0:
            raise InvalidInputError("variable count must be nonnegative")
        clauses: list[tuple[int, ...]] = []
        for idx, cl in enumerate(_iterate(self.clauses, "clauses"), start=1):
            try:
                literals = map(index, cl)  # iter(cl) is taken here
            except TypeError:
                raise InvalidInputError(f"clause {idx}: not a sequence of literals") from None
            try:
                cl = tuple(literals)
            except TypeError:
                raise InvalidInputError(f"clause {idx}: literal is not an integer") from None
            if len(cl) != 3:
                raise InvalidInputError(f"clause {idx}: exactly 3 literals required")
            if any(lit == 0 or abs(lit) > n for lit in cl):
                raise InvalidInputError(f"clause {idx}: literal out of range")
            if len({abs(lit) for lit in cl}) != 3:
                raise InvalidInputError(f"clause {idx}: variables must be distinct")
            clauses.append(cl)
        object.__setattr__(self, "variable_count", n)
        object.__setattr__(self, "clauses", tuple(clauses))

    @property
    def clause_count(self) -> int:
        return len(self.clauses)

    def evaluate(self, assignment: Assignment) -> bool:
        """True iff every clause has a literal matching the assignment."""
        if len(assignment.values) != self.variable_count:
            raise InvalidInputError("assignment length does not match variable count")
        values = assignment.values
        return all(any(values[abs(lit) - 1] == (lit > 0) for lit in cl)
                   for cl in self.clauses)


def parse_dimacs_cnf(text: str) -> CnfFormula:
    """Parse DIMACS CNF: header ``p cnf <n> <m>`` (see ``read_dimacs``), then
    m clauses of 3 distinct variables, each terminated by 0."""
    n, declared, body = read_dimacs(text, "cnf", CnfFormatError)
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for lineno, parts in body:
        for tok in parts:
            try:
                lit = int(tok)
            except ValueError:
                raise CnfFormatError(f"line {lineno}: invalid literal {tok!r}") from None
            if lit == 0:
                clauses.append(tuple(current))
                current = []
            else:
                current.append(lit)
    if current:
        raise CnfFormatError("unterminated clause")
    if len(clauses) != declared:
        raise CnfFormatError(f"header declares {declared} clauses, found {len(clauses)}")
    try:
        return CnfFormula(n, tuple(clauses))  # type: ignore[arg-type]
    except InvalidInputError as exc:
        raise CnfFormatError(str(exc)) from None


def serialize_dimacs_cnf(f: CnfFormula) -> str:
    """Canonical DIMACS text; inverse of ``parse_dimacs_cnf``."""
    lines = [f"p cnf {f.variable_count} {f.clause_count}"]
    for cl in f.clauses:
        lines.append(" ".join(str(lit) for lit in cl) + " 0")
    return "\n".join(lines) + "\n"


def solve_sat_bruteforce(f: CnfFormula) -> Assignment | None:
    """Lexicographically first satisfying assignment (False before True), or
    None when unsatisfiable. Deliberately exhaustive; desk scale only."""
    if f.variable_count > MAX_BRUTEFORCE_VARIABLES:
        raise InvalidInputError(
            f"brute force limited to {MAX_BRUTEFORCE_VARIABLES} variables")
    for bits in itertools.product((False, True), repeat=f.variable_count):
        assignment = Assignment(bits)
        if f.evaluate(assignment):
            return assignment
    return None


@dataclass(frozen=True)
class ReductionArtifact:
    """The colored graph encoding a formula, with its name tables.

    vertex_table maps "s", "t", "x{j}^0", "x{j}^1", "c{i}", "c{i}^{k}" to
    vertex ids; color_table maps "r0", "r{j}" (variable colors) and
    "r{i}^{k}" for k in 1..5 (clause colors) to color ids.
    """

    graph: Graph
    coloring: EdgeColoring
    s: int
    t: int
    vertex_table: dict[str, int]
    color_table: dict[str, int]
    formula: CnfFormula


def _x(j: int, b: int) -> int:
    """Vertex x_j^b of variable j."""
    return 2 * j + b


def _c(n: int, i: int, k: int = 0) -> int:
    """Vertex c_i^k of clause i: the hub c_i for k = 0, else junction k."""
    return 2 * n + 4 * i - 2 + k


def _r(n: int, i: int, k: int) -> int:
    """Color r_i^k of clause i."""
    return n + 5 * (i - 1) + k


def build_reduction(f: CnfFormula) -> ReductionArtifact:
    """Build the colored graph whose rainbow s-t cuts correspond exactly to
    satisfying assignments of f.

    Vertex ids: s=0, t=1, x_j^b = 2j + b per variable (``_x``), then per
    clause the hub c_i = 2n + 4i - 2 followed by its junctions c_i^k = c_i + k
    for k in 1..3 (``_c``). Colors: r0 = 0 (the s-t edge and every t-hub
    edge), r_j = j (both s-edges of variable j), then r_i^k = n + 5(i - 1) + k
    (``_r``): the literal colors r_i^1..r_i^3, the junction-sink color r_i^4,
    and the hub-junction color r_i^5. Positive literal j runs its path
    x_j^0 -> c_i -> c_i^k -> x_j^1; a negative literal swaps source and sink.

    The graph has 10m + 2n + 1 edges. Over errors.MAX_GENERATED of them is an
    input error, raised before anything is built.
    """
    n, m = f.variable_count, f.clause_count
    edge_count = 10 * m + 2 * n + 1
    check_cap(edge_count, "encoding edges")
    vt: dict[str, int] = {"s": 0, "t": 1}
    ct: dict[str, int] = {f"r{j}": j for j in range(n + 1)}
    edges = [(0, 1)] + [(1, _c(n, i)) for i in range(1, m + 1)]
    colors = [0] * (m + 1)
    for j in range(1, n + 1):
        vt[f"x{j}^0"], vt[f"x{j}^1"] = _x(j, 0), _x(j, 1)
        edges += [(0, _x(j, 0)), (0, _x(j, 1))]
        colors += [j, j]
    for i, clause in enumerate(f.clauses, start=1):
        vt[f"c{i}"] = hub = _c(n, i)
        for k, lit in enumerate(clause, start=1):
            vt[f"c{i}^{k}"] = junction = _c(n, i, k)
            j = abs(lit)
            edges += [(_x(j, lit < 0), hub), (hub, junction), (junction, _x(j, lit > 0))]
            colors += [_r(n, i, k), _r(n, i, 5), _r(n, i, 4)]
        ct.update((f"r{i}^{k}", _r(n, i, k)) for k in range(1, 6))
    graph = Graph(4 * m + 2 * n + 2, tuple(edges))
    coloring = EdgeColoring(tuple(colors), 5 * m + n + 1)
    if graph.edge_count != edge_count or coloring.color_count != 5 * m + n + 1:
        raise RuntimeError("encoded graph has unexpected structure")
    return ReductionArtifact(graph, coloring, 0, 1, vt, ct, f)


def build_cut_from_assignment(artifact: ReductionArtifact,
                              assignment: Assignment) -> CutCertificate:
    """Rainbow s-t cut realizing a satisfying assignment.

    The s side keeps, per variable, the x-vertex opposite the assigned value
    (so the crossing s-edge names the value). Each satisfied literal then
    crosses on its unique hub edge; of a clause's falsified literals, the
    first pays with the junction-sink color and the second moves its
    junction to the s side to pay with the hub-junction color. A satisfied
    clause falsifies at most two literals, so the two shared colors suffice
    and the cut is rainbow.
    """
    f = artifact.formula
    if not f.evaluate(assignment):
        raise InvalidInputError("assignment does not satisfy the formula")
    n, values = f.variable_count, assignment.values
    side = {artifact.s}
    side.update(_x(j, not values[j - 1]) for j in range(1, n + 1))
    for i, clause in enumerate(f.clauses, start=1):
        falsified = [k for k, lit in enumerate(clause, start=1)
                     if values[abs(lit) - 1] != (lit > 0)]
        if len(falsified) == 2:
            side.add(_c(n, i, falsified[1]))
    cert = certificate_from_side(artifact.graph, side)
    check_cut_certificate(artifact.graph, cert, artifact.s, artifact.t)
    if not is_rainbow(artifact.coloring, cert.cut_edges):
        raise RuntimeError("constructed cut is not rainbow")
    return cert


def extract_assignment_from_cut(artifact: ReductionArtifact,
                                cut: CutCertificate) -> Assignment:
    """Read a satisfying assignment off a validated rainbow s-t cut.

    Reading side_s is enough: the certificate is checked to partition V with
    every crossing edge cut, and to be rainbow. Variable j is true exactly
    when x_j^0 stays on the s side (its two s-edges share color r_j, so at
    most one is cut). Any rainbow cut admits this reading: a clause with all
    three literals falsified by it would need three crossings from the
    clause's two shared colors.
    """
    g, c = artifact.graph, artifact.coloring
    check_cut_certificate(g, cut, artifact.s, artifact.t)
    if not is_rainbow(c, cut.cut_edges):
        raise InvalidInputError("cut is not rainbow")
    f = artifact.formula
    assignment = Assignment(tuple(_x(j, 0) in cut.side_s
                                  for j in range(1, f.variable_count + 1)))
    if not f.evaluate(assignment):
        raise InvalidInputError("extracted assignment does not satisfy the formula")
    return assignment


@dataclass(frozen=True)
class ReductionReport:
    """Both directions of the equivalence, checked on one formula."""

    formula: CnfFormula
    artifact: ReductionArtifact
    satisfiable: bool
    cut_exists: bool
    equivalent: bool
    assignment: Assignment | None
    cut_from_assignment: CutCertificate | None
    found_cut: CutCertificate | None
    extracted_assignment: Assignment | None


def verify_reduction(f: CnfFormula, *,
                     node_budget: int = DEFAULT_NODE_BUDGET) -> ReductionReport:
    """Desk-scale check that satisfiability and rainbow-cut existence agree
    on f, translating witnesses in both directions where they exist."""
    if f.variable_count > VERIFY_MAX_VARIABLES or f.clause_count > VERIFY_MAX_CLAUSES:
        raise InvalidInputError(
            f"verification limited to {VERIFY_MAX_VARIABLES} variables and "
            f"{VERIFY_MAX_CLAUSES} clauses")
    artifact = build_reduction(f)
    assignment = solve_sat_bruteforce(f)
    found = find_rainbow_cut_exact(artifact.graph, artifact.coloring,
                                   artifact.s, artifact.t, node_budget)
    built = build_cut_from_assignment(artifact, assignment) if assignment else None
    extracted = extract_assignment_from_cut(artifact, found) if found else None
    return ReductionReport(f, artifact, assignment is not None, found is not None,
                           (assignment is not None) == (found is not None),
                           assignment, built, found, extracted)


def reduction_sidecar(artifact: ReductionArtifact, tool_version: str) -> dict:
    """JSON-ready sidecar for an encoded graph file: endpoints and name
    tables in 1-indexed file labels, plus provenance."""
    # CPython's own SHA-256, which hashlib falls back to: the same digest
    # without loading OpenSSL; imported here, as only reduce-sat needs it
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        from _sha256 import sha256  # Python 3.10 and 3.11
    return {
        "s": artifact.s + 1,
        "t": artifact.t + 1,
        "vertex_table": {name: vid + 1 for name, vid in artifact.vertex_table.items()},
        "color_table": dict(artifact.color_table),
        "provenance": {
            "tool": "rainbowdisc",
            "version": tool_version,
            "formula_sha256": sha256(serialize_dimacs_cnf(artifact.formula).encode()).hexdigest(),
        },
    }
