"""Core graph types, file parsing, and cut predicates.

Vertices are 0-indexed in memory and 1-indexed in files (DIMACS
convention). Edge ids are 0..m-1 in input order and stay stable across
every operation in the package; all types are immutable once built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import index
from typing import Container, Iterable, Iterator

from .errors import GraphFormatError, InvalidInputError


def _integer(value: object, what: str) -> int:
    """value as an int by operator.index, which ints, bools and NumPy
    integers pass; a float or a string is an input error, not truncated."""
    try:
        return index(value)  # type: ignore[arg-type]
    except TypeError:
        raise InvalidInputError(f"{what} {value!r} is not an integer") from None


def _iterate(items: object, what: str) -> Iterator:
    """iter(items); a value that is not iterable, such as an int, is an
    input error, not a bare TypeError."""
    try:
        return iter(items)  # type: ignore[call-overload]
    except TypeError:
        raise InvalidInputError(f"{what} {items!r} is not iterable") from None


class _EdgeError(InvalidInputError):
    """An edge rule that edge ``edge`` breaks, worded to follow ``edge i:``
    here and ``line N:`` when parse_graph names the edge's file line."""

    def __init__(self, rule: str, edge: int):
        super().__init__(rule, edge)
        self.rule = rule
        self.edge = edge

    def __str__(self) -> str:
        return f"edge {self.edge}: {self.rule}"


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with stable vertex and edge identifiers.

    Each edge is a pair of endpoints, integers in 0..n-1 (by
    ``operator.index``), with no self-loop and no vertex pair twice. Every
    edge is checked, in order, before the n adjacency lists are allocated.
    ``adjacency[v]`` lists ``(edge_id, neighbor)`` pairs in edge insertion
    order.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[tuple[int, int], ...], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = _integer(self.vertex_count, "vertex count")
        if n < 0:
            raise InvalidInputError("vertex count must be nonnegative")
        edges: list[tuple[int, int]] = []
        seen: set[int] = set()
        for eid, edge in enumerate(_iterate(self.edges, "edges")):
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise _EdgeError("not a pair of endpoints", eid) from None
            try:
                u, v = index(u), index(v)
            except TypeError:
                raise _EdgeError("endpoint is not an integer", eid) from None
            if not (0 <= u < n and 0 <= v < n):
                raise _EdgeError("endpoint out of range", eid)
            if u == v:
                raise _EdgeError("self-loop", eid)
            key = u * n + v if u < v else v * n + u
            if key in seen:
                raise _EdgeError("parallel to an earlier edge", eid)
            seen.add(key)
            edges.append((u, v))
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for eid, (u, v) in enumerate(edges):
            adj[u].append((eid, v))
            adj[v].append((eid, u))
        object.__setattr__(self, "vertex_count", n)
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "adjacency", tuple(tuple(a) for a in adj))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.adjacency)

    @property
    def max_degree(self) -> int:
        return max(self.degrees, default=0)

    @property
    def min_degree(self) -> int:
        return min(self.degrees, default=0)

    def check_connected(self) -> None:
        """Rainbow cuts and rd are defined on nontrivial connected graphs."""
        if self.vertex_count < 2:
            raise InvalidInputError("graph must have at least two vertices")
        if not is_connected(self):
            raise InvalidInputError("graph must be connected")

    def check_coloring(self, c: EdgeColoring) -> None:
        if len(c.colors) != self.edge_count:
            raise InvalidInputError("coloring length does not match edge count")


def check_vertex(vertex_count: int, v: int) -> None:
    if not (0 <= _integer(v, "vertex") < vertex_count):
        raise InvalidInputError(f"vertex {v} out of range")


def check_pair(vertex_count: int, s: int, t: int) -> None:
    """s and t must be distinct vertices; a GomoryHuTree checks here too."""
    check_vertex(vertex_count, s)
    check_vertex(vertex_count, t)
    if s == t:
        raise InvalidInputError("s and t must differ")


def check_edge_id(edge_count: int, e: int) -> None:
    """One id at a time, so that is_rainbow checks ids in its single pass."""
    if not (0 <= _integer(e, "edge id") < edge_count):
        raise InvalidInputError(f"edge id {e} out of range")


@dataclass(frozen=True)
class EdgeColoring:
    """Total assignment of color ids to edge ids.

    Colors are integers (by ``operator.index``) in 0..palette-1.
    ``palette`` is the number of color ids available; it defaults to
    ``max(colors) + 1`` (the convention used when reading colored files,
    where the palette is implicit).
    """

    colors: tuple[int, ...]
    palette: int = -1

    def __post_init__(self) -> None:
        colors: list[int] = []
        for eid, col in enumerate(_iterate(self.colors, "colors")):
            try:
                colors.append(index(col))
            except TypeError:
                raise _EdgeError(f"color {col!r} is not an integer", eid) from None
        palette = _integer(self.palette, "palette")
        if palette < 0:
            palette = max(max(colors, default=-1) + 1, 0)
        for eid, col in enumerate(colors):
            if not (0 <= col < palette):
                raise _EdgeError(f"color {col} outside palette of size {palette}", eid)
        object.__setattr__(self, "colors", tuple(colors))
        object.__setattr__(self, "palette", palette)

    @property
    def color_count(self) -> int:
        """Number of distinct color ids actually used."""
        return len(set(self.colors))


@dataclass(frozen=True)
class CutCertificate:
    """An edge cut together with the vertex bipartition witnessing it.

    ``cut_edges`` contains every edge crossing the bipartition (it may
    contain more); removing them disconnects ``side_s`` from ``side_t``.
    """

    cut_edges: frozenset[int]
    side_s: frozenset[int]
    side_t: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cut_edges", frozenset(self.cut_edges))
        object.__setattr__(self, "side_s", frozenset(self.side_s))
        object.__setattr__(self, "side_t", frozenset(self.side_t))


def read_dimacs(text: str, kind: str,
                error: type[InvalidInputError]) -> tuple[int, int, list[tuple[int, list[str]]]]:
    """Header counts and body lines of a DIMACS-style file: the n and m of
    its one header ``p <kind> <n> <m>`` (nonnegative, before any other line)
    and the (line number, tokens) of each later line. Blank and ``c``
    comment lines are skipped; errors raise ``error`` and name the line."""
    header: tuple[int, int] | None = None
    body: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0] == "c":
            continue
        if parts[0] != "p":
            if header is None:
                raise error(f"line {lineno}: data before header")
            body.append((lineno, parts))
            continue
        if header is not None:
            raise error(f"line {lineno}: duplicate header")
        try:
            if len(parts) != 4 or parts[1] != kind:
                raise ValueError
            header = int(parts[2]), int(parts[3])
            if min(header) < 0:
                raise ValueError
        except ValueError:
            raise error(f"line {lineno}: malformed header") from None
    if header is None:
        raise error("missing header")
    return header[0], header[1], body


def parse_graph(text: str) -> tuple[Graph, EdgeColoring | None]:
    """Parse the graph file format.

    Header ``p edge <n> <m>`` (the rules of ``read_dimacs``), then ``m``
    edge lines ``e <u> <v>`` (1-indexed endpoints) or ``e <u> <v> <color>``
    of integer tokens. Edge lines must be uniformly colored or uniformly
    uncolored; returns the coloring only in the former case. Only this
    syntax is read here. The edge rules are ``Graph``'s and then
    ``EdgeColoring``'s, checked once the whole file has been read; the
    first edge that breaks one is reported by its file line.
    """
    n, declared, body = read_dimacs(text, "edge", GraphFormatError)
    edges: list[tuple[int, int]] = []
    colors: list[int] = []
    colored: bool | None = None
    for lineno, parts in body:
        if parts[0] != "e":
            raise GraphFormatError(f"line {lineno}: unrecognized line type {parts[0]!r}")
        if len(parts) not in (3, 4):
            raise GraphFormatError(f"line {lineno}: malformed edge line")
        try:
            u, v = int(parts[1]), int(parts[2])
            color = int(parts[3]) if len(parts) == 4 else None
        except ValueError:
            raise GraphFormatError(f"line {lineno}: malformed edge line") from None
        has_color = color is not None
        if colored is None:
            colored = has_color
        elif colored != has_color:
            raise GraphFormatError(
                f"line {lineno}: mixed colored and uncolored edge lines")
        edges.append((u - 1, v - 1))
        if has_color:
            colors.append(color)
    if len(edges) != declared:
        raise GraphFormatError(
            f"header declares {declared} edges, found {len(edges)}")
    try:
        return Graph(n, tuple(edges)), EdgeColoring(tuple(colors)) if colored else None
    except _EdgeError as exc:
        # every body line is an edge line, so edge i is on body[i]'s line
        raise GraphFormatError(f"line {body[exc.edge][0]}: {exc.rule}") from None


def serialize_graph(g: Graph, coloring: EdgeColoring | None = None) -> str:
    """Serialize in the graph file format; inverse of ``parse_graph``."""
    if coloring is not None:
        g.check_coloring(coloring)
    lines = [f"p edge {g.vertex_count} {g.edge_count}"]
    for eid, (u, v) in enumerate(g.edges):
        if coloring is None:
            lines.append(f"e {u + 1} {v + 1}")
        else:
            lines.append(f"e {u + 1} {v + 1} {coloring.colors[eid]}")
    return "\n".join(lines) + "\n"


def components(g: Graph, removed: Iterable[int] = ()) -> tuple[tuple[int, ...], ...]:
    """Connected components of g with the given edge ids deleted.

    Components are ordered by their smallest vertex id; vertices within a
    component are ascending.
    """
    gone = frozenset(removed)
    for e in gone:
        check_edge_id(g.edge_count, e)
    seen = [False] * g.vertex_count
    return tuple(tuple(sorted(_walk(g, start, gone, seen)))
                 for start in range(g.vertex_count) if not seen[start])


def reachable_from(g: Graph, start: int, removed: Iterable[int] = ()) -> frozenset[int]:
    """Vertices reachable from start once the given edge ids are deleted."""
    gone = frozenset(removed)
    for e in gone:
        check_edge_id(g.edge_count, e)
    check_vertex(g.vertex_count, start)
    return frozenset(_walk(g, start, gone, [False] * g.vertex_count))


def _walk(g: Graph, start: int, gone: Container[int], seen: list[bool]) -> list[int]:
    """The unseen vertices start (unseen) reaches without edge ids in gone,
    marked in seen. Unchecked, for searches walking ids they generated."""
    seen[start] = True
    reached = [start]
    for x in reached:
        for eid, y in g.adjacency[x]:
            if not seen[y] and eid not in gone:
                seen[y] = True
                reached.append(y)
    return reached


def separates(g: Graph, cut: Iterable[int], s: int, t: int) -> bool:
    """True iff removing the cut edges leaves no s-t path."""
    check_pair(g.vertex_count, s, t)
    return t not in reachable_from(g, s, cut)


def is_rainbow(coloring: EdgeColoring, cut: Iterable[int]) -> bool:
    """True iff the cut's edges all have pairwise distinct colors."""
    seen: set[int] = set()
    for e in set(cut):
        check_edge_id(len(coloring.colors), e)
        col = coloring.colors[e]
        if col in seen:
            return False
        seen.add(col)
    return True


def is_connected(g: Graph) -> bool:
    n = g.vertex_count
    return n <= 1 or len(_walk(g, 0, (), [False] * n)) == n


def certificate_from_side(g: Graph, side_s: Iterable[int]) -> CutCertificate:
    """Minimal certificate for a vertex bipartition: the cut is exactly the
    boundary of side_s."""
    side = frozenset(side_s)
    cut = frozenset(eid for eid, (u, v) in enumerate(g.edges)
                    if (u in side) != (v in side))
    return CutCertificate(cut, side, frozenset(range(g.vertex_count)) - side)


def check_cut_certificate(g: Graph, cert: CutCertificate, s: int, t: int) -> None:
    """Raise InvalidInputError unless cert witnesses an s-t separation in g:
    sides partitioning V with s and t apart, each crossing edge in the cut."""
    check_pair(g.vertex_count, s, t)
    for e in cert.cut_edges:
        check_edge_id(g.edge_count, e)
    if s not in cert.side_s or t not in cert.side_t:
        raise InvalidInputError("certificate sides do not contain s and t")
    if cert.side_s & cert.side_t:
        raise InvalidInputError("certificate sides overlap")
    if cert.side_s | cert.side_t != frozenset(range(g.vertex_count)):
        raise InvalidInputError("certificate sides do not cover all vertices")
    for eid, (u, v) in enumerate(g.edges):
        if (u in cert.side_s) != (v in cert.side_s) and eid not in cert.cut_edges:
            raise InvalidInputError(f"crossing edge {eid} missing from cut_edges")
