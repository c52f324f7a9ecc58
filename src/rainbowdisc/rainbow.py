"""Rainbow cut search, rainbow disconnection checking, the exact rainbow
disconnection number, and the cubic-graph decision and certification
machinery.

A cut is rainbow when its edges carry pairwise distinct colors. A coloring
rainbow-disconnects a graph when every vertex pair has a rainbow cut
separating it; the rainbow disconnection number is the least number of
colors achieving that. It always sits between the largest pairwise edge
connectivity and max_degree + 1 (a proper coloring of the star of a
max-degree endpoint of each pair is a rainbow cut).
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass

from .coloring import chromatic_index_exact, is_proper
from .connectivity import blocks, bridges, connectivity_range, global_edge_connectivity
from .errors import DEFAULT_NODE_BUDGET, InvalidInputError, NodeBudget
from .graphs import (CutCertificate, EdgeColoring, Graph, _walk, certificate_from_side,
                     check_pair, components, is_rainbow)

# bytes 0 and 1 to the digits of int(..., 2)
_BINARY_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _check_cubic_3ec(g: Graph) -> list[int]:
    """g's _cycle_space_labels, once g is shown cubic and 3-edge-connected.

    Degrees come first, so the labeling, a tree from vertex 0, never sees an
    empty or non-cubic graph. Labels that are all nonzero and distinct prove
    3-edge-connectivity for any seed: a bridge has label 0, and the two
    edges of a 2-edge cut have equal labels. Only labels that do not prove
    it (a collision, with probability about m^2 2^-65) leave the verdict to
    global_edge_connectivity.
    """
    if g.vertex_count == 0 or any(d != 3 for d in g.degrees):
        raise InvalidInputError("graph is not cubic")
    labels = _cycle_space_labels(g)
    if labels is None or ((0 in labels or len(set(labels)) < len(labels))
                          and global_edge_connectivity(g) < 3):
        raise InvalidInputError("graph is not 3-edge-connected")
    return labels


def _color_classes(c: EdgeColoring) -> dict[int, list[int]]:
    """The edge ids of each color, colors in order of first use."""
    classes: dict[int, list[int]] = {}
    for eid, col in enumerate(c.colors):
        classes.setdefault(col, []).append(eid)
    return classes


def find_rainbow_cut_fixed_k(g: Graph, c: EdgeColoring, s: int,
                             t: int) -> CutCertificate | None:
    """The paper's rainbow s-t cut search for a coloring with k distinct
    colors, in O(m^k) candidate cuts; k is read from c.

    A rainbow cut picks at most one edge per color class, so all candidate
    cuts are enumerated as one choice (or skip) per class. The first
    separating candidate is minimized to the boundary of s's component,
    which stays rainbow because it is a subset.
    """
    g.check_coloring(c)
    check_pair(g.vertex_count, s, t)
    g.check_connected()
    classes = _color_classes(c)
    option_lists: list[list[int | None]] = [[None] + classes[col] for col in sorted(classes)]
    for combo in itertools.product(*option_lists):
        cut = frozenset(e for e in combo if e is not None)
        side = _walk(g, s, cut, [False] * g.vertex_count)
        if t in side:
            continue
        cert = certificate_from_side(g, side)
        if not is_rainbow(c, cert.cut_edges):
            raise RuntimeError("minimized cut lost rainbowness")
        return cert
    return None


def find_rainbow_cut_exact(g: Graph, c: EdgeColoring, s: int, t: int,
                           node_budget: int = DEFAULT_NODE_BUDGET) -> CutCertificate | None:
    """Complete rainbow s-t cut search for arbitrary palettes, by the CDCL
    solver of rainbowdisc.sat on a CNF of the sides.

    Variable x_v (v + 1) is True when v is on t's side; units fix s and t.
    Each vertex v other than s and t gets the clause x_v or not x_w1 or ...
    or not x_wd over its neighbours w: a vertex on s's side has a neighbour
    there, so no side strands a vertex for the solver to back out of. Each
    edge whose color class has two or more edges gets a crossing variable
    y_e, forced by (x_u and not x_v) or (not x_u and x_v). At most one y_e
    per class holds: pairwise for a class of k <= 5 edges (k(k-1)/2
    clauses, no more than the 3k - 4 of a counter, and no other variable),
    by a sequential counter (Sinz 2005) for larger classes.

    The solver decides the x_v alone, False first, so the first side of t
    tried is t with its degree-1 neighbours other than s, and its cut lies
    in the star of t. Once every side is set without a conflict, the
    crossing edges are rainbow. Complete: for any rainbow s-t cut, the
    component of s within its s side has a boundary that is a rainbow s-t
    cut too, and that side meets every clause, since each of its vertices
    but s has a neighbour in it. The budget counts decisions plus conflicts.
    """
    g.check_coloring(c)
    check_pair(g.vertex_count, s, t)
    g.check_connected()
    # imported here: only cut and verify-reduction run the solver, so no
    # other command's cold start compiles it
    from .sat import solve
    n = g.vertex_count
    clauses = [[-(s + 1)], [t + 1]]
    clauses += ([v + 1] + [-(w + 1) for _, w in g.adjacency[v]]
                for v in range(n) if v != s and v != t)
    top = n  # the last variable numbered
    for members in _color_classes(c).values():
        if len(members) < 2:
            continue
        ys = []
        for eid in members:
            u, v = g.edges[eid]
            y = top = top + 1
            clauses += [-(u + 1), v + 1, y], [u + 1, -(v + 1), y]
            ys.append(y)
        if len(ys) <= 5:
            clauses += ([-y, -z] for y, z in itertools.combinations(ys, 2))
            continue
        before = 0  # counter variable "some earlier y of this class is True"
        for y in ys[:-1]:
            count = top = top + 1
            clauses.append([-y, count])
            if before:
                clauses += [-y, -before], [-before, count]
            before = count
        clauses.append([-ys[-1], -before])
    model = solve(clauses, top, NodeBudget(node_budget, "rainbow cut search").spend,
                  branch_count=n)
    return None if model is None else _rainbow_certificate(g, c, model[:n])


def _rainbow_certificate(g: Graph, c: EdgeColoring,
                         side: list[int] | list[bool]) -> CutCertificate:
    """The cut whose s side holds the vertices v with side[v] false (0 or
    False), checked to be rainbow."""
    cert = certificate_from_side(g, (v for v in range(g.vertex_count) if not side[v]))
    if not is_rainbow(c, cert.cut_edges):
        raise RuntimeError("search returned a non-rainbow cut")
    return cert


def _sides(g: Graph, labels: Sequence[int], cap: int, s: int, t: int | None,
           spend: Callable[[], None]) -> Iterator[list[int]]:
    """Every assignment of the connected graph g's vertices to sides 0 and 1
    with s on side 0, t (if given) on side 1 and at most cap crossing edges
    of each label (edge eid has label labels[eid], any int), yielded as
    side[v] in one list that the next step changes.

    The ends are placed first, then the other vertices in breadth-first
    order from s (graphs._walk), so each is next to a placed one; side 0 is
    tried first, one node per placement tried. The crossing edges among
    placed vertices fix their sides, so a placement putting a label over cap
    is pruned with its extensions, and every live node at a given depth has
    its own crossing edge set.
    """
    adjacency = g.adjacency
    ends = [s] if t is None else [s, t]
    side = [-1] * g.vertex_count
    for x, v in enumerate(ends):
        side[v] = x
    # counts[label]: crossing edges of that label between placed vertices
    counts = dict.fromkeys(labels, 0)
    for eid, w in adjacency[s]:
        if side[w] == 1:
            counts[labels[eid]] = 1
    order = ends + [v for v in _walk(g, s, (), [False] * g.vertex_count) if side[v] < 0]

    # Depth first: order[i] goes to side x = 0, then 1, and is kept when no
    # label exceeds cap. The stack of (side, labels bumped) per kept vertex
    # is a list, so the depth is not bound by the recursion limit.
    kept: list[tuple[int, list[int]]] = []
    i, x = len(ends), 0
    while True:
        if i == len(order):
            yield side
            x = 2
        if x < 2:
            spend()
            v = order[i]
            other = 1 - x
            bumped = []
            for eid, w in adjacency[v]:
                if side[w] == other:
                    label = labels[eid]
                    counts[label] += 1
                    bumped.append(label)
                    if counts[label] > cap:
                        break
            else:
                side[v] = x
                kept.append((x, bumped))
                i, x = i + 1, 0
                continue
        else:
            if not kept:
                return
            i -= 1
            x, bumped = kept.pop()
            side[order[i]] = -1
        for label in bumped:
            counts[label] -= 1
        x += 1


class _PairCuts(Mapping[tuple[int, int], CutCertificate]):
    """The rainbow cut of each pair (s, t), s < t, that is_rainbow_disconnected
    settled: the pairs before ``stop`` in lexicographic order. A certificate
    is built when looked up, so memory is the n codes, not one entry per
    pair. It is known cut j, the lowest bit where code[s] and code[t]
    differ: side_s holds the vertices whose bit j is that of s, and the cut
    is its boundary."""

    def __init__(self, g: Graph, code: list[int], stop: tuple[int, int]) -> None:
        self._g, self._code, self._stop = g, code, stop

    def __len__(self) -> int:
        s, t = self._stop
        return s * self._g.vertex_count - s * (s + 1) // 2 + t - s - 1

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return itertools.islice(itertools.combinations(range(self._g.vertex_count), 2), len(self))

    def __getitem__(self, pair: tuple[int, int]) -> CutCertificate:
        n, code = self._g.vertex_count, self._code
        try:
            s, t = pair
            settled = (isinstance(s, int) and isinstance(t, int) and 0 <= s < t < n
                       and (s, t) < self._stop)
        except (TypeError, ValueError):
            settled = False
        if not settled:
            raise KeyError(pair)
        x = code[s] ^ code[t]
        j = (x & -x).bit_length() - 1
        mine = code[s] >> j & 1
        return certificate_from_side(self._g, (v for v in range(n) if code[v] >> j & 1 == mine))


@dataclass(frozen=True)
class RainbowDisconnectionCheck:
    """Outcome of checking every vertex pair for a rainbow cut."""

    ok: bool
    certificates: Mapping[tuple[int, int], CutCertificate]
    failing_pair: tuple[int, int] | None

    def __bool__(self) -> bool:
        return self.ok


def is_rainbow_disconnected(g: Graph, c: EdgeColoring, *,
                            node_budget: int = DEFAULT_NODE_BUDGET) -> RainbowDisconnectionCheck:
    """Check that every vertex pair has a rainbow cut under c.

    g and c are validated once. Pairs are settled in lexicographic order and
    the first failure is reported. One rule settles each pair: the
    lowest-numbered known rainbow cut that separates it. Bit j of code[v] is
    v's side in known cut j, and the cuts are, in order: every rainbow
    vertex star from vertex n - 1 down (so a pair whose star at t is rainbow
    gets that star, side_t = {t}); every bridge by edge id, side 1 away from
    vertex 0, which a breadth-first tree from 0 crosses on the way to v;
    then each searched cut. A pair with equal codes runs the search: the
    first side _sides lists with s and t apart and no color twice among its
    crossing edges, complete and within 2n * prod(|color class| + 1) nodes,
    polynomial for a fixed number of colors. Its cut splits their class, so
    at most n - 1 searches run, and a code has fewer than 3n bits.

    Each round searches the least pair, in lexicographic order, whose codes
    are equal: one pass over the codes pairs each code's first vertex with
    its later ones and takes the minimum. When no two codes are equal, every
    pair is settled. Codes only gain bits, so a pair whose codes are equal
    now had equal codes at every earlier round, and every pair before it
    already has a known cut: this is the pair a scan of all pairs in
    lexicographic order would search next, and outside its searches the
    check costs one O(n) pass per search. An unsearched pair has a rainbow
    cut, so the first pair searched with no cut is the first pair with none.
    Certificates are built when looked up.
    """
    g.check_coloring(c)
    g.check_connected()
    n, adjacency, colors = g.vertex_count, g.adjacency, c.colors
    centers = [v for v in reversed(range(n))
               if len({colors[eid] for eid, _ in adjacency[v]}) == len(adjacency[v])]
    # a bridge is the first known cut only of pairs with both stars not rainbow
    found = sorted(bridges(g)) if len(centers) < n - 1 else []
    bridge_bit = {eid: 1 << len(centers) + i for i, eid in enumerate(found)}
    code, order = [0] + [-1] * (n - 1), [0]  # -1 until the tree reaches v
    for v in order:
        for eid, w in adjacency[v]:
            if code[w] < 0:
                code[w] = code[v] | bridge_bit.get(eid, 0)
                order.append(w)
    for j, v in enumerate(centers):
        code[v] |= 1 << j
    bit = 1 << len(centers) + len(found)  # that of the next searched cut
    while True:
        first: dict[int, int] = {}  # each code's first vertex
        s, t = min(((first[x], v) for v, x in enumerate(code) if first.setdefault(x, v) < v),
                   default=(n - 1, n))
        if t == n:
            return RainbowDisconnectionCheck(True, _PairCuts(g, code, (s, t)), None)
        spend = NodeBudget(node_budget, "rainbow cut search").spend
        side = next(_sides(g, colors, 1, s, t, spend), None)
        if side is None:
            return RainbowDisconnectionCheck(False, _PairCuts(g, code, (s, t)), (s, t))
        for v in _rainbow_certificate(g, c, side).side_t:
            code[v] |= bit
        bit <<= 1


def _search_disconnection_coloring(g: Graph, k: int, node_budget: int) -> EdgeColoring | None:
    """Exhaustive search for a k-color rainbow disconnection coloring.

    The candidates are the bipartitions with at most k crossing edges (listed
    by _sides, vertex 0 on side 0): no other can be a rainbow cut. Edges are
    colored in order, edge i with colors 0..min(i, k-1) to break symmetry; a
    candidate dies in the branch once a color repeats among its crossing
    edges. Each set of candidates is one int, bit sid for candidate sid:
    side1[v] holds the candidates with v on side 1, crossing[e] those that
    edge e crosses, used[col] those with a colored crossing edge of color
    col, and live those still alive. A pair has a live candidate separating
    it exactly when its two vertices' side1 & live differ, so the branch
    ends when two are equal.

    One budget covers the level: a node per placement the listing tries,
    per vertex pair each listed candidate separates, spent before the
    candidate is stored, and per color tried.
    """
    n, m = g.vertex_count, g.edge_count
    spend = NodeBudget(node_budget, "rainbow disconnection number search").spend
    rows = bytearray()  # the listed sides, n bytes each
    for side in _sides(g, [0] * m, k, 0, None, spend):
        spend(side.count(0) * side.count(1))
        rows.extend(side)
    # side1[v] read off column v of the rows, candidate 0 as the lowest bit
    side1 = [int(b"0" + rows[v::n][::-1].translate(_BINARY_DIGITS), 2) for v in range(n)]
    del rows
    if len(set(side1)) < n:
        return None
    crossing = [side1[u] ^ side1[v] for u, v in g.edges]
    # Depth first over (edge i, color col); trail holds (used[col], live)
    # from before each colored edge, so nothing recurses. live = -1 holds
    # every candidate.
    used = [0] * k
    live = -1
    assigned = [0] * m
    trail: list[tuple[int, int]] = []
    i = col = 0
    while i < m:
        if col > min(i, k - 1):
            if i == 0:
                return None
            i -= 1
        else:
            spend()
            trail.append((used[col], live))
            killed = crossing[i] & used[col] & live
            used[col] |= crossing[i]
            live ^= killed
            assigned[i] = col
            if not killed or len({x & live for x in side1}) == n:
                i, col = i + 1, 0
                continue
        used[assigned[i]], live = trail.pop()
        col = assigned[i] + 1
    return EdgeColoring(tuple(assigned), k)


@dataclass(frozen=True)
class RdResult:
    """Exact rainbow disconnection number with a witness coloring and one
    rainbow cut certificate per vertex pair, built when looked up: the first
    of the witness's rainbow stars (highest center first), bridges and at
    most n - 1 searched cuts that separates it (see is_rainbow_disconnected),
    with s on side_s."""

    rd_value: int
    witness: EdgeColoring
    per_pair_cuts: Mapping[tuple[int, int], CutCertificate]


def rd_exact(g: Graph, node_budget: int = DEFAULT_NODE_BUDGET) -> RdResult:
    """Exact rainbow disconnection number, block by block.

    rd(G) is the largest rd over the blocks of G (Chartrand, Devereaux,
    Haynes, Hedetniemi and Zhang, 2018), and 1 when every block is a bridge.
    The blocks share no edges, so the block witnesses, with color ids reused
    across blocks, form one witness for G, which is_rainbow_disconnected
    checks on G. Each block of two or more edges is searched as its own
    graph by _rd_of_block, its vertices relabeled in ascending order and its
    edges kept in id order, so a graph that is one block is searched as it
    is.
    """
    g.check_connected()
    value, colors = 1, [0] * g.edge_count
    for block in blocks(g):
        if len(block) == 1:
            continue
        ends = [g.edges[eid] for eid in block]
        local = {v: i for i, v in enumerate(sorted({v for uv in ends for v in uv}))}
        rd, found = _rd_of_block(
            Graph(len(local), tuple((local[u], local[v]) for u, v in ends)), node_budget)
        value = max(value, rd)
        for eid, col in zip(block, found.colors):
            colors[eid] = col
    witness = EdgeColoring(tuple(colors), value)
    check = is_rainbow_disconnected(g, witness, node_budget=node_budget)
    if not check.ok:
        raise RuntimeError("witness coloring failed verification")
    return RdResult(value, witness, check.certificates)


def _rd_of_block(g: Graph, node_budget: int) -> tuple[int, EdgeColoring]:
    """rd of a connected graph with a witness, by increasing-k exhaustive
    search.

    k starts at lambda+, the largest pairwise edge connectivity (a lower
    bound: some pair needs that many cut edges, all distinctly colored), and
    ends at max_degree + 1, where the constructive proper coloring always
    works. Levels below max_degree are searched exhaustively, each with its
    own node budget. Level max_degree is settled by chromatic_index_exact.
    Class 1 gives rd = max_degree with its proper coloring as the witness
    (every vertex star is a rainbow cut). Class 2 gives rd = 4 with the
    Delta+1 coloring when lambda = max_degree = 3, that is, for a
    3-edge-connected cubic graph; otherwise the level is searched as the
    others. A level's nodes grow with its bipartitions of at most k crossing
    edges and its colorings.
    """
    lam, lam_plus = connectivity_range(g)
    delta = g.max_degree
    for k in range(lam_plus, delta):
        witness = _search_disconnection_coloring(g, k, node_budget)
        if witness is not None:
            return k, witness
    chi = chromatic_index_exact(g, node_budget)
    # lambda = Delta = 3 means 3-edge-connected cubic. Such a graph has
    # rd = 3 exactly when it is 3-edge-colorable (the paper's cubic
    # theorem), so there class 2 means rd = chi' = 4 with no search.
    cubic_3ec = lam == delta == 3
    if chi.vizing_class == 2 and not cubic_3ec:
        found = _search_disconnection_coloring(g, delta, node_budget)
        if found is not None:
            return delta, found
    return chi.chi_prime, chi.witness


@dataclass(frozen=True)
class CubicRdDecision:
    """Decision for 3-edge-connected cubic graphs: rd is 3 or 4."""

    rd_value: int
    witness: EdgeColoring


def decide_rd_cubic(g: Graph, node_budget: int = DEFAULT_NODE_BUDGET) -> CubicRdDecision:
    """Rainbow disconnection number of a 3-edge-connected cubic graph.

    It is 3 exactly when the graph has a proper 3-edge-coloring, and 4
    otherwise; the witness is the corresponding proper coloring (proper
    colorings rainbow-disconnect via vertex stars, and connectivity 3 rules
    out anything smaller). Any other graph is an input error from
    _check_cubic_3ec, which runs a flow only when the cycle-space labels do
    not prove 3-edge-connectivity.
    """
    _check_cubic_3ec(g)
    result = chromatic_index_exact(g, node_budget)
    return CubicRdDecision(result.chi_prime, result.witness)


@dataclass(frozen=True)
class SplitPair:
    """The two colored graphs obtained by splitting along a rainbow 3-cut.

    Each part keeps one component's vertices (relabeled in ascending order)
    plus one fresh vertex standing in for the removed side, joined by the
    three cut edges with their original colors. new_vertex_1 and
    new_vertex_2 are the fresh vertices' local ids.
    """

    part_1: tuple[Graph, EdgeColoring]
    part_2: tuple[Graph, EdgeColoring]
    new_vertex_1: int
    new_vertex_2: int


def _attach_side(g: Graph, c: EdgeColoring, comp: set[int],
                 cut_ids: list[int]) -> tuple[Graph, EdgeColoring, int]:
    order = sorted(comp)
    local = {v: i for i, v in enumerate(order)}
    fresh = len(order)
    edges: list[tuple[int, int]] = []
    colors: list[int] = []
    for eid, (u, v) in enumerate(g.edges):
        if u in comp and v in comp:
            edges.append((local[u], local[v]))
            colors.append(c.colors[eid])
    for eid in cut_ids:
        u, v = g.edges[eid]
        inside = u if u in comp else v
        edges.append((local[inside], fresh))
        colors.append(c.colors[eid])
    return Graph(fresh + 1, tuple(edges)), EdgeColoring(tuple(colors), c.palette), fresh


def split_along_rainbow_cut(g: Graph, c: EdgeColoring,
                            cut: tuple[int, ...] | list[int] | frozenset[int]) -> SplitPair:
    """Split g along a rainbow 3-edge cut with pairwise disjoint endpoints
    whose removal leaves exactly two components, each cut edge crossing them.

    Part 1 holds the component containing the smallest vertex id. Each
    part's fresh vertex has degree 3 with the three distinct cut colors, so
    properness of both parts at every shared vertex matches properness in g.
    """
    g.check_coloring(c)
    cut_ids = sorted(set(cut))
    if len(cut_ids) != 3:
        raise InvalidInputError("cut must consist of exactly three distinct edges")
    if not is_rainbow(c, cut_ids):
        raise InvalidInputError("cut is not rainbow")
    endpoints = [v for eid in cut_ids for v in g.edges[eid]]
    if len(set(endpoints)) != 6:
        raise InvalidInputError("cut edges share a vertex")
    comps = components(g, cut_ids)
    if len(comps) != 2:
        raise InvalidInputError(
            f"removing the cut yields {len(comps)} components, expected 2")
    comp1, comp2 = set(comps[0]), set(comps[1])
    for eid in cut_ids:
        u, v = g.edges[eid]
        if (u in comp1) == (v in comp1):
            raise InvalidInputError(f"cut edge {eid} does not cross the two components")
    g1, c1, x1 = _attach_side(g, c, comp1, cut_ids)
    g2, c2, x2 = _attach_side(g, c, comp2, cut_ids)
    return SplitPair((g1, c1), (g2, c2), x1, x2)


# Seed of the cycle-space labels: _check_cubic_3ec's verdict and the
# splitting scan's trio are the same for any seed, and a fixed one makes
# their run time reproducible
_LABEL_SEED = 0


def _cycle_space_labels(g: Graph) -> list[int] | None:
    """A 64-bit cycle-space label per edge of g (Pritchard and Thurimella,
    "Fast computation of small cuts via cycle space sampling", ACM TALG
    2011), or None when g is not connected; O(n + m).

    A breadth-first tree from vertex 0 gives each non-tree edge a label from
    random.Random(_LABEL_SEED), and each tree edge the XOR of the labels of
    the non-tree edges with exactly one end in the subtree below it. So an
    edge's label is the XOR of the labels of the non-tree edges whose tree
    cycle holds it. A cut (the edges between some vertex set and the rest)
    meets every cycle an even number of times, so the labels of its edges
    XOR to 0 for any seed: a bridge has label 0, and the two edges of a
    2-edge cut have equal labels. The labels of a set of edges that is not
    a cut XOR to 0 with probability 2^-64.
    """
    n = g.vertex_count
    tree_edge = [-1] * n  # the edge to v's parent
    seen = [False] * n
    seen[0] = True
    order = [0]
    for x in order:
        for eid, y in g.adjacency[x]:
            if not seen[y]:
                seen[y] = True
                tree_edge[y] = eid
                order.append(y)
    if len(order) < n:
        return None
    rng = random.Random(_LABEL_SEED)
    labels = [0] * g.edge_count
    below = [0] * n  # XOR of the non-tree labels at the vertices under v
    for eid, (u, v) in enumerate(g.edges):
        if tree_edge[u] != eid and tree_edge[v] != eid:
            labels[eid] = label = rng.getrandbits(64)
            below[u] ^= label
            below[v] ^= label
    for v in reversed(order[1:]):
        eid = tree_edge[v]
        labels[eid] = below[v]
        u, w = g.edges[eid]
        below[u if w == v else w] ^= below[v]
    return labels


def _bond_trios(labels: list[int]) -> Iterator[tuple[int, int, int]]:
    """In lexicographic order, the edge-id trios a < b < e whose labels XOR
    to 0, where labels are the _cycle_space_labels of a 3-edge-connected
    graph: a superset of the trios that disconnect it, for any seed.

    A trio that disconnects a 3-edge-connected graph is exactly a 3-edge
    cut, and the labels of a cut XOR to 0 for any labels, so none is missed
    even when labels collide. Each pair a < b costs one dict lookup of
    label[a] ^ label[b]. A listed trio that does not disconnect has
    probability 2^-64.
    """
    edge_ids: dict[int, list[int]] = {}
    for eid, label in enumerate(labels):
        edge_ids.setdefault(label, []).append(eid)
    get = edge_ids.get
    for a, label_a in enumerate(labels):
        for b, label_b in enumerate(labels[a + 1:], a + 1):
            ids = get(label_a ^ label_b)
            if ids:
                for e in ids:
                    if e > b:
                        yield a, b, e


def _smallest_splitting_cut(g: Graph, c: EdgeColoring,
                            labels: list[int]) -> tuple[int, int, int] | None:
    """Lexicographically smallest edge-id triple that is a rainbow cut with
    pairwise disjoint endpoints splitting g into exactly two components.

    g must be 3-edge-connected, with labels its _cycle_space_labels, as
    _check_cubic_3ec returns them for every graph certify splits. Three
    edges whose removal disconnects such a g leave exactly two components,
    and each of the three crosses between them: a third component, or an
    edge inside one, would leave some component joined to the rest by fewer
    than three edges.

    _bond_trios lists the trios that may disconnect g in lexicographic order
    and skips none that does. Each with six distinct endpoints and three
    distinct colors is confirmed by a walk, which rejects a false match. So
    the trio returned is that of a scan over every C(m, 3) trio, for any
    seed. The scan costs O(m^2) dict lookups, and a false match
    (probability 2^-64 per trio) is the only trio walked but not returned.
    """
    n, edges, colors = g.vertex_count, g.edges, c.colors
    for trio in _bond_trios(labels):
        if (len({v for eid in trio for v in edges[eid]}) == 6
                and len({colors[eid] for eid in trio}) == 3
                and len(_walk(g, 0, trio, [False] * n)) < n):
            return trio
    return None


def certify_rd3_coloring_proper(g: Graph, c: EdgeColoring, *,
                                node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """Certify that a 3-color rainbow disconnection coloring of a
    3-edge-connected cubic graph is proper, without checking properness of g
    directly.

    Recursively splits along the lexicographically smallest rainbow 3-cut
    whose edges are pairwise non-adjacent and whose removal leaves exactly
    two components (both nontrivial: in a cubic graph three pairwise
    non-adjacent edges cannot isolate a vertex). Graphs with no such cut are
    terminal and are checked for properness directly. Every original vertex
    survives in exactly one terminal graph with its incident colors intact,
    and each fresh vertex is properly colored by rainbowness of its cut, so
    the verdict transfers to g.

    The splitting ends after at most (n - 4) / 2 splits: each split replaces
    a part by two whose vertex counts sum to 2 more, and every part is a
    cubic graph, so it has at least 4 vertices; with s splits the s + 1
    final parts hold n + 2s >= 4(s + 1) vertices.

    g and each part are checked by _check_cubic_3ec, which labels them once
    by _cycle_space_labels, and the splitting scan reads its candidate
    trios off the same labels. A part that fails the check raises
    RuntimeError.
    """
    labels = _check_cubic_3ec(g)
    g.check_coloring(c)
    if c.color_count > 3:
        raise InvalidInputError("coloring uses more than 3 distinct colors")
    check = is_rainbow_disconnected(g, c, node_budget=node_budget)
    if not check.ok:
        raise InvalidInputError(
            f"not a rainbow disconnection coloring: pair {check.failing_pair} "
            "has no rainbow cut")
    stack = [(g, c, labels)]
    while stack:
        h, hc, labels = stack.pop()
        cut = _smallest_splitting_cut(h, hc, labels)
        if cut is None:
            if not is_proper(h, hc):
                return False
            continue
        pair = split_along_rainbow_cut(h, hc, cut)
        for part, pcol in (pair.part_1, pair.part_2):
            try:
                labels = _check_cubic_3ec(part)
            except InvalidInputError:
                raise RuntimeError("split produced a part that is not cubic and "
                                   "3-edge-connected") from None
            stack.append((part, pcol, labels))
    return True
