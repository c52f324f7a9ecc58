"""Proper edge colorings: a constructive max_degree+1 coloring and the exact
chromatic index."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .connectivity import bridges
from .errors import DEFAULT_NODE_BUDGET, InvalidInputError, NodeBudget
from .graphs import EdgeColoring, Graph, components


def _rainbow_stars(g: Graph, c: EdgeColoring) -> list[int]:
    """The vertices, ascending, whose edges carry pairwise distinct colors:
    those whose star is a rainbow cut. Unchecked; callers validate c.
    Plain loops: a comprehension per vertex made is_proper on cubic graphs
    about 40% slower on Python 3.11."""
    colors = c.colors
    stars = []
    for v, adj in enumerate(g.adjacency):
        seen = set()
        for eid, _ in adj:
            seen.add(colors[eid])
        if len(seen) == len(adj):
            stars.append(v)
    return stars


def is_proper(g: Graph, c: EdgeColoring) -> bool:
    """True iff no two edges sharing a vertex have the same color, that is,
    every vertex star is rainbow."""
    g.check_coloring(c)
    return len(_rainbow_stars(g, c)) == g.vertex_count


def _kempe_table(g: Graph, k: int, color: list[int]):
    """The color table of a partial proper coloring with colors 0..k-1, where
    color[eid] == -1 marks an uncolored edge, and the operations on it.

    at[v][c] is the edge of color c at v, or -1 when c is free at v. The
    closures keep ``color`` and ``at`` in step: free(x) lists the colors free
    at x in ascending order; assign(eid, c) colors an uncolored edge; clear(eid)
    uncolors a colored one; chain(x, a, b), where a is free at x, walks the
    a/b Kempe chain from x and returns its edges and its far end; swap(path,
    a, b) exchanges a and b along such a chain. Properness makes a chain a
    path that cannot return to x, and a swap keeps the coloring proper.
    """
    at = [[-1] * k for _ in range(g.vertex_count)]
    for eid, (u, v) in enumerate(g.edges):
        if color[eid] != -1:
            at[u][color[eid]] = at[v][color[eid]] = eid

    def free(x: int) -> list[int]:
        row = at[x]
        return [c for c in range(k) if row[c] == -1]

    def assign(eid: int, c: int) -> None:
        color[eid] = c
        u, v = g.edges[eid]
        at[u][c] = at[v][c] = eid

    def clear(eid: int) -> None:
        u, v = g.edges[eid]
        at[u][color[eid]] = at[v][color[eid]] = -1
        color[eid] = -1

    def chain(x: int, a: int, b: int) -> tuple[list[int], int]:
        path: list[int] = []
        want = b
        while at[x][want] != -1:
            eid = at[x][want]
            path.append(eid)
            p, q = g.edges[eid]
            x = q if p == x else p
            want = a if want == b else b
        return path, x

    def swap(path: list[int], a: int, b: int) -> None:
        for eid in path:
            u, v = g.edges[eid]
            at[u][color[eid]] = at[v][color[eid]] = -1
        for eid in path:
            assign(eid, a if color[eid] == b else b)

    return at, free, assign, clear, chain, swap


def proper_coloring_delta_plus_one(g: Graph) -> EdgeColoring:
    """Proper edge coloring with palette max_degree + 1, built by fan rotations.

    Edges are colored in id order. For edge (u, v): build the maximal fan of
    u starting at v (each next fan edge's color must be free at the previous
    fan vertex; candidates scanned in ascending neighbor order). Let c be the
    smallest color free at u and d the smallest free at the fan's last
    vertex. If d is busy at u, swap the c/d Kempe chain from u, which frees
    d at u without breaking properness elsewhere. Then take the first fan
    prefix that is still a fan under the current colors and whose last
    vertex has d free, rotate the prefix's colors one step toward the
    uncolored edge, and give the prefix's last edge color d. Deterministic
    throughout: smallest color, smallest neighbor, first valid prefix.
    """
    m = g.edge_count
    if m == 0:
        raise InvalidInputError("graph has no edges")
    k = g.max_degree + 1
    color = [-1] * m
    at, _, assign, clear, chain, swap = _kempe_table(g, k, color)
    sorted_adj = [sorted((w, eid) for eid, w in g.adjacency[v])
                  for v in range(g.vertex_count)]

    for e0 in range(m):
        u, v0 = g.edges[e0]
        fan: list[tuple[int, int]] = [(v0, e0)]
        in_fan = {v0}
        while True:
            at_last = at[fan[-1][0]]
            ext = None
            for w, eid in sorted_adj[u]:
                if w not in in_fan and color[eid] != -1 and at_last[color[eid]] == -1:
                    ext = (w, eid)
                    break
            if ext is None:
                break
            fan.append(ext)
            in_fan.add(ext[0])
        try:
            c, d = at[u].index(-1), at[fan[-1][0]].index(-1)
        except ValueError:
            raise RuntimeError("no free color at a vertex; degree bound violated") from None
        if at[u][d] != -1:
            swap(chain(u, c, d)[0], c, d)
            if at[u][d] != -1:
                raise RuntimeError("alternating path inversion failed to free d at u")
        j = None
        for idx, (w, eid) in enumerate(fan):
            if idx > 0 and (color[eid] == -1 or at[fan[idx - 1][0]][color[eid]] != -1):
                break  # the prefix stops being a fan here
            if at[w][d] == -1:
                j = idx
                break
        if j is None:
            raise RuntimeError("no fan prefix accepts the free color")
        # rotate: each prefix edge takes its successor's color, the last takes d
        shifted = [color[eid] for _, eid in fan[1:j + 1]] + [d]
        for _, eid in fan[1:j + 1]:
            clear(eid)
        for (_, eid), col in zip(fan, shifted):
            assign(eid, col)
    return EdgeColoring(tuple(color), k)


def find_proper_k_coloring(g: Graph, k: int,
                           node_budget: int = DEFAULT_NODE_BUDGET) -> EdgeColoring | None:
    """Backtracking search for a proper edge coloring with k colors (on an
    edgeless graph, the empty coloring).

    Edges are processed in descending max-endpoint-degree order (ties broken
    by edge id); the i-th processed edge may only take colors 0..min(i, k-1),
    which breaks color permutation symmetry. Each color placed on an edge
    costs one node of the budget (a color an adjacent edge holds is skipped
    for free); exceeding it raises rather than guessing. The depth-first
    search keeps its stack in ``assigned``, so its depth is not bounded by
    the interpreter's recursion limit.
    """
    m = g.edge_count
    edges = g.edges
    degs = g.degrees
    order = sorted(range(m),
                   key=lambda e: (-max(degs[edges[e][0]], degs[edges[e][1]]), e))
    vmask = [0] * g.vertex_count
    assigned = [-1] * m
    budget = NodeBudget(node_budget, "proper edge coloring search")
    i = 0
    first = 0  # the smallest color still to try at depth i
    while i < m:
        eid = order[i]
        u, v = edges[eid]
        forbidden = vmask[u] | vmask[v]
        for col in range(first, min(i, k - 1) + 1):
            bit = 1 << col
            if not forbidden & bit:
                break
        else:
            # depth i is exhausted: undo depth i - 1 and try its next color
            if i == 0:
                return None
            i -= 1
            eid = order[i]
            u, v = edges[eid]
            first = assigned[eid] + 1
            bit = 1 << assigned[eid]
            vmask[u] ^= bit
            vmask[v] ^= bit
            assigned[eid] = -1
            continue
        budget.spend()
        vmask[u] |= bit
        vmask[v] |= bit
        assigned[eid] = col
        i += 1
        first = 0
    return EdgeColoring(tuple(assigned), k)


# The Kempe walk gives up after this many steps per edge. On random cubic
# graphs it needed at most 12.5 * m steps (n = 10-60 with seeds 0-399, and
# n = 80-300 with seeds 0-39; every graph where it failed is class 2).
_WALK_STEPS_PER_EDGE = 40
_WALK_SEED = 0


def _kempe_walk_delta_coloring(g: Graph, start: EdgeColoring) -> EdgeColoring | None:
    """Look for a proper max_degree-coloring by a walk on Kempe chains.

    ``start`` is a proper coloring with colors 0..Delta, as built by
    proper_coloring_delta_plus_one. Its edges of color Delta are uncolored
    and recolored one at a time. An uncolored edge (u, v) takes the smallest
    color free at both ends when there is one. Otherwise, for a free at u and
    b free at v, the a/b Kempe chain from u is swapped when it does not end at
    v; that frees b at u, and the edge takes b. When every such chain ends at
    v, a seeded random step either swaps a Kempe chain at a random endpoint
    or moves the uncolored edge: the edge takes a color free at one end, and
    the edge of that color at the other end is uncolored instead.

    The walk gives up after _WALK_STEPS_PER_EDGE * m = 40m steps and returns
    None, so on a class-2 graph it always runs them all, and a step walks
    Kempe chains of up to n edges; chromatic_index_exact skips it on the
    class-2 graphs that _provably_class_two recognizes. It expands no node
    of any search budget.
    A returned coloring has passed is_proper. Deterministic: the random
    steps draw from random.Random(_WALK_SEED).
    """
    delta = g.max_degree
    color = list(start.colors)
    pending = [eid for eid, col in enumerate(color) if col == delta]
    for eid in pending:
        color[eid] = -1
    at, free, assign, clear, chain, swap = _kempe_table(g, delta, color)

    def swap_then_assign(eid: int, u: int, v: int) -> bool:
        """Swap an a/b chain from u that does not end at v, then give eid
        color b; False if every such chain ends at v."""
        for a in free(u):
            for b in free(v):
                path, end = chain(u, a, b)
                if end != v:
                    swap(path, a, b)
                    assign(eid, b)
                    return True
        return False

    rng = random.Random(_WALK_SEED)
    steps = _WALK_STEPS_PER_EDGE * g.edge_count
    while pending:
        eid = pending.pop()
        while color[eid] == -1:
            if steps == 0:
                return None
            steps -= 1
            u, v = g.edges[eid]
            common = [c for c in free(u) if at[v][c] == -1]
            if common:
                assign(eid, common[0])
            elif not swap_then_assign(eid, u, v):
                x, y = (u, v) if rng.random() < 0.5 else (v, u)
                a = rng.choice(free(x))
                if rng.random() < 0.5:
                    b = rng.choice([c for c in range(delta) if at[x][c] != -1])
                    swap(chain(x, a, b)[0], a, b)
                else:
                    # a is busy at y, since no color is free at both ends
                    moved = at[y][a]
                    clear(moved)
                    assign(eid, a)
                    eid = moved
    witness = EdgeColoring(tuple(color), delta)
    return witness if is_proper(g, witness) else None


def _provably_class_two(g: Graph, delta: int) -> bool:
    """True iff some component rules out a proper delta-coloring by its
    shape alone: it is overfull, with more edges than delta matchings of its
    vertices can hold, or it is delta-regular with delta >= 2 and has a
    bridge. By the parity lemma, a proper delta-coloring of a delta-regular
    graph puts every color on each edge cut an odd number of times if the
    cut has odd size, so a one-edge cut would need delta <= 1."""
    degs = g.degrees
    bridged = {v for eid in bridges(g) for v in g.edges[eid]}
    for comp in components(g):
        if sum(degs[v] for v in comp) // 2 > delta * (len(comp) // 2):
            return True
        if (delta >= 2 and all(degs[v] == delta for v in comp)
                and not bridged.isdisjoint(comp)):
            return True
    return False


@dataclass(frozen=True)
class ChromaticIndexResult:
    """Exact chromatic index with a witness coloring using that many colors."""

    chi_prime: int
    witness: EdgeColoring
    vizing_class: int


def chromatic_index_exact(g: Graph,
                          node_budget: int = DEFAULT_NODE_BUDGET) -> ChromaticIndexResult:
    """Exact chromatic index: max_degree if a proper coloring with that many
    colors exists (class 1), else max_degree + 1 (class 2, witnessed by the
    constructive coloring).

    Witness first, exhaustive search last. A graph with an overfull
    component, one whose m_i edges exceed max_degree * floor(n_i/2) for its
    n_i vertices, is class 2 outright, since every color class is a
    matching; an overfull graph always has one. So is a graph with a
    max_degree-regular component that has a bridge (parity lemma); both
    rules are _provably_class_two. Otherwise a Kempe-chain walk from the
    Delta+1 coloring looks for a class-1 witness within a fixed bound of 40m
    steps (_kempe_walk_delta_coloring), spending no node of the budget. Only
    if it fails does find_proper_k_coloring search exhaustively, with
    node_budget, to find a witness or prove class 2.
    """
    delta = g.max_degree
    start = proper_coloring_delta_plus_one(g)
    witness = None
    if not _provably_class_two(g, delta):
        witness = _kempe_walk_delta_coloring(g, start)
        if witness is None:
            witness = find_proper_k_coloring(g, delta, node_budget)
    if witness is not None:
        return ChromaticIndexResult(delta, witness, 1)
    return ChromaticIndexResult(delta + 1, start, 2)
