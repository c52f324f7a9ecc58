"""Exact edge connectivity: pairwise max-flow with cut certificates, global
and upper edge connectivity, and Gomory-Hu trees.

Every flow here is one capped primitive, _max_flow, from a vertex to a
vertex set; lambda and lambda+ are read in one place, connectivity_range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Container

from .graphs import CutCertificate, Graph, _walk, certificate_from_side, check_pair


def _arcs(g: Graph) -> list[list[tuple[int, int]]]:
    """Per vertex, its (arc id, head) pairs in edge id order. Each undirected
    edge eid = (u, v) becomes two opposite arcs of capacity 1: 2*eid from u
    and 2*eid+1 from v."""
    arcs: list[list[tuple[int, int]]] = [[] for _ in range(g.vertex_count)]
    for eid, (u, v) in enumerate(g.edges):
        arcs[u].append((2 * eid, v))
        arcs[v].append((2 * eid + 1, u))
    return arcs


def _max_flow(g: Graph, arcs: list[list[tuple[int, int]]], s: int,
              sink: Container[int], limit: float = math.inf) -> tuple[int, set[int] | None]:
    """Unit-capacity max flow from s to the vertex set sink (s not in it), by
    shortest augmenting paths, stopping once the flow reaches limit.

    Returns the flow value and, when it stays below limit, the set of
    vertices reachable from s in the final residual network: the canonical
    minimum cut side, the least one holding s. At limit it returns no side.
    Each search clears only what it visited, so a flow that reaches the
    sink near s costs little more than the n-slot table it starts with.
    """
    edges = g.edges
    # arc a has residual capacity 0 iff a is in full; pushing along a either
    # cancels the flow on a ^ 1 or fills a
    full: set[int] = set()
    parent_arc = [-1] * g.vertex_count
    value = 0
    while value < limit:
        parent_arc[s] = -2
        queue = [s]
        hit = -1
        for x in queue:
            for arc, y in arcs[x]:
                if parent_arc[y] == -1 and arc not in full:
                    parent_arc[y] = arc
                    if y in sink:
                        hit = y
                        break
                    queue.append(y)
            if hit != -1:
                break
        if hit == -1:
            return value, set(queue)
        y = hit
        while y != s:
            arc = parent_arc[y]
            if arc ^ 1 in full:
                full.discard(arc ^ 1)
            else:
                full.add(arc)
            y = edges[arc >> 1][arc & 1]
        for v in queue:
            parent_arc[v] = -1
        parent_arc[hit] = -1
        value += 1
    return value, None


def local_edge_connectivity(g: Graph, s: int, t: int) -> tuple[int, CutCertificate]:
    """Minimum number of edges separating s from t, with a minimum cut.

    The certificate is canonical: side_s is the set of vertices reachable
    from s in the final residual network.
    """
    check_pair(g.vertex_count, s, t)
    g.check_connected()
    value, side = _max_flow(g, _arcs(g), s, (t,))
    assert side is not None
    cert = certificate_from_side(g, frozenset(side))
    if len(cert.cut_edges) != value:
        raise RuntimeError("max-flow value and min-cut size disagree")
    return value, cert


def global_edge_connectivity(g: Graph) -> int:
    """lambda, the minimum over all vertex pairs of the pairwise edge
    connectivity.

    For any vertex order v_1..v_n, lambda = min_i lambda({v_1..v_i},
    v_{i+1}): the side of a minimum cut that holds v_1 holds some prefix
    but not the next vertex (the growing source sets of Hao and Orlin,
    1994). The order is breadth-first from vertex 0, so each v_{i+1} has a
    neighbor in the set and its flow, run from v_{i+1}, stays near it. Each
    flow stops at the least value so far, which starts at the minimum
    degree.
    """
    g.check_connected()
    arcs = _arcs(g)
    order = _walk(g, 0, (), [False] * g.vertex_count)
    best = g.min_degree
    prefix = {order[0]}
    for v in order[1:]:
        if best == 1:
            break  # a connected graph has lambda >= 1
        best = _max_flow(g, arcs, v, prefix, best)[0]
        prefix.add(v)
    return best


def blocks(g: Graph) -> list[tuple[int, ...]]:
    """The blocks of g as edge id tuples (ascending), ordered by their least
    edge id. A block is a biconnected component or a bridge; two edges share
    one exactly when some cycle holds both, so the blocks partition the edges.

    Tarjan's low-link test with an edge stack, and an explicit stack of
    adjacency iterators so that a long path needs no recursion. Each edge is
    pushed once: a tree edge on the way down, any other edge from its end
    farther from the root. When nothing below the tree edge (p, v) reaches
    above p by a back edge, low[v] >= disc[p], the edges pushed from (p, v)
    on form one block.
    """
    n = g.vertex_count
    disc = [-1] * n
    low = [0] * n
    clock = 0
    pushed: list[int] = []
    found: list[tuple[int, ...]] = []
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = clock
        clock += 1
        # (vertex, edge id it was entered by, len(pushed) before that edge,
        # its remaining adjacency)
        stack = [(root, -1, 0, iter(g.adjacency[root]))]
        while stack:
            v, via, mark, rest = stack[-1]
            for eid, w in rest:
                if eid == via:
                    continue
                if disc[w] == -1:
                    stack.append((w, eid, len(pushed), iter(g.adjacency[w])))
                    pushed.append(eid)
                    disc[w] = low[w] = clock
                    clock += 1
                    break
                if disc[w] < disc[v]:
                    pushed.append(eid)
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[v])
                    if low[v] >= disc[p]:
                        found.append(tuple(sorted(pushed[mark:])))
                        del pushed[mark:]
    found.sort()
    return found


def bridges(g: Graph) -> frozenset[int]:
    """Edge ids of the bridges of g, the edges on no cycle: the blocks with
    one edge."""
    return frozenset(block[0] for block in blocks(g) if len(block) == 1)


@dataclass(frozen=True)
class GomoryHuTree:
    """Flow-equivalent tree: the minimum flow value on the unique s-t tree
    path equals the s-t edge connectivity of the original graph. Only flow
    values are promised: a tree edge's removal need not split the vertices
    as a minimum cut of the graph does.

    parent[0] is None (the root); flow[v] is the value attached to the tree
    edge between v and parent[v] (flow[0] is unused), and it is the edge
    connectivity of v and parent[v].
    """

    parent: tuple[int | None, ...]
    flow: tuple[int, ...]

    def connectivity(self, s: int, t: int) -> int:
        """Minimum flow value along the s-t tree path."""
        check_pair(len(self.parent), s, t)
        low_from_s: dict[int, float] = {}
        low = math.inf
        v: int | None = s
        while v is not None:
            low_from_s[v] = low
            low = min(low, self.flow[v])
            v = self.parent[v]
        low = math.inf
        while t not in low_from_s:
            low = min(low, self.flow[t])
            t = self.parent[t]
        return int(min(low, low_from_s[t]))

    def connectivity_range(self) -> tuple[int, int]:
        """lambda and lambda+, the least and the greatest pairwise edge
        connectivity of the graph: the smallest and largest tree flows. Every
        tree flow is realized by its edge's endpoints, and a pair's
        connectivity is the minimum over its tree path."""
        flows = self.flow[1:]
        return min(flows), max(flows)


def gomory_hu(g: Graph) -> GomoryHuTree:
    """Gusfield's equivalent flow tree (1990): n-1 max-flow calls on the
    original graph, no vertex contraction. Vertex i is hung from its current
    parent p with flow[i] their connectivity, and each later vertex j hung
    from p moves to i when a minimum i-p cut puts j on i's side.

    The flow between i and p stops at min(deg i, deg p), which bounds their
    connectivity: a flow that reaches it has found the smaller star as a
    minimum cut, side {i} or V - {p}, with no final residual search. The
    construction takes any minimum cut, so each tree flow is still the
    connectivity of its two ends.
    """
    g.check_connected()
    n = g.vertex_count
    arcs = _arcs(g)
    deg = g.degrees
    parent: list[int | None] = [None] + [0] * (n - 1)
    flow = [0] * n
    for i in range(1, n):
        p = parent[i]
        assert p is not None
        value, side = _max_flow(g, arcs, i, (p,), min(deg[i], deg[p]))
        flow[i] = value
        if side is None:
            if deg[i] == value:
                continue  # side {i} moves no other vertex
            side = set(range(n))
            side.discard(p)
        for j in range(i + 1, n):
            if parent[j] == p and j in side:
                parent[j] = i
    return GomoryHuTree(tuple(parent), tuple(flow))


def connectivity_range(g: Graph) -> tuple[int, int]:
    """lambda and lambda+, the least and the greatest pairwise edge
    connectivity of g.

    A pair's connectivity is at most the smaller of its two degrees, so
    lambda <= lambda+ <= d2, the second-largest degree. When lambda = d2
    both are read with no Gomory-Hu tree; otherwise lambda+ is the tree's
    largest flow.
    """
    lam = global_edge_connectivity(g)
    if lam == sorted(g.degrees)[-2]:
        return lam, lam
    return lam, gomory_hu(g).connectivity_range()[1]


def upper_edge_connectivity(g: Graph) -> int:
    """lambda+, the maximum over all vertex pairs of the pairwise edge
    connectivity (see connectivity_range)."""
    return connectivity_range(g)[1]
