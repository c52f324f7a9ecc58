"""Exact edge connectivity: pairwise max-flow with cut certificates, global
and upper edge connectivity, and Gomory-Hu trees."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphs import CutCertificate, Graph, certificate_from_side, check_pair


def _max_flow(g: Graph, s: int, t: int) -> tuple[int, list[bool]]:
    """Unit-capacity max flow by shortest augmenting paths.

    Each undirected edge becomes two opposite arcs of capacity 1 (arc ids
    2*eid and 2*eid+1). Returns the flow value and, per vertex, whether it
    is reachable from s in the final residual network; that reachable set
    is the canonical minimum cut side.
    """
    n = g.vertex_count
    cap = [1] * (2 * g.edge_count)
    value = 0
    while True:
        parent_arc = [-1] * n
        parent_arc[s] = -2
        queue = [s]
        reached_t = False
        for x in queue:
            if reached_t:
                break
            for eid, y in g.adjacency[x]:
                arc = 2 * eid + (0 if g.edges[eid][0] == x else 1)
                if cap[arc] > 0 and parent_arc[y] == -1:
                    parent_arc[y] = arc
                    if y == t:
                        reached_t = True
                        break
                    queue.append(y)
        if not reached_t:
            return value, [parent_arc[v] != -1 for v in range(n)]
        y = t
        while y != s:
            arc = parent_arc[y]
            cap[arc] -= 1
            cap[arc ^ 1] += 1
            eid, direction = divmod(arc, 2)
            y = g.edges[eid][direction]
        value += 1


def local_edge_connectivity(g: Graph, s: int, t: int) -> tuple[int, CutCertificate]:
    """Minimum number of edges separating s from t, with a minimum cut.

    The certificate is canonical: side_s is the set of vertices reachable
    from s in the final residual network.
    """
    check_pair(g.vertex_count, s, t)
    g.check_connected()
    value, side = _max_flow(g, s, t)
    cert = certificate_from_side(
        g, frozenset(v for v in range(g.vertex_count) if side[v]))
    if len(cert.cut_edges) != value:
        raise RuntimeError("max-flow value and min-cut size disagree")
    return value, cert


def global_edge_connectivity(g: Graph) -> int:
    """Minimum over all vertex pairs of the pairwise edge connectivity.

    Fixing one endpoint suffices: the global minimum cut separates vertex 0
    from something.
    """
    g.check_connected()
    return min(_max_flow(g, 0, t)[0] for t in range(1, g.vertex_count))


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
    path equals the s-t edge connectivity of the original graph.

    parent[0] is None (the root); flow[v] is the value attached to the tree
    edge between v and parent[v] (flow[0] is unused).
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
    """Gomory-Hu tree via Gusfield's construction: n-1 max-flow calls on the
    original graph, no vertex contraction."""
    g.check_connected()
    n = g.vertex_count
    parent: list[int | None] = [None] + [0] * (n - 1)
    flow = [0] * n
    for i in range(1, n):
        p = parent[i]
        assert p is not None
        value, side = _max_flow(g, i, p)
        flow[i] = value
        for j in range(i + 1, n):
            if side[j] and parent[j] == p:
                parent[j] = i
        gp = parent[p]
        if gp is not None and side[gp]:
            # i separates its parent from its grandparent: splice i between them
            parent[i] = gp
            parent[p] = i
            flow[i] = flow[p]
            flow[p] = value
    return GomoryHuTree(tuple(parent), tuple(flow))


def upper_edge_connectivity(g: Graph) -> int:
    """Maximum over all vertex pairs of the pairwise edge connectivity."""
    return gomory_hu(g).connectivity_range()[1]
