"""Seeded inputs for the four workloads, and the independent answer oracles.

Everything here is derived from the workload seed alone. Graphs and
formulas come from ``rainbowdisc.generators`` where it has them; truncated
cubic graphs, random k-colorings, near-threshold 3CNF sizes and the small
random connected graphs are built here. The oracles at the bottom check
answers without calling the search they check.
"""

from __future__ import annotations

import random

from rainbowdisc.coloring import find_proper_k_coloring
from rainbowdisc.connectivity import global_edge_connectivity
from rainbowdisc.generators import gen_cnf, random_cubic_graph
from rainbowdisc.graphs import EdgeColoring, Graph
from rainbowdisc.reduction import CnfFormula

# Largest vertex count the bipartition oracle is run on (2^(n-1) sides).
ORACLE_MAX_VERTICES = 16

# Clause-to-variable ratio of the satisfiability threshold of random 3-SAT.
SAT_THRESHOLD_RATIO = 4.26


def _tree_and_pool(rng: random.Random, n: int) -> tuple[list, list]:
    """A random spanning tree, and the other vertex pairs in random order."""
    tree = {(rng.randrange(i), i) for i in range(1, n)}
    pool = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in tree]
    rng.shuffle(pool)
    return sorted(tree), pool


def random_connected_graph(rng: random.Random, n: int, max_extra: int) -> Graph:
    """Random spanning tree plus up to max_extra further edges."""
    tree, pool = _tree_and_pool(rng, n)
    extra = rng.randrange(min(max_extra, len(pool)) + 1) if pool else 0
    return Graph(n, tuple(tree + pool[:extra]))


def dense_connected_graph(rng: random.Random, n: int, extra: int) -> Graph:
    """Random spanning tree plus exactly ``extra`` further edges."""
    tree, pool = _tree_and_pool(rng, n)
    return Graph(n, tuple(tree + pool[:extra]))


def k33_graph() -> Graph:
    return Graph(6, tuple((i, j + 3) for i in range(3) for j in range(3)))


def truncate(h: Graph) -> Graph:
    """Truncation of a cubic graph: each vertex becomes a triangle and each
    edge joins one corner of each end's triangle. Every triangle's three
    outgoing edges form a nontrivial 3-edge cut with disjoint endpoints."""
    port = [0] * h.vertex_count
    edges = []
    for v in range(h.vertex_count):
        edges += [(3 * v, 3 * v + 1), (3 * v + 1, 3 * v + 2), (3 * v, 3 * v + 2)]
    for u, v in h.edges:
        edges.append((3 * u + port[u], 3 * v + port[v]))
        port[u] += 1
        port[v] += 1
    return Graph(3 * h.vertex_count, tuple(edges))


def relabel(g: Graph, rng: random.Random) -> Graph:
    """The same graph under a random vertex permutation and edge order."""
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    rng.shuffle(edges)
    return Graph(g.vertex_count, tuple(edges))


def random_coloring(rng: random.Random, g: Graph, k: int) -> EdgeColoring:
    return EdgeColoring(tuple(rng.randrange(k) for _ in g.edges))


def permuted_coloring(rng: random.Random, c: EdgeColoring) -> EdgeColoring:
    perm = list(range(c.palette))
    rng.shuffle(perm)
    return EdgeColoring(tuple(perm[x] for x in c.colors))


def threshold_cnf(n: int, seed: int) -> CnfFormula:
    """Random 3CNF at the satisfiability threshold for n variables."""
    return gen_cnf(n, round(SAT_THRESHOLD_RATIO * n), seed)


def three_edge_connected_class1(n: int, first_seed: int) -> tuple[int, Graph]:
    """First random cubic graph at or after first_seed that is
    3-edge-connected and 3-edge-colorable, the precondition of
    ``certify_rd3_coloring_proper`` on a proper coloring."""
    seed = first_seed
    while True:
        g = random_cubic_graph(n, seed)
        if global_edge_connectivity(g) == 3 and find_proper_k_coloring(g, 3) is not None:
            return seed, g
        seed += 1


def has_bridge(g: Graph) -> bool:
    """Tarjan's low-link test, iterative."""
    n = g.vertex_count
    disc = [-1] * n
    low = [0] * n
    clock = 0
    for root in range(n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        stack = [(root, -1, iter(g.adjacency[root]))]
        while stack:
            v, via, it = stack[-1]
            for eid, w in it:
                if eid == via:
                    continue
                if disc[w] < 0:
                    disc[w] = low[w] = clock
                    clock += 1
                    stack.append((w, eid, iter(g.adjacency[w])))
                    break
                low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[v])
                    if low[v] > disc[parent]:
                        return True
    return False


def first_unseparated_pair(g: Graph, colors: tuple[int, ...]) -> tuple[int, int] | None:
    """Lexicographically first vertex pair that no rainbow cut separates, or
    None when every pair is separated. Enumerates every bipartition (vertex
    n-1 fixed on one side), so it is exact and independent of the package's
    searches; cost 2^(n-1) sides."""
    n = g.vertex_count
    if n > ORACLE_MAX_VERTICES:
        raise ValueError(f"oracle limited to {ORACLE_MAX_VERTICES} vertices")
    edges = [(u, v, colors[e]) for e, (u, v) in enumerate(g.edges)]
    full = (1 << n) - 1
    apart = [0] * n  # apart[v]: vertices some rainbow cut separates from v
    need = [full ^ (1 << v) for v in range(n)]

    def mark(side: int) -> None:
        other = full ^ side
        for v in range(n):
            apart[v] |= other if side >> v & 1 else side

    # Vertex stars first: they settle every pair of a proper coloring at once.
    singles = [1 << v for v in range(n)]
    for side in singles + list(range(1, 1 << (n - 1))):
        seen = 0
        for u, v, col in edges:
            if (side >> u ^ side >> v) & 1:
                if seen >> col & 1:
                    break
                seen |= 1 << col
        else:
            mark(side)
            if all(apart[v] == need[v] for v in range(n)):
                return None
    for s in range(n):
        missing = need[s] & ~apart[s] & ~((2 << s) - 1)
        if missing:
            return s, (missing & -missing).bit_length() - 1
    return None
