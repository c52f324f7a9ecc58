"""Seeded corpora shared by the unit and acceptance tests."""

import random
from itertools import combinations

from rainbowdisc import EdgeColoring, Graph, global_edge_connectivity, is_connected
from rainbowdisc.generators import (complete_graph, petersen_graph, prism_graph,
                                    random_cubic_graph)


def random_connected_graph(rng: random.Random, n: int, max_extra: int = 6) -> Graph:
    """Random spanning tree plus up to max_extra extra edges."""
    tree = {(rng.randrange(i), i) for i in range(1, n)}
    pool = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in tree]
    rng.shuffle(pool)
    extra = rng.randrange(min(max_extra, len(pool)) + 1) if pool else 0
    return Graph(n, tuple(sorted(tree) + pool[:extra]))


def random_coloring(rng: random.Random, edge_count: int, palette: int) -> EdgeColoring:
    return EdgeColoring(tuple(rng.randrange(palette) for _ in range(edge_count)), palette)


def all_connected_graphs(n: int):
    """Every connected labeled graph on vertices 0..n-1."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = tuple(pairs[i] for i in range(len(pairs)) if mask >> i & 1)
        if len(edges) < n - 1:
            continue
        g = Graph(n, edges)
        if is_connected(g):
            yield g


def k33_graph() -> Graph:
    return Graph(6, tuple((i, j + 3) for i in range(3) for j in range(3)))


def cubic_3ec_corpus(random_count: int = 6):
    """Named 3-edge-connected cubic graphs plus seeded random ones (n <= 10)."""
    named = [("K4", complete_graph(4)), ("K3,3", k33_graph()),
             ("prism", prism_graph()), ("petersen", petersen_graph())]
    sizes = (6, 8, 10)
    seed = 0
    while random_count > 0 and seed < 500:
        g = random_cubic_graph(sizes[seed % len(sizes)], seed)
        if global_edge_connectivity(g) >= 3:
            named.append((f"cubic{g.vertex_count}_seed{seed}", g))
            random_count -= 1
        seed += 1
    return named


def cubic_not_3ec_graph() -> Graph:
    """Cubic but only 2-edge-connected: two K4-minus-an-edge blocks joined by
    two edges between their degree-2 vertices."""
    block = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
    edges = block + [(u + 4, v + 4) for u, v in block] + [(2, 6), (3, 7)]
    return Graph(8, tuple(edges))


def two_hub_graph(k: int) -> Graph:
    """Edge 0-1, edges 0-h1 and 1-h2, and k vertices 2..k+1 each joined to
    both hubs h1 = k+2 and h2 = k+3. One color leaves 0 and 1 without a
    rainbow cut; a cut search placing vertices by id alone branches on all
    k middle vertices before reaching a hub."""
    h1, h2 = k + 2, k + 3
    edges = [(0, 1), (0, h1), (1, h2)]
    for v in range(2, k + 2):
        edges += [(v, h1), (v, h2)]
    return Graph(k + 4, tuple(edges))


def bridged_cubic_pair(half: int, seed: int) -> Graph:
    """Two random cubic graphs on ``half`` vertices each (seeds seed and
    seed + 1), with the first edge of each subdivided and the two new
    vertices joined: cubic, connected, and the joining edge is a bridge."""
    a, b = random_cubic_graph(half, seed), random_cubic_graph(half, seed + 1)
    x, y = 2 * half, 2 * half + 1
    (p, q), (r, s) = a.edges[0], b.edges[0]
    edges = list(a.edges[1:]) + [(u + half, v + half) for u, v in b.edges[1:]]
    edges += [(p, x), (x, q), (r + half, y), (y, s + half), (x, y)]
    return Graph(2 * half + 2, tuple(edges))


def truncate(h: Graph) -> Graph:
    """Truncation of a cubic graph: each vertex becomes a triangle, and each
    edge joins one corner of each end's triangle."""
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


def edge_rule_file(bad: str, colors: tuple[int, int, int] | None = None) -> str:
    """A file of 3 vertices and 3 edges whose edge 1, on line 7 after
    comment and blank lines, is ``e <bad>``; colors, if given, end the three
    edge lines in order."""
    edges = ["1 2", bad, "2 3"]
    if colors is not None:
        edges = [f"{e} {col}" for e, col in zip(edges, colors)]
    lines = ["c edge 1 is on line 7", "p edge 3 3", "", f"e {edges[0]}",
             "c the next edge line breaks a rule", "", f"e {edges[1]}", f"e {edges[2]}"]
    return "\n".join(lines) + "\n"


# (case id, file text, the rule its line 7 breaks), one case per edge rule
# in uncolored and colored files: endpoint 0, endpoint n + 1, self-loop, a
# repeated vertex pair in both orientations, and a negative color
EDGE_RULE_FILES = [
    (f"{name}-{kind}", edge_rule_file(bad, colors), rule)
    for name, bad, rule in (("endpoint-0", "0 3", "endpoint out of range"),
                            ("endpoint-n+1", "1 4", "endpoint out of range"),
                            ("self-loop", "3 3", "self-loop"),
                            ("repeated-pair", "1 2", "parallel to an earlier edge"),
                            ("reversed-pair", "2 1", "parallel to an earlier edge"))
    for kind, colors in (("uncolored", None), ("colored", (0, 1, 1)))
] + [("negative-color", edge_rule_file("1 3", (0, -1, 1)),
      "color -1 outside palette of size 2")]
