"""Deterministic graph and formula generators.

All randomness comes from ``random.Random(seed)`` (the stdlib Mersenne
Twister), so a (kind, parameters, seed) triple reproduces bit-identically
across platforms and runs.
"""

from __future__ import annotations

import random

from .errors import InvalidInputError, check_cap
from .graphs import Graph, is_connected
from .reduction import CnfFormula

GRAPH_KINDS = ("cycle", "tree", "random_cubic", "prism", "petersen", "complete")

# Pairing rounds random_cubic_graph tries before it gives up
_CUBIC_ATTEMPTS = 10000


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InvalidInputError("cycle needs n >= 3")
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def complete_graph(n: int) -> Graph:
    if n < 2:
        raise InvalidInputError("complete graph needs n >= 2")
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def petersen_graph() -> Graph:
    """Outer 5-cycle, spokes, inner pentagram."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, tuple(outer + spokes + inner))


def prism_graph() -> Graph:
    """Two triangles joined by a perfect matching."""
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    return Graph(6, tuple(edges))


def flower_snark(k: int) -> Graph:
    """Flower snark J_k for odd k >= 3: 4k vertices, cubic and class 2.

    Block i holds the star center a_i = 4i and its leaves b_i, c_i, d_i =
    4i+1, 4i+2, 4i+3. The b_i form a k-cycle, and c_0..c_{k-1} d_0..d_{k-1}
    form one 2k-cycle. Edges are listed block by block (the star, then the
    three edges to block i+1), so an edge-order search meets few open
    edges at a time. J_3 has a triangle; J_k for k >= 5 is a snark.
    """
    if k < 3 or k % 2 == 0:
        raise InvalidInputError("flower snark needs odd k >= 3")
    edges = []
    for i in range(k):
        nxt = 4 * ((i + 1) % k)
        last = i == k - 1  # the c/d cycle crosses over when it closes
        edges += [(4 * i, 4 * i + 1), (4 * i, 4 * i + 2), (4 * i, 4 * i + 3),
                  (4 * i + 1, nxt + 1),
                  (4 * i + 2, nxt + (3 if last else 2)),
                  (4 * i + 3, nxt + (2 if last else 3))]
    return Graph(4 * k, tuple(edges))


def random_tree(n: int, seed: int) -> Graph:
    """Uniform random attachment tree on n vertices."""
    if n < 1:
        raise InvalidInputError("tree needs n >= 1")
    rng = random.Random(seed)
    return Graph(n, tuple((rng.randrange(i), i) for i in range(1, n)))


def random_cubic_graph(n: int, seed: int) -> Graph:
    """Pairing-model 3-regular graph: shuffle 3 stubs per vertex, pair them
    up, retry on self-loops, parallel edges, or disconnection, at most
    _CUBIC_ATTEMPTS times. Edges are emitted in sorted order."""
    if n < 4 or n % 2:
        raise InvalidInputError("random cubic graph needs even n >= 4")
    rng = random.Random(seed)
    for _ in range(_CUBIC_ATTEMPTS):
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        pairs = [(stubs[i], stubs[i + 1]) for i in range(0, 3 * n, 2)]
        if any(u == v for u, v in pairs):
            continue
        norm = {(min(u, v), max(u, v)) for u, v in pairs}
        if len(norm) != len(pairs):
            continue
        g = Graph(n, tuple(sorted(norm)))
        if is_connected(g):
            return g
    raise InvalidInputError("could not generate a connected cubic graph")


def gen_graph(kind: str, n: int | None = None, seed: int = 0) -> Graph:
    """Dispatch by kind name; kinds with a size take n, seeded kinds use seed.
    At most errors.MAX_GENERATED edges are built."""
    if kind not in GRAPH_KINDS:
        raise InvalidInputError(f"unknown graph kind {kind!r}")
    if kind == "prism":
        return prism_graph()
    if kind == "petersen":
        return petersen_graph()
    if n is None:
        raise InvalidInputError(f"graph kind {kind!r} requires n")
    size = max(n, 0)  # a negative n is rejected by the kind's own rule
    check_cap({"cycle": size, "complete": size * (size - 1) // 2, "tree": size - 1,
               "random_cubic": 3 * size // 2}[kind], "edges")
    if kind == "cycle":
        return cycle_graph(n)
    if kind == "complete":
        return complete_graph(n)
    if kind == "tree":
        return random_tree(n, seed)
    return random_cubic_graph(n, seed)


def gen_cnf(n: int, m: int, seed: int) -> CnfFormula:
    """m random 3-clauses over n variables: three distinct variables drawn
    per clause, each negated with probability one half. At most
    errors.MAX_GENERATED clauses are built."""
    if n < 3:
        raise InvalidInputError("need at least 3 variables")
    if m < 0:
        raise InvalidInputError("clause count must be nonnegative")
    check_cap(m, "clauses")
    rng = random.Random(seed)
    clauses = []
    for _ in range(m):
        variables = rng.sample(range(1, n + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
    return CnfFormula(n, tuple(clauses))
