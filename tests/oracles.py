"""Brute-force oracles, independent of the library's search strategies.

Everything here favors obviousness over speed: plain enumeration of vertex
bipartitions, colorings, and assignments. Used to cross-check the library's
answers on small inputs.
"""

from itertools import combinations, product

from rainbowdisc import EdgeColoring, Graph, reachable_from


def bipartition_sides(n: int):
    """Every proper bipartition of 0..n-1, as the side containing vertex 0."""
    for mask in range(1 << (n - 1)):
        side = {0} | {v + 1 for v in range(n - 1) if mask >> v & 1}
        if len(side) < n:
            yield side


def crossing_edges(g: Graph, side: set[int]) -> list[int]:
    return [eid for eid, (u, v) in enumerate(g.edges) if (u in side) != (v in side)]


def min_cut_value_oracle(g: Graph, s: int, t: int) -> int:
    """Minimum s-t cut size by exhaustive bipartition enumeration."""
    best = None
    for side in bipartition_sides(g.vertex_count):
        if (s in side) != (t in side):
            size = len(crossing_edges(g, side))
            if best is None or size < best:
                best = size
    assert best is not None
    return best


def global_min_cut_oracle(g: Graph) -> int:
    return min(len(crossing_edges(g, side))
               for side in bipartition_sides(g.vertex_count))


def upper_connectivity_oracle(g: Graph) -> int:
    n = g.vertex_count
    return max(min_cut_value_oracle(g, s, t)
               for s in range(n) for t in range(s + 1, n))


def rainbow_cut_exists_oracle(g: Graph, c: EdgeColoring, s: int, t: int) -> bool:
    """Full bipartition enumeration: some separating side whose boundary has
    pairwise distinct colors."""
    for side in bipartition_sides(g.vertex_count):
        if (s in side) == (t in side):
            continue
        cols = [c.colors[e] for e in crossing_edges(g, side)]
        if len(set(cols)) == len(cols):
            return True
    return False


def rainbow_disconnected_oracle(g: Graph, c: EdgeColoring) -> bool:
    n = g.vertex_count
    return all(rainbow_cut_exists_oracle(g, c, s, t)
               for s in range(n) for t in range(s + 1, n))


def known_cut_scan_oracle(g: Graph, c: EdgeColoring, search):
    """The all-pairs check as a plain scan of the pairs (s, t) in
    lexicographic order over a list of known rainbow cuts, each a vertex
    set: the star {v} of every vertex v whose edges have distinct colors,
    from vertex n - 1 down; then every bridge by edge id, as the vertices
    its removal cuts off from vertex 0; then, for each pair that no known
    cut separates, the vertex set search(s, t) returns, appended to the
    list, or None, which ends the scan at that pair.

    Returns the searched pairs in order, the side of s in the lowest known
    cut separating each settled pair, and the failing pair (None when every
    pair is settled)."""
    n, everything = g.vertex_count, set(range(g.vertex_count))
    known = [{v} for v in reversed(range(n))
             if len({c.colors[eid] for eid, _ in g.adjacency[v]}) == len(g.adjacency[v])]
    cut_off = (everything - reachable_from(g, 0, [eid]) for eid in range(g.edge_count))
    known += [cut for cut in cut_off if cut]  # empty unless the edge is a bridge
    searched, side_s = [], {}
    for s, t in combinations(range(n), 2):
        cut = next((cut for cut in known if (s in cut) != (t in cut)), None)
        if cut is None:
            searched.append((s, t))
            cut = search(s, t)
            if cut is None:
                return searched, side_s, (s, t)
            known.append(set(cut))
        side_s[(s, t)] = cut if s in cut else everything - cut
    return searched, side_s, None


def rd_oracle(g: Graph, max_edges: int = 8) -> int:
    """Exact rainbow disconnection number by enumerating every coloring with
    every palette size in turn. No symmetry breaking, no pruning."""
    m = g.edge_count
    assert m <= max_edges, "oracle meant for tiny graphs"
    for k in range(1, g.max_degree + 2):
        for colors in product(range(k), repeat=m):
            if rainbow_disconnected_oracle(g, EdgeColoring(colors, k)):
                return k
    raise AssertionError("no coloring up to the max_degree+1 bound")


def first_level_coloring_oracle(g: Graph, k: int) -> EdgeColoring | None:
    """The lexicographically first coloring with edge i in 0..min(i, k-1)
    that rainbow-disconnects g, or None: what the rd level search at k
    returns. Each coloring is checked as in rainbow_disconnected_oracle, over
    every bipartition, with each bipartition's crossing edges listed once."""
    n = g.vertex_count
    cuts = [(side, crossing_edges(g, side)) for side in bipartition_sides(n)]
    pairs = list(combinations(range(n), 2))
    for colors in product(*(range(min(i, k - 1) + 1) for i in range(g.edge_count))):
        rainbow = [side for side, cut in cuts if len({colors[e] for e in cut}) == len(cut)]
        if all(any((s in side) != (t in side) for side in rainbow) for s, t in pairs):
            return EdgeColoring(colors, k)
    return None


def cycle_edge_sets(g: Graph) -> set[frozenset[int]]:
    """The edge set of every cycle of g, by extending each simple path from
    its least vertex until an edge closes it."""
    found = set()
    for start in range(g.vertex_count):
        paths = [(start, (start,), ())]
        while paths:
            v, path, path_edges = paths.pop()
            for eid, w in g.adjacency[v]:
                if w == start and len(path_edges) >= 2:
                    found.add(frozenset(path_edges + (eid,)))
                elif w > start and w not in path:
                    paths.append((w, path + (w,), path_edges + (eid,)))
    return found


def splitting_cut_reference(g: Graph, c: EdgeColoring) -> tuple[int, int, int] | None:
    """The splitting scan as a plain triple loop: the lexicographically
    first trio a < b < e with six distinct endpoints and three distinct
    colors whose removal leaves vertex 0 short of some vertex. A second edge
    sharing an endpoint or a color with the first is dropped before any third
    edge is tried, so only trios passing both filters are walked."""
    n, m, edges, colors = g.vertex_count, g.edge_count, g.edges, c.colors
    for a in range(m):
        ends_a, col_a = edges[a], colors[a]
        for b in range(a + 1, m):
            u, v = edges[b]
            if colors[b] == col_a or u in ends_a or v in ends_a:
                continue
            ends_ab, cols_ab = (*ends_a, u, v), (col_a, colors[b])
            for e in range(b + 1, m):
                u, v = edges[e]
                if (colors[e] not in cols_ab and u not in ends_ab and v not in ends_ab
                        and len(reachable_from(g, 0, (a, b, e))) < n):
                    return a, b, e
    return None


def proper_oracle(g: Graph, colors) -> bool:
    for adj in g.adjacency:
        seen = set()
        for eid, _ in adj:
            if colors[eid] in seen:
                return False
            seen.add(colors[eid])
    return True


def exists_proper_k_coloring_oracle(g: Graph, k: int) -> bool:
    """Plain backtracking in raw edge-id order; no degree ordering, no
    symmetry breaking, no budget."""
    m = g.edge_count
    assigned = [-1] * m

    def feasible(eid: int, col: int) -> bool:
        for x in g.edges[eid]:
            for other, _ in g.adjacency[x]:
                if other != eid and assigned[other] == col:
                    return False
        return True

    def rec(i: int) -> bool:
        if i == m:
            return True
        for col in range(k):
            if feasible(i, col):
                assigned[i] = col
                if rec(i + 1):
                    return True
                assigned[i] = -1
        return False

    return rec(0)


def chromatic_index_oracle(g: Graph) -> int:
    k = 1
    while not exists_proper_k_coloring_oracle(g, k):
        k += 1
    return k


def chromatic_index_enumeration_oracle(g: Graph, max_edges: int = 6) -> int:
    """Pure product enumeration, used to cross-check the backtracking oracle
    itself on very small graphs."""
    m = g.edge_count
    assert m <= max_edges
    for k in range(1, m + 2):
        for colors in product(range(k), repeat=m):
            if proper_oracle(g, colors):
                return k
    raise AssertionError("no proper coloring with m+1 colors")


def sat_oracle(f) -> bool:
    """Satisfiability by bitmask enumeration (different literal convention
    and enumeration order from the library's solver)."""
    n = f.variable_count
    for bits in range(1 << n):
        vals = [(bits >> (v - 1)) & 1 == 1 for v in range(1, n + 1)]
        if all(any(vals[abs(lit) - 1] == (lit > 0) for lit in cl) for cl in f.clauses):
            return True
    return False


def _propagates_to_conflict(clauses, assumed) -> bool:
    """Unit propagation over the DIMACS-signed clauses from the assumed
    literals, by rescanning every clause until nothing changes; True when
    some clause ends with every literal false."""
    true = set(assumed)
    changed = True
    while changed:
        changed = False
        for cl in clauses:
            if any(lit in true for lit in cl):
                continue
            free = {lit for lit in cl if -lit not in true}
            if not free:
                return True
            if len(free) == 1:
                true |= free
                changed = True
    return False


def rup_refutes(clauses, learned) -> bool:
    """Reverse unit propagation check of a refutation (Goldberg and Novikov
    2003; the RUP part of DRAT-trim, Wetzler, Heule and Hunt 2014): each
    learned clause follows by unit propagation from the clauses and the
    learned clauses before it (assuming its literals false propagates to a
    conflict), and unit propagation over the clauses plus every learned
    clause ends in a conflict."""
    known = [list(cl) for cl in clauses]
    for cl in learned:
        if not _propagates_to_conflict(known, [-lit for lit in cl]):
            return False
        known.append(list(cl))
    return _propagates_to_conflict(known, [])
