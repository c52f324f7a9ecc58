"""A small conflict-driven clause learning (CDCL) SAT solver, stdlib only.

The design is the one of GRASP (Marques-Silva and Sakallah 1999), Chaff
(Moskewicz, Madigan, Zhao, Zhang and Malik 2001) and MiniSat (Een and
Sorensson 2003): two watched literals per clause, first-UIP learning with
non-chronological backjumping, activity branching, phase saving and Luby
restarts. Everything runs in loops, so no input depth meets the recursion
limit. Each learned clause follows by unit propagation from the clauses
before it (it is RUP, Goldberg and Novikov 2003), so an optional log of them
lets an independent checker confirm an unsatisfiable answer.

Literals are DIMACS-signed ints over variables 1..variable_count; inside,
literal 2v is v and literal 2v + 1 is not v, so ``lit ^ 1`` negates.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterable

RESTART_UNIT = 100  # conflicts per Luby step
ACTIVITY_DECAY = 0.95
# a restart with more learned clauses than this keeps the shorter half of
# them; the limit then grows by 10%
LEARNED_KEPT = 2000


def _luby(i: int) -> int:
    """Term i (from 0) of the Luby sequence 1, 1, 2, 1, 1, 2, 4, 1, ..."""
    size, power = 1, 0
    while size < i + 1:
        size, power = 2 * size + 1, power + 1
    while size - 1 != i:
        size >>= 1
        power -= 1
        i %= size
    return 1 << power


def solve(clauses: Iterable[Iterable[int]], variable_count: int, spend: Callable[[], None], *,
          branch_count: int | None = None,
          learned: list[list[int]] | None = None) -> list[bool] | None:
    """Values of variables 1..variable_count (index v - 1 for variable v)
    satisfying every clause, or None when the clauses are unsatisfiable.

    Decisions go to variables 1..branch_count only (all, by default), each
    time to the unset one of highest activity, the lowest on ties, in the
    phase it last had, False at first. The search stops when those are all
    set and propagation meets no conflict; the other variables read as
    propagation left them, False where unset, so a caller passing
    branch_count must know that propagation then decides the rest. spend()
    is called once per decision and once per conflict. Each learned clause
    is appended to ``learned`` when given.
    """
    n = variable_count
    branch = n if branch_count is None else branch_count
    value = [-1] * (2 * n + 2)  # per literal: 1 true, 0 false, -1 unset
    level = [0] * (n + 1)
    reason: list[list[int] | None] = [None] * (n + 1)
    activity = [0.0] * (n + 1)
    phase = [1] * (n + 1)  # the literal offset to decide: 1 is False
    trail: list[int] = []
    limits: list[int] = []  # trail length at each decision
    watches: list[list[list[int]]] = [[] for _ in range(2 * n + 2)]
    originals: list[list[int]] = []
    learnts: list[list[int]] = []

    def assign(lit: int, why: list[int] | None) -> None:
        value[lit], value[lit ^ 1] = 1, 0
        level[lit >> 1], reason[lit >> 1] = len(limits), why
        trail.append(lit)

    def backtrack(target: int) -> None:
        """Unset every literal above decision level ``target``, saving its
        phase and offering its variable to the decision heap again."""
        if len(limits) <= target:
            return
        stop = limits[target]
        for lit in trail[stop:]:
            value[lit] = value[lit ^ 1] = -1
            v = lit >> 1
            phase[v] = lit & 1
            if v <= branch:
                heapq.heappush(heap, (-activity[v], v))
        del trail[stop:]
        del limits[target:]
        if len(heap) > 4 * branch:
            reheap()

    def satisfied(clause: list[int]) -> bool:
        return any(value[lit] == 1 for lit in clause)

    def reheap() -> None:
        """The heap of the unset branch variables alone, keyed by their
        activity now: entries of set variables and stale keys are dropped."""
        heap[:] = [(-activity[v], v) for v in range(1, branch + 1) if value[2 * v] < 0]
        heapq.heapify(heap)

    for clause in clauses:
        lits = [2 * abs(x) + (x < 0) for x in clause]
        if len(set(lits)) < len(lits):
            lits = list(dict.fromkeys(lits))  # watched once each
        if not lits:
            return None
        if len(lits) == 1:
            if value[lits[0]] == 0:
                return None
            if value[lits[0]] < 0:
                assign(lits[0], None)
        else:
            originals.append(lits)
            watches[lits[0]].append(lits)
            watches[lits[1]].append(lits)

    # (-activity, v) per branch variable; an entry goes stale when v is set,
    # and v is pushed again when unset (its activity changes only while set)
    heap = [(0.0, v) for v in range(1, branch + 1)]
    increment, seen, head = 1.0, [False] * (n + 1), 0
    conflicts, restarts, restart_at, cap = 0, 0, RESTART_UNIT, LEARNED_KEPT
    while True:
        # Propagate: each clause watches its first two literals; when one
        # turns false, find another non-false literal to watch, or the
        # clause is unit (its first literal is implied) or false.
        conflict, depth = None, len(limits)
        while head < len(trail) and conflict is None:
            false_lit = trail[head] ^ 1
            head += 1
            pending = watches[false_lit]
            watches[false_lit] = kept_watches = []
            for k, cl in enumerate(pending):
                if cl[0] == false_lit:
                    cl[0], cl[1] = cl[1], false_lit
                first = cl[0]
                if value[first] == 1:
                    kept_watches.append(cl)
                    continue
                for j in range(2, len(cl)):
                    lit = cl[j]
                    if value[lit] != 0:
                        cl[1], cl[j] = lit, false_lit
                        watches[lit].append(cl)
                        break
                else:
                    kept_watches.append(cl)
                    if value[first] == 0:
                        kept_watches.extend(pending[k + 1:])
                        conflict = cl
                        break
                    value[first], value[first ^ 1] = 1, 0  # assign(first, cl), inlined
                    level[first >> 1], reason[first >> 1] = depth, cl
                    trail.append(first)

        if conflict is not None:
            spend()
            if not limits:
                return None
            # First UIP: resolve the conflict with the reasons of the current
            # level's literals, latest first, until one literal of that level
            # is left; it is negated into position 0.
            conflicts += 1
            current = len(limits)
            learnt = [0]
            pending_here, index, cl, lit = 0, len(trail) - 1, conflict, -1
            while True:
                for q in cl if lit < 0 else cl[1:]:
                    v = q >> 1
                    if not seen[v] and level[v] > 0:
                        seen[v] = True
                        activity[v] += increment
                        if level[v] == current:
                            pending_here += 1
                        else:
                            learnt.append(q)
                while not seen[trail[index] >> 1]:
                    index -= 1
                lit = trail[index]
                index -= 1
                seen[lit >> 1] = False
                pending_here -= 1
                if pending_here == 0:
                    break
                cl = reason[lit >> 1]  # type: ignore[assignment]
            learnt[0] = lit ^ 1
            back = 0
            for j in range(1, len(learnt)):
                seen[learnt[j] >> 1] = False
                if level[learnt[j] >> 1] > back:
                    back = level[learnt[j] >> 1]
                    learnt[1], learnt[j] = learnt[j], learnt[1]
            if learned is not None:
                learned.append([-(q >> 1) if q & 1 else q >> 1 for q in learnt])
            backtrack(back)
            head = len(trail)
            if len(learnt) == 1:
                assign(learnt[0], None)
            else:
                learnts.append(learnt)
                watches[learnt[0]].append(learnt)
                watches[learnt[1]].append(learnt)
                assign(learnt[0], learnt)
            increment /= ACTIVITY_DECAY
            if increment > 1e100:
                activity[:] = [a * 1e-100 for a in activity]
                increment *= 1e-100
                reheap()
            continue

        if conflicts >= restart_at:
            restarts += 1
            restart_at = conflicts + RESTART_UNIT * _luby(restarts)
            backtrack(0)
            head = len(trail)
            if len(learnts) > cap:
                # drop the clauses satisfied for good and keep the shorter
                # half of the learned ones (older first on ties). After
                # propagation at level 0, both watched literals of a clause
                # not satisfied are unset, so they are watched again.
                originals = [cl for cl in originals if not satisfied(cl)]
                learnts = sorted((cl for cl in learnts if not satisfied(cl)), key=len)[:cap // 2]
                cap += cap // 10
                watches = [[] for _ in range(2 * n + 2)]
                for cl in originals + learnts:
                    watches[cl[0]].append(cl)
                    watches[cl[1]].append(cl)

        while heap:
            key, v = heapq.heappop(heap)
            if value[2 * v] < 0 and -key == activity[v]:
                break
        else:
            return [value[2 * v] == 1 for v in range(1, n + 1)]
        spend()
        limits.append(len(trail))
        assign(2 * v + phase[v], None)

