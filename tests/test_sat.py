"""The CDCL solver behind find_rainbow_cut_exact, against exhaustive search,
with every unsatisfiable answer's learned clauses checked by RUP."""

import random

import pytest

import rainbowdisc.sat as sat_module
from rainbowdisc.errors import BudgetExceededError, NodeBudget
from rainbowdisc.sat import solve
from oracles import rup_refutes


def satisfiable_by_enumeration(clauses, n: int) -> bool:
    """Exhaustive search over the 2^n assignments at once: bit a of a
    literal's mask is set when assignment a (variable v is bit v - 1 of a)
    makes the literal true."""
    every = (1 << (1 << n)) - 1
    masks = {}
    for v in range(1, n + 1):
        masks[v] = sum(1 << a for a in range(1 << n) if a >> (v - 1) & 1)
        masks[-v] = every ^ masks[v]
    models = every
    for cl in clauses:
        satisfying = 0
        for lit in cl:
            satisfying |= masks[lit]
        models &= satisfying
    return models != 0


def random_cnf(rng: random.Random, n: int):
    """Up to 6n clauses of 0-4 literals (empty and unit clauses included, a
    variable possibly repeated in a clause)."""
    lengths = [0] + [1] * 3 + [2] * 10 + [3] * 30 + [4] * 10
    return [[rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.choice(lengths))]
            for _ in range(rng.randint(0, 6 * n))]


def unlimited():
    pass


def check_answer(clauses, n: int) -> bool:
    learned = []
    model = solve(clauses, n, unlimited, learned=learned)
    assert (model is not None) == satisfiable_by_enumeration(clauses, n)
    if model is None:
        assert rup_refutes(clauses, learned)
        return False
    assert len(model) == n
    assert all(any(model[abs(lit) - 1] == (lit > 0) for lit in cl) for cl in clauses)
    return True


def test_agrees_with_exhaustive_search():
    rng = random.Random(3)
    answers = []
    for _ in range(300):
        n = rng.randint(1, 12)
        clauses = random_cnf(rng, n)
        answers.append(check_answer(clauses, n))
    # both answers are exercised
    assert 50 < sum(answers) < 250


def test_restarts_reduction_and_rescaling(monkeypatch):
    # a restart after every conflict, few learned clauses kept and the
    # activities rescaled every few conflicts, on formulas near the 3-SAT
    # threshold that need many conflicts
    monkeypatch.setattr(sat_module, "RESTART_UNIT", 1)
    monkeypatch.setattr(sat_module, "LEARNED_KEPT", 4)
    monkeypatch.setattr(sat_module, "ACTIVITY_DECAY", 1e-30)
    rng = random.Random(5)
    for _ in range(20):
        n = 12
        clauses = [[rng.choice((1, -1)) * v for v in rng.sample(range(1, n + 1), 3)]
                   for _ in range(51)]
        check_answer(clauses, n)


def test_same_input_same_model():
    rng = random.Random(7)
    for _ in range(30):
        n = 12
        clauses = [[rng.choice((1, -1)) * v for v in rng.sample(range(1, n + 1), 3)]
                   for _ in range(40)]
        first, second = [], []
        assert solve(clauses, n, unlimited, learned=first) == solve(
            clauses, n, unlimited, learned=second)
        assert first == second


def test_first_phase_is_false():
    # no clause forces anything: every variable is decided False
    assert solve([[1, 2], [-1, -2]], 3, unlimited) == [False, True, False]
    assert solve([], 2, unlimited) == [False, False]


def test_branch_count_leaves_the_rest_to_propagation():
    # variable 3 follows 1 by propagation and is never decided; variable 4
    # is free and stays False
    assert solve([[-1, 3], [1, 2]], 4, unlimited, branch_count=2) == [False, True, False, False]


def test_budget_counts_decisions_and_conflicts():
    # the pigeonhole formula of 3 pigeons in 2 holes needs decisions and
    # conflicts; no decision and no conflict spends nothing
    pigeons = [[2 * p + 1, 2 * p + 2] for p in range(3)]
    holes = [[-(2 * p + h), -(2 * q + h)] for h in (1, 2)
             for p in range(3) for q in range(p + 1, 3)]
    learned = []
    assert solve(pigeons + holes, 6, unlimited, learned=learned) is None
    assert rup_refutes(pigeons + holes, learned)
    with pytest.raises(BudgetExceededError):
        solve(pigeons + holes, 6, NodeBudget(2, "sat").spend)
    assert solve([[1], [-1, 2]], 2, NodeBudget(0, "sat").spend) == [True, True]
    assert solve([[1], [-1]], 1, NodeBudget(0, "sat").spend) is None


def test_rup_check_rejects_a_clause_that_does_not_follow():
    clauses = [[1, 2], [-1, 2], [1, -2], [-1, -2]]
    assert rup_refutes(clauses, [[2]])
    assert not rup_refutes(clauses, [[3]])
    assert not rup_refutes(clauses[:3], [[2]])


def test_luby_sequence():
    assert [sat_module._luby(i) for i in range(15)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1,
                                                        2, 4, 8]
