"""Exception types and shared limits."""

DEFAULT_NODE_BUDGET = 10**8

# The most edges or clauses a size request builds: gen_graph and gen_cnf
# read it from n and m, build_reduction from the formula's n and m. A larger
# request is an input error, raised before anything is built.
MAX_GENERATED = 10**5


class InvalidInputError(ValueError):
    """Input violates a documented precondition or invariant."""


class GraphFormatError(InvalidInputError):
    """Malformed graph file."""


class CnfFormatError(InvalidInputError):
    """Malformed DIMACS CNF file."""


class BudgetExceededError(RuntimeError):
    """An exact search exceeded its configured node budget."""

    def __init__(self, operation: str, budget: int):
        super().__init__(f"{operation}: node budget of {budget} exceeded")
        self.operation = operation
        self.budget = budget


class NodeBudget:
    """Node counter of one exhaustive search: each expanded node is spent,
    and the first past ``total`` raises BudgetExceededError naming
    ``operation``. A ``node_budget`` bounds each exhaustive search on its
    own: one level of one block's rd search (bipartition placements, the
    vertex pairs each listed bipartition separates, and colors tried), one
    chi' search, one vertex pair's cut search (in find_rainbow_cut_exact,
    the CDCL solver's decisions plus conflicts; in the all-pairs check,
    bipartition placements)."""

    __slots__ = ("remaining", "total", "operation")

    def __init__(self, total: int, operation: str):
        self.remaining = total
        self.total = total
        self.operation = operation

    def spend(self, amount: int = 1) -> None:
        self.remaining -= amount
        if self.remaining < 0:
            raise BudgetExceededError(self.operation, self.total)


def check_cap(count: int, items: str) -> None:
    if count > MAX_GENERATED:
        raise InvalidInputError(
            f"{count} {items} requested, over the cap of {MAX_GENERATED}")
