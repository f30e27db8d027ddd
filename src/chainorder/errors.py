"""Shared exception types, and the default budgets both pipelines and the CLI read."""

MAX_FACES = 5_000_000  # the default face budget
MAX_POINTS = 1 << 22  # the default point budget


class ConfigError(ValueError):
    """An argument is out of its domain: a bad tau, cut, chain part or flag."""


class BudgetError(RuntimeError):
    """A computation would exceed its configured enumeration budget."""


class InconsistentInputError(ValueError):
    """Paired data (e.g. a vertex list and an inequality system) disagree."""


def face_budget_error(budget: int, faces: int, exact: bool = True) -> BudgetError:
    """The error for a polytope past the face budget, with its ``faces``
    nonempty faces: all of them, or, not ``exact``, those found so far."""
    least = "" if exact else "at least "
    return BudgetError(f"face budget {budget} exceeded: the polytope has {least}{faces} nonempty faces")


def check_face_floor(dim: int, budget: int) -> None:
    """Refuse a polytope of dimension ``dim`` past the face budget before it is
    built: a d-polytope has at least C(d + 1, k + 1) faces of dimension k
    (Grünbaum, *Convex Polytopes*, ch. 10), so at least 2^(d+1) - 1 nonempty ones."""
    if (1 << dim + 1) - 1 > budget:
        raise face_budget_error(budget, (1 << dim + 1) - 1, exact=False)
