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
