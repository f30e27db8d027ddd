"""Shared exception types."""


class ConfigError(ValueError):
    """An argument is out of its domain: a bad tau, cut, chain part or flag."""


class BudgetError(RuntimeError):
    """A computation would exceed its configured enumeration budget."""


class InconsistentInputError(ValueError):
    """Paired data (e.g. a vertex list and an inequality system) disagree."""
