"""Exception taxonomy: scenario errors exit 1, numerical failures exit 2."""

__all__ = ["ScenarioError", "NumericalFailure"]


class ScenarioError(Exception):
    """A scenario file or configuration is missing, malformed or inconsistent."""


class NumericalFailure(Exception):
    """A solver diagnostic tripped: stability bound, norm drift, leakage, NaN."""
