"""Error types shared across the package."""

from __future__ import annotations

__all__ = [
    "WassdepError",
    "DegenerateMarginalError",
    "SinkhornConvergenceError",
    "DataError",
    "ExactSolverError",
]


class WassdepError(Exception):
    """Base class for errors raised by this package."""


class DegenerateMarginalError(WassdepError, ValueError):
    """A marginal is empirically constant where a positive spread is required."""


class SinkhornConvergenceError(WassdepError, RuntimeError):
    """Scaling iterations hit max_iter before the marginal tolerance, or the
    plan they return misses a marginal by more than twice that tolerance.

    Carries the marginal violation at the point it stopped (the last sweep,
    or the returned plan), and the regularization ``eps`` there, so callers
    can decide whether to retry with a looser tolerance, a larger budget or
    a larger ``eps``.
    """

    def __init__(self, message: str, achieved_violation: float, eps: float | None = None):
        super().__init__(message)
        self.achieved_violation = achieved_violation
        self.eps = eps


class DataError(WassdepError, ValueError):
    """Input data could not be parsed or fails a structural requirement."""


class ExactSolverError(WassdepError, RuntimeError):
    """The LP backend failed; must not happen on well-posed transport inputs."""
