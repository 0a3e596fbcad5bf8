"""Exception types shared across the package."""

__all__ = ["DirnormalError", "DimensionError", "NonFiniteError", "NotPositiveDefiniteError",
           "NoConvergenceError", "DegenerateNullError", "InvalidScenarioError", "ParseError", "SettingError"]


class DirnormalError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(DirnormalError):
    """Input shapes are inconsistent or too small for the requested fit."""


class NonFiniteError(DirnormalError):
    """Input data contain NaN or infinite entries."""


class NotPositiveDefiniteError(DirnormalError):
    """A matrix required to be symmetric positive definite is not."""


class NoConvergenceError(DirnormalError):
    """An iterative routine exhausted its iteration budget."""


class DegenerateNullError(DirnormalError):
    """The observed data sit exactly at the null expectation."""


class InvalidScenarioError(DirnormalError):
    """Simulation scenario parameters do not define a valid model."""


class ParseError(DirnormalError):
    """A data file could not be parsed."""


class SettingError(DirnormalError):
    """An environment variable holds a value the package cannot use."""
