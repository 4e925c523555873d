"""Exception hierarchy shared across the package."""

from __future__ import annotations


class HmpSeriesError(Exception):
    """Base class for all package errors."""


class ParseError(HmpSeriesError):
    """Malformed input text or file (rationals, model/regime JSON)."""


class ValidationError(HmpSeriesError):
    """A structural constraint on model data is violated."""


class RowSumViolation(ValidationError):
    """A matrix row does not sum to its required value."""


class NegativeEntry(ValidationError):
    """An entry is negative where nonnegativity is required."""


class NotStrictlyPositive(ValidationError):
    """A matrix that must be strictly positive has a zero entry."""


class OutOfRange(ValidationError):
    """A perturbation parameter leaves the valid stochastic range."""


class SingularSystem(HmpSeriesError):
    """An exact linear solve has no unique solution."""


class OrderMismatch(HmpSeriesError):
    """Arithmetic between truncated series of different orders."""


class DomainNotClosed(HmpSeriesError):
    """An operation leaves the coefficient domain (e.g. log*log)."""


class NonpositiveConstantTerm(HmpSeriesError):
    """log of a series whose constant term is not strictly positive."""


class DepthCapExceeded(HmpSeriesError):
    """A request whose predicted cost is over entropy.COST_CAP, refused before any walk."""


class TooFewCoefficients(HmpSeriesError):
    """A coefficient table too short or too sparse for the estimator."""


class DegenerateFit(HmpSeriesError):
    """A radius extrapolation fit with no usable intercept."""


class OrderTooHigh(HmpSeriesError):
    """A request beyond the highest tabulated reference order."""
