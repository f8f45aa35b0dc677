"""Exception types shared across the package.

Every error below marks a violated precondition of a public operation, so
callers can distinguish bad inputs from genuine numerical failures.
"""
from __future__ import annotations

__all__ = [
    "VarlatError",
    "BadRange",
    "DegenerateInput",
    "EmptyInput",
    "FloatRangeExceeded",
    "InvalidBase",
    "InvalidQ",
    "KeyEstimateFailed",
    "LengthMismatch",
    "NoAdmissibleBase",
    "NonFiniteValue",
    "NonMonotoneBreakpoints",
    "NonPositiveRadius",
    "NonPositiveTime",
    "SingularPoint",
    "TooLong",
    "TruncationTooShallow",
]


class VarlatError(Exception):
    """Base class for all package-specific errors."""


class NonMonotoneBreakpoints(VarlatError):
    """Breakpoints of a piecewise-constant function must strictly increase."""


class LengthMismatch(VarlatError):
    """Paired sequences (breakpoints/values, points/weights, ...) disagree in length."""


class NonFiniteValue(VarlatError):
    """An input value is NaN or infinite."""


class EmptyInput(VarlatError):
    """An operation that needs at least one element received none."""


class NonPositiveRadius(VarlatError):
    """Averaging radii and window radii must be strictly positive."""


class NonPositiveTime(VarlatError):
    """Heat times must be strictly positive."""


class SingularPoint(VarlatError):
    """The Hilbert transform of a step function diverges at a breakpoint."""


class InvalidQ(VarlatError):
    """Variation exponents require q >= 1."""


class TooLong(VarlatError):
    """The exhaustive variation search only accepts short sequences."""


class InvalidBase(VarlatError):
    """Lacunary bases must satisfy 1 < a < inf."""


class TruncationTooShallow(VarlatError):
    """The truncated lacunary tail would pollute an evaluated average."""


class NoAdmissibleBase(VarlatError):
    """No candidate base certifies a usable key oscillation constant."""


class BadRange(VarlatError):
    """An index or parameter range is empty or out of order."""


class FloatRangeExceeded(BadRange):
    """A requested scale underflows IEEE double range.

    Subclasses BadRange: an unrepresentable radius is a bad range for the
    radius-set constructor while callers that ask specifically about the
    overflow can still catch the narrower type.
    """


class KeyEstimateFailed(VarlatError):
    """The key oscillation estimate is not bounded below on the requested window."""


class DegenerateInput(VarlatError):
    """A fit or search received input with no usable spread."""
