"""Exception hierarchy shared by all crglab modules.

Every failure mode that callers are expected to handle has its own class;
generic ValueError/TypeError are reserved for plain misuse of the API.

``require_positive`` is the one check of a real parameter that must be
positive; unlike a bare ``x <= 0`` test it also refuses NaN and +-inf;
``require_increasing`` is the one check of an increasing list.
"""

from __future__ import annotations

import math
from typing import Sequence


class CrgLabError(Exception):
    """Base class for all crglab-specific errors."""


class OverflowUnrepresentable(CrgLabError, ArithmeticError):
    """Even the log-modulus of a value exceeds the binary64 range."""


class ZeroHit(CrgLabError, ArithmeticError):
    """An evaluation point coincides with a zero of the function."""


class NearZero(CrgLabError, ArithmeticError):
    """Logarithmic derivative requested too close to a zero."""


class ContourTooClose(CrgLabError, ArithmeticError):
    """Argument-principle contour passes too close to a zero."""


class NonIntegerResidue(CrgLabError, ArithmeticError):
    """Contour integral failed to converge to an integer winding count."""


class ZeroInDisk(CrgLabError):
    """A disk assumed zero-free contains (or touches) a zero."""


class NonConvergent(CrgLabError, ArithmeticError):
    """Quadrature did not stabilise under node doubling."""


class SectorViolation(CrgLabError, ValueError):
    """Sample point violates the sector distance rule."""


class BandViolation(CrgLabError, ValueError):
    """Sample angle lies outside the admissible band around the zero ray."""


class HypothesisFailure(CrgLabError):
    """A quantitative hypothesis check failed before the main computation."""


class BranchViolation(CrgLabError, ValueError):
    """Argument of z outside the (0, 2*pi) branch domain."""


class BelowThreshold(CrgLabError, ValueError):
    """Starting radius at or below the minorant threshold x0."""


class CertificateFailure(CrgLabError):
    """A constructive covering certificate failed its own audit."""


class ParseError(CrgLabError, ValueError):
    """Function-spec mini-language rejected the input."""

    def __init__(self, message: str, line: int, column: int,
                 expected: tuple[str, ...] = ()):
        self.line = line
        self.column = column
        self.expected = expected
        detail = f"{message} at line {line}, column {column}"
        if expected:
            detail += " (expected: " + ", ".join(expected) + ")"
        super().__init__(detail)


def require_positive(name: str, x: float) -> None:
    """ValueError unless x is a finite real above 0."""
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"{name} must be positive and finite, got {x}")


def require_increasing(name: str, xs: Sequence[float], at_least: int = 1) -> list[float]:
    """xs as floats; ValueError unless it holds at least ``at_least`` values,
    each above the one before."""
    out = [float(x) for x in xs]
    if len(out) < at_least or any(b <= a for a, b in zip(out, out[1:])):
        raise ValueError(f"{name} must hold at least {at_least} strictly "
                         f"increasing values, got {out}")
    return out
