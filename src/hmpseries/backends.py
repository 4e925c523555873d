"""Numeric backends: exact rational/log-linear, float64, mpmath bigfloat.

A backend supplies the scalar embedding of exact rationals and the log
function of the target domain; public operations run inside backend.ctx()
so that bigfloat precision is pinned for the whole computation.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from fractions import Fraction

from .errors import ParseError
from .loglinear import LogLinearValue


class ExactBackend:
    tag = "exact"
    is_exact = True

    def scalar(self, q):
        return Fraction(q)

    def log(self, x):
        return LogLinearValue.log_of(x)

    def ctx(self):
        return nullcontext()

    def __repr__(self):
        return "ExactBackend()"


class FloatBackend:
    """Hardware float64, or mpmath arbitrary precision when bits is given."""

    is_exact = False

    def __init__(self, bits: int | None = None):
        if bits is not None and bits < 24:
            raise ValueError("bigfloat precision must be at least 24 bits")
        self.bits = bits
        self.tag = "float64" if bits is None else f"bigfloat:{bits}"

    def scalar(self, q):
        q = Fraction(q)
        if self.bits is None:
            return q.numerator / q.denominator
        import mpmath

        return mpmath.mpf(q.numerator) / q.denominator

    def log(self, x):
        if self.bits is None:
            return math.log(x)
        import mpmath

        return mpmath.log(x)

    def ctx(self):
        if self.bits is None:
            return nullcontext()
        import mpmath

        return mpmath.workprec(self.bits)

    def __repr__(self):
        return f"FloatBackend(bits={self.bits!r})"


def _log_sum(backend, c, terms):
    """log(c) + sum w*log(x) over the (x, w) terms with w != 0, in the
    backend's scalars and in term order; call it inside backend.ctx()."""
    sc, lg = backend.scalar, backend.log
    total = lg(sc(c))
    for x, w in terms:
        if w:
            total = total + lg(sc(x)) * sc(w)
    return total


EXACT = ExactBackend()
FLOAT64 = FloatBackend()


def get_backend(tag: str):
    """Backend from a CLI tag: exact | float64 | bigfloat:BITS."""
    if tag == "exact":
        return EXACT
    if tag == "float64":
        return FLOAT64
    if tag.startswith("bigfloat:"):
        try:
            bits = int(tag.split(":", 1)[1])
        except ValueError:
            raise ParseError(f"bad backend {tag!r}") from None
        if bits < 24:
            raise ParseError(f"bad backend {tag!r}: bigfloat precision must be at least 24 bits")
        return FloatBackend(bits)
    raise ParseError(f"unknown backend {tag!r}")
