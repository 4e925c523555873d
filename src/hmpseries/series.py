"""Truncated power-series (jet) arithmetic over pluggable coefficients.

A TruncatedSeries holds coefficients c0..cK of an expansion truncated at a
fixed order K.  Arithmetic is closed over that order: operands must carry the
same K (OrderMismatch otherwise) and products drop terms beyond K.
Coefficients may be Fractions (exact), floats, mpmath floats, or
LogLinearValue on the additive side; the coefficient types themselves police
domain closure (two log-linear coefficients refuse to multiply).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import NonpositiveConstantTerm, OrderMismatch
from .loglinear import LogLinearValue


def _nnz(coeffs) -> int:
    return sum(1 for c in coeffs if c)


def _log_tail(coeffs):
    """Coefficients l_1..l_K of log(p) from p*(log p)' = p'.

    l_k = [k*p_k - sum_{j=1}^{k-1} p_j * (k-j) * l_{k-j}] / (k * p_0).
    Domain-generic: works for Fractions and floats alike.
    """
    k_max = len(coeffs) - 1
    c0 = coeffs[0]
    tail = []
    for k in range(1, k_max + 1):
        acc = k * coeffs[k]
        for j in range(1, k):
            cj = coeffs[j]
            if cj:
                acc = acc - cj * ((k - j) * tail[k - j - 1])
        tail.append(acc / (k * c0))
    return tail


def _mp_log(x):
    import mpmath

    return mpmath.log(x)


class TruncatedSeries:
    """Jet c0 + c1*x + ... + cK*x^K with arithmetic truncated at K."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("series needs at least a constant term")
        self.coeffs = coeffs

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def constant(cls, value, order: int) -> "TruncatedSeries":
        zero = value * 0
        return cls((value,) + (zero,) * order)

    @classmethod
    def linear(cls, c0, c1, order: int) -> "TruncatedSeries":
        """c0 + c1*x, truncated (the linear term drops when order == 0)."""
        if order == 0:
            return cls.constant(c0, 0)
        zero = c0 * 0
        return cls((c0, c1) + (zero,) * (order - 1))

    def __bool__(self):
        return any(self.coeffs)

    def _check(self, other: "TruncatedSeries"):
        if other.order != self.order:
            raise OrderMismatch(f"order {self.order} vs {other.order}")

    def __eq__(self, other):
        if isinstance(other, TruncatedSeries):
            return self.coeffs == other.coeffs
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return f"TruncatedSeries({list(self.coeffs)!r})"

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check(other)
            return TruncatedSeries(a + b for a, b in zip(self.coeffs, other.coeffs))
        return TruncatedSeries((self.coeffs[0] + other,) + self.coeffs[1:])

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(-c for c in self.coeffs)

    def __sub__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check(other)
            return TruncatedSeries(a - b for a, b in zip(self.coeffs, other.coeffs))
        return TruncatedSeries((self.coeffs[0] - other,) + self.coeffs[1:])

    def __rsub__(self, other):
        return (-self) + other

    def _scale(self, factor):
        return TruncatedSeries(c * factor for c in self.coeffs)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self._scale(other)
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if _nnz(a) < _nnz(b):
            a, b = b, a
        k_max = self.order
        zero = a[0] * 0 + b[0] * 0
        out = [zero] * (k_max + 1)
        for j, bj in enumerate(b):
            if not bj:
                continue
            for i in range(k_max + 1 - j):
                ai = a[i]
                if ai:
                    out[i + j] = out[i + j] + ai * bj
        return TruncatedSeries(out)

    __rmul__ = __mul__

    def evaluate(self, x) -> float:
        """Horner evaluation of the truncated polynomial, in float64."""
        xf = float(x)
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * xf + float(c)
        return acc


def log_series(p: TruncatedSeries) -> TruncatedSeries:
    """Series log of p; needs a strictly positive constant term.

    Exact input (Fraction coefficients) maps the constant term into prime
    logs and keeps every higher coefficient rational; float and mpmath
    inputs stay in their own domain.
    """
    c0 = p.coeffs[0]
    if isinstance(c0, (int, Fraction)):
        coeffs = [Fraction(c) for c in p.coeffs]
        if c0 <= 0:
            raise NonpositiveConstantTerm(f"log of series with constant term {c0}")
        tail = _log_tail(coeffs)
        return TruncatedSeries(
            [LogLinearValue.log_of(coeffs[0])] + [LogLinearValue(t) for t in tail]
        )
    if not c0 > 0:
        raise NonpositiveConstantTerm(f"log of series with constant term {c0!r}")
    lg = math.log if isinstance(c0, float) else _mp_log
    return TruncatedSeries([lg(c0)] + _log_tail(p.coeffs))


def exp_series(l: TruncatedSeries) -> TruncatedSeries:
    """Inverse of log_series: the series p with log_series(p) == l.

    Exact input must carry a pure prime-log constant term with integer
    exponents (so that exp of it is rational) and rational-only tail.
    """
    l0 = l.coeffs[0]
    if isinstance(l0, LogLinearValue):
        if l0.rat:
            raise ValueError("constant term must be a pure prime-log combination")
        c0 = Fraction(1)
        for prime, e in l0.logs:
            if e.denominator != 1:
                raise ValueError("constant term must have integer prime exponents")
            c0 *= Fraction(prime) ** e.numerator
        tail = []
        for c in l.coeffs[1:]:
            if isinstance(c, LogLinearValue):
                if c.logs:
                    raise ValueError("tail coefficients must be rational")
                tail.append(c.rat)
            else:
                tail.append(Fraction(c))
    else:
        c0 = math.exp(l0) if isinstance(l0, float) else _mp_exp(l0)
        tail = list(l.coeffs[1:])
    out = [c0]
    for k in range(1, l.order + 1):
        acc = out[0] * (k * tail[k - 1])
        for j in range(1, k):
            acc = acc + out[j] * ((k - j) * tail[k - j - 1])
        out.append(acc / k)
    return TruncatedSeries(out)


def _mp_exp(x):
    import mpmath

    return mpmath.exp(x)


def entropy_accumulate(p: TruncatedSeries, acc: TruncatedSeries) -> TruncatedSeries:
    """acc - p*log(p), with the 0*log(0) := 0 convention for identically-zero p."""
    if p.order != acc.order:
        raise OrderMismatch(f"order {p.order} vs {acc.order}")
    if not p:
        return acc
    return acc - p * log_series(p)
