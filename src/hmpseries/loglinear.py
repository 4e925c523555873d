"""Exact log-linear values: rationals plus rational multiples of prime logs.

The entropy of a distribution with rational probabilities is a finite sum
-sum(p*log(p)) whose value always has the shape q0 + sum_i q_i*log(p_i) with
rational q's and prime p's.  Logs of distinct primes are linearly independent
over the rationals, so the representation is canonical: two values are equal
as real numbers iff they agree componentwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainNotClosed

_ZERO = Fraction(0)


@lru_cache(maxsize=None)
def _factorint(n: int) -> tuple[tuple[int, int], ...]:
    from sympy import factorint

    return tuple(sorted(factorint(n).items()))


def factor_positive(q: Fraction | int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of a positive rational, as (prime, exponent) pairs."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError(f"cannot factor non-positive rational {q}")
    powers: dict[int, int] = {}
    for p, e in _factorint(q.numerator):
        powers[p] = powers.get(p, 0) + e
    for p, e in _factorint(q.denominator):
        powers[p] = powers.get(p, 0) - e
    return tuple(sorted((p, e) for p, e in powers.items() if e))


@dataclass(frozen=True)
class LogLinearValue:
    """Exact value ``rat + sum(c * log(p))`` over primes p with rational c.

    Stored canonically (primes sorted, zero coefficients dropped), so
    dataclass equality is exact real-number equality.  Closed under
    addition, subtraction, and scaling by rationals; multiplying two
    log-linear values raises DomainNotClosed.
    """

    rat: Fraction = _ZERO
    logs: tuple[tuple[int, Fraction], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "rat", Fraction(self.rat))
        object.__setattr__(
            self,
            "logs",
            tuple(sorted((int(p), Fraction(c)) for p, c in self.logs if c)),
        )

    @staticmethod
    def make(rat=_ZERO, logs: dict[int, Fraction] | None = None) -> "LogLinearValue":
        return LogLinearValue(rat, tuple((logs or {}).items()))

    @staticmethod
    def log_of(q) -> "LogLinearValue":
        """log(q) for a positive rational q, decomposed into prime logs."""
        return LogLinearValue(_ZERO, tuple((p, Fraction(e)) for p, e in factor_positive(q)))

    def log_dict(self) -> dict[int, Fraction]:
        return dict(self.logs)

    def __bool__(self) -> bool:
        return bool(self.rat) or bool(self.logs)

    def __eq__(self, other):
        if isinstance(other, LogLinearValue):
            return self.rat == other.rat and self.logs == other.logs
        if isinstance(other, (int, Fraction)):
            return not self.logs and self.rat == other
        return NotImplemented

    def __hash__(self):
        # purely rational values hash like their Fraction
        return hash(self.rat) if not self.logs else hash((self.rat, self.logs))

    def __add__(self, other):
        if isinstance(other, LogLinearValue):
            merged = self.log_dict()
            for p, c in other.logs:
                merged[p] = merged.get(p, _ZERO) + c
            return LogLinearValue.make(self.rat + other.rat, merged)
        if isinstance(other, (int, Fraction)):
            return LogLinearValue(self.rat + other, self.logs)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return LogLinearValue(-self.rat, tuple((p, -c) for p, c in self.logs))

    def __sub__(self, other):
        if isinstance(other, (LogLinearValue, int, Fraction)):
            return self + (-other if isinstance(other, LogLinearValue) else -Fraction(other))
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return (-self) + Fraction(other)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, LogLinearValue):
            raise DomainNotClosed("product of two log-linear values is not log-linear")
        if isinstance(other, (int, Fraction)):
            if not other:
                return LogLinearValue()
            return LogLinearValue(self.rat * other, tuple((p, c * other) for p, c in self.logs))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return NotImplemented

    def __float__(self) -> float:
        return float(self.rat) + math.fsum(float(c) * math.log(p) for p, c in self.logs)

    def render(self) -> str:
        """Structural text form, e.g. ``1/2·log(2) + 3/8`` or ``-4/3``."""
        parts: list[str] = []
        if self.rat or not self.logs:
            parts.append(str(self.rat))
        for p, c in self.logs:
            if c == 1:
                parts.append(f"log({p})")
            elif c == -1:
                parts.append(f"-log({p})")
            else:
                parts.append(f"{c}·log({p})")
        out = parts[0]
        for t in parts[1:]:
            out += " - " + t[1:] if t.startswith("-") else " + " + t
        return out

    def __str__(self) -> str:
        return self.render()


class _LLAccumulator:
    """Mutable accumulator for large sums of log-linear terms.

    Summing immutable LogLinearValue objects over thousands of traversal
    leaves is quadratic in the number of distinct primes; this keeps one
    dict and emits an immutable value at the end.  The engine no longer
    uses it: the exact kernels sum integers per distinct constant term.  It
    stays while the benchmark's tracer wraps add_neg_plogp (ROADMAP item 9).
    """

    __slots__ = ("rat", "logs")

    def __init__(self):
        self.rat = _ZERO
        self.logs: dict[int, Fraction] = {}

    def add_scaled_log(self, q, coeff):
        # coeff * log(q), q a positive rational
        logs = self.logs
        for p, e in factor_positive(q):
            logs[p] = logs.get(p, _ZERO) + coeff * e

    def add_neg_plogp(self, p):
        self.add_scaled_log(p, -p)

    def value(self) -> LogLinearValue:
        return LogLinearValue(self.rat, tuple(self.logs.items()))
