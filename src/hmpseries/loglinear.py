"""Exact log-linear values: rationals plus rational multiples of logs of integers.

The entropy of a distribution with rational probabilities is a finite sum
-sum(p*log(p)) whose value always has the shape q0 + sum_b q_b*log(b) with
rational q's and integer bases b > 1.  A LogLinearValue holds the q_b as
integer numerators over one shared denominator, in two flat tuples: the
sorted bases and their numerators, with no tuple per term; a negated or
rationally scaled value shares its operand's bases.  It keeps its bases
pairwise coprime, and none is a perfect power.  Logs of pairwise coprime
integers > 1 are linearly independent over the rationals, so a value is
zero iff all its parts are, and equality is exact real-number equality.

The bases come from splitting, not from full factorisation (_bases): one
gcd against the product of the primes below 2^10, a cofactor below 2^20 or
proved before taken as prime (_known_prime), and only a larger one through
the splitter (_split, cached per cofactor): a strong probable-prime test on
the fewest prime bases that prove it (_PSI), and Pollard-Brent rho within
RHO_STEPS steps.  A cofactor it cannot split stays one composite base.
Where the bases of two values share a factor, the constructor refines
them into one pairwise coprime base, as in Bernstein, "Factoring into
coprimes in essentially linear time" (J. Algorithms 54, 2005).  So every
base is a prime whenever the splitter finds all factors, and render()
shows a composite log(N) only for a large cofactor N that it could not
split.  Such a form is not unique: one value
may hold log(N) where an equal one holds the logs of N's factors.  Equality
is decided over the common refinement of both bases, so it stays exact, and
the hash reads only what every coprime base of a value agrees on.

factor_positive is full prime factorisation with sympy, kept as public API.
"""

from __future__ import annotations

import math
from bisect import bisect_right
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


def _primes_below(n: int) -> list[int]:
    """The primes below n, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return [p for p in range(2, n) if sieve[p]]


_SMALL = 1 << 10
_SMALL_PRIMES = _primes_below(_SMALL)
_PRIMORIAL = math.prod(_SMALL_PRIMES)
# A strong probable prime to the first k primes is prime below _PSI[k - 1],
# the least strong pseudoprime to them (OEIS A014233: Jaeschke, Math. Comp.
# 61, 1993; Jiang and Deng, Math. Comp. 83, 2014; Sorenson and Webster,
# Math. Comp. 86, 2017).  Above _MR_PROVEN the test proves nothing, and such
# an integer stays one base without being recorded as prime.
_MR_BASES = tuple(_SMALL_PRIMES[:13])
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
        3825123056546413051, 318665857834031151167461, 3317044064679887385961981)
_MR_PROVEN = _PSI[-1]
# Squarings that Pollard-Brent rho spends on one cofactor before keeping it
# as a base.  Rho finds a prime factor p after about sqrt(p) squarings, so
# this finds most factors below about 2^18; the cofactors it leaves are
# products of larger primes, which only the gcds of the refinement split.
RHO_STEPS = 1 << 10
_RHO_BATCH = 32
# Integers proved prime so far.  A value whose bases all lie here is already
# normalised, which one set lookup decides.
_PRIMES = set(_SMALL_PRIMES)
# The modulus of the hash of the multiplicative invariant (__hash__).
_HASH_PRIME = (1 << 61) - 1


def _sprp(n: int) -> bool:
    """Whether the odd n > 41 is a strong probable prime to the first bases of
    _MR_BASES, as many as prove n prime (_PSI), or all of them from _MR_PROVEN."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES[:bisect_right(_PSI, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _known_prime(m: int) -> bool:
    """Whether m > 1, free of primes below 2^10, is prime by its size alone
    or was proved before; records it."""
    if m < _SMALL * _SMALL:
        _PRIMES.add(m)
    return m in _PRIMES


def _proved_prime(m: int) -> bool:
    """Whether m > 1, free of primes below 2^10, is proved prime; records it."""
    if _known_prime(m):
        return True
    if m < _MR_PROVEN and _sprp(m):
        _PRIMES.add(m)
        return True
    return False


def _root(n: int) -> tuple[int, int]:
    """(r, k) with n = r^k and r not a perfect power.

    n > 1 has no prime factor below 2^10, so r^q <= n only for q below
    n.bit_length() / 10.
    """
    k = 1
    for q in _SMALL_PRIMES:
        if 10 * q > n.bit_length():
            return n, k
        while True:
            r = _iroot(n, q)
            if r**q != n:
                break
            n, k = r, k * q
    return n, k


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _rho(n: int) -> int | None:
    """A proper factor of the odd composite n, or None after RHO_STEPS squarings.

    Brent's cycle search on y -> y^2 + c, with the differences multiplied
    in batches of _RHO_BATCH between gcds; a batch that overshoots to the
    gcd n is replayed one step at a time, and then c moves on.
    """
    budget, c = RHO_STEPS, 1
    while budget >= 2:
        y, r, q, g = 2, 1, 1, 1
        while g == 1 and budget >= 2 * r:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            budget -= 2 * r
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if 1 < g < n:
            return g
        c += 1
    return None


def _bases(n: int) -> list[tuple[int, int]]:
    """n > 1 as sorted (base, exponent) pairs over pairwise coprime bases.

    The primes below 2^10 come from one gcd with their product.  A cofactor
    below 2^20, or one proved before, is prime (_known_prime); only a larger
    one goes to the splitter (_split, cached per cofactor).
    """
    fac, g = [], math.gcd(n, _PRIMORIAL)
    for p in _SMALL_PRIMES:
        if g == 1:
            break
        if not g % p:
            g //= p
            e = 0
            while not n % p:
                n //= p
                e += 1
            fac.append((p, e))
    if n == 1:
        return fac
    return fac + ([(n, 1)] if _known_prime(n) else list(_split(n)))


@lru_cache(maxsize=None)
def _split(m: int) -> tuple[tuple[int, int], ...]:
    """The splitter: any m > 1 free of primes below 2^10, as sorted (base,
    exponent) pairs over pairwise coprime bases.

    m and each cofactor found are proved prime, or split by rho, or kept: as
    a perfect power's root, or as itself when rho fails or it is a strong
    probable prime too large to prove.  The bases kept are refined against
    each other and against the primes found (_refine).
    """
    primes: dict[int, int] = {}
    kept: dict[int, int] = {}
    todo = [(m, 1)]
    while todo:
        m, e = todo.pop()
        if _proved_prime(m):
            primes[m] = primes.get(m, 0) + e
            continue
        d = None if m >= _MR_PROVEN and _sprp(m) else _rho(m)
        if d:
            todo += [(d, e), (m // d, e)]
            continue
        r, k = _root(m)
        if k > 1:
            todo.append((r, e * k))
        else:
            kept[m] = kept.get(m, 0) + e
    return tuple(sorted(_refine(primes, kept).items()))


def _refine(primes: dict, kept: dict) -> dict:
    """primes, {proved prime: coefficient}, and kept, {base: coefficient} over
    bases free of primes below 2^10, merged over one pairwise coprime base.

    A kept base coprime to every other base stays as it is; the others, with
    the primes that divide them, go through _coprime_base.
    """
    if not kept:
        return primes
    whole = math.prod(kept)
    shared = [p for p in primes if not whole % p]
    whole *= math.prod(shared)
    tangled = [a for a in [*kept, *shared] if math.gcd(a, whole // a) > 1]
    base = _coprime_base(tangled)
    tangled = set(tangled)
    for q, c in kept.items():
        for b in base if q in tangled else (q,):
            e, rest = 0, q
            while not rest % b:
                rest //= b
                e += 1
            if e:
                primes[b] = primes.get(b, 0) + c * e
    return primes


def _coprime_base(elems: list[int]) -> list[int]:
    """Pairwise coprime integers > 1, none a perfect power, whose powers
    multiply to each of elems (integers > 1 free of primes below 2^10).

    Any two elements a, b with g = gcd(a, b) > 1 are replaced by g, a/g and
    b/g until none are left; each step divides the product of all elements
    by g, so it ends.  Then each element becomes its root, and proved primes
    are recorded.
    """
    base, todo = [], list(elems)
    while todo:
        a = todo.pop()
        for i, b in enumerate(base):
            g = math.gcd(a, b)
            if g > 1:
                del base[i]
                todo += [x for x in (g, a // g, b // g) if x > 1]
                break
        else:
            base.append(a)
    base = [_root(b)[0] for b in base]
    for b in base:
        _proved_prime(b)
    return base


def _normalise(logs: dict[int, int], split=_bases) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """{base: integer coefficient} over one pairwise coprime base of integers
    > 1 that are not perfect powers, as the sorted bases with a nonzero
    coefficient and their coefficients, two tuples of the same length.

    split takes each base not proved prime; the splitter (_split) suffices
    where every base is a prime or free of primes below 2^10, as the bases
    of values and of a depth's log ratios are."""
    if not _PRIMES.issuperset(logs):
        primes: dict[int, int] = {}
        kept: dict[int, int] = {}
        for b, c in logs.items():
            for q, e in ((b, 1),) if b in _PRIMES else split(b):
                dest = primes if q in _PRIMES else kept
                dest[q] = dest.get(q, 0) + c * e
        logs = _refine(primes, kept)
    bases = tuple(sorted(b for b, c in logs.items() if c))
    return bases, tuple(map(logs.__getitem__, bases))


@dataclass(frozen=True, init=False, repr=False, eq=False)
class LogLinearValue:
    """Exact value ``rat + sum(n * log(b)) / den`` with integer n over integer bases b.

    bases holds the b sorted and nums their nonzero n, two flat tuples of
    one length, with den > 0, gcd(den, *nums) == 1 and den == 1 without
    logs; no tuple per term is kept, and negation and rational scaling share
    their operand's bases tuple.  .terms gives the sorted (b, n) pairs and
    .logs the (b, Fraction) pairs, as the constructor takes.  The
    constructor merges repeated bases, drops zero coefficients and log(1),
    and rewrites the bases as pairwise coprime integers > 1, none a perfect
    power: primes, except where the splitter left a composite cofactor (see
    the module docstring).  Equality is exact real-number equality, and the
    hash agrees with it.  Closed under addition, subtraction, and scaling by
    rationals, each one lcm or gcd over integers; multiplying two log-linear
    values raises DomainNotClosed.
    """

    rat: Fraction
    den: int
    bases: tuple[int, ...]
    nums: tuple[int, ...]

    def __new__(cls, rat=_ZERO, logs=()):
        merged: dict[int, Fraction] = {}
        for b, c in logs:
            b = int(b)
            if b < 1:
                raise ValueError(f"log base must be a positive integer, got {b}")
            if b > 1 and c:
                merged[b] = merged.get(b, 0) + Fraction(c)
        den = math.lcm(*(c.denominator for c in merged.values()))
        nums = {b: c.numerator * (den // c.denominator) for b, c in merged.items()}
        return LogLinearValue._of(Fraction(rat), den, *_normalise(nums))

    @staticmethod
    def _of(rat: Fraction, den: int, bases, nums) -> "LogLinearValue":
        """rat + sum(n * log(b)) / den, den > 0, bases and nums as _normalise
        gives them; in lowest terms."""
        g = math.gcd(den, *nums)
        if g > 1:
            den, nums = den // g, tuple(n // g for n in nums)
        v = object.__new__(LogLinearValue)
        v.__dict__.update(rat=rat, den=den, bases=bases, nums=nums)
        return v

    @staticmethod
    def make(rat=_ZERO, logs: dict[int, Fraction] | None = None) -> "LogLinearValue":
        return LogLinearValue(rat, tuple((logs or {}).items()))

    @staticmethod
    def log_of(q) -> "LogLinearValue":
        """log(q) for a positive rational q, over the splitter's bases."""
        q = Fraction(q)
        if q <= 0:
            raise ValueError(f"cannot take the log of non-positive rational {q}")
        return LogLinearValue(_ZERO, ((q.numerator, 1), (q.denominator, -1)))

    @property
    def terms(self) -> tuple[tuple[int, int], ...]:
        """The sorted (base, numerator) pairs."""
        return tuple(zip(self.bases, self.nums))

    @property
    def logs(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple((b, Fraction(n, self.den)) for b, n in zip(self.bases, self.nums))

    def log_dict(self) -> dict[int, Fraction]:
        return dict(self.logs)

    def __repr__(self) -> str:
        return f"LogLinearValue(rat={self.rat!r}, logs={self.logs!r})"

    def __bool__(self) -> bool:
        return bool(self.rat) or bool(self.nums)

    def __eq__(self, other):
        if isinstance(other, LogLinearValue):
            # Equal values may hold different coprime bases (log(N) in one,
            # the logs of N's factors in the other); their difference is
            # normalised over a common one, where zero means no terms.
            return self.rat == other.rat and (
                (self.den, self.bases, self.nums) == (other.den, other.bases, other.nums)
                or not (self - other).nums)
        if isinstance(other, (int, Fraction)):
            return not self.nums and self.rat == other
        return NotImplemented

    def __hash__(self):
        # Purely rational values hash like their Fraction.  Otherwise the hash
        # reads X = prod b^(n/den) through what every coprime base agrees on:
        # the least D with X^D rational, den as no base is a perfect power,
        # and X^den modulo a prime, unless a base is a multiple of it.
        if not self.nums:
            return hash(self.rat)
        residue = 1
        for b, n in zip(self.bases, self.nums):
            if not b % _HASH_PRIME:
                residue = None
                break
            residue = residue * pow(b, n % (_HASH_PRIME - 1), _HASH_PRIME) % _HASH_PRIME
        return hash((self.rat, self.den, residue))

    def _plus(self, other, sign: int):
        """self + sign * other, over the lcm of the two denominators."""
        if isinstance(other, (int, Fraction)):
            return LogLinearValue._of(self.rat + sign * other, self.den, self.bases, self.nums)
        if not isinstance(other, LogLinearValue):
            return NotImplemented
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        merged = {p: n * a for p, n in zip(self.bases, self.nums)}
        for p, n in zip(other.bases, other.nums):
            merged[p] = merged.get(p, 0) + n * b
        return LogLinearValue._of(self.rat + sign * other.rat, den, *_normalise(merged, _split))

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self)._plus(other, 1)

    def __neg__(self):
        return LogLinearValue._of(-self.rat, self.den, self.bases, tuple(-n for n in self.nums))

    def __mul__(self, other):
        if isinstance(other, LogLinearValue):
            raise DomainNotClosed("product of two log-linear values is not log-linear")
        if isinstance(other, (int, Fraction)):
            if not other:
                return LogLinearValue()
            a = other.numerator
            return LogLinearValue._of(self.rat * other, self.den * other.denominator,
                                      self.bases, tuple(n * a for n in self.nums))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return NotImplemented

    def __float__(self) -> float:
        # n / den rounds once, as float(Fraction(n, den)) does
        return float(self.rat) + math.fsum(n / self.den * math.log(p)
                                           for p, n in zip(self.bases, self.nums))

    def render(self) -> str:
        """Structural text form, e.g. ``1/2·log(2) + 3/8`` or ``-4/3``.

        A base is shown as it is held: a prime, or a composite cofactor that
        the splitter could not split.
        """
        parts: list[str] = []
        if self.rat or not self.nums:
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
    uses it: the exact kernels sum integers per distinct constant term.  The
    benchmark's tracer wraps add_neg_plogp for its loglinear.scalar_leaf
    metrics; ROADMAP item 1 drops them, and item 8 deletes this class.
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
