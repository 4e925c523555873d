"""Mixed partial derivatives of finite-window entropies per site.

Each site i of the length-n window carries its own perturbation parameter
(eps_i on the emission at site i in the high-SNR regime; delta_i on the
transition into site i, and through the stationary start for site 1, in the
almost-memoryless regime).  F_n^{kvec} is the mixed partial derivative of
F_n = H_n - H_{n-1} at the origin, equal to prod(k_i!) times the multivariate
Taylor coefficient.

The traversal is the entropy module's, over polynomials with per-variable
degree caps k_i and exponent vectors packed into integers, from the tables
of expansion._regime_tables.  Each backend keeps only the kvec coefficient
of -p log p: the exact kernel walks integers over Q_d and shares the jet
kernel's cells and finish, one log per distinct constant term N_0 of a
depth, and _MultiDomain serves the floats.  multisite_value evaluates the
same tables at the given parameters and uses the scalar kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, lcm, prod

from .backends import EXACT
from .entropy import _domain, _finish_cells, _new_cells, _traverse
from .errors import NonpositiveConstantTerm, WeightCapExceeded
from .model import (
    HighSnr,
    RegimeSpec,
    parse_rational,
    perturbed_identity,
    perturbed_uniform,
    stationary_distribution,
)
from .expansion import _regime_tables, stationary_series

WEIGHT_CAP = 4
SITE_CAP = 6


@dataclass(frozen=True)
class MultiSiteSpec:
    """A window length n and one derivative order per site."""

    n: int
    kvec: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "kvec", tuple(int(k) for k in self.kvec))
        if len(self.kvec) != self.n:
            raise ValueError(f"kvec length {len(self.kvec)} != n = {self.n}")
        if any(k < 0 for k in self.kvec):
            raise ValueError("derivative orders must be nonnegative")

    @property
    def weight(self) -> int:
        return sum(self.kvec)


@lru_cache(maxsize=256)
def _packing(caps):
    """{vector: packed form} and {packed form: |e|} over the exponent vectors
    within the caps, packed in mixed radix 2*cap + 2.  Sums of such vectors
    have no digit above 2*cap, so they pack to sums of packed forms, and
    whether a sum or difference stays within the caps is one dict lookup."""
    places = [1]
    for cap in caps:
        places.append(places[-1] * (2 * cap + 2))
    index = {e: sum(ei * w for ei, w in zip(e, places))
             for e in product(*(range(cap + 1) for cap in caps))}
    return index, {key: sum(e) for e, key in index.items()}


class MultiPoly:
    """Multivariate polynomial truncated to per-variable degree caps, with
    terms keyed by packed exponent vectors (see _packing)."""

    __slots__ = ("caps", "terms", "_weight")

    def __init__(self, caps, terms=None):
        self.caps = tuple(caps)
        index, self._weight = _packing(self.caps)
        self.terms = {index[tuple(e)]: c for e, c in (terms or {}).items()
                      if c and tuple(e) in index}

    def _with(self, terms):
        """A polynomial with these caps and packed terms, zeros dropped."""
        out = MultiPoly.__new__(MultiPoly)
        out.caps, out._weight = self.caps, self._weight
        out.terms = {e: c for e, c in terms.items() if c}
        return out

    @classmethod
    def constant(cls, c, caps):
        zeros = (0,) * len(tuple(caps))
        return cls(caps, {zeros: c})

    @classmethod
    def linear(cls, c0, var: int, c1, caps):
        caps = tuple(caps)
        zeros = (0,) * len(caps)
        e = tuple(1 if i == var else 0 for i in range(len(caps)))
        return cls(caps, {zeros: c0, e: c1})

    def constant_term(self):
        return self.terms.get(0, 0)

    def coefficient(self, exps):
        return self.terms.get(_packing(self.caps)[0].get(tuple(exps)), 0)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.caps == other.caps and self.terms == other.terms
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        vector = {key: e for e, key in _packing(self.caps)[0].items()}
        terms = {vector[key]: c for key, c in self.terms.items()}
        return f"MultiPoly(caps={self.caps}, terms={terms})"

    def _check(self, other):
        if other.caps != self.caps:
            raise ValueError("mixed degree caps")

    def __add__(self, other):
        out = dict(self.terms)
        if isinstance(other, MultiPoly):
            self._check(other)
            for e, c in other.terms.items():
                out[e] = out.get(e, 0) + c
        else:
            out[0] = out.get(0, 0) + other
        return self._with(out)

    __radd__ = __add__

    def __neg__(self):
        return self._with({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self._with({e: c * other for e, c in self.terms.items()})
        self._check(other)
        within = self._weight
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                if e in within:
                    out[e] = out.get(e, 0) + c1 * c2
        return self._with(out)

    __rmul__ = __mul__


def _log1p_part(p: MultiPoly, c0):
    """W with log(p) = log(c0) + W, via the nilpotent series for log(1 + q)."""
    q = p * (1 / c0) - 1
    total = None
    power = q
    m = 1
    bound = sum(p.caps) + 1
    while power and m <= bound:
        term = power * (Fraction((-1) ** (m + 1), m))
        total = term if total is None else total + term
        power = power * q
        m += 1
    return total if total is not None else MultiPoly(p.caps, {})


class _MultiDomain:
    """The float per-site kernel: -p log p, keeping only the kvec coefficient.

    With log(p) = log(c0) + W, a leaf adds -log(c0) * p[kvec] - [p W]_kvec.
    """

    def __init__(self, kvec, backend):
        self.kvec = tuple(kvec)
        self._log = backend.log
        self._zero = backend.log(backend.scalar(1))

    @staticmethod
    def is_zero(p):
        return not p

    def new_acc(self):
        return [self._zero]

    def add_term(self, acc, p):
        c0 = p.constant_term()
        if not c0 > 0:
            raise NonpositiveConstantTerm(
                f"sequence probability polynomial has constant term {c0!r}"
            )
        c = p.coefficient(self.kvec)
        if c:
            acc[0] = acc[0] - self._log(c0) * c
        c = (p * _log1p_part(p, c0)).coefficient(self.kvec)
        if c:
            acc[0] = acc[0] - c

    @staticmethod
    def finish(acc):
        return acc[0]


class _MultiExactDomain:
    """The exact per-site kernel, on leaves of integers N_e over Q_d.

    Euler's operator gives W = log(p / c0) as W_e = B_e / (|e| N_0^|e|), with
    B_e = |e| N_e N_0^(|e|-1) - sum_{0<f<e} N_(e-f) B_f N_0^(|e|-|f|-1).  The
    cell of a leaf's N_0 (entropy._new_cells) sums N_kvec and the numerator
    of [p W]_kvec over lcm(1..|kvec|) N_0^|kvec|.
    """

    integer = True

    def __init__(self, kvec):
        index, weight = _packing(tuple(kvec))
        self.top = index[tuple(kvec)]
        self.box = sorted((e, w) for e, w in weight.items() if e)
        self.order = sum(kvec)
        self.lcm = lcm(*range(1, self.order + 1))

    @staticmethod
    def is_zero(p):
        return not p

    new_acc = staticmethod(_new_cells)

    def add_term(self, acc, p):
        terms, weight, order = p.terms, p._weight, self.order
        n0 = terms.get(0, 0)
        if n0 <= 0:
            raise NonpositiveConstantTerm(
                f"sequence probability polynomial has constant term {Fraction(n0, acc[1])}"
            )
        pw = [n0**k for k in range(order + 1)]
        tail = [(g, c * pw[weight[g] - 1]) for g, c in terms.items() if g]
        b, num = {}, 0
        for e, w in self.box:
            v = w * terms.get(e, 0) * pw[w - 1]
            for g, c in tail:
                f = b.get(e - g)
                if f:
                    v -= c * f
            b[e] = v
            num += terms.get(self.top - e, 0) * v * (self.lcm // w) * pw[order - w]
        cell = acc[2].setdefault(n0, [0, 0])
        cell[0] += terms.get(self.top, 0)
        cell[1] += num

    def finish(self, acc):
        return _finish_cells(acc, self.lcm, (self.order,))[0]


def _check_caps(mspec: MultiSiteSpec, weight_cap: int, site_cap: int):
    if mspec.weight > weight_cap:
        raise WeightCapExceeded(
            f"total derivative weight {mspec.weight} exceeds cap {weight_cap}"
        )
    if mspec.n > site_cap:
        raise WeightCapExceeded(f"window length {mspec.n} exceeds cap {site_cap}")
    if mspec.n < 2:
        raise ValueError("per-site derivatives need n >= 2")


def multisite_derivative(mspec: MultiSiteSpec, spec: RegimeSpec, backend=EXACT,
                         weight_cap: int = WEIGHT_CAP, site_cap: int = SITE_CAP):
    """F_n^{kvec}: the mixed partial derivative of H_n - H_{n-1} at 0.

    Exact backend returns a LogLinearValue; floating backends return their
    own scalar.
    """
    _check_caps(mspec, weight_cap, site_cap)
    n, caps, sc = mspec.n, mspec.kvec, backend.scalar
    with backend.ctx():
        beta0, emit_at, trans_at = _regime_tables(
            spec, n, lambda v: MultiPoly.constant(sc(v), caps),
            lambda a, b, i: MultiPoly.linear(sc(a), i, sc(b), caps),
            lambda: [MultiPoly(caps, {(m,) + (0,) * (n - 1): sc(c)
                                      for m, c in enumerate(ser.coeffs)})
                     for ser in stationary_series(spec.T, caps[0])])
        domain = _MultiExactDomain(caps) if backend.is_exact else _MultiDomain(caps, backend)
        out = _traverse([beta0], emit_at, trans_at, n, {n - 1, n}, domain)
        return (out[n] - out[n - 1]) * prod(factorial(k) for k in mspec.kvec)


def multisite_value(spec: RegimeSpec, params, backend=EXACT,
                    site_cap: int = SITE_CAP):
    """F_n = H_n - H_{n-1} at explicit per-site parameter values.

    The window length is len(params).  No derivatives: this is the plain
    finite-system increment of the per-site model, used to exhibit the
    blocking identity numerically.
    """
    params = [parse_rational(v) for v in params]
    n = len(params)
    if n < 2:
        raise ValueError("per-site increments need n >= 2")
    if n > site_cap:
        raise WeightCapExceeded(f"window length {n} exceeds cap {site_cap}")
    check = perturbed_identity if isinstance(spec, HighSnr) else perturbed_uniform
    sites = [check(spec.T, v) for v in params]  # OutOfRange at the first bad site
    sc = backend.scalar
    with backend.ctx():
        beta0, emit_at, trans_at = _regime_tables(
            spec, n, sc, lambda a, b, i: sc(a + b * params[i]),
            lambda: [sc(x) for x in stationary_distribution(sites[0])])
        out = _traverse([beta0], emit_at, trans_at, n, {n - 1, n}, _domain(backend))
        return out[n] - out[n - 1]
