"""Taylor coefficients of the entropy rate in the two perturbative regimes.

The jets come from the entropy module's walk, with jets as probabilities.
_regime_source describes a regime's walk in exact rationals: in the
high-SNR regime each emission matrix is I + eps*T; in the almost-memoryless
regime each transition matrix is U + delta*T and the start is the exact
stationary jet of U + delta*T.  _jet_walk describes one walk that asks for
C_n of each window, with every order of the jet as a target, and
entropy._execute prices and runs it with the backend's leaf kernel,
_JetExactDomain or _JetFloatDomain, and returns each C_n as a list of
per-order values, wrapped here in a TruncatedSeries.  The multisite module
walks the same regime source with one variable per site.

Taylor coefficients C_n^(k) of the conditional entropies stop changing once
n reaches ceil((k+3)/2); the coefficient table records that settled value
per order, and settling_check exhibits the onset directly, recording every
window it needs in one walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import index

from .backends import EXACT, _log_sum
# bench/tracer.py wraps the two leaf kernels under their names in this module.
from .entropy import _execute, _JetExactDomain, _JetFloatDomain, _Walk  # noqa: F401
from .errors import OrderTooHigh, ValidationError
from .loglinear import LogLinearValue
from .model import (
    AlmostMemoryless,
    HighSnr,
    PerturbationMatrix,
    RegimeSpec,
    StochasticMatrix,
    _matmul,
    parse_rational,
    regime_kind,
    stationary_distribution,
)
from .series import TruncatedSeries

HIGH_SNR_NOTE = (
    "formal series: treats the entropy rate as analytic near 0, "
    "which is assumed rather than certified in this regime"
)


def settling_threshold(k: int) -> int:
    """The window length ceil((k+3)/2) past which order-k coefficients settle."""
    return (k + 4) // 2


@dataclass(frozen=True)
class CoefficientTable:
    """Entropy-rate Taylor coefficients c_0..c_K with their window sizes."""

    regime: str
    values: tuple
    backend: str
    note: str = ""

    @property
    def n_used(self) -> tuple[int, ...]:
        """Each order k's window, settling_threshold(k): by the theorem, C_n's
        order-k coefficient is the rate's from there on."""
        return tuple(settling_threshold(k) for k in range(len(self.values)))

    @property
    def order(self) -> int:
        return len(self.values) - 1

    def value_floats(self) -> tuple[float, ...]:
        return tuple(float(v) for v in self.values)

    def partial_sum(self, x, order: int | None = None) -> float:
        """Float partial sum through the given order (default: all of them)."""
        order = self.order if order is None else order
        if not 0 <= order <= self.order:
            raise ValueError(f"order {order} outside table range 0..{self.order}")
        return TruncatedSeries(self.values[:order + 1]).evaluate(x)


def stationary_series(t: PerturbationMatrix, order: int) -> tuple[TruncatedSeries, ...]:
    """Exact stationary jet of U + x*T: pi^(0) = u, pi^(k) = pi^(k-1) T."""
    levels = [[Fraction(1, t.size)] * t.size]
    for _ in range(order):
        levels += _matmul(levels[-1:], t.rows)
    return tuple(TruncatedSeries(col) for col in zip(*levels))


def _regime_source(spec: RegimeSpec, n: int, sites, cap: int):
    """A regime's exact walk source to depth n (entropy._integer_tables):
    site i moves variable sites[i] (the emission at site i in the high-SNR
    regime, the transition into site i in the almost-memoryless one), and
    the almost-memoryless start is the stationary jet through order cap.
    """
    s, t = spec.T.size, spec.T.rows
    if isinstance(spec, HighSnr):
        eye = [[int(j == k) for k in range(s)] for j in range(s)]
        return ([[p] for p in stationary_distribution(spec.M)],
                [(eye, t, sites[i]) for i in range(n)], [(spec.M.rows, None, 0)] * (n - 1))
    uniform = [[Fraction(1, s)] * s] * s
    return ([list(ser.coeffs) for ser in stationary_series(spec.T, cap)],
            [(spec.R.rows, None, 0)] * n, [(uniform, t, sites[i]) for i in range(1, n)])


def _jet_walk(spec, ns, order, totals=False):
    """The regime's walk of jets to the given order (entropy._Walk) that asks
    for C_n of every n of the sorted ns, or with totals for depth n's total."""
    return _Walk(spec.T.size, tuple((False, n, not totals) for n in ns),
                 lambda n: _regime_source(spec, n, [0] * n, order), order=order, totals=totals)


def _increment_jets(spec, ns, order, backend):
    """Jets of C_n for every n in the sorted ns, from one walk at max(ns)."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    if ns[0] < 2:
        raise ValueError("conditional increments need n >= 2")
    jets = _execute(_jet_walk(spec, ns, order), backend)
    return {n: TruncatedSeries(c) for n, c in zip(ns, jets)}


def increment_jet(spec: RegimeSpec, n: int, order: int, backend=EXACT) -> TruncatedSeries:
    """Jet of C_n = H_n - H_{n-1} in the regime parameter, to the given order."""
    return _increment_jets(spec, (n,), order, backend)[n]


def probability_jet_total(spec: RegimeSpec, n: int, order: int) -> TruncatedSeries:
    """Sum of all sequence-probability jets at depth n (identically 1), exact:
    the N_t sums of the exact kernel's cells at depth n, with no log taken."""
    return TruncatedSeries(_execute(_jet_walk(spec, (n,), order, totals=True), EXACT)[0])


def rate_series(spec: RegimeSpec, order: int, backend=EXACT) -> CoefficientTable:
    """Entropy-rate Taylor coefficients through the given order.

    One traversal at the deepest settled window n = ceil((order+3)/2)
    yields every coefficient at once; coefficient k is already settled
    there because its own threshold is smaller.
    """
    n = settling_threshold(order)
    jet = increment_jet(spec, n, order, backend)
    return CoefficientTable(
        regime=regime_kind(spec),
        values=jet.coeffs,
        backend=backend.tag,
        note="" if isinstance(spec, AlmostMemoryless) else HIGH_SNR_NOTE,
    )


@dataclass(frozen=True)
class SettlingReport:
    k: int
    threshold: int
    ns: tuple[int, ...]
    values: tuple
    settled: tuple[bool, ...]
    observed_onset: int | None
    verdict: str


def settling_check(spec: RegimeSpec, k: int, ns, backend=EXACT) -> SettlingReport:
    """Order-k coefficients of C_n across window sizes, with the onset.

    A value counts as settled when it matches the value at the largest
    tested window: exact equality on the exact backend; on floating
    backends, within a relative 1e-10 or an absolute 1e-14, as math.isclose
    compares.  The onset is the first window, short of the largest, from
    which every value is settled: a single window, or a last pair that
    disagrees, shows none.  The onset is later than the threshold only when
    the tested window just below it, which disagreed, is at or past the
    threshold.  Every window is at least 2, under the cost cap.
    """
    ns = tuple(sorted(set(index(n) for n in ns)))
    if not ns:
        raise ValueError("need at least one window size")
    jets = _increment_jets(spec, ns, k, backend)
    values = tuple(jets[n].coeffs[k] for n in ns)
    ref = values[-1]
    if backend.is_exact:
        settled = tuple(v == ref for v in values)
    else:
        fs = [float(v) for v in values]
        settled = tuple(math.isclose(f, fs[-1], rel_tol=1e-10, abs_tol=1e-14) for f in fs)
    i = next((i for i in range(len(ns) - 1) if all(settled[i:])), None)
    onset = None if i is None else ns[i]
    threshold = settling_threshold(k)
    if onset is None:
        verdict = f"not settled within the tested windows (threshold {threshold})"
    elif i and ns[i - 1] >= threshold:
        verdict = f"settled at N={onset}, later than the threshold {threshold}"
    else:
        verdict = f"settled at N={onset} (theorem threshold {threshold})"
    return SettlingReport(k, threshold, ns, values, settled, onset, verdict)


def first_order_high_snr(m: StochasticMatrix, t: PerturbationMatrix, backend=EXACT):
    """Closed-form (h0, h1) for R = I + eps*T around the noiseless point.

    h0 is the bare chain rate -sum pi_i m_ij log m_ij; the linear response is
    h1 = sum_i (pi T)_i log pi_i - sum_ij F1_ij log(pi_i m_ij) with
    F1 = T^t diag(pi) M + diag(pi) M T.
    """
    HighSnr(m, t)  # validates sizes, positivity, sign pattern
    pi = stationary_distribution(m)
    diag = [[p * x for x in row] for p, row in zip(pi, m.rows)]
    f1 = [[a + b for a, b in zip(*rows)]
          for rows in zip(_matmul(list(zip(*t.rows)), diag), _matmul(diag, t.rows))]
    with backend.ctx():
        h0 = _log_sum(backend, 1, [(x, -w) for row, ws in zip(m.rows, diag)
                                   for x, w in zip(row, ws)])
        h1 = _log_sum(backend, 1, [*zip(pi, _matmul([pi], t.rows)[0]),
                                   *((x, -w) for row, ws in zip(diag, f1)
                                     for x, w in zip(row, ws))])
        return h0, h1


def first_order_am(r: StochasticMatrix, t: PerturbationMatrix, backend=EXACT):
    """Closed-form (h0, h1) for M = U + delta*T around the memoryless point.

    With column sums rho_y = sum_i r_iy: h0 = log s - (1/s) sum_y rho_y log rho_y,
    and h1 = -sum_ij G_ij log F0_ij with G = (1/s) R^t T R and
    F0_ij = rho_i rho_j / s^2.
    """
    AlmostMemoryless(r, t)  # validates sizes and column sums
    s = r.size
    rho = r.column_sums()
    g = _matmul(_matmul(list(zip(*r.rows)), t.rows), r.rows)
    with backend.ctx():
        h0 = _log_sum(backend, s, [(x, -x / s) for x in rho])
        h1 = _log_sum(backend, 1, [(x * y / (s * s), -w / s)
                                   for x, ws in zip(rho, g) for y, w in zip(rho, ws)])
        return h0, h1


# Closed-form reference coefficients for the symmetric binary
# almost-memoryless family: expansion parameter delta (chain flip
# probability 1/2 - delta), channel fidelity mu = 1 - 2*eps.  Odd orders
# vanish by symmetry; each even coefficient is -pref * mu^4 * poly(mu^2).
# Independently derived; at mu = 1 the series reduces to the binary entropy
# H_b(1/2 - delta), which the test suite re-derives from scratch.
_REFERENCE_TERMS: dict[int, tuple[Fraction, tuple[int, ...]]] = {
    2: (Fraction(2), (1,)),
    4: (Fraction(4, 3), (6, -12, 7)),
    6: (Fraction(32, 15), (15, -60, 120, -120, 46)),
    8: (Fraction(32, 21), (84, -504, 1946, -4536, 5964, -4088, 1137)),
    10: (
        Fraction(512, 45),
        (45, -360, 1980, -7560, 18990, -30120, 28800, -15120, 3346),
    ),
    12: (
        Fraction(1024, 165),
        (
            330,
            -3300,
            24145,
            -135960,
            532312,
            -1400960,
            2465100,
            -2857360,
            2091100,
            -874632,
            159230,
        ),
    ),
}

REFERENCE_MAX_ORDER = 13


def am_binary_reference_series(mu, order: int = REFERENCE_MAX_ORDER) -> CoefficientTable:
    """Reference coefficient table for the symmetric binary A-M family.

    Hard-coded closed forms, valid through order 13; OrderTooHigh beyond
    that.  Serves as an engine-independent check.
    """
    mu = parse_rational(mu)
    if not 0 <= mu <= 1:
        raise ValidationError(f"mu = {mu} outside [0, 1]")
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > REFERENCE_MAX_ORDER:
        raise OrderTooHigh(
            f"reference table covers orders through {REFERENCE_MAX_ORDER}, "
            f"requested {order}"
        )
    mu2 = mu * mu
    values = [LogLinearValue() for _ in range(order + 1)]
    values[0] = LogLinearValue.log_of(2)
    for k, (pref, poly) in _REFERENCE_TERMS.items():
        if k > order:
            continue
        acc = Fraction(0)
        for a in reversed(poly):
            acc = acc * mu2 + a
        values[k] = LogLinearValue(-pref * mu2 * mu2 * acc)
    return CoefficientTable(
        regime="almost-memoryless",
        values=tuple(values),
        backend="exact",
        note="closed-form reference table",
    )
