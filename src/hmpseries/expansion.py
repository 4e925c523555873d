"""Taylor coefficients of the entropy rate in the two perturbative regimes.

The engine runs the same shared-prefix traversal as the scalar entropies,
but with truncated power series as probabilities: in the high-SNR regime
each emission factor is the jet (delta_{x,y} + eps*t_{x,y}); in the
almost-memoryless regime each transition factor is (1/s + delta*t) and the
starting distribution is the exact stationary jet of U + delta*T.

The leaf kernels are the entropy module's, one per backend, at the jet's
order: on the exact backend the jets walk with integer coefficients over one
denominator per depth, and _JetExactDomain evaluates -p log p with an
all-integer log-tail recurrence, summed per distinct constant term, so each
depth takes one log per distinct N_0; _JetFloatDomain does the same in
floats.  _regime_tables builds the tables of both regimes, for jets here and
for the per-site polynomials and values of the multisite module.

Taylor coefficients C_n^(k) of the conditional entropies stop changing once
n reaches ceil((k+3)/2); the coefficient table records that settled value
per order, and settling_check exhibits the onset directly, recording every
window it needs in one walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .backends import EXACT
# bench/tracer.py wraps the two leaf kernels under their names in this module.
from .entropy import (
    DEFAULT_DEPTH_CAP,
    _check_depth,
    _domain,
    _JetExactDomain,
    _JetFloatDomain,
    _SumDomain,
    _traverse,
)
from .errors import OrderTooHigh, ValidationError
from .loglinear import LogLinearValue
from .model import (
    AlmostMemoryless,
    HighSnr,
    PerturbationMatrix,
    RegimeSpec,
    StochasticMatrix,
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
    n_used: tuple[int, ...]
    backend: str
    note: str = ""

    def __post_init__(self):
        if len(self.values) != len(self.n_used):
            raise ValueError("values and n_used lengths differ")

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
        xf = float(x)
        acc = 0.0
        for v in reversed(self.values[: order + 1]):
            acc = acc * xf + float(v)
        return acc


def stationary_series(t: PerturbationMatrix, order: int) -> tuple[TruncatedSeries, ...]:
    """Exact stationary jet of U + x*T: pi^(0) = u, pi^(k) = pi^(k-1) T."""
    s = t.size
    levels = [[Fraction(1, s)] * s]
    for _ in range(order):
        prev = levels[-1]
        levels.append(
            [sum(prev[i] * t.rows[i][j] for i in range(s)) for j in range(s)]
        )
    return tuple(
        TruncatedSeries([levels[k][j] for k in range(order + 1)]) for j in range(s)
    )


def _regime_tables(spec: RegimeSpec, n: int, const, lin, am_start):
    """The start vector and the per-depth emission and transition columns of
    a regime at window length n.

    const(v) is a table entry that does not move with the parameter and
    lin(a, b, i) the factor a + b*x_i of site i: the emission at site i in the
    high-SNR regime, the transition into site i in the almost-memoryless one,
    whose start vector am_start() is the stationary vector at x_0.
    """
    if isinstance(spec, HighSnr):
        s = spec.M.size
        beta0 = [const(p) for p in stationary_distribution(spec.M)]
        emit_at = [[[lin(1 if j == y else 0, spec.T.rows[j][y], i) for j in range(s)]
                    for y in range(s)] for i in range(n)]
        trans_at = [[[const(spec.M.rows[j][k]) for j in range(s)] for k in range(s)]] * (n - 1)
    else:
        s = spec.R.size
        beta0 = am_start()
        emit_at = [[[const(spec.R.rows[j][y]) for j in range(s)] for y in range(s)]] * n
        trans_at = [[[lin(Fraction(1, s), spec.T.rows[j][k], i) for j in range(s)]
                     for k in range(s)] for i in range(1, n)]
    return beta0, emit_at, trans_at


def _jet_run(spec, n, order, record, domain, backend):
    sc = backend.scalar
    beta0, emit_at, trans_at = _regime_tables(
        spec, n, lambda v: TruncatedSeries.constant(sc(v), order),
        lambda a, b, i: TruncatedSeries.linear(sc(a), sc(b), order),
        lambda: [TruncatedSeries([sc(c) for c in ser.coeffs])
                 for ser in stationary_series(spec.T, order)])
    return _traverse([beta0], emit_at, trans_at, n, record, domain)


def _increment_jets(spec, ns, order, backend, depth_cap):
    """Jets of C_n for every n in the sorted ns, from one walk at max(ns)."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    if ns[0] < 2:
        raise ValueError("conditional increments need n >= 2")
    _check_depth(ns[-1], depth_cap)
    record = {d for n in ns for d in (n - 1, n)}
    with backend.ctx():
        out = _jet_run(spec, ns[-1], order, record, _domain(backend, order), backend)
        return {n: out[n] - out[n - 1] for n in ns}


def increment_jet(spec: RegimeSpec, n: int, order: int, backend=EXACT,
                  depth_cap: int = DEFAULT_DEPTH_CAP) -> TruncatedSeries:
    """Jet of C_n = H_n - H_{n-1} in the regime parameter, to the given order."""
    return _increment_jets(spec, (n,), order, backend, depth_cap)[n]


def probability_jet_total(spec: RegimeSpec, n: int, order: int, backend=EXACT,
                          depth_cap: int = DEFAULT_DEPTH_CAP) -> TruncatedSeries:
    """Sum of all sequence-probability jets at depth n (identically 1)."""
    _check_depth(n, depth_cap)
    with backend.ctx():
        return _jet_run(spec, n, order, {n}, _SumDomain(), backend)[n]


def rate_series(spec: RegimeSpec, order: int, backend=EXACT,
                depth_cap: int = DEFAULT_DEPTH_CAP) -> CoefficientTable:
    """Entropy-rate Taylor coefficients through the given order.

    One traversal at the deepest settled window n = ceil((order+3)/2)
    yields every coefficient at once; coefficient k is already settled
    there because its own threshold is smaller.
    """
    n = settling_threshold(order)
    jet = increment_jet(spec, n, order, backend, depth_cap)
    return CoefficientTable(
        regime=regime_kind(spec),
        values=jet.coeffs,
        n_used=tuple(settling_threshold(k) for k in range(order + 1)),
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


def settling_check(spec: RegimeSpec, k: int, ns, backend=EXACT,
                   rel_tol: float = 1e-10,
                   depth_cap: int = DEFAULT_DEPTH_CAP) -> SettlingReport:
    """Order-k coefficients of C_n across window sizes, with the onset.

    A value counts as settled when it matches the value at the largest
    tested window: exact equality on the exact backend, relative tolerance
    rel_tol on floating backends.
    """
    ns = tuple(sorted(set(int(n) for n in ns)))
    if not ns:
        raise ValueError("need at least one window size")
    jets = _increment_jets(spec, ns, k, backend, depth_cap)
    values = tuple(jets[n].coeffs[k] for n in ns)
    ref = values[-1]
    if backend.is_exact:
        settled = tuple(v == ref for v in values)
    else:
        import math

        settled = tuple(
            math.isclose(float(v), float(ref), rel_tol=rel_tol, abs_tol=1e-14)
            for v in values
        )
    onset = None
    for i in range(len(ns)):
        if all(settled[i:]):
            onset = ns[i]
            break
    threshold = settling_threshold(k)
    if onset is not None and onset <= threshold:
        verdict = f"settled at N={onset} (theorem threshold {threshold})"
    elif onset is not None:
        verdict = f"settled at N={onset}, later than the threshold {threshold}"
    else:
        verdict = f"not settled within the tested windows (threshold {threshold})"
    return SettlingReport(k, threshold, ns, values, settled, onset, verdict)


def first_order_high_snr(m: StochasticMatrix, t: PerturbationMatrix, backend=EXACT):
    """Closed-form (h0, h1) for R = I + eps*T around the noiseless point.

    h0 is the bare chain rate -sum pi_i m_ij log m_ij; the linear response is
    h1 = sum_i (pi T)_i log pi_i - sum_ij F1_ij log(pi_i m_ij) with
    F1 = T^t diag(pi) M + diag(pi) M T.
    """
    HighSnr(m, t)  # validates sizes, positivity, sign pattern
    s = m.size
    pi = stationary_distribution(m)
    mt = [
        [sum(m.rows[i][b] * t.rows[b][j] for b in range(s)) for j in range(s)]
        for i in range(s)
    ]
    pit = [sum(pi[i] * t.rows[i][j] for i in range(s)) for j in range(s)]
    with backend.ctx():
        sc, lg = backend.scalar, backend.log
        h0 = lg(sc(1))  # domain-typed zero
        for i in range(s):
            for j in range(s):
                h0 = h0 - lg(sc(m.rows[i][j])) * sc(pi[i] * m.rows[i][j])
        h1 = lg(sc(1))
        for i in range(s):
            if pit[i]:
                h1 = h1 + lg(sc(pi[i])) * sc(pit[i])
        for i in range(s):
            for j in range(s):
                f1 = sum(t.rows[a][i] * pi[a] * m.rows[a][j] for a in range(s))
                f1 += pi[i] * mt[i][j]
                if f1:
                    h1 = h1 - lg(sc(pi[i] * m.rows[i][j])) * sc(f1)
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
    with backend.ctx():
        sc, lg = backend.scalar, backend.log
        h0 = lg(sc(s))
        for y in range(s):
            h0 = h0 - lg(sc(rho[y])) * sc(Fraction(rho[y], s))
        h1 = lg(sc(1))  # domain-typed zero
        for i in range(s):
            for j in range(s):
                g = Fraction(
                    sum(
                        r.rows[a][i] * t.rows[a][b] * r.rows[b][j]
                        for a in range(s)
                        for b in range(s)
                    ),
                    s,
                )
                if g:
                    f0 = Fraction(rho[i] * rho[j], s * s)
                    h1 = h1 - lg(sc(f0)) * sc(g)
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
        n_used=tuple(settling_threshold(k) for k in range(order + 1)),
        backend="exact",
        note="closed-form reference table",
    )
