"""Exact and floating entropies of finite observation windows.

Everything here reduces to one shared-prefix traversal of the observation
tree.  The state carried down the tree is the row vector
beta_d(j) = P([Y]_1^d, X_{d+1} = j); extending by a symbol y multiplies by
the emission column for y (giving the pre-transition vector gamma, whose sum
is the sequence probability) and then by the transition matrix.  Starting
from beta_0 = pi is valid uniformly because pi M = pi.  Subtrees with
identically zero probability are pruned, which is exactly the 0*log(0)
convention.

The traversal is generic over an accumulation domain.  Each backend has
one -p log p kernel, which treats a scalar as an order-0 jet: _JetExactDomain
and _JetFloatDomain serve the window entropies here and the jets of the
expansion module alike (_domain picks one).  The multisite module adds one
kernel per backend that keeps a single mixed coefficient, and _SumDomain
only adds up probabilities.  _traverse drives all of them.

Exact scalars, jets and per-site polynomials walk on Python integers, from
the tables of _integer_tables.  Each table (start vector, emission columns,
transition columns) is scaled once by the lcm of its denominators, D_start,
D_R and D_M, so a node at depth d carries integer numerators over
Q_d = D_start * D_R^d * D_M^(d-1) (per-site tables multiply the factors of
each depth).  The exact kernels divide by Q_d only when they finish.

The window entropies of a list of n come from _windows: one plain walk to the
largest n and, for c_n, one run per start state, each recording n - 1 and n
of every listed n.  finite_entropy and lower_bound record only what they report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .backends import EXACT, FLOAT64
from .errors import DepthCapExceeded, NonpositiveConstantTerm, ZeroMarginal
from .loglinear import _LLAccumulator, LogLinearValue, factor_positive
from .model import HmpModel
from .series import TruncatedSeries, _log_tail

DEFAULT_DEPTH_CAP = 14


def _check_depth(n: int, depth_cap: int, lower_from=None):
    if n < 1:
        raise ValueError(f"window length must be positive, got {n}")
    if n > depth_cap:
        raise DepthCapExceeded(f"depth {n} exceeds the cap {depth_cap}")
    if lower_from is not None and n < lower_from:
        raise ValueError("the conditional lower bound needs n >= 2")


def _walk(beta, emit_cols_at, trans_cols_at, depth, n, sums, domain):
    """One traversal layer; emit/trans column tables are indexed by depth."""
    cols = emit_cols_at[depth]
    last = depth + 1 == n
    acc = sums.get(depth + 1)
    tcols = None if last else trans_cols_at[depth]
    for col in cols:
        gamma = [bj * cj for bj, cj in zip(beta, col)]
        p = gamma[0]
        for g in gamma[1:]:
            p = p + g
        if domain.is_zero(p):
            continue
        if acc is not None:
            domain.add_term(acc, p)
        if not last:
            nxt = []
            for tc in tcols:
                t = gamma[0] * tc[0]
                for gj, mj in zip(gamma[1:], tc[1:]):
                    t = t + gj * mj
                nxt.append(t)
            _walk(nxt, emit_cols_at, trans_cols_at, depth + 1, n, sums, domain)


class _ExactCells:
    """Per-order sums of one depth, over that depth's denominator q."""

    __slots__ = ("q", "q_primes", "cells")

    def __init__(self, q_primes, order):
        self.q = math.prod(p**e for p, e in q_primes)
        self.q_primes = q_primes
        self.cells = [_LLAccumulator() for _ in range(order + 1)]


class _JetExactDomain:
    """The exact -p log p kernel for jets of any order; a scalar is order 0.

    A leaf at depth d carries integer numerators N_0..N_K over Q_d.  The log
    tail is l_k = b_k / (k N_0^k) with the integer recurrence
    b_k = k N_k N_0^(k-1) - sum_{0<j<k} N_j b_{k-j} N_0^(j-1), so each order
    costs one Fraction per leaf; prime-log coefficients stay integers until
    finish divides them by Q_d.
    """

    integer = True

    def __init__(self, order: int, scalar: bool = False):
        self.order, self.scalar = order, scalar
        self.lcm = math.lcm(*range(1, order + 1))

    @staticmethod
    def is_zero(p):
        return not p if isinstance(p, int) else p.is_zero()

    def new_acc(self, q_primes):
        return _ExactCells(q_primes, self.order)

    def add_term(self, acc, p):
        coeffs = (p,) if isinstance(p, int) else p.coeffs
        n0 = coeffs[0]
        if n0 <= 0:
            raise NonpositiveConstantTerm(
                f"sequence probability jet has constant term {Fraction(n0, acc.q)}"
            )
        fac = _log_ratio(n0, acc.q_primes)
        for nk, cell in zip(coeffs, acc.cells):
            if nk:
                for prime, e in fac:
                    cell.logs[prime] = cell.logs.get(prime, 0) - nk * e
        pw = [1]
        for _ in range(len(coeffs) - 1):
            pw.append(pw[-1] * n0)
        b, lam = [0], [0]  # lam_m = lcm * N_0^m * l_m
        for k in range(1, len(coeffs)):
            b.append(k * coeffs[k] * pw[k - 1]
                     - sum(coeffs[j] * b[k - j] * pw[j - 1] for j in range(1, k)))
            lam.append(b[k] * (self.lcm // k))
            num = sum(coeffs[k - m] * lam[m] * pw[k - m] for m in range(1, k + 1))
            if num:
                acc.cells[k].rat += Fraction(num, self.lcm * pw[k])

    def finish(self, acc):
        q = acc.q
        values = [
            LogLinearValue(-c.rat / q, tuple((p, Fraction(v, q)) for p, v in c.logs.items()))
            for c in acc.cells
        ]
        return values[0] if self.scalar else TruncatedSeries(values)


def _log_ratio(n0, q_primes):
    """log(n0 / Q) as (prime, exponent) pairs; Q's primes leave n0 first."""
    fac, rest = [], n0
    for prime, v in q_primes:
        e = 0
        while not rest % prime:
            rest //= prime
            e += 1
        if e != v:
            fac.append((prime, e - v))
    if rest > 1:
        fac.extend(factor_positive(rest))
    return fac


def _integer_tables(starts, emit_at, trans_at, n, record):
    """The tables scaled to integers, and the primes of Q_d at each recorded depth.

    Each distinct table is scaled once by the lcm of its denominators;
    Q_d is the product of the scale factors of the tables used to reach
    depth d: the start vector, d emission and d - 1 transition tables.
    """
    scaled = {}
    for rows in [starts, *emit_at, *trans_at]:
        if id(rows) not in scaled:
            d = math.lcm(*(c.denominator for row in rows for x in row for c in _coeffs(x)))
            scaled[id(rows)] = [[_times(x, d) for x in row] for row in rows], d
    q_primes, primes_at = {}, {}

    def absorb(rows):
        for p, e in factor_positive(scaled[id(rows)][1]):
            q_primes[p] = q_primes.get(p, 0) + e

    absorb(starts)
    for depth in range(1, n + 1):
        if depth > 1:
            absorb(trans_at[depth - 2])
        absorb(emit_at[depth - 1])
        if depth in record:
            primes_at[depth] = tuple(q_primes.items())
    return (scaled[id(starts)][0], [scaled[id(c)][0] for c in emit_at],
            [scaled[id(c)][0] for c in trans_at], primes_at)


def _coeffs(x):
    """The rational coefficients of an exact scalar, jet or per-site polynomial."""
    return x.terms.values() if hasattr(x, "terms") else getattr(x, "coeffs", (x,))


def _times(x, d):
    """Exact scalar, jet or per-site polynomial x times d, as integers."""
    if isinstance(x, TruncatedSeries):
        return TruncatedSeries([_times(c, d) for c in x.coeffs])
    if hasattr(x, "terms"):
        return x._with({e: _times(c, d) for e, c in x.terms.items()})
    return x.numerator * (d // x.denominator)


class _JetFloatDomain:
    """The float -p log p kernel for jets of any order; a scalar is order 0.

    The order-0 step is one log and one multiply; only jets of order >= 1
    compute the log tail.
    """

    def __init__(self, order: int, log, scalar: bool = False):
        self.order, self.scalar = order, scalar
        self._log = log

    @staticmethod
    def is_zero(p):
        return p.is_zero() if isinstance(p, TruncatedSeries) else not p

    def new_acc(self):
        return [0] * (self.order + 1)

    def add_term(self, cells, p):
        c0 = p if self.scalar else p.coeffs[0]
        if not c0 > 0:
            raise NonpositiveConstantTerm(
                f"sequence probability jet has constant term {c0!r}"
            )
        lg0 = self._log(c0)
        cells[0] = cells[0] - c0 * lg0
        if self.order:
            coeffs = p.coeffs
            tail = _log_tail(coeffs)
            for k in range(1, len(cells)):
                term = coeffs[k] * lg0
                for m in range(1, k + 1):
                    pj = coeffs[k - m]
                    if pj:
                        term = term + pj * tail[m - 1]
                cells[k] = cells[k] - term

    def finish(self, cells):
        return cells[0] if self.scalar else TruncatedSeries(list(cells))


class _SumDomain:
    """Accumulates the plain sum of sequence probabilities (any domain)."""

    @staticmethod
    def is_zero(p):
        return not p

    @staticmethod
    def new_acc():
        return [None]

    @staticmethod
    def add_term(acc, p):
        acc[0] = p if acc[0] is None else acc[0] + p

    @staticmethod
    def finish(acc):
        return acc[0]


def _domain(backend, order=None):
    """The backend's -p log p kernel, for jets to the given order or, by
    default, for scalars."""
    scalar = order is None
    if backend.is_exact:
        return _JetExactDomain(order or 0, scalar)
    return _JetFloatDomain(order or 0, backend.log, scalar)


def _scalar_tables(model: HmpModel, backend):
    sc = backend.scalar
    s = model.size
    emit_cols = [[sc(model.R.rows[j][y]) for j in range(s)] for y in range(s)]
    trans_cols = [[sc(model.M.rows[j][k]) for j in range(s)] for k in range(s)]
    beta0 = [sc(p) for p in model.pi]
    return beta0, emit_cols, trans_cols


def _traverse(starts, emit_at, trans_at, n, record, domain):
    """Walk from each start vector into shared sums; {depth: finished value}."""
    if getattr(domain, "integer", False):  # the exact kernels walk integers
        starts, emit_at, trans_at, primes_at = _integer_tables(
            starts, emit_at, trans_at, n, record)
        sums = {d: domain.new_acc(primes_at[d]) for d in record}
    else:
        sums = {d: domain.new_acc() for d in record}
    for beta in starts:
        _walk(beta, emit_at, trans_at, 0, n, sums, domain)
    return {d: domain.finish(a) for d, a in sums.items()}


def _run(model, n, record, domain, backend, per_state=False):
    beta0, emit_cols, trans_cols = _scalar_tables(model, backend)
    starts = [beta0]
    if per_state:
        zero = backend.scalar(Fraction(0))
        s = model.size
        starts = [[beta0[i] if j == i else zero for j in range(s)] for i in range(s)]
    return _traverse(starts, [emit_cols] * n, [trans_cols] * (n - 1), n, record, domain)


def finite_entropy(model: HmpModel, n: int, backend=EXACT, depth_cap: int = DEFAULT_DEPTH_CAP):
    """H_n = H([Y]_1^n) of the stationary process, in nats."""
    _check_depth(n, depth_cap)
    domain = _domain(backend)
    with backend.ctx():
        return _run(model, n, {n}, domain, backend)[n]


def conditional_increment(model: HmpModel, n: int, backend=EXACT, depth_cap: int = DEFAULT_DEPTH_CAP):
    """C_n = H_n - H_{n-1}, an upper bound on the entropy rate.

    Both entropies come from one traversal.  C_1 := H_1 by convention.
    """
    return _windows(model, [n], backend, depth_cap)[0].increment


def lower_bound(model: HmpModel, n: int, backend=EXACT, depth_cap: int = DEFAULT_DEPTH_CAP):
    """c_n = H(Y_n | X_1, [Y]_1^{n-1}), a lower bound on the entropy rate.

    Conditioning on X_1 splits the traversal into one run per starting
    state, all feeding the same accumulators.
    """
    _check_depth(n, depth_cap, lower_from=2)
    domain = _domain(backend)
    with backend.ctx():
        out = _run(model, n, {n - 1, n}, domain, backend, per_state=True)
        return out[n] - out[n - 1]


@dataclass(frozen=True)
class EntropyBracket:
    n: int
    lower: object
    upper: object
    midpoint: object
    half_gap: object
    backend: str


def entropy_rate_bracket(model: HmpModel, n: int, backend=EXACT,
                         depth_cap: int = DEFAULT_DEPTH_CAP) -> EntropyBracket:
    """The sandwich c_n <= entropy rate <= C_n with midpoint and half-gap."""
    return _bracket(_windows(model, [n], backend, depth_cap, lower_from=2)[0], backend)


def _bracket(rep: EntropyReport, backend) -> EntropyBracket:
    lo, up = rep.lower, rep.increment
    half = Fraction(1, 2)
    with backend.ctx():
        return EntropyBracket(rep.n, lo, up, (lo + up) * half, (up - lo) * half, rep.backend)


def total_probability(model: HmpModel, n: int, backend=EXACT,
                      depth_cap: int = DEFAULT_DEPTH_CAP):
    """Sum of P([Y]_1^n) over all length-n observation sequences (= 1)."""
    _check_depth(n, depth_cap)
    with backend.ctx():
        return _run(model, n, {n}, _SumDomain(), backend)[n]


def c2_closed_form(model: HmpModel, backend=EXACT, strict: bool = False):
    """C_2 from the closed form over the pair marginal F = R^t diag(pi) M R.

    C_2 = sum_i (pi R)_i log (pi R)_i - sum_ij F_ij log F_ij.  When some
    pair probability vanishes the log is undefined there; the computation
    falls back to the direct two-step traversal, whose pruning implements
    0*log(0) = 0 (or raises ZeroMarginal when strict).
    """
    s = model.size
    pi, m, r = model.pi, model.M.rows, model.R.rows
    diag = [[pi[a] * m[a][b] for b in range(s)] for a in range(s)]
    f = [
        [
            sum(r[a][i] * diag[a][b] * r[b][j] for a in range(s) for b in range(s))
            for j in range(s)
        ]
        for i in range(s)
    ]
    p1 = [sum(f[i][j] for j in range(s)) for i in range(s)]
    if any(x == 0 for row in f for x in row) or any(x == 0 for x in p1):
        if strict:
            raise ZeroMarginal("some pair of observable symbols has probability 0")
        return conditional_increment(model, 2, backend)
    with backend.ctx():
        sc, lg = backend.scalar, backend.log
        total = 0
        for x in p1:
            total = total + lg(sc(x)) * sc(x)
        for row in f:
            for x in row:
                total = total - lg(sc(x)) * sc(x)
        return total


def sequence_log_probability(model: HmpModel, ys, backend=FLOAT64, with_steps: bool = False):
    """log P([Y]_1^n = ys) via the scaled forward recursion (float domains).

    With with_steps=True also returns the per-symbol log increments, whose
    sum is the total.
    """
    if backend.is_exact:
        raise ValueError("forward scaling is a floating-point computation")
    with backend.ctx():
        sc, lg = backend.scalar, backend.log
        s = model.size
        m = [[sc(x) for x in row] for row in model.M.rows]
        r = [[sc(x) for x in row] for row in model.R.rows]
        q = [sc(x) for x in model.pi]
        steps = []
        for t, y in enumerate(ys):
            if t:
                q = [sum(q[i] * m[i][j] for i in range(s)) for j in range(s)]
            alpha = [q[j] * r[j][y] for j in range(s)]
            z = sum(alpha)
            if not z > 0:
                raise ValueError(f"observation sequence has probability zero at step {t}")
            steps.append(lg(z))
            q = [a / z for a in alpha]
        total = math.fsum(steps) if not backend.bits else sum(steps)
        return (total, tuple(steps)) if with_steps else total


@dataclass(frozen=True)
class EntropyReport:
    """One row of the finite-window entropy table."""

    n: int
    entropy: object
    increment: object
    lower: object | None
    backend: str


def entropy_report(model: HmpModel, n: int, backend=EXACT,
                   depth_cap: int = DEFAULT_DEPTH_CAP) -> EntropyReport:
    """H_n, C_n and c_n (None at n = 1) of one window."""
    return _windows(model, [n], backend, depth_cap, lower_from=1)[0]


def _windows(model: HmpModel, ns, backend, depth_cap: int, lower_from=None):
    """One EntropyReport per n of ns, in list order, from one walk set.

    Every n is checked, in list order, before any walk.  One plain walk to
    max(ns) records H_{n-1} and H_n of every listed n, so C_n = H_n - H_{n-1}
    and C_1 = H_1.  With lower_from set, a window below it is refused, and
    one run per start state to the largest n >= 2 does the same for c_n,
    which stays None at n = 1.
    """
    if not ns:
        raise ValueError("need at least one window size")
    for n in ns:
        _check_depth(n, depth_cap, lower_from)
    long = [n for n in ns if n >= 2]
    domain = _domain(backend)
    with backend.ctx():
        h = _run(model, max(ns), {d for n in ns for d in (n - 1, n) if d}, domain, backend)
        up = {n: h[n] - h[n - 1] if n > 1 else h[n] for n in ns}
        low = {}
        if lower_from is not None and long:
            out = _run(model, max(long), {d for n in long for d in (n - 1, n)},
                       domain, backend, per_state=True)
            low = {n: out[n] - out[n - 1] for n in long}
        return [EntropyReport(n, h[n], up[n], low.get(n), backend.tag) for n in ns]
