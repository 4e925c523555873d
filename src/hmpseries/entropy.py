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
one -p log p kernel, _JetExactDomain and _JetFloatDomain, for scalars, jets
and per-site polynomials alike (_domain picks one).  A jet of order K is the
one-variable polynomial with cap K.  Scalars walk as plain numbers; jets and
per-site polynomials walk as one dense type, _Dense, a coefficient list in
the layout of a plan built once per caps and targets (_plan), and each table
entry is a factor a + b*x_i.  Both kernels read that list and run one
recurrence for log p over the plan; a scalar takes one log or one integer
addition.  _traverse drives both, in the tables and accumulators that each
prepares, and each finish gives a list of per-target values.

Scalars walk the tables of one R matrix per depth and one M matrix per step
(_matrix_tables), a model's own or a per-site value's.  Exact scalars, jets
and per-site polynomials walk on Python integers (_integer_tables): each
kind of table is scaled by one lcm, D_start, D_R or D_M, so a node at depth
d carries integer numerators over Q_d = D_start * D_R^d * D_M^(d-1).  The
exact kernel keeps one accumulator per depth (_new_cells),
with one cell of integer sums per distinct constant term N_0 of a leaf, and
one finish (_finish_cells): one log(N_0 / Q_d) per distinct N_0, and the
integer log sums go over Q_d into the value.  No N_0 is fully factored: the
primes of Q_d leave it by trial division and loglinear's splitter takes the
rest, so a large cofactor it cannot split stays one composite log base.  The
probability totals read sum N_t / Q_d from the cells instead (_cell_totals).

The window entropies of a list of n come from _windows: one plain walk to the
largest n and, for c_n, one walk whose first symbol is the pair (X_1, Y_1),
each recording n - 1 and n of every listed n (_run).  finite_entropy and
lower_bound record only what they report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import add

from .backends import EXACT, FLOAT64, _log_sum
from .errors import DepthCapExceeded, NonpositiveConstantTerm
from .loglinear import LogLinearValue, _normalise, _split, factor_positive
from .model import HmpModel, _matmul

DEFAULT_DEPTH_CAP = 14


def _check_depth(n: int, lower_from=None):
    if n < 1:
        raise ValueError(f"window length must be positive, got {n}")
    if n > DEFAULT_DEPTH_CAP:
        raise DepthCapExceeded(f"depth {n} exceeds the cap {DEFAULT_DEPTH_CAP}")
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
        if not p:
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


def _new_cells(q_primes):
    """The exact kernel's accumulator of one depth: the primes of Q_d, Q_d,
    and {N_0: cell} over the constant terms N_0 of its leaves.

    For T targets (orders, or one kvec) of weights w_t a cell holds 2T
    integer sums: each N_t, for -N_t log(N_0 / Q_d), then the numerator of
    each [N log(N / N_0)]_t over lcm N_0^w_t.
    """
    return q_primes, math.prod(p**e for p, e in q_primes), {}


def _finish_cells(acc, lcm, weights):
    """One LogLinearValue per target, from one log(N_0 / Q_d) per distinct N_0.

    The log coefficients stay integer sums over Q_d, with no Fraction per
    log term (a jet target's rational part adds one per N_0).  _normalise
    refines the composite bases the N_0 of the depth share into one base."""
    q_primes, q, cells = acc
    top = len(weights)
    rats, logs = [Fraction(0)] * top, [{} for _ in weights]
    for n0, cell in cells.items():
        fac = _log_ratio(n0, q_primes) if any(cell[:top]) else ()
        for t, w in enumerate(weights):
            if cell[top + t]:
                rats[t] += Fraction(cell[top + t], lcm * n0**w)
            nt, lg = cell[t], logs[t]
            if nt:
                for prime, e in fac:
                    lg[prime] = lg.get(prime, 0) - nt * e
    return [LogLinearValue._of(-rat / q, q, _normalise(lg))
            for rat, lg in zip(rats, logs)]


def _cell_totals(acc):
    """Sum_leaves N_t / Q_d per target, from the N_t sums that open each cell."""
    _, q, cells = acc
    sums = [sum(col) for col in zip(*cells.values())]
    return [Fraction(s, q) for s in sums[:len(sums) // 2]]


@lru_cache(maxsize=256)
def _plan(caps, targets):
    """The plan of coefficient lists within caps and below targets.

    The box is every exponent vector e below some target, ordered with the
    last variable most significant, so position 0 is the constant term and
    a jet of order K (caps (K,), targets 0..K) has its orders as positions.
    Returns the weights |e| by position, then each nonzero box entry e with
    its index pairs (g, e - g) over 0 < g < e, then each target t with its
    weight and its pairs (t - h, h) over 0 < h <= t, then per variable i the
    shift pairs (e, e + 1_i) of the box.
    """
    vecs = [e for e in sorted(product(*(range(cap + 1) for cap in caps)), key=lambda e: e[::-1])
            if any(all(a <= b for a, b in zip(e, t)) for t in targets)]
    pos = {e: i for i, e in enumerate(vecs)}

    def below(e):  # the nonzero box vectors f <= e, in box order
        return [f for f in vecs[1:] if all(a <= b for a, b in zip(f, e))]

    def minus(e, f):
        return pos[tuple(a - b for a, b in zip(e, f))]

    box = tuple((pos[e], sum(e), tuple((pos[g], minus(e, g)) for g in below(e) if g != e))
                for e in vecs[1:])
    tops = tuple((pos[t], sum(t), tuple((minus(t, h), pos[h]) for h in below(t)))
                 for t in targets)
    ups = [[e[:i] + (e[i] + 1,) + e[i + 1:] for e in vecs] for i in range(len(caps))]
    shifts = tuple(tuple((pos[e], pos[f]) for e, f in zip(vecs, up) if f in pos) for up in ups)
    return tuple(sum(e) for e in vecs), box, tops, shifts


class _Dense(list):
    """A jet or per-site polynomial walked as coefficients in a plan's layout.

    A table entry (a, b, shift) is the factor a + b*x_i, with shift the
    plan's pairs (e, e + 1_i): multiplying by it is a scale plus one
    shift-add, and a sum is a zip-add.  Zero products are skipped, so each
    product coefficient is the sum of its nonzero terms p_e*a and
    p_(e-1_i)*b, and no -0.0 appears.
    """

    __slots__ = ()

    def __add__(self, other):
        return _Dense(map(add, self, other))

    def __mul__(self, entry):
        a, b, shift = entry
        out = _Dense([c * a if c else c for c in self] if a else [a] * len(self))
        if b:
            for e, f in shift:
                c = self[e]
                if c:
                    out[f] = out[f] + c * b
        return out

    def __bool__(self):
        return any(self)


class _JetExactDomain:
    """The exact -p log p kernel for scalars, jets and per-site polynomials.

    A leaf at depth d carries integer numerators N_e over Q_d.  With
    W = log(p / N_0) and B_e = |e| N_0^|e| W_e, Euler's operator gives
    B_e = |e| N_e N_0^(|e|-1) - sum_{0<g<e} N_g N_0^(|g|-1) B_(e-g) over the
    plan's box (_plan).  For each target t a leaf adds N_t and the numerator
    of [N W]_t over lcm(1..|t|) N_0^|t| to the cell of its N_0, so it builds
    no Fraction and factors nothing.  A scalar only adds N_0.
    """

    def __init__(self, plan=None):
        self.plan = plan
        self.weights = [w for _, w, _ in plan[2]] if plan else [0]
        self.top = max(self.weights)
        self.lcm = math.lcm(*range(1, self.top + 1))

    def prepare(self, start, emit_at, trans_at, n, record):
        """The tables on integers over Q_d, and the cells of each recorded depth."""
        start, emit_at, trans_at, primes_at = _integer_tables(
            start, emit_at, trans_at, record, self.plan is not None)
        return start, emit_at, trans_at, {d: _new_cells(primes_at[d]) for d in record}

    def add_term(self, acc, p):
        plan = self.plan
        n0 = p[0] if plan else p
        if n0 <= 0:
            raise NonpositiveConstantTerm(
                f"sequence probability has constant term {Fraction(n0, acc[1])}")
        cell = acc[2].get(n0)
        if cell is None:
            cell = acc[2][n0] = [0] * (2 * len(self.weights))
        if plan is None:
            cell[0] += n0
            return
        weight, box, tops, _ = plan
        pw = [1]
        for _ in range(self.top):
            pw.append(pw[-1] * n0)
        # tail_g = N_g N_0^(|g|-1), and tail_0 = 1 for the target sums
        tail = [ci * pw[w - 1] if w else 1 for ci, w in zip(p, weight)]
        b, lam, lcm = [0] * len(p), [0] * len(p), self.lcm
        for e, w, pairs in box:
            v = w * tail[e]
            for g, h in pairs:
                tg = tail[g]
                if tg:
                    v -= tg * b[h]
            b[e], lam[e] = v, v * (lcm // w)  # lam_e = lcm N_0^|e| W_e
        top = len(tops)
        for i, (t, _, pairs) in enumerate(tops):
            cell[i] += p[t]
            num = 0
            for g, h in pairs:
                tg = tail[g]
                if tg:
                    num += tg * lam[h]
            cell[top + i] += n0 * num

    def finish(self, acc):
        return _finish_cells(acc, self.lcm, self.weights)


def _log_ratio(n0, q_primes):
    """log(n0 / Q) as (base, exponent) pairs over pairwise coprime bases.

    Q's primes leave n0 by trial division, and the splitter takes the rest
    (loglinear._split, cached per integer): primes where it finds them, and a
    composite base for a cofactor that it cannot split.  Nothing is fully
    factored.
    """
    fac, rest = [], n0
    for prime, v in q_primes:
        e = 0
        while not rest % prime:
            rest //= prime
            e += 1
        if e != v:
            fac.append((prime, e - v))
    if rest > 1:
        fac.extend(_split(rest))
    return fac


def _integer_tables(start, emit_at, trans_at, record, poly):
    """The tables scaled to integers, and the primes of Q_d at each recorded depth.

    Each kind of table is scaled by one lcm of its denominators: the start
    vector by D_start, every emission table by D_R and every transition
    table by D_M, so Q_d = D_start * D_R^d * D_M^(d-1).  Each distinct table
    is scaled once, and each distinct scale other than 1 is factored once
    (factor_positive).  The items are exact scalars or, with poly,
    coefficient lists in the start vector and (a, b, shift) entries in the
    tables.
    """
    def scale(tables, rats, make):  # the scaled tables of one kind, and their scale
        distinct = {id(rows): rows for rows in tables}
        d = math.lcm(*(q.denominator for rows in distinct.values() for row in rows
                       for x in row for q in rats(x)))
        done = {key: [[make([q.numerator * (d // q.denominator) for q in rats(x)], x)
                       for x in row] for row in rows] for key, rows in distinct.items()}
        return [done[id(rows)] for rows in tables], d

    if poly:
        kinds = ((lambda x: x, lambda m, x: _Dense(m)), (lambda x: x[:2], lambda m, x: (*m, x[2])))
    else:
        kinds = ((lambda x: (x,), lambda m, x: m[0]),) * 2
    [[start]], d_start = scale([[start]], *kinds[0])
    emit_at, d_r = scale(emit_at, *kinds[1])
    trans_at, d_m = scale(trans_at, *kinds[1])
    factored = {d: factor_positive(d) for d in {d_start, d_r, d_m} - {1}}

    def primes(depth):  # the primes of Q_depth
        q = {}
        for d, times in ((d_start, 1), (d_r, depth), (d_m, depth - 1)):
            for p, e in factored.get(d, ()):
                q[p] = q.get(p, 0) + e * times
        return tuple((p, e) for p, e in q.items() if e)

    return start, emit_at, trans_at, {depth: primes(depth) for depth in record}


class _JetFloatDomain:
    """The float -p log p kernel for scalars, jets and per-site polynomials.

    A scalar takes one log and one multiply.  Otherwise W = log(p / c0)
    follows W_e = (|e| p_e - sum_{0<g<e} p_g |e-g| W_(e-g)) / (|e| c0) over
    the plan's box (_plan), and a leaf subtracts p_t log(c0) + [p W]_t from
    the cell of each target t.
    """

    def __init__(self, log, plan=None):
        self._log, self.plan = log, plan

    def prepare(self, start, emit_at, trans_at, n, record):
        """The tables as they are, and zero cells for each recorded depth."""
        top = len(self.plan[2]) if self.plan else 1
        return start, emit_at, trans_at, {d: [0] * top for d in record}

    def add_term(self, cells, p):
        plan = self.plan
        c0 = p[0] if plan else p
        if not c0 > 0:
            raise NonpositiveConstantTerm(f"sequence probability has constant term {c0!r}")
        lg0 = self._log(c0)
        if plan is None:
            cells[0] = cells[0] - c0 * lg0
            return
        _, box, tops, _ = plan
        c = p[:]  # a plain list, which CPython indexes faster than the walk's _Dense
        lg, wlg = [0] * len(c), [0] * len(c)  # W_e and |e| W_e
        for e, w, pairs in box:
            acc = w * c[e]
            for g, h in pairs:
                cg = c[g]
                if cg:
                    acc = acc - cg * wlg[h]
            lg[e] = acc / (w * c0)
            wlg[e] = w * lg[e]
        for i, (t, _, pairs) in enumerate(tops):
            term = c[t] * lg0
            for g, h in pairs:
                cg = c[g]
                if cg:
                    term = term + cg * lg[h]
            cells[i] = cells[i] - term

    def finish(self, cells):
        return cells


def _domain(backend, order=None, kvec=None):
    """The backend's -p log p kernel: for scalars by default, for jets to
    the given order, or for the kvec coefficient of per-site polynomials
    with caps kvec."""
    plan = None
    if kvec is not None:
        plan = _plan(tuple(kvec), (tuple(kvec),))
    elif order is not None:
        plan = _plan((order,), tuple((k,) for k in range(order + 1)))
    if backend.is_exact:
        return _JetExactDomain(plan)
    return _JetFloatDomain(backend.log, plan)


def _traverse(start, emit_at, trans_at, n, record, domain):
    """One walk from the start vector, in the tables the kernel prepares;
    {depth: the kernel's finished per-target values} for each recorded depth."""
    start, emit_at, trans_at, sums = domain.prepare(start, emit_at, trans_at, n, record)
    _walk(start, emit_at, trans_at, 0, n, sums, domain)
    return {d: domain.finish(a) for d, a in sums.items()}


def _matrix_tables(pi, emits, transs, sc):
    """The start vector and the per-depth emission and transition columns of
    a walk over one emission matrix R per depth and one transition matrix M
    per step, in the backend's scalars; each matrix object is mapped once."""
    cols = {}

    def table(m):
        if id(m) not in cols:
            cols[id(m)] = [[sc(x) for x in col] for col in zip(*m.rows)]
        return cols[id(m)]

    return [sc(p) for p in pi], [table(r) for r in emits], [table(m) for m in transs]


def _run(model, n, record, domain, backend, joint=False):
    """{depth: value}: the walk of the model to depth n in the backend's scalars.

    With joint, the first symbol is the pair (X_1, Y_1), so depth d records
    H(X_1, [Y]_1^d): the depth-0 emission table has one column per (i, y),
    i-major, holding R(i, y) at state i and 0 elsewhere.  The walk then
    multiplies and adds the same numbers in the same order as one walk per
    start state would.
    """
    start, emit_at, trans_at = _matrix_tables(model.pi, [model.R] * n, [model.M] * (n - 1),
                                              backend.scalar)
    if joint:
        zero = backend.scalar(0)
        emit_at[0] = [[c if j == i else zero for j, c in enumerate(col)]
                      for i in range(model.size) for col in emit_at[0]]
    out = _traverse(start, emit_at, trans_at, n, record, domain)
    return {d: values[0] for d, values in out.items()}


def finite_entropy(model: HmpModel, n: int, backend=EXACT):
    """H_n = H([Y]_1^n) of the stationary process, in nats."""
    _check_depth(n)
    with backend.ctx():
        return _run(model, n, {n}, _domain(backend), backend)[n]


def conditional_increment(model: HmpModel, n: int, backend=EXACT):
    """C_n = H_n - H_{n-1}, an upper bound on the entropy rate.

    Both entropies come from one traversal.  C_1 := H_1 by convention.
    """
    return _windows(model, [n], backend)[0].increment


def lower_bound(model: HmpModel, n: int, backend=EXACT):
    """c_n = H(Y_n | X_1, [Y]_1^{n-1}), a lower bound on the entropy rate.

    It is H(X_1, [Y]_1^n) - H(X_1, [Y]_1^{n-1}), from one walk whose first
    symbol is the pair (X_1, Y_1).
    """
    _check_depth(n, lower_from=2)
    with backend.ctx():
        out = _run(model, n, {n - 1, n}, _domain(backend), backend, joint=True)
        return out[n] - out[n - 1]


@dataclass(frozen=True)
class EntropyBracket:
    n: int
    lower: object
    upper: object
    midpoint: object
    half_gap: object
    backend: str


def entropy_rate_bracket(model: HmpModel, n: int, backend=EXACT) -> EntropyBracket:
    """The sandwich c_n <= entropy rate <= C_n with midpoint and half-gap."""
    return _bracket(_windows(model, [n], backend, lower_from=2)[0], backend)


def _bracket(rep: EntropyReport, backend) -> EntropyBracket:
    lo, up = rep.lower, rep.increment
    half = Fraction(1, 2)
    with backend.ctx():
        return EntropyBracket(rep.n, lo, up, (lo + up) * half, (up - lo) * half, rep.backend)


def total_probability(model: HmpModel, n: int):
    """Sum of P([Y]_1^n) over all length-n observation sequences (= 1), exact:
    the N_0 sums of the exact kernel's cells at depth n, with no log taken."""
    _check_depth(n)
    domain = _domain(EXACT)
    domain.finish = _cell_totals  # the cells' N_0 sums, not their logs
    return _run(model, n, {n}, domain, EXACT)[n]


def c2_closed_form(model: HmpModel, backend=EXACT):
    """C_2 from the closed form over the pair marginal F = R^t diag(pi) M R.

    C_2 = sum_i (pi R)_i log (pi R)_i - sum_ij F_ij log F_ij.  When some
    pair probability vanishes the log is undefined there; the computation
    falls back to the direct two-step traversal, whose pruning implements
    0*log(0) = 0.
    """
    diag = [[p * x for x in row] for p, row in zip(model.pi, model.M.rows)]
    f = _matmul(_matmul(list(zip(*model.R.rows)), diag), model.R.rows)
    if not all(x for row in f for x in row):
        return conditional_increment(model, 2, backend)
    with backend.ctx():
        return _log_sum(backend, 1, [(sum(row), sum(row)) for row in f]
                        + [(x, -x) for row in f for x in row])


def sequence_log_probability(model: HmpModel, ys, backend=FLOAT64):
    """log P([Y]_1^n = ys) via the scaled forward recursion (float domains)."""
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
            if not (isinstance(y, int) and 0 <= y < s):
                raise ValueError(f"symbol {y!r} at step {t} is not in range({s})")
            if t:
                q = [sum(q[i] * m[i][j] for i in range(s)) for j in range(s)]
            alpha = [q[j] * r[j][y] for j in range(s)]
            z = sum(alpha)
            if not z > 0:
                raise ValueError(f"observation sequence has probability zero at step {t}")
            steps.append(lg(z))
            q = [a / z for a in alpha]
        return math.fsum(steps) if not backend.bits else sum(steps)


@dataclass(frozen=True)
class EntropyReport:
    """One row of the finite-window entropy table."""

    n: int
    entropy: object
    increment: object
    lower: object | None
    backend: str


def entropy_report(model: HmpModel, n: int, backend=EXACT) -> EntropyReport:
    """H_n, C_n and c_n (None at n = 1) of one window."""
    return _windows(model, [n], backend, lower_from=1)[0]


def _windows(model: HmpModel, ns, backend, lower_from=None):
    """One EntropyReport per n of ns, in list order, from one walk set.

    Every n is checked, in list order, before any walk.  One plain walk to
    max(ns) records H_{n-1} and H_n of every listed n, so C_n = H_n - H_{n-1}
    and C_1 = H_1.  With lower_from set, a window below it is refused, and
    one walk over the joint first symbol (X_1, Y_1) to the largest n >= 2
    does the same for c_n, which stays None at n = 1.
    """
    if not ns:
        raise ValueError("need at least one window size")
    for n in ns:
        _check_depth(n, lower_from)
    long = [n for n in ns if n >= 2]
    domain = _domain(backend)
    with backend.ctx():
        h = _run(model, max(ns), {d for n in ns for d in (n - 1, n) if d}, domain, backend)
        up = {n: h[n] - h[n - 1] if n > 1 else h[n] for n in ns}
        low = {}
        if lower_from is not None and long:
            out = _run(model, max(long), {d for n in long for d in (n - 1, n)},
                       domain, backend, joint=True)
            low = {n: out[n] - out[n - 1] for n in long}
        return [EntropyReport(n, h[n], up[n], low.get(n), backend.tag) for n in ns]
