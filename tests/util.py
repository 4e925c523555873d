"""Shared test helpers: brute-force oracles and hypothesis strategies.

The enumeration oracles recompute finite-window quantities directly from
their definitions, summing over every hidden path and observed word.  They
are deliberately independent of the tree traversal in the package so the
two implementations can check each other.
"""

import math
from collections import Counter
from fractions import Fraction
from itertools import product

from hypothesis import strategies as st

from hmpseries import (
    AlmostMemoryless,
    HighSnr,
    HmpModel,
    LogLinearValue,
    PerturbationMatrix,
    StochasticMatrix,
    TruncatedSeries,
    entropy_accumulate,
    stationary_distribution,
    validate_model,
)
from hmpseries import loglinear

# 3-state regimes with entries over 12
HS3 = HighSnr(
    StochasticMatrix((("1/4", "5/12", "1/3"), ("1/6", "5/12", "5/12"),
                      ("1/6", "5/12", "5/12"))),
    PerturbationMatrix(((-2, 0, 2), (1, -1, 0), (1, 0, -1))),
)
AM3 = AlmostMemoryless(
    StochasticMatrix((("1/6", "1/2", "1/3"), ("1/3", "1/3", "1/3"),
                      ("1/6", "1/6", "2/3"))),
    PerturbationMatrix(((1, 0, -1), (1, -2, 1), (0, -2, 2))),
)
# a 4-state model and regime whose emissions each miss two symbols
R4 = StochasticMatrix((("1/2", "1/2", 0, 0), (0, "1/2", "1/2", 0), (0, 0, "1/2", "1/2"),
                       ("1/2", 0, 0, "1/2")))
M4 = StochasticMatrix((("1/4", "1/4", "1/4", "1/4"), ("1/2", "1/6", "1/6", "1/6"),
                       ("1/10", "2/5", "1/4", "1/4"), ("1/3", "1/3", "1/6", "1/6")))
FOUR = validate_model(M4, R4)
AM4 = AlmostMemoryless(R4, PerturbationMatrix(((1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1),
                                               (-1, 0, 0, 1))))


# a 3-state model with no zero entry and no symmetry between its states
BASE3 = validate_model(
    StochasticMatrix((("1/2", "1/4", "1/4"), ("1/8", "3/4", "1/8"), ("1/4", "1/4", "1/2"))),
    StochasticMatrix((("3/4", "1/8", "1/8"), ("1/8", "3/4", "1/8"), ("1/4", "1/4", "1/2"))),
)
# BASE3's emissions on a cyclic chain: pi is uniform, but M is not symmetric,
# so the chain is not reversible
CYCLIC3 = validate_model(
    StochasticMatrix((("1/2", "1/3", "1/6"), ("1/6", "1/2", "1/3"), ("1/3", "1/6", "1/2"))),
    BASE3.R,
)


def relabel(rows, states, symbols=None):
    """A matrix with its rows relabelled by states and its columns by symbols
    (default: states): entry (i, j) is rows[states[i]][symbols[j]]."""
    symbols = states if symbols is None else symbols
    return tuple(tuple(rows[a][b] for b in symbols) for a in states)


def word_probability(model: HmpModel, ys) -> Fraction:
    """P([Y]_1^n = ys) by summing over all hidden paths (exact)."""
    s = model.size
    n = len(ys)
    total = Fraction(0)
    for xs in product(range(s), repeat=n):
        p = model.pi[xs[0]]
        for a, b in zip(xs, xs[1:]):
            p *= model.M.rows[a][b]
        for x, y in zip(xs, ys):
            p *= model.R.rows[x][y]
        total += p
    return total


def _path_products(model: HmpModel, n: int):
    """(x_1, word, N) for every hidden path and every word of length n whose
    joint probability N / D is nonzero, D = D_pi D_R^n D_M^(n-1) with each
    D the lcm of its matrix's denominators: one integer product per path and
    word, extended one pair (X_t, Y_t) at a time, as a generator."""
    s = model.size
    d_pi, d_m, d_r = (math.lcm(*(x.denominator for x in xs)) for xs in (
        model.pi, [x for row in model.M.rows for x in row], [x for row in model.R.rows for x in row]))
    m = [[int(x * d_m) for x in row] for row in model.M.rows]
    r = [[int(x * d_r) for x in row] for row in model.R.rows]
    level = [(x, x, (y,), int(model.pi[x] * d_pi) * r[x][y]) for x in range(s) for y in range(s)]
    for _ in range(n - 1):
        level = ((x1, b, ys + (y,), p * m[a][b] * r[b][y])
                 for x1, a, ys, p in level if p for b in range(s) for y in range(s))
    return d_pi * d_r**n * d_m**(n - 1), ((x1, ys, p) for x1, _, ys, p in level if p)


def word_distribution(model: HmpModel, n: int) -> dict:
    """P([Y]_1^n = ys), exact, for every word ys of nonzero probability."""
    d, paths = _path_products(model, n)
    out = {}
    for _, ys, p in paths:
        out[ys] = out.get(ys, 0) + p
    return {ys: Fraction(p, d) for ys, p in out.items()}


def joint_distribution(model: HmpModel, n: int) -> dict:
    """P(X_1 = x1, [Y]_1^n = ys), exact, for every x1 and word ys of nonzero
    probability."""
    d, paths = _path_products(model, n)
    out = {}
    for x1, ys, p in paths:
        out[x1, ys] = out.get((x1, ys), 0) + p
    return {key: Fraction(p, d) for key, p in out.items()}


def entropy_float(dist) -> float:
    """Shannon entropy of an exact distribution, evaluated in floats (nats)."""
    return -math.fsum(float(p) * math.log(p) for p in dist.values() if p)


def entropy_exact(dist) -> LogLinearValue:
    """Shannon entropy -sum p log p as a LogLinearValue, built once from the
    number of outcomes of each distinct nonzero probability."""
    counts = Counter(p for p in dist.values() if p)
    return LogLinearValue(0, [term for p, m in counts.items()
                              for term in ((p.numerator, -m * p), (p.denominator, m * p))])


def brute_finite_entropy(model: HmpModel, n: int) -> LogLinearValue:
    return entropy_exact(word_distribution(model, n))


def brute_increment(model: HmpModel, n: int) -> LogLinearValue:
    """C_n = H_n - H_{n-1} with the C_1 = H_1 convention, by enumeration."""
    if n == 1:
        return brute_finite_entropy(model, 1)
    return brute_finite_entropy(model, n) - brute_finite_entropy(model, n - 1)


def brute_lower_bound(model: HmpModel, n: int) -> LogLinearValue:
    """c_n = H(X_1, [Y]_1^n) - H(X_1, [Y]_1^{n-1}), by enumeration."""
    return entropy_exact(joint_distribution(model, n)) - entropy_exact(
        joint_distribution(model, n - 1)
    )


def word_probability_jets(spec, n: int, order: int) -> dict:
    """P([Y]_1^n = ys) as a jet in the regime parameter x, for every word ys.

    One forward recursion per word over jets of Fractions:
    alpha_1(j) = pi(j) R(j, y_1), alpha_{t+1}(j) = sum_i alpha_t(i) M(i, j) R(j, y_{t+1}).
    High-SNR: R = I + x T around a fixed chain.  Almost-memoryless:
    M = U + x T, whose stationary jet solves pi = u + x pi T.
    """
    zeros = [Fraction(0)] * order

    def const(v):
        return TruncatedSeries([Fraction(v)] + zeros)

    x = TruncatedSeries([Fraction(0), Fraction(1)] + zeros[1:]) if order else const(0)
    if isinstance(spec, HighSnr):
        s = spec.M.size
        pi = [const(p) for p in stationary_distribution(spec.M)]
        m = [[const(v) for v in row] for row in spec.M.rows]
        r = [[const(i == j) + x * spec.T.rows[i][j] for j in range(s)] for i in range(s)]
    else:
        s = spec.R.size
        m = [[const(Fraction(1, s)) + x * spec.T.rows[i][j] for j in range(s)]
             for i in range(s)]
        r = [[const(v) for v in row] for row in spec.R.rows]
        pi = [const(Fraction(1, s))] * s
        for _ in range(order):
            pi = [const(Fraction(1, s))
                  + x * sum((pi[i] * spec.T.rows[i][j] for i in range(s)), const(0))
                  for j in range(s)]
    out = {}
    for ys in product(range(s), repeat=n):
        alpha = [pi[j] * r[j][ys[0]] for j in range(s)]
        for y in ys[1:]:
            alpha = [sum((alpha[i] * m[i][j] for i in range(s)), const(0)) * r[j][y]
                     for j in range(s)]
        out[ys] = sum(alpha, const(0))
    return out


def brute_increment_jet(spec, n: int, order: int) -> TruncatedSeries:
    """Jet of C_n = H_n - H_{n-1}, accumulated word by word with entropy_accumulate."""

    def entropy(m):
        acc = TruncatedSeries([Fraction(0)] * (order + 1))
        for p in word_probability_jets(spec, m, order).values():
            acc = entropy_accumulate(p, acc)
        return acc

    return entropy(n) - entropy(n - 1)


def _poly_mul(a: dict, b: dict, caps) -> dict:
    """Product of two exponent-tuple dicts, dropping degrees over the caps."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if all(x <= c for x, c in zip(e, caps)):
                out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _sum_polys(polys) -> dict:
    total = {}
    for p in polys:
        total = _poly_add(total, p)
    return total


def brute_multisite_derivative(spec, kvec) -> LogLinearValue:
    """F_n^kvec = prod(k_i!) [H_n - H_{n-1}]_kvec by enumeration over words.

    Each word's probability is a forward product over per-site tables held
    as dicts keyed by exponent tuples: high-SNR emissions I + eps_i T, or
    almost-memoryless transitions U + delta_i T into site i, whose start is
    pi(delta_1) = u sum_m (delta_1 T)^m.  A word adds the kvec coefficient of
    -p log p = -p log(c0) - p log(1 + q), with q = p / c0 - 1.
    """
    kvec = tuple(kvec)
    n, caps = len(kvec), kvec
    zero = (0,) * n

    def const(v):
        return {zero: Fraction(v)} if v else {}

    def lin(a, b, var):
        unit = tuple(int(i == var) for i in range(n))
        return _poly_add(const(a), {unit: Fraction(b)} if b else {})

    if isinstance(spec, HighSnr):
        s = spec.M.size
        start = [const(p) for p in stationary_distribution(spec.M)]
        emit = [[[lin(int(j == y), spec.T.rows[j][y], i) for y in range(s)]
                 for j in range(s)] for i in range(n)]
        trans = [[[const(v) for v in row] for row in spec.M.rows]] * (n - 1)
    else:
        s = spec.R.size
        start, v = [{} for _ in range(s)], [Fraction(1, s)] * s
        for m in range(caps[0] + 1):
            e = (m,) + zero[1:]
            start = [_poly_add(a, {e: x} if x else {}) for a, x in zip(start, v)]
            v = [sum(v[i] * spec.T.rows[i][j] for i in range(s)) for j in range(s)]
        emit = [[[const(x) for x in row] for row in spec.R.rows]] * n
        trans = [[[lin(Fraction(1, s), spec.T.rows[i][j], d + 1) for j in range(s)]
                  for i in range(s)] for d in range(n - 1)]

    def entropy(m):
        total = LogLinearValue.make(0)
        for ys in product(range(s), repeat=m):
            alpha = [_poly_mul(start[j], emit[0][j][ys[0]], caps) for j in range(s)]
            for t, y in enumerate(ys[1:]):
                alpha = [_poly_mul(_sum_polys(_poly_mul(alpha[i], trans[t][i][j], caps)
                                              for i in range(s)),
                                   emit[t + 1][j][y], caps) for j in range(s)]
            p = _sum_polys(alpha)
            if not p:
                continue
            c0 = p.get(zero, 0)
            if c0 <= 0:
                raise ValueError(f"word {ys} has constant term {c0}")
            total = (total - LogLinearValue.log_of(c0) * p.get(kvec, 0)
                     - _poly_mul(p, log1p_part(p, c0, caps), caps).get(kvec, 0))
        return total

    return (entropy(n) - entropy(n - 1)) * math.prod(math.factorial(k) for k in kvec)


def log1p_part(p: dict, c0, caps) -> dict:
    """W with log(p) = log(c0) + W, via the nilpotent series for log(1 + q).

    p is an exponent-tuple dict within caps; q = p / c0 - 1.
    """
    zero = (0,) * len(caps)
    q = _poly_add({e: c / c0 for e, c in p.items()}, {zero: Fraction(-1)})
    total, power = {}, q
    for m in range(1, sum(caps) + 2):
        total = _poly_add(total, {e: c * Fraction((-1) ** (m + 1), m) for e, c in power.items()})
        power = _poly_mul(power, q, caps)
    return total


def _times(x: list, entry) -> list:
    """A coefficient list times a table entry, the factor a + b*x_i as
    (a, b, shift) with shift the position pairs (e, e + 1_i)."""
    a, b, shift = entry
    out = [c * a for c in x]
    for e, f in shift:
        out[f] += x[e] * b
    return out


def recursive_walk(start, emit_at, trans_at, depth, n, sums, domain, weights=None):
    """The walk of entropy._walk, depth first and one node at a time, on the
    same integer tables and reads: the sum over the states for a key
    (False, depth) of sums, each state alone for (True, depth), each state
    first times its weight if weights are given.  The kernel gets every
    nonzero leaf of a read once, with multiplicity 1, and the subtree of a
    node whose states are all zero is pruned."""
    reads = [(joint, sums[joint, depth + 1]) for joint in (False, True)
             if (joint, depth + 1) in sums]
    for col in emit_at[depth]:
        gamma = [_times(x, entry) for x, entry in zip(start, col)]
        if not any(map(any, gamma)):
            continue
        states = gamma if weights is None else [[c * w for c in g] for g, w in zip(gamma, weights)]
        for joint, acc in reads:
            for p in states if joint else [[sum(c) for c in zip(*states)]]:
                if any(p):
                    domain.add_term(acc, p, 1)
        if depth + 1 < n:
            nxt = [[sum(c) for c in zip(*(_times(g, e) for g, e in zip(gamma, tc)))]
                   for tc in trans_at[depth]]
            recursive_walk(nxt, emit_at, trans_at, depth + 1, n, sums, domain, weights)


def reference_plan(caps, targets):
    """entropy._plan(targets) the slow way: the box is filtered from every
    vector within caps, and each vector's pairs from a scan of the whole
    box, quadratic in its size."""
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


def reference_sprp(n: int, bases=loglinear._MR_BASES) -> bool:
    """Whether the odd n > 41 is a strong probable prime to every one of
    bases; by default all of loglinear._MR_BASES, as loglinear._sprp decided
    before it ran the shortest prefix that proves."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in bases:
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


def reference_split(n: int) -> tuple:
    """loglinear's splitter before its fast path, uncached: n > 1 as sorted
    (base, exponent) pairs over pairwise coprime bases.  The primes below
    2^10 come from one gcd with their product; every cofactor left is proved
    prime (below 2^20 by size, else by every base), or split by rho, or
    kept, as a perfect power's root or as itself."""
    primes = {}
    g = math.gcd(n, loglinear._PRIMORIAL)
    for p in loglinear._SMALL_PRIMES:
        if g == 1:
            break
        if not g % p:
            g //= p
            e = 0
            while not n % p:
                n //= p
                e += 1
            primes[p] = e
    todo = [(n, 1)] if n > 1 else []
    kept = {}
    while todo:
        m, e = todo.pop()
        if m < 1 << 20 or (m < loglinear._MR_PROVEN and reference_sprp(m)):
            primes[m] = primes.get(m, 0) + e
            continue
        d = (None if m >= loglinear._MR_PROVEN and reference_sprp(m)
             else loglinear._rho(m))
        if d:
            todo += [(d, e), (m // d, e)]
            continue
        r, k = loglinear._root(m)
        if k > 1:
            todo.append((r, e * k))
        else:
            kept[m] = kept.get(m, 0) + e
    return tuple(sorted(loglinear._refine(primes, kept).items()))


def reference_log_ratio(n0: int, q_primes) -> list:
    """log(n0 / Q) as (base, exponent) pairs, as entropy._log_ratio listed
    them before its fast path: Q's primes by trial division, in their order,
    then reference_split of the rest."""
    fac, rest = [], n0
    for prime, v in q_primes:
        e = 0
        while not rest % prime:
            rest //= prime
            e += 1
        if e != v:
            fac.append((prime, e - v))
    if rest > 1:
        fac.extend(reference_split(rest))
    return fac


def mp_value(value: LogLinearValue):
    """An exact value as an mpmath number at the working precision."""
    import mpmath

    out = mpmath.mpf(value.rat.numerator) / value.rat.denominator
    for prime, c in value.logs:
        out += mpmath.log(prime) * mpmath.mpf(c.numerator) / c.denominator
    return out


def ll_close(a, b, rel=1e-12) -> bool:
    """Float agreement between two values of possibly different kinds."""
    fa, fb = float(a), float(b)
    return math.isclose(fa, fb, rel_tol=rel, abs_tol=1e-14)


# ---------------------------------------------------------------------------
# hypothesis strategies over exact rational models
# ---------------------------------------------------------------------------

@st.composite
def stochastic_rows(draw, size: int, max_weight: int = 9):
    """Strictly positive stochastic matrix with small rational entries."""
    rows = []
    for _ in range(size):
        weights = [
            draw(st.integers(min_value=1, max_value=max_weight))
            for _ in range(size)
        ]
        total = sum(weights)
        rows.append(tuple(Fraction(w, total) for w in weights))
    return StochasticMatrix(tuple(rows))


@st.composite
def hmp_models(draw, size: int = 2):
    m = draw(stochastic_rows(size))
    r = draw(stochastic_rows(size))
    return HmpModel(m, r, stationary_distribution(m))


@st.composite
def emission_perturbations(draw, size: int = 2, max_weight: int = 4):
    """Zero row sums with nonnegative off-diagonal entries."""
    rows = []
    for i in range(size):
        off = [
            draw(st.integers(min_value=0, max_value=max_weight))
            for _ in range(size - 1)
        ]
        row = []
        it = iter(off)
        for j in range(size):
            row.append(Fraction(-sum(off)) if j == i else Fraction(next(it)))
        rows.append(tuple(row))
    return PerturbationMatrix(tuple(rows))


@st.composite
def zero_sum_perturbations(draw, size: int = 2, max_weight: int = 4):
    """Zero row sums with entries of either sign."""
    rows = []
    for _ in range(size):
        head = [
            draw(st.integers(min_value=-max_weight, max_value=max_weight))
            for _ in range(size - 1)
        ]
        rows.append(tuple(Fraction(v) for v in head) + (Fraction(-sum(head)),))
    return PerturbationMatrix(tuple(rows))


@st.composite
def high_snr_specs(draw, size: int = 2):
    return HighSnr(draw(stochastic_rows(size)), draw(emission_perturbations(size)))


@st.composite
def am_specs(draw, size: int = 2):
    return AlmostMemoryless(
        draw(stochastic_rows(size)), draw(zero_sum_perturbations(size))
    )
