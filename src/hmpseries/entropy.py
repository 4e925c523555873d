"""Exact and floating entropies of finite observation windows.

Everything here reduces to one shared-prefix traversal of the observation
tree.  A regime's walk (jets, per-site) carries beta_d(j) =
P([Y]_1^d, X_{d+1} = j) down from beta_0 = pi: a symbol y multiplies it by
the emission column for y (giving gamma, whose sum is the sequence
probability), then by the transition matrix.  A model's window walk
(_read) goes backward, from 1 on each state through M^t, so gamma_i =
P([Y]_1^d = y | X_1 = i): the pi_i gamma_i are leaves of H(X_1, [Y]_1^d),
and their sum a leaf of H_d.  Leaves with identically zero probability add
nothing (the walk skips them), which is exactly the 0*log(0) convention.

Every request is one walk, described as data (_Walk): its exact source, its
reads, its targets and what its finish returns.  An entry point validates
its inputs, describes its walk and shapes what the walk reads; one executor
(_execute) prices the walk (_price), refuses it over COST_CAP before it
starts, and runs it (_read) inside the backend's context.  _read maps the
source once, for every backend, to integer tables (_integer_tables), with
integer numerators over Q_d = D_start * D_R^d * D_M^(d-1) at depth d, and
_walk walks them level by level, every node of a level in a slot of one
integer per coefficient (_slot_bits).

Each backend has one -p log p kernel, _JetExactDomain and _JetFloatDomain
(_domain picks one), for one leaf shape: a coefficient list laid out by a
plan built once per tuple of targets (_plan).  A jet of order K has the
targets 0..K, and a scalar is the jet of order 0.  The kernel runs once per
distinct leaf of a read, times its multiplicity (_leaves), and its finish
gives a list of per-target values.  The exact kernel sums integers per
distinct constant term N_0 (_new_cells) and takes one log(N_0 / Q_d) per
N_0 (_finish_cells); the probability totals read sum N_t / Q_d from the
same cells (_cell_totals).  The float kernel divides each leaf's integers,
with Q_d in closed form, so it factors nothing and never imports sympy.

_windows reads the window entropies of a list of n from one backward walk
to the largest n: H_{n-1} and H_n of every listed n and, for c_n, their
joint entropies with X_1.  The price covers the whole request, whatever the
process has seen.  A process remembers every value a model's walk read, per
model, backend and read (_RECORDED), for as long as the caller keeps the
model object: a request walks only to the deepest depth it misses.  The
totals always walk.
"""

from __future__ import annotations

import math
import struct
import weakref
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product, repeat
from operator import index, truediv
from typing import NamedTuple

from .backends import EXACT, FLOAT64, _log_sum
from .errors import DepthCapExceeded, NonpositiveConstantTerm
from .loglinear import LogLinearValue, _bases, _normalise, _split, factor_positive
from .model import HmpModel, _matmul

COST_CAP = 6 * 10**7  # the predicted cost (_price) over which a request is refused
_BLOCK = 1 << 16  # distinct leaves held, and float terms kept, at a time
_RECORDED = weakref.WeakKeyDictionary()  # {model: {(joint, tag, depth): [value]}}


def _check_depth(n: int, lower_from=None, cost=0):
    """Refuses a window length below 1 or lower_from, and a cost over COST_CAP."""
    if index(n) < 1:
        raise ValueError(f"window length must be positive, got {n}")
    if cost > COST_CAP:
        raise DepthCapExceeded(f"predicted cost {cost:.3g} exceeds the cap {COST_CAP:.3g}")
    if lower_from is not None and n < lower_from:
        raise ValueError("the conditional lower bound needs n >= 2")


def _nodes(s, width, d):
    """width * (1 + s + ... + s^(d-1)), a walk's nodes at depths 1..d, saturating."""
    return width * (math.expm1(min(d * math.log(s), 700)) / (s - 1) if s > 1 else d)


def _cost(s, n, record, backend, joint=False, order=0, kvec=None):
    """A walk's predicted cost (_price), in about microseconds of a cold run
    on a 2-core x86 machine, or inf if too large for a float: per node s(s+1)
    products of box-wide lists, per leaf of a recorded depth _plan's pairs
    (in closed form) and a log and, if exact, one cell, weighted to also hold
    peak memory near 0.5 GB at COST_CAP.  Every backend walks integers; on
    bigfloat, mpmath's arithmetic weighs the leaf's pairs by 20 + bits/32,
    and its log adds 10 + 2700 (bits/4096)^3 per leaf."""
    if kvec is not None:
        box = math.prod(k + 1 for k in kvec)
        pairs = math.prod((k + 1) * (k + 2) // 2 for k in kvec) - box + 1
    else:
        box, pairs = order + 1, order**2 + 1
    bits = getattr(backend, "bits", None)
    width = s * s if joint else s
    try:
        w, log = (1, 0) if bits is None else (20 + bits / 32, 10 + 2700 * (bits / 4096) ** 3)
        leaves = sum(_nodes(s, width, d) - _nodes(s, width, d - 1) for d in record)
        return (0.3 * _nodes(s, width, n) * s * (s + 1) * box
                + (w * 0.12 * pairs + log + (0.25 * pairs + 20) * backend.is_exact) * leaves)
    except OverflowError:
        return math.inf


def _slot_bits(start, emit_at, trans_at, n, weights=None):
    """Bits of a signed slot, a multiple of 8, that holds every coefficient of
    every node and leaf to depth n of an integer walk (_integer_tables).

    A leaf's coefficients sum in absolute value to at most the start lists'
    times the largest |weight|, times per depth the largest |a| + |b| of an
    emission entry and, before the last, the largest sum of |a| + |b| along
    a row of the transition table; truncation only drops terms.
    """
    bound = sum(abs(c) for coeffs in start for c in coeffs) * max(map(abs, weights or [1]))
    for depth in range(n):
        bound *= max(abs(a) + abs(b) for col in emit_at[depth] for a, b, _ in col)
        if depth + 1 < n:
            rows = zip(*([abs(a) + abs(b) for a, b, _ in tc] for tc in trans_at[depth]))
            bound *= max(map(sum, rows))
    return 8 * (bound.bit_length() // 8 + 1)


def _dot(xs, entries, box):
    """Sum_j xs_j * entries_j over packed coefficient lists; an entry (a, b,
    shift) is the factor a + b*x_i, shift the plan's pairs (e, e + 1_i), which
    a scalar walk's plan of order 0 leaves empty."""
    out = [0] * box
    for x, (a, b, shift) in zip(xs, entries):
        if a:
            out = [o + c * a for o, c in zip(out, x)]
        if b:
            for e, f in shift:
                out[f] += x[e] * b
    return out


def _concat(blocks, shift):
    """The packed lists of blocks, one level's children per symbol, as one
    packed list: block y's nodes move up by y * shift bits."""
    out = blocks[-1]
    for block in reversed(blocks[:-1]):
        out = [(hi << shift) + lo for hi, lo in zip(out, block)]
    return out


def _leaves(packed, count, bits):
    """(coefficient list, multiplicity) of each distinct nonzero leaf among
    the count nodes of a packed list.

    Each node becomes one row of bytes, its slots in position order with
    2^(bits-1) added to each, so that a signed slot reads as an unsigned
    one.  One count runs over all the rows, _BLOCK nodes at a time, and is
    read out once it holds _BLOCK distinct rows and at the end, so a depth
    with fewer distinct leaves yields each of them once.
    """
    size, box = bits // 8, len(packed)
    half, zero = 1 << (bits - 1), (bytes(size - 1) + b"\x80") * box  # zero: a zero leaf's row
    offset = int.from_bytes(zero[:size] * count, "little")
    rows = bytearray(size * box * count)
    while packed:  # each position's integer is freed once it is read
        e = len(packed) - 1
        buf = (packed.pop() + offset).to_bytes(size * count, "little")
        for b in range(size):  # byte b of slot e of every node
            rows[e * size + b::size * box] = buf[b::size]
    step, view, counts = size * box * _BLOCK, memoryview(rows), Counter()
    for lo in range(0, len(rows), step):
        counts.update(row for (row,) in struct.iter_unpack(f"{size * box}s", view[lo:lo + step]))
        if len(counts) >= _BLOCK or lo + step >= len(rows):
            for row, m in counts.items():
                if row != zero:
                    yield [int.from_bytes(row[i:i + size], "little") - half
                           for i in range(0, size * box, size)], m
            counts.clear()


def _walk(start, emit_at, trans_at, depth, n, sums, domain, weights=None):
    """The walk of integer tables (_integer_tables) from the start lists at
    depth to depth n, breadth first on packed integers.  Every walk starts
    here at depth 0, where bench/tracer.py and the tests count walks.

    A level holds, per state and coefficient position, one integer with
    every node of the level in a signed slot of _slot_bits bits, node k at
    bit k * bits.  A table entry a + b*x_i costs two big-integer products
    and one add per level, and the children of symbol y take the block of
    slots above those of y - 1.  A recorded depth is read like one more
    transition, for each key of sums: (False, depth) through a column of
    the weights (1 without them), (True, depth) through one column per state
    with its weight alone.  The kernel runs once per distinct nonzero leaf
    of a read, a coefficient list of the plan's width (1 for a scalar), with
    its multiplicity (_leaves).
    """
    box = len(domain.plan[0])
    level, width = start, 1
    bits = _slot_bits(level, emit_at, trans_at, n, weights)
    ws = [(w, 0, ()) for w in weights or [1] * len(start)]  # as table entries
    alone = [[w if i == j else (0, 0, ()) for j, w in enumerate(ws)] for i in range(len(ws))]
    for depth in range(depth, n):
        reads = [(sums[j, depth + 1], alone if j else [ws]) for j in (False, True)
                 if (j, depth + 1) in sums]
        tcols = trans_at[depth] if depth + 1 < n else []
        outs = tcols + [c for _, rcols in reads for c in rcols]
        blocks = []
        for col in emit_at[depth]:
            gamma = [_dot((x,), (entry,), box) for x, entry in zip(level, col)]
            blocks.append([_dot(gamma, tc, box) for tc in outs])
        shift, width = width * bits, width * len(blocks)
        pieces = list(zip(*blocks))  # per column of outs, its blocks by symbol
        del gamma, blocks  # each piece is freed once concatenated
        level = [_concat(pieces.pop(0), shift) for _ in tcols]  # none below depth n
        for acc, rcols in reads:  # a read's columns one above another
            packed = _concat([b for _ in rcols for b in pieces.pop(0)], shift)
            for p, m in _leaves(packed, width * len(rcols), bits):
                domain.add_term(acc, p, m)


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
    refines the composite bases the N_0 of the depth share into one base.
    Each base is a prime or free of primes below 2^10 (_log_ratio), so it
    re-splits them with the splitter alone."""
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
    return [LogLinearValue._of(-rat / q, q, *_normalise(lg, _split))
            for rat, lg in zip(rats, logs)]


def _cell_totals(acc):
    """Sum_leaves N_t / Q_d per target, from the N_t sums that open each cell."""
    _, q, cells = acc
    sums = [sum(col) for col in zip(*cells.values())]
    return [Fraction(s, q) for s in sums[:len(sums) // 2]]


@lru_cache(maxsize=256)
def _plan(targets):
    """The plan of coefficient lists below targets, exponent vectors.

    The box is the union of the targets' lattices {f <= t}, ordered with the
    last variable most significant, so position 0 is the constant term and a
    jet of order K (targets 0..K) has its orders as positions.  Returns the
    weights |e| by position, then each nonzero box entry e with its pairs
    (g, e - g) over 0 < g < e, then each target t with its weight and its
    pairs (t - h, h) over 0 < h <= t, each from the lattice of e or t alone,
    then per variable i the shift pairs (e, e + 1_i) of the box.
    """
    def lattice(e):  # the vectors f <= e in box order, 0 first and e last
        return sorted(product(*(range(a + 1) for a in e)), key=lambda f: f[::-1])

    vecs = sorted({f for t in targets for f in lattice(t)}, key=lambda e: e[::-1])
    pos = {e: i for i, e in enumerate(vecs)}

    def minus(e, f):
        return pos[tuple(a - b for a, b in zip(e, f))]

    box = tuple((pos[e], sum(e), tuple((pos[g], minus(e, g)) for g in lattice(e)[1:-1]))
                for e in vecs[1:])
    tops = tuple((pos[t], sum(t), tuple((minus(t, h), pos[h]) for h in lattice(t)[1:]))
                 for t in targets)
    ups = [[e[:i] + (e[i] + 1,) + e[i + 1:] for e in vecs] for i in range(len(targets[0]))]
    shifts = tuple(tuple((pos[e], pos[f]) for e, f in zip(vecs, up) if f in pos) for up in ups)
    return tuple(sum(e) for e in vecs), box, tops, shifts


class _JetExactDomain:
    """The exact -p log p kernel for scalars, jets and per-site polynomials.

    A leaf at depth d carries integer numerators N_e over Q_d.  With
    W = log(p / N_0) and B_e = |e| N_0^|e| W_e, Euler's operator gives
    B_e = |e| N_e N_0^(|e|-1) - sum_{0<g<e} N_g N_0^(|g|-1) B_(e-g) over the
    plan's box (_plan).  For each target t a leaf adds N_t and the numerator
    of [N W]_t over lcm(1..|t|) N_0^|t| to the cell of its N_0, so it builds
    no Fraction and factors nothing.  On an empty box (order 0) it adds N_0.
    """

    def __init__(self, plan):
        self.plan = plan
        self.weights = [w for _, w, _ in plan[2]]
        self.top = max(self.weights)
        self.lcm = math.lcm(*range(1, self.top + 1))

    def prepare(self, scales):
        """The maker of a depth's cells, from the table scales (D_start, D_R,
        D_M): each distinct scale other than 1 is factored once
        (factor_positive), and Q_d's primes follow."""
        factored = {d: factor_positive(d) for d in set(scales) - {1}}

        def cells(depth):  # over the primes of Q_depth
            q = {}
            for d, times in zip(scales, (1, depth, depth - 1)):
                for p, e in factored.get(d, ()):
                    q[p] = q.get(p, 0) + e * times
            return _new_cells(tuple((p, e) for p, e in q.items() if e))

        return cells

    def add_term(self, acc, p, m):
        """Adds the leaf p, m times, to the cell of its N_0."""
        n0 = p[0]
        _check_constant(n0, acc[1])
        cell = acc[2].get(n0)
        if cell is None:
            cell = acc[2][n0] = [0] * (2 * len(self.weights))
        weight, box, tops, _ = self.plan
        if not box:  # the plan of order 0: N_0 alone
            cell[0] += m * n0
            return
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
            cell[i] += m * p[t]
            num = 0
            for g, h in pairs:
                tg = tail[g]
                if tg:
                    num += tg * lam[h]
            cell[top + i] += m * n0 * num

    def finish(self, acc):
        return _finish_cells(acc, self.lcm, self.weights)


def _log_ratio(n0, q_primes):
    """log(n0 / Q) as (base, exponent) pairs over pairwise coprime bases.

    Q's primes leave n0 by trial division, and the rest goes to
    loglinear._bases: the primes below 2^10 from one gcd, a cofactor below
    2^20 or proved before as a prime, and a larger one through the splitter,
    cached per cofactor, which keeps a composite base where it cannot split
    it.  Nothing is fully factored.
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
        fac.extend(_bases(rest))
    return fac


def _check_constant(n0, q):
    """Refuses a leaf whose constant term N_0 / Q_d is not positive."""
    if n0 <= 0:
        raise NonpositiveConstantTerm(f"sequence probability has constant term {Fraction(n0, q)}")


def _integer_tables(source, plan):
    """The walk tables of an exact source on integers, and their scales.

    A source (start, emits, transs) holds one coefficient list per state, one
    table per depth and one per step.  A table (A, B, i) is the matrix
    A + x_i*B in exact rationals, B None for a fixed matrix, and the walk
    reads its columns.  Each kind of table is scaled by one lcm of its
    denominators: the start lists by D_start, every emission table by D_R
    and every transition table by D_M, so a node at depth d carries integer
    numerators over Q_d = D_start * D_R^d * D_M^(d-1).  A start list, in
    powers of x_0, pads to the plan's width (the plan puts x_0^m at position
    m).  An entry becomes the factor (a, b, shift), shift the plan's pairs
    (e, e + 1_i), none at order 0.  Each distinct (A, B, i) of a kind is
    mapped once, so the depths that share it share its columns.  Returns the
    start lists, the columns per depth of the emission and transition
    tables, and (D_start, D_R, D_M).
    """
    start, emits, transs = source

    def scale(tables):  # the lcm of the denominators in a kind's distinct matrices
        mats = {id(m): m for a, b, _ in tables for m in (a, b) if m is not None}
        return math.lcm(*(x.denominator for m in mats.values() for row in m for x in row))

    def scaled(q, d):  # the rational q times its kind's scale d, an integer
        return q.numerator * (d // q.denominator)

    def kind(tables, d):
        done = {}
        for a, b, i in tables:
            if (id(a), id(b), i) not in done:  # a B of None reads as zeros
                cols = zip(zip(*a), zip(*b) if b is not None else repeat(repeat(0)))
                done[id(a), id(b), i] = [[(scaled(x, d), scaled(y, d), plan[3][i])
                                          for x, y in zip(ca, cb)] for ca, cb in cols]
        return [done[id(a), id(b), i] for a, b, i in tables]

    scales = d_start, d_r, d_m = scale([(start, None, 0)]), scale(emits), scale(transs)
    beta = [[scaled(c, d_start) for c in coeffs] + [0] * (len(plan[0]) - len(coeffs))
            for coeffs in start]
    return beta, kind(emits, d_r), kind(transs, d_m), scales


class _JetFloatDomain:
    """The float -p log p kernel for scalars, jets and per-site polynomials.

    A leaf's integer numerators N_e over Q_d are read by division, p_0 =
    N_0 / Q_d and r_e = N_e / N_0: float64 divides the integers, correctly
    rounded at any size, and bigfloat converts the numerator at its working
    precision.  An empty box takes one log.  Otherwise W = log(p / p_0)
    depends on the ratios r alone, W_e = r_e - sum_{0<g<e} r_g |e-g| W_(e-g)
    / |e| over the plan's box (_plan), and a leaf adds m times
    -p_0 (r_t log(p_0) + [r W]_t) to the terms of each target t.  The terms
    are summed with fsum (Shewchuk, DCG 18, 1997; mpmath's at the working
    precision on bigfloat) every _BLOCK terms and at the finish.
    """

    def __init__(self, backend, plan):
        self._log, self.plan = backend.log, plan
        if backend.bits is None:
            self._ratio, self._fsum = truediv, math.fsum
        else:
            import mpmath

            self._ratio, self._fsum = (lambda n, q: mpmath.mpf(n) / q), mpmath.fsum

    def prepare(self, scales):
        """The maker of a depth d's accumulator: Q_d, from the table scales
        (D_start, D_R, D_M) in closed form, and one list of terms per target."""
        d_start, d_r, d_m = scales
        return lambda d: (d_start * d_r**d * d_m**(d - 1), [[] for _ in self.plan[2]])

    def add_term(self, acc, p, m):
        """Adds -p log p of the leaf p, m times, to the terms of each target."""
        q, sums = acc
        ratio, (_, box, tops, _) = self._ratio, self.plan
        n0 = p[0]
        _check_constant(n0, q)
        c0 = ratio(n0, q)
        lg0 = self._log(c0)
        if not box:  # the plan of order 0: one log
            terms = (c0 * lg0,)
        else:
            r = [ratio(x, n0) if x else 0 for x in p]  # p_e / p_0, W's only input
            lg, wlg = [0] * len(r), [0] * len(r)  # W_e and |e| W_e
            for e, w, pairs in box:
                v = w * r[e]
                for g, h in pairs:
                    rg = r[g]
                    if rg:
                        v = v - rg * wlg[h]
                lg[e], wlg[e] = v / w, v
            terms = []
            for t, _, pairs in tops:
                term = r[t] * lg0
                for g, h in pairs:
                    rg = r[g]
                    if rg:
                        term = term + rg * lg[h]
                terms.append(c0 * term)
        for out, term in zip(sums, terms):
            out.append(-m * term)
            if len(out) == _BLOCK:
                out[:] = [self._fsum(out)]

    def finish(self, acc):
        return [self._fsum(out) for out in acc[1]]


def _domain(backend, order=0, kvec=None):
    """The backend's -p log p kernel for jets to the given order, or for the
    kvec coefficient of per-site polynomials with caps kvec.  A scalar is the
    jet of order 0, the default: one position and one target of weight 0.
    The targets are the orders 0..order as 1-vectors, or kvec alone."""
    plan = _plan((tuple(kvec),) if kvec is not None else tuple((k,) for k in range(order + 1)))
    if backend.is_exact:
        return _JetExactDomain(plan)
    return _JetFloatDomain(backend, plan)


class _Walk(NamedTuple):
    """One walk as data: size states, its reads keys (joint, depth) in the
    order _price sums them, and its targets order or kvec (_domain).
    source(n) is a forward walk's exact source to depth n.  A model's walk
    (model set) is backward (_read), and its values are recorded per model
    (_RECORDED).  With totals its reads finish as their cells' totals
    (_cell_totals), and nothing is recorded."""

    size: int
    keys: tuple
    source: object = None
    model: object = None
    order: int = 0
    kvec: tuple | None = None
    totals: bool = False


def _price(walk, backend):
    """A walk's predicted cost (_cost): its plain and its joint reads each
    priced as a walk to their deepest depth, the joint one of width s*s."""
    return sum(_cost(walk.size, max(rec), rec, backend, joint, walk.order, walk.kvec)
               for joint in (False, True) if (rec := {d for j, d in walk.keys if j == joint}))


def _read(walk, n, keys, backend):
    """{key: the kernel's finished per-target values} for each of keys, from
    one walk to depth n (_walk) on its source's integer tables, into
    accumulators the kernel makes from their scales.  A forward walk reads
    through a unit weight column.  A model's starts at 1 on each state, goes
    through R's emission columns and M^t and reads through pi's column, so
    its leaves are integers over Q_d = D_pi * D_R^d * D_M^(d-1) as well."""
    m, weights = walk.model, None
    source = walk.source(n) if m is None else ([[p] for p in m.pi], [(m.R.rows, None, 0)] * n,
                                               [(list(zip(*m.M.rows)), None, 0)] * (n - 1))
    domain = _domain(backend, walk.order, walk.kvec)
    start, emit_at, trans_at, scales = _integer_tables(source, domain.plan)
    if m is not None:
        start, weights = [[1]] * walk.size, [b for [b] in start]
    new = domain.prepare(scales)
    sums = {key: new(key[1]) for key in keys}
    _walk(start, emit_at, trans_at, 0, n, sums, domain, weights)
    finish = _cell_totals if walk.totals else domain.finish
    return {key: finish(acc) for key, acc in sums.items()}


def _execute(walk, backend, shape):
    """shape({key: per-target values}) of a request's walk on backend: priced
    and refused over COST_CAP before it starts, then read inside
    backend.ctx(), a model's values from earlier requests (_RECORDED) and one
    walk to the deepest missing depth (_read), kept once it returns."""
    _check_depth(max(d for _, d in walk.keys), cost=_price(walk, backend))
    kept, tag = walk.model is not None and not walk.totals, backend.tag
    seen = _RECORDED.get(walk.model, {}) if kept else {}
    missing = {(j, d) for j, d in walk.keys if (j, tag, d) not in seen}
    with backend.ctx():
        if missing:
            values = _read(walk, max(d for _, d in missing), missing, backend)
            seen.update(((j, tag, d), v) for (j, d), v in values.items())
            if kept:
                _RECORDED[walk.model] = seen
        return shape({(j, d): seen[j, tag, d] for j, d in walk.keys})


def finite_entropy(model: HmpModel, n: int, backend=EXACT):
    """H_n = H([Y]_1^n) of the stationary process, in nats."""
    return _execute(_Walk(model.size, ((False, n),), model=model), backend,
                    lambda v: v[False, n][0])


def conditional_increment(model: HmpModel, n: int, backend=EXACT):
    """C_n = H_n - H_{n-1}, an upper bound on the entropy rate.

    Both entropies come from one traversal.  C_1 := H_1 by convention.
    """
    return _windows(model, [n], backend)[0].increment


def lower_bound(model: HmpModel, n: int, backend=EXACT):
    """c_n = H(Y_n | X_1, [Y]_1^{n-1}), a lower bound on the entropy rate.

    It is H(X_1, [Y]_1^n) - H(X_1, [Y]_1^{n-1}), from the per-state leaves
    of one backward walk (_read).
    """
    _check_depth(n, lower_from=2)
    return _execute(_Walk(model.size, ((True, n - 1), (True, n)), model=model), backend,
                    lambda v: v[True, n][0] - v[True, n - 1][0])


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
    return _execute(_Walk(model.size, ((False, n),), model=model, totals=True), EXACT,
                    lambda v: v[False, n][0])


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


def _window_keys(ns, lower_from=None):
    """The reads of _windows' walk: H_{n-1} and H_n of every n of ns, and with
    lower_from their joint entropies with X_1 for every n >= 2."""
    long = [n for n in ns if n >= 2] if lower_from is not None else []
    return (tuple((False, d) for n in ns for d in (n - 1, n) if d)
            + tuple((True, d) for n in long for d in (n - 1, n)))


def _windows(model: HmpModel, ns, backend, lower_from=None):
    """One EntropyReport per n of ns, in list order, from one walk
    (_window_keys); every n is checked, in list order, before it is priced.
    C_1 = H_1, and c_n is None at n = 1 or without lower_from, below which a
    window is refused."""
    if not ns:
        raise ValueError("need at least one window size")
    for n in ns:
        _check_depth(n, lower_from)

    def reports(v):
        v = {(False, 0): 0, **{key: x for key, [x] in v.items()}}  # H_0 = 0: C_1 = H_1
        return [EntropyReport(n, v[False, n], v[False, n] - v[False, n - 1],
                              v[True, n] - v[True, n - 1] if (True, n - 1) in v else None,
                              backend.tag) for n in ns]

    return _execute(_Walk(model.size, _window_keys(ns, lower_from), model=model), backend,
                    reports)
