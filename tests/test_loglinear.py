"""Exact values of the form q0 + sum_p q_p log p."""

import gc
import math
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from hmpseries import (DomainNotClosed, LogLinearValue, factor_positive, finite_entropy,
                       load_model, loglinear)
from hmpseries.entropy import _finish_cells, _log_ratio
from hmpseries.loglinear import _LLAccumulator, _normalise

from util import reference_log_ratio, reference_split, reference_sprp

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40
)
positives = st.fractions(
    min_value=Fraction(1, 40), max_value=Fraction(50), max_denominator=40
)


def test_factor_positive_small():
    assert factor_positive(12) == ((2, 2), (3, 1))
    assert factor_positive(Fraction(9, 10)) == ((2, -1), (3, 2), (5, -1))
    assert factor_positive(1) == ()


def test_factor_positive_rejects_nonpositive():
    with pytest.raises(ValueError):
        factor_positive(0)
    with pytest.raises(ValueError):
        factor_positive(Fraction(-3, 4))


def test_composite_bases_are_normalised():
    # log(6) = log(2) + log(3) and log(4) = 2 log(2), whatever bases they are given in
    six = LogLinearValue(0, ((6, 1),))
    two_three = LogLinearValue(0, ((2, 1), (3, 1)))
    assert six == two_three
    assert hash(six) == hash(two_three)
    assert not six - two_three
    assert (six - two_three).render() == "0"
    assert six.render() == "log(2) + log(3)"
    assert LogLinearValue(0, ((4, 1),)) == LogLinearValue(0, ((2, 2),))
    assert LogLinearValue(0, ((4, 1),)).logs == ((2, Fraction(2)),)
    assert LogLinearValue(0, ((1, 5), (3, 1), (3, -1))) == 0


def test_nonpositive_base_is_rejected():
    with pytest.raises(ValueError):
        LogLinearValue(0, ((0, 1),))


# Three primes above 2^40.  A product of two of them is out of reach of the
# splitter's rho budget, so it stays one composite base until the bases of
# another value split it by a gcd.
P, Q, R = 1099511627791, 1099511627803, 2199023255579
SHARED = (P * Q, P * R, Q * Q * R, P, Q * R, 6 * P * Q, 12, Fraction(P, R * 5))
terms = st.lists(st.tuples(st.sampled_from(SHARED), rationals), max_size=5)


def over_primes(rat, pairs):
    """The oracle: rat and {prime: coefficient}, every base by factor_positive."""
    logs = {}
    for b, c in pairs:
        for p, e in factor_positive(b):
            logs[p] = logs.get(p, 0) + c * e
    return rat, {p: c for p, c in logs.items() if c}


def integer_pairs(pairs):
    """(base, coefficient) pairs over integers: a rational base b/d gives b and d."""
    out = []
    for b, c in pairs:
        b = Fraction(b)
        out += [(b.numerator, c), (b.denominator, -c)]
    return out


def built(rat, pairs):
    """The value of rat + sum c log(b), with the denominator of a rational b as a
    base of its own."""
    return LogLinearValue(rat, tuple(integer_pairs(pairs)))


def test_shared_large_primes_stay_composite_until_refined():
    pq, pr = LogLinearValue.log_of(P * Q), LogLinearValue.log_of(P * R)
    assert pq.render() == f"log({P * Q})"
    assert (pq + pr).render() == f"2·log({P}) + log({Q}) + log({R})"
    assert pq - LogLinearValue(0, ((P, 1),)) == LogLinearValue(0, ((Q, 1),))
    # a base divisible by the hash's prime modulus, held whole and split
    m = (1 << 61) - 1
    whole, split = LogLinearValue(0, ((m * P, 1),)), LogLinearValue(0, ((m, 1), (P, 1)))
    assert whole.logs != split.logs
    assert whole == split and hash(whole) == hash(split)


@given(rationals, terms)
@settings(deadline=None)  # the first factorint of a product of two large primes is slow
def test_construction_matches_the_factoring_oracle(rat, pairs):
    v = built(rat, pairs)
    assert over_primes(v.rat, v.logs) == over_primes(rat, pairs)
    bases = [b for b, _ in v.logs]
    assert all(b > 1 for b in bases)
    assert all(math.gcd(a, b) == 1 for i, a in enumerate(bases) for b in bases[i + 1:])
    assert all(math.gcd(*(e for _, e in factor_positive(b))) == 1 for b in bases)
    oracle_rat, oracle_logs = over_primes(rat, pairs)
    expect = oracle_rat + math.fsum(float(c) * math.log(p) for p, c in oracle_logs.items())
    assert float(v) == pytest.approx(expect, rel=1e-9, abs=1e-9)


@given(rationals, terms, rationals, terms, rationals)
@settings(deadline=None)
def test_arithmetic_matches_the_factoring_oracle(ra, a_pairs, rb, b_pairs, s):
    a, b = built(ra, a_pairs), built(rb, b_pairs)
    ao, bo = over_primes(ra, a_pairs), over_primes(rb, b_pairs)
    # the same values over the oracle's primes
    a_primes = LogLinearValue(ao[0], tuple(ao[1].items()))
    b_primes = LogLinearValue(bo[0], tuple(bo[1].items()))
    assert a == a_primes and hash(a) == hash(a_primes)
    assert (a == b) == (ao == bo) == (a_primes == b_primes)
    if ao == bo:
        assert hash(a) == hash(b)
    total = over_primes(ra + rb, a_pairs + b_pairs)
    assert over_primes((a + b).rat, (a + b).logs) == total
    assert a + b == a_primes + b_primes and hash(a + b) == hash(a_primes + b_primes)
    difference = over_primes(ra - rb, a_pairs + [(x, -c) for x, c in b_pairs])
    assert over_primes((a - b).rat, (a - b).logs) == difference
    assert bool(a - b) == (ao != bo)
    assert (a + b) - b == a and hash((a + b) - b) == hash(a)
    scaled = over_primes(ra * s, [(x, c * s) for x, c in a_pairs])
    assert over_primes((a * s).rat, (a * s).logs) == scaled
    assert a * s == a_primes * s and hash(a * s) == hash(a_primes * s)
    assert float(a) == pytest.approx(float(a_primes), rel=1e-9, abs=1e-9)


def fraction_terms(pairs):
    """The logs of integer (base, coefficient) pairs as a Fraction-coefficient
    form holds them: merged in Fractions, then normalised (_normalise), as
    (base, coefficient) pairs."""
    merged = {}
    for b, c in pairs:
        if b > 1 and c:
            merged[b] = merged.get(b, 0) + Fraction(c)
    return tuple(zip(*_normalise(merged)))


def assert_canonical(v):
    # the stored form: two flat tuples of ints of one length, no zero numerator
    bases, nums = v.bases, v.nums
    assert type(bases) is tuple and type(nums) is tuple and len(bases) == len(nums)
    assert all(type(x) is int for x in bases + nums)
    assert all(nums)
    assert v.terms == tuple(zip(bases, nums))
    assert v.den > 0
    assert math.gcd(v.den, *nums) == 1
    assert nums or v.den == 1
    assert list(bases) == sorted(bases)
    assert all(math.gcd(a, b) == 1 for i, a in enumerate(bases) for b in bases[i + 1:])
    # a prime below 2^10 or free of them, so _plus may re-split it with _split alone
    assert all(b in loglinear._SMALL_PRIMES or math.gcd(b, loglinear._PRIMORIAL) == 1
               for b in bases)


def assert_same_form(a, b):
    """Equal values hash alike, and over the same bases they hold the same integers."""
    assert a == b and hash(a) == hash(b)
    if a.bases == b.bases:
        assert (a.rat, a.den, a.nums) == (b.rat, b.den, b.nums)


@given(rationals, terms, rationals, terms, rationals)
@settings(deadline=None)
def test_integer_form_is_canonical(ra, a_pairs, rb, b_pairs, s):
    a, b = built(ra, a_pairs), built(rb, b_pairs)
    for v in (a, b, a + b, a - b, a * s, -a, a + rb, LogLinearValue(ra)):
        assert_canonical(v)
    assert a.logs == fraction_terms(integer_pairs(a_pairs))
    assert a.logs == tuple((p, Fraction(n, a.den)) for p, n in a.terms)
    # the same sum by the constructor, by +, - and scaling, and as a depth's
    # integer sums over Q = 2^3 * 5 (one cell per constant term N_0)
    both = integer_pairs(a_pairs) + integer_pairs(b_pairs)
    assert_same_form(LogLinearValue(ra + rb, tuple(both)), a + b)
    assert_same_form((a + b) - b, a)
    assert_same_form(a * s + b * s, (a + b) * s)
    assert_same_form(a * 2, a + a)
    q_primes, q = ((2, 3), (5, 1)), 40
    cells = {}
    for b, c in a_pairs:
        cells.setdefault(Fraction(b).numerator, [0, 0])[0] += c.numerator
    depth = _finish_cells((q_primes, q, cells), 1, [0])[0]
    direct = LogLinearValue(0, tuple(p for n0, (nt, _) in cells.items()
                                     for p in ((n0, Fraction(-nt, q)), (q, Fraction(nt, q)))))
    assert_canonical(depth)
    assert_same_form(depth, direct)
    assert hash(LogLinearValue(ra)) == hash(ra) and hash(a - a) == hash(0)


@contextmanager
def cold_splitter():
    """The splitter as in a fresh process for the block: its cache empty and
    the proved primes those below 2^10.  After the block the cache is
    emptied again and the proved primes restored."""
    saved = set(loglinear._PRIMES)
    loglinear._split.cache_clear()
    loglinear._PRIMES.intersection_update(loglinear._SMALL_PRIMES)
    try:
        yield
    finally:
        loglinear._split.cache_clear()
        loglinear._PRIMES.update(saved)


def primes_in(lo, hi):
    return st.integers(lo, hi).map(sympy.nextprime)


# Q_d's primes: small ones, one between 2^10 and 2^20, and one above 2^20
Q_POOL = (2, 3, 5, 7, 13, 1021, 10007, 2147483647)
q_primes = st.lists(st.tuples(st.sampled_from(Q_POOL), st.integers(1, 9)),
                    unique_by=lambda pv: pv[0], max_size=4).map(tuple)
# the factors of a constant term N_0, one kind of cofactor each: composites
# just above 2^20, where the fast path stops; rho splits a product with a
# prime below about 2^17 and gives up on two primes above 2^28
factors = st.one_of(
    st.sampled_from(Q_POOL),
    st.sampled_from(loglinear._SMALL_PRIMES),
    primes_in(1 << 10, (1 << 20) - 100),
    st.tuples(primes_in(1 << 10, 1 << 11), primes_in(1 << 10, 1 << 11)).map(math.prod),
    st.tuples(primes_in(1 << 11, 1 << 17), primes_in(1 << 20, 1 << 40)).map(math.prod),
    st.tuples(primes_in(1 << 28, 1 << 45), primes_in(1 << 28, 1 << 45)).map(math.prod),
    st.tuples(primes_in(1 << 20, 1 << 40), st.integers(2, 4)).map(lambda pk: pk[0] ** pk[1]),
    st.sampled_from((P, Q, R)),
)


@given(q_primes, st.lists(st.tuples(factors, st.integers(1, 3)), max_size=5))
@settings(deadline=None, max_examples=60)
def test_the_fast_path_splits_like_the_reference(q, parts):
    # the same (base, exponent) pairs in the same order, cold and warm
    n0 = math.prod(f**e for f, e in parts)
    with cold_splitter():
        want = reference_log_ratio(n0, q)
        whole = reference_split(n0) if n0 > 1 else ()
    with cold_splitter():
        assert _log_ratio(n0, q) == want
        assert _log_ratio(n0, q) == want
        assert tuple(loglinear._bases(n0) if n0 > 1 else ()) == whole


def test_each_prefix_of_bases_proves_primes_below_its_bound():
    # psi_k, the least strong pseudoprime to the first k prime bases, is not
    # proved prime, and the largest prime below it is.  From psi_13 on the
    # test proves nothing, and psi_13 passes it.  2047 = 23 * 89 lies below
    # 2^20, where _proved_prime takes a cofactor free of primes below 2^10 as
    # prime, so _sprp alone is asked there.
    with cold_splitter():
        for k, psi in enumerate(loglinear._PSI, 1):
            assert reference_sprp(psi, loglinear._MR_BASES[:k]), k
            assert loglinear._sprp(psi) == (psi == loglinear._MR_PROVEN), k
            assert psi < 1 << 20 or not loglinear._proved_prime(psi), k
            below = sympy.prevprime(psi)
            assert loglinear._sprp(below) and loglinear._proved_prime(below), k


def test_factor_positive_large_composite():
    # Needs more than naive trial division to finish quickly.
    n = 1000003 * 999983
    assert factor_positive(n) == ((999983, 1), (1000003, 1))


def test_log_of_builds_prime_combination():
    v = LogLinearValue.log_of(Fraction(8, 9))
    assert v.rat == 0
    assert v.log_dict() == {2: Fraction(3), 3: Fraction(-2)}
    assert math.isclose(float(v), math.log(8 / 9))


def test_log_of_one_is_zero():
    v = LogLinearValue.log_of(1)
    assert v == LogLinearValue.make(0)
    assert not v


def test_canonical_form_drops_zero_coefficients():
    a = LogLinearValue(Fraction(1), ((3, Fraction(0)), (2, Fraction(1))))
    assert a.logs == ((2, Fraction(1)),)


def test_equality_is_real_number_equality():
    # log 4 = 2 log 2, built two different ways.
    a = LogLinearValue.log_of(4)
    b = LogLinearValue.log_of(2) * 2
    assert a == b
    assert hash(a) == hash(b)


def test_equality_against_plain_rationals():
    assert LogLinearValue.make(Fraction(3, 4)) == Fraction(3, 4)
    assert hash(LogLinearValue.make(Fraction(3, 4))) == hash(Fraction(3, 4))
    assert LogLinearValue.log_of(2) != Fraction(0)
    assert LogLinearValue.make(0) == 0


def test_mixed_arithmetic():
    v = LogLinearValue.log_of(2) * Fraction(-8, 5) + LogLinearValue.log_of(5)
    w = LogLinearValue.log_of(5) - Fraction(8, 5) * LogLinearValue.log_of(2)
    assert v == w
    assert math.isclose(float(v), math.log(5) - 1.6 * math.log(2))


def test_product_of_two_log_values_is_rejected():
    a = LogLinearValue.log_of(2)
    with pytest.raises(DomainNotClosed):
        a * a


def test_scaling_by_rational_and_division():
    v = LogLinearValue.make(Fraction(3, 4))
    assert (v * Fraction(2, 3)).rat == Fraction(1, 2)
    assert (v / 3).rat == Fraction(1, 4)


def test_negation_and_scaling_share_the_bases():
    v = LogLinearValue(Fraction(1, 2), ((6, Fraction(3, 4)), (35, Fraction(-5, 2)), (11, 1)))
    assert v.terms == tuple(zip(v.bases, v.nums)) == ((2, 3), (3, 3), (5, -10), (7, -10), (11, 4))
    for w in (-v, v * Fraction(1, 3)):
        assert w.bases is v.bases
        assert_canonical(w)
    assert (-v).nums == (-3, -3, 10, 10, -4)
    assert (v * Fraction(1, 3)).den == 3 * v.den


def test_a_negated_value_keeps_no_tuple_per_term():
    # the quick-start model's exact H_11 holds hundreds of log terms; its
    # negation shares the bases and adds one tuple of numerators, so it
    # retains well under 64 bytes per term, where a tuple per term alone
    # would take 56 more
    model = load_model(Path(__file__).parent / "golden" / "quickstart-model.json")
    v = finite_entropy(model, 11)
    assert len(v.terms) >= 400
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        w = -v
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert w == -v and retained < 64 * len(v.terms), retained / len(v.terms)


def test_render_examples():
    assert LogLinearValue.make(Fraction(-4, 3)).render() == "-4/3"
    assert LogLinearValue.log_of(2).render() == "log(2)"
    v = LogLinearValue.log_of(2) * Fraction(-8, 5) + LogLinearValue.log_of(5)
    assert v.render() == "-8/5·log(2) + log(5)"


@given(positives, positives)
def test_log_turns_products_into_sums(p, q):
    assert LogLinearValue.log_of(p * q) == (
        LogLinearValue.log_of(p) + LogLinearValue.log_of(q)
    )


@given(rationals, rationals, positives)
def test_linearity_in_the_rational_part(a, b, p):
    v = LogLinearValue.make(a) + LogLinearValue.log_of(p)
    w = v * b
    assert w.rat == a * b
    assert float(w) == pytest.approx(float(v) * float(b), rel=1e-12, abs=1e-12)


@given(st.lists(positives, min_size=1, max_size=8))
def test_accumulator_matches_naive_sum(ps):
    total = sum(ps)
    probs = [p / total for p in ps]
    acc = _LLAccumulator()
    naive = LogLinearValue.make(0)
    for p in probs:
        acc.add_neg_plogp(p)
        naive = naive + LogLinearValue.log_of(p) * (-p)
    assert acc.value() == naive
