"""Finite-window entropies against direct enumeration over all words."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from hmpseries import (
    EXACT,
    FLOAT64,
    DepthCapExceeded,
    FloatBackend,
    LogLinearValue,
    StochasticMatrix,
    ZeroMarginal,
    am_binary,
    binary_symmetric_chain,
    c2_closed_form,
    conditional_increment,
    entropy_rate_bracket,
    entropy_report,
    finite_entropy,
    high_snr_binary,
    instantiate,
    lower_bound,
    sample_path,
    sequence_log_probability,
    TruncatedSeries,
    entropy_accumulate,
    factor_positive,
    total_probability,
    validate_model,
)
from hmpseries.entropy import _JetExactDomain

from util import (
    brute_finite_entropy,
    brute_increment,
    brute_lower_bound,
    hmp_models,
    ll_close,
    word_probability,
)

F = Fraction
LOG2 = LogLinearValue.log_of(2)


def test_h1_symmetric_binary_is_log_two():
    model = instantiate(am_binary("3/5"), F(1, 10))
    assert finite_entropy(model, 1) == LOG2


def test_noiseless_binary_closed_form():
    # With R = I the process is the chain itself: H_n = log 2 + (n-1) H_b(p).
    model = instantiate(high_snr_binary("1/5"), 0)
    hb = LogLinearValue.log_of(5) - LOG2 * F(8, 5)
    assert finite_entropy(model, 1) == LOG2
    assert finite_entropy(model, 3) == LOG2 + hb * 2
    assert conditional_increment(model, 3) == hb


def test_memoryless_uniform_is_iid():
    model = instantiate(am_binary(1), 0)  # M = U, R = I
    for n in (1, 2, 4):
        assert finite_entropy(model, n) == LOG2 * n
    bracket = entropy_rate_bracket(model, 3)
    assert bracket.lower == bracket.upper == LOG2
    assert bracket.half_gap == LogLinearValue.make(0)


def test_increment_convention_at_one():
    model = instantiate(am_binary("3/5"), F(1, 10))
    assert conditional_increment(model, 1) == finite_entropy(model, 1)


@given(hmp_models(2))
@settings(max_examples=20, deadline=None)
def test_traversal_matches_enumeration(model):
    for n in (1, 2, 3):
        assert finite_entropy(model, n) == brute_finite_entropy(model, n)
        assert conditional_increment(model, n) == brute_increment(model, n)
    for n in (2, 3):
        assert lower_bound(model, n) == brute_lower_bound(model, n)


def test_prime_denominator_model_matches_enumeration():
    m = StochasticMatrix(((F(97, 229), F(132, 229)), (F(61, 173), F(112, 173))))
    r = StochasticMatrix(((F(139, 191), F(52, 191)), (F(41, 167), F(126, 167))))
    model = validate_model(m, r)
    assert finite_entropy(model, 3) == brute_finite_entropy(model, 3)
    assert conditional_increment(model, 3) == brute_increment(model, 3)
    assert lower_bound(model, 3) == brute_lower_bound(model, 3)


def _integer_jets(order):
    # small constant terms make leaves share the cell of their N_0
    head = st.one_of(st.integers(min_value=1, max_value=3),
                     st.integers(min_value=1, max_value=10**6))
    tail = st.lists(st.integers(min_value=-10**6, max_value=10**6),
                    min_size=order, max_size=order)
    return st.tuples(head, tail).map(lambda t: [t[0]] + t[1])


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_exact_leaf_kernel_matches_series_log(data):
    # leaves N/q with integer N: the kernel against -sum (N/q) log(N/q) from series.py
    order = data.draw(st.integers(min_value=0, max_value=5))
    q = data.draw(st.integers(min_value=1, max_value=10**5))
    leaves = data.draw(st.lists(_integer_jets(order), min_size=1, max_size=4))
    jet, scalar = _JetExactDomain(order), _JetExactDomain(0, scalar=True)
    jet_acc = jet.new_acc(factor_positive(q))
    scalar_acc = scalar.new_acc(factor_positive(q))
    expect = TruncatedSeries([F(0)] * (order + 1))
    for coeffs in leaves:
        jet.add_term(jet_acc, TruncatedSeries(coeffs))
        scalar.add_term(scalar_acc, coeffs[0])
        expect = entropy_accumulate(TruncatedSeries([F(c, q) for c in coeffs]), expect)
    assert jet.finish(jet_acc) == expect
    assert scalar.finish(scalar_acc) == expect.coeffs[0]


@given(hmp_models(3))
@settings(max_examples=6, deadline=None)
def test_traversal_matches_enumeration_s3(model):
    assert finite_entropy(model, 2) == brute_finite_entropy(model, 2)
    assert lower_bound(model, 2) == brute_lower_bound(model, 2)


@given(hmp_models(2))
@settings(max_examples=15, deadline=None)
def test_bounds_are_monotone_and_ordered(model):
    ups = [float(conditional_increment(model, n)) for n in range(1, 5)]
    los = [float(lower_bound(model, n)) for n in range(2, 5)]
    tol = 1e-12
    assert all(a >= b - tol for a, b in zip(ups, ups[1:]))
    assert all(a <= b + tol for a, b in zip(los, los[1:]))
    for lo, up in zip(los, ups[1:]):
        assert lo <= up + tol


@given(hmp_models(2))
@settings(max_examples=20, deadline=None)
def test_c2_closed_form_equals_traversal(model):
    assert c2_closed_form(model) == conditional_increment(model, 2)


def test_c2_zero_marginal_fallback_and_strict():
    silent = StochasticMatrix(((1, 0), (1, 0)))  # symbol 1 never emitted
    model = validate_model(binary_symmetric_chain("1/5"), silent)
    assert c2_closed_form(model) == conditional_increment(model, 2)
    assert c2_closed_form(model) == LogLinearValue.make(0)
    with pytest.raises(ZeroMarginal):
        c2_closed_form(model, strict=True)


def test_bracket_tightens_with_window():
    model = instantiate(high_snr_binary("1/5"), F(1, 5))
    gaps = [float(entropy_rate_bracket(model, n).half_gap) for n in (2, 3, 4, 5)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    b = entropy_rate_bracket(model, 4)
    assert float(b.midpoint) == pytest.approx(
        (float(b.lower) + float(b.upper)) / 2, rel=1e-12
    )
    assert b.backend == "exact"


@given(hmp_models(2))
@settings(max_examples=15, deadline=None)
def test_total_probability_is_exactly_one(model):
    for n in (1, 3, 5):
        assert total_probability(model, n) == 1


def test_total_probability_three_symbols():
    m = StochasticMatrix((("1/2", "1/4", "1/4"), ("1/6", "2/3", "1/6"),
                          ("1/3", "1/3", "1/3")))
    r = StochasticMatrix((("2/3", "1/3", 0), (0, "1/2", "1/2"),
                          ("1/4", "1/4", "1/2")))
    model = validate_model(m, r)
    assert total_probability(model, 4) == 1


def test_depth_cap():
    model = instantiate(am_binary("3/5"), F(1, 10))
    with pytest.raises(DepthCapExceeded):
        finite_entropy(model, 15)
    with pytest.raises(DepthCapExceeded):
        finite_entropy(model, 3, depth_cap=2)


@given(hmp_models(2))
@settings(max_examples=15, deadline=None)
def test_float64_matches_exact(model):
    for n in (1, 2, 4):
        exact = float(finite_entropy(model, n))
        fast = finite_entropy(model, n, FLOAT64)
        assert ll_close(exact, fast)
    assert ll_close(lower_bound(model, 3), lower_bound(model, 3, FLOAT64))


def test_bigfloat_backend_tracks_exact_value():
    model = instantiate(high_snr_binary("1/5"), F(1, 5))
    big = FloatBackend(bits=200)
    got = finite_entropy(model, 3, big)
    assert isinstance(got, mpmath.mpf)
    exact = finite_entropy(model, 3)
    with mpmath.workprec(200):
        want = mpmath.mpf(exact.rat.numerator) / exact.rat.denominator
        for prime, q in exact.logs:
            want += mpmath.log(prime) * mpmath.mpf(q.numerator) / q.denominator
        assert abs(got - want) < mpmath.mpf(2) ** -150
    assert big.tag == "bigfloat:200"


def test_bigfloat_midpoint_and_half_gap_keep_the_backend_precision():
    model = instantiate(high_snr_binary("1/5"), F(1, 5))
    br = entropy_rate_bracket(model, 4, FloatBackend(bits=128))
    with mpmath.workprec(128):
        assert br.midpoint == (br.lower + br.upper) / 2
        assert br.half_gap == (br.upper - br.lower) / 2


def test_entropy_report_consistency():
    model = instantiate(am_binary("3/5"), F(1, 10))
    one = entropy_report(model, 1)
    assert one.lower is None and one.increment == one.entropy
    rep = entropy_report(model, 3)
    assert rep.entropy == finite_entropy(model, 3)
    assert rep.increment == conditional_increment(model, 3)
    assert rep.lower == lower_bound(model, 3)
    assert rep.backend == "exact"


@given(hmp_models(2))
@settings(max_examples=10, deadline=None)
def test_sequence_log_probability_matches_enumeration(model):
    _, ys = sample_path(model, 6, seed=11)
    got = sequence_log_probability(model, ys)
    assert got == pytest.approx(math.log(word_probability(model, ys)), rel=1e-10)


def test_sequence_log_probability_steps_sum():
    model = instantiate(high_snr_binary("1/5"), F(1, 5))
    _, ys = sample_path(model, 40, seed=2)
    total, steps = sequence_log_probability(model, ys, with_steps=True)
    assert len(steps) == 40
    assert math.fsum(steps) == pytest.approx(total, rel=1e-12)
    with pytest.raises(ValueError):
        sequence_log_probability(model, ys, backend=EXACT)


def test_long_path_entropy_estimate_lands_in_the_bracket():
    # Equipartition: -(1/n) log P([Y]) concentrates on the entropy rate,
    # which itself lies inside the exact window bracket.
    model = instantiate(am_binary("3/5"), F(1, 10))
    bracket = entropy_rate_bracket(model, 6)
    _, ys = sample_path(model, 100_000, seed=20260814)
    estimate = -sequence_log_probability(model, ys) / len(ys)
    slack = 0.02  # about twelve standard errors at this path length
    assert float(bracket.lower) - slack <= estimate <= float(bracket.upper) + slack
