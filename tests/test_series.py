"""Truncated power series arithmetic and the log/exp/entropy kernels."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hmpseries import (
    DomainNotClosed,
    LogLinearValue,
    NonpositiveConstantTerm,
    OrderMismatch,
    TruncatedSeries,
    entropy_accumulate,
    exp_series,
    log_series,
)

small_fractions = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=12
)


def series_of(coeffs):
    return TruncatedSeries([Fraction(c) for c in coeffs])


@st.composite
def exact_series(draw, order=4, positive_constant=False):
    c0 = draw(
        st.fractions(min_value=Fraction(1, 12), max_value=Fraction(4), max_denominator=12)
        if positive_constant
        else small_fractions
    )
    tail = [draw(small_fractions) for _ in range(order)]
    return series_of([c0] + tail)


def test_constructor_and_order():
    p = series_of([1, 2, 3])
    assert p.order == 2
    assert p.coeffs == (1, 2, 3)


def test_constant_and_linear_builders():
    assert TruncatedSeries.constant(Fraction(5), 3).coeffs == (5, 0, 0, 0)
    assert TruncatedSeries.linear(Fraction(1), Fraction(2), 2).coeffs == (1, 2, 0)
    # Order 0 keeps only the constant part of a linear polynomial.
    assert TruncatedSeries.linear(Fraction(1), Fraction(2), 0).coeffs == (1,)


def test_mixed_orders_raise():
    with pytest.raises(OrderMismatch):
        series_of([1, 2]) + series_of([1, 2, 3])
    with pytest.raises(OrderMismatch):
        series_of([1, 2]) * series_of([1, 2, 3])


def test_cauchy_product_truncates():
    p = series_of([1, 1, 0])
    q = series_of([2, 0, 1])
    assert (p * q).coeffs == (2, 2, 1)  # the x^3 term 1*1 is dropped


def test_product_of_log_valued_series_is_rejected():
    h = entropy_accumulate(series_of([Fraction(1, 2), 1]),
                           TruncatedSeries.constant(Fraction(0), 1))
    with pytest.raises(DomainNotClosed):
        h * h


def test_log_of_one_plus_x():
    p = TruncatedSeries.linear(Fraction(1), Fraction(1), 4)
    got = log_series(p)
    assert got.coeffs[0] == LogLinearValue.make(0)
    assert [c.rat for c in got.coeffs[1:]] == [
        Fraction(1), Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 4)
    ]


def test_log_of_two_plus_two_x():
    got = log_series(TruncatedSeries.linear(Fraction(2), Fraction(2), 2))
    assert got.coeffs[0] == LogLinearValue.log_of(2)
    assert got.coeffs[1] == LogLinearValue.make(1)
    assert got.coeffs[2] == LogLinearValue.make(Fraction(-1, 2))


def test_log_requires_positive_constant():
    with pytest.raises(NonpositiveConstantTerm):
        log_series(series_of([0, 1]))
    with pytest.raises(NonpositiveConstantTerm):
        log_series(TruncatedSeries([0.0, 1.0]))


def test_entropy_accumulate_binary_half():
    p = TruncatedSeries.linear(Fraction(1, 2), Fraction(1, 2), 1)
    zero = TruncatedSeries.constant(Fraction(0), 1)
    h = entropy_accumulate(p, zero)
    half_log2 = LogLinearValue.log_of(2) * Fraction(1, 2)
    assert h.coeffs[0] == half_log2
    assert h.coeffs[1] == half_log2 + Fraction(-1, 2)


def test_entropy_accumulate_skips_identically_zero_branch():
    zero = TruncatedSeries.constant(Fraction(0), 3)
    acc = series_of([1, 2, 3, 4])
    assert entropy_accumulate(zero, acc) is acc


def test_evaluate_horner():
    p = series_of([1, -2, Fraction(1, 2)])
    assert p.evaluate(Fraction(1, 2)) == pytest.approx(1 - 1 + 0.125)


@given(exact_series(), exact_series(), exact_series())
def test_ring_laws(p, q, r):
    assert (p + q).coeffs == (q + p).coeffs
    assert ((p + q) + r).coeffs == (p + (q + r)).coeffs
    assert (p * q).coeffs == (q * p).coeffs
    assert ((p * q) * r).coeffs == (p * (q * r)).coeffs
    assert (p * (q + r)).coeffs == (p * q + p * r).coeffs


@given(exact_series(positive_constant=True))
@settings(max_examples=60)
def test_exp_inverts_log(p):
    assert exp_series(log_series(p)).coeffs == p.coeffs


@given(exact_series(positive_constant=True), exact_series(positive_constant=True))
@settings(max_examples=60)
def test_log_of_product_is_sum_of_logs(p, q):
    lhs = log_series(p * q)
    rhs = log_series(p) + log_series(q)
    assert lhs.coeffs == rhs.coeffs


@given(exact_series(positive_constant=True))
@settings(max_examples=60)
def test_float_log_matches_exact_tail(p):
    exact = log_series(p)
    floated = log_series(TruncatedSeries([float(c) for c in p.coeffs]))
    for a, b in zip(exact.coeffs, floated.coeffs):
        assert float(a) == pytest.approx(b, rel=1e-10, abs=1e-10)


def test_exp_rejects_irrational_constant():
    lg = log_series(TruncatedSeries.linear(Fraction(2), Fraction(1), 2))
    shifted = lg + TruncatedSeries.constant(Fraction(1, 3), 2)
    with pytest.raises(ValueError):
        exp_series(shifted)
