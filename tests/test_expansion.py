"""Taylor expansions of the window increments and their settling behaviour."""

import math
from fractions import Fraction
from itertools import permutations
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from hmpseries import (
    EXACT,
    FLOAT64,
    HIGH_SNR_NOTE,
    AlmostMemoryless,
    CoefficientTable,
    FloatBackend,
    HighSnr,
    LogLinearValue,
    MultiSiteSpec,
    OrderTooHigh,
    PerturbationMatrix,
    StochasticMatrix,
    TruncatedSeries,
    ValidationError,
    am_binary,
    am_binary_reference_series,
    bounds_scan,
    conditional_increment,
    entropy_accumulate,
    first_order_am,
    first_order_high_snr,
    high_snr_binary,
    increment_jet,
    instantiate,
    multisite_derivative,
    probability_jet_total,
    rate_series,
    settling_check,
    settling_threshold,
    stationary_series,
)
from hmpseries import entropy, expansion

from util import (
    AM3,
    HS3,
    am_specs,
    brute_increment_jet,
    emission_perturbations,
    high_snr_specs,
    mp_value,
    relabel,
    stochastic_rows,
    word_probability_jets,
    zero_sum_perturbations,
)

F = Fraction
LOG2 = LogLinearValue.log_of(2)
ZERO = LogLinearValue.make(0)


def test_settling_threshold_values():
    assert [settling_threshold(k) for k in range(7)] == [2, 2, 3, 3, 4, 4, 5]
    assert settling_threshold(13) == 8


def binary_entropy_series(order):
    """H_b(1/2 - x) built from the series kernels alone."""
    p = TruncatedSeries.linear(F(1, 2), F(-1), order)
    q = TruncatedSeries.linear(F(1, 2), F(1), order)
    zero = TruncatedSeries.constant(F(0), order)
    return entropy_accumulate(q, entropy_accumulate(p, zero))


def test_reference_series_at_full_fidelity_is_binary_entropy():
    # At mu = 1 the channel is noiseless, so the rate is the chain entropy
    # H_b(1/2 - delta); re-derive that series from scratch and compare.
    direct = binary_entropy_series(13)
    table = am_binary_reference_series(1, 13)
    assert tuple(direct.coeffs) == table.values


def test_reference_series_structure():
    table = am_binary_reference_series(F(3, 5), 13)
    assert table.values[0] == LOG2
    assert all(v == ZERO for v in table.values[1::2])  # odd orders vanish
    assert table.values[2] == LogLinearValue.make(F(-162, 625))
    assert all(v.logs == () for v in table.values[1:])  # rational tail
    assert table.regime == "almost-memoryless"


def test_exact_jets_take_one_log_per_distinct_constant_term(monkeypatch):
    # At delta = 0 the am chain is i.i.d., so the 128 + 256 leaves of the
    # recorded depths 7 and 8 share one constant term N_0 per depth.
    calls = []
    log_ratio = entropy._log_ratio

    def counting(n0, q_primes):
        calls.append(n0)
        return log_ratio(n0, q_primes)

    monkeypatch.setattr(entropy, "_log_ratio", counting)
    table = rate_series(am_binary(F(3, 5)), 13)
    assert table.values == am_binary_reference_series(F(3, 5), 13).values
    assert len(calls) == 2


@pytest.mark.parametrize("order, runs", [(13, 108), (21, 1580)])
def test_the_exact_kernel_runs_once_per_distinct_leaf(monkeypatch, order, runs):
    # the 128 + 256 leaves of the recorded depths at order 13, and 2,048 +
    # 4,096 at order 21, carry 108 and 1,580 distinct jets, counted per depth
    calls = []
    add_term = entropy._JetExactDomain.add_term

    def counting(self, acc, p, m=1):
        calls.append(m)
        return add_term(self, acc, p, m)

    monkeypatch.setattr(entropy._JetExactDomain, "add_term", counting)
    table = rate_series(am_binary(F(3, 5)), order)
    assert len(calls) == runs and sum(calls) == 3 * 2 ** (settling_threshold(order) - 1)
    if order <= 13:
        assert table.values == am_binary_reference_series(F(3, 5), order).values


def test_reference_series_degenerate_channel():
    table = am_binary_reference_series(0, 13)
    assert table.values[0] == LOG2
    assert all(v == ZERO for v in table.values[1:])


def test_reference_series_input_checks():
    with pytest.raises(OrderTooHigh):
        am_binary_reference_series(F(1, 2), 14)
    with pytest.raises(ValidationError):
        am_binary_reference_series(2)


@pytest.mark.parametrize("mu", [F(1, 5), F(1, 2), F(1)])
def test_engine_matches_reference(mu):
    got = rate_series(am_binary(mu), 13)
    want = am_binary_reference_series(mu, 13)
    assert got.values == want.values
    assert got.n_used == tuple(settling_threshold(k) for k in range(14))
    assert max(got.n_used) == 8
    assert got.note == "" and got.backend == "exact"


def test_high_snr_table_carries_note():
    table = rate_series(high_snr_binary("1/5"), 3)
    assert table.note == HIGH_SNR_NOTE
    assert table.regime == "high-snr"
    # order 0 is the bare chain rate H_b(1/5)
    assert table.values[0] == LogLinearValue.log_of(5) - LOG2 * F(8, 5)
    assert table.values[1] == LOG2 * F(12, 5)


def test_first_order_high_snr_example():
    spec = high_snr_binary("1/5")
    h0, h1 = first_order_high_snr(spec.M, spec.T)
    assert h0 == LogLinearValue.log_of(5) - LOG2 * F(8, 5)
    assert h1 == LOG2 * F(12, 5)


def test_first_order_am_symmetric_is_flat():
    spec = am_binary(F(3, 5))
    h0, h1 = first_order_am(spec.R, spec.T)
    assert h0 == LOG2
    assert h1 == ZERO


def test_first_order_am_asymmetric_is_not_flat():
    r = StochasticMatrix((("2/3", "1/3"), ("1/4", "3/4")))
    t = PerturbationMatrix(((1, -1), (-2, 2)))
    h0, h1 = first_order_am(r, t)
    assert h1 != ZERO
    jet = increment_jet(AlmostMemoryless(r, t), 2, 1)
    assert (h0, h1) == (jet.coeffs[0], jet.coeffs[1])


@given(high_snr_specs(2))
@settings(max_examples=20, deadline=None)
def test_high_snr_closed_form_matches_jet(spec):
    h0, h1 = first_order_high_snr(spec.M, spec.T)
    jet = increment_jet(spec, 2, 1)
    assert h0 == jet.coeffs[0]
    assert h1 == jet.coeffs[1]


@given(am_specs(2))
@settings(max_examples=20, deadline=None)
def test_am_closed_form_matches_jet(spec):
    h0, h1 = first_order_am(spec.R, spec.T)
    jet = increment_jet(spec, 2, 1)
    assert h0 == jet.coeffs[0]
    assert h1 == jet.coeffs[1]


@given(stochastic_rows(3), zero_sum_perturbations(3))
@settings(max_examples=8, deadline=None)
def test_am_closed_form_matches_jet_s3(r, t):
    spec = AlmostMemoryless(r, t)
    h0, h1 = first_order_am(r, t)
    jet = increment_jet(spec, 2, 1)
    assert (h0, h1) == (jet.coeffs[0], jet.coeffs[1])


def test_settling_examples():
    report = settling_check(am_binary(F(3, 5)), 2, [3, 4, 5])
    assert report.verdict == "settled at N=3 (theorem threshold 3)"
    assert report.values[0] == report.values[-1] == LogLinearValue.make(F(-162, 625))
    assert report.settled == (True, True, True)
    assert report.observed_onset == 3

    report = settling_check(high_snr_binary(F(1, 5)), 0, [2, 3, 4])
    assert report.observed_onset == 2 and report.threshold == 2

    report = settling_check(am_binary(F(3, 5)), 3, [3, 4, 5])
    assert report.threshold == 3
    assert report.observed_onset is not None
    assert report.observed_onset <= 3


@given(st.sampled_from([2, 3]).flatmap(lambda s: st.one_of(am_specs(s), high_snr_specs(s))),
       st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=4))
@settings(max_examples=20, deadline=None)
def test_exact_increment_jet_matches_word_enumeration(spec, n, order):
    assert increment_jet(spec, n, order) == brute_increment_jet(spec, n, order)


@pytest.mark.parametrize("backend", [EXACT, FLOAT64])
def test_settling_values_equal_single_window_jets(backend):
    spec, k, ns = am_binary(F(3, 5)), 4, (3, 4, 5, 6)
    report = settling_check(spec, k, ns, backend)
    assert report.values == tuple(increment_jet(spec, n, k, backend).coeffs[k] for n in ns)


@pytest.mark.parametrize("backend", [EXACT, FLOAT64], ids=["exact", "float64"])
def test_settling_needs_a_later_window_that_agrees(backend):
    # C_3's order-6 coefficient, -543145824/1220703125, is not the settled
    # -1392492384/1220703125 that every N >= 4 reads: the largest window
    # alone shows no onset
    spec = am_binary(F(3, 5))
    report = settling_check(spec, 6, [2, 3], backend)
    assert report.observed_onset is None
    assert report.verdict == "not settled within the tested windows (threshold 5)"
    assert settling_check(spec, 6, [3], backend).observed_onset is None
    report = settling_check(spec, 6, range(3, 7), backend)
    assert report.observed_onset == 4 and report.settled == (False, True, True, True)
    assert report.verdict == "settled at N=4 (theorem threshold 5)"
    if backend is EXACT:
        assert report.values[:2] == (LogLinearValue.make(F(-543145824, 1220703125)),
                                     LogLinearValue.make(F(-1392492384, 1220703125)))


@pytest.mark.parametrize("backend", [EXACT, FLOAT64], ids=["exact", "float64"])
def test_settling_is_late_only_past_a_tested_window_that_disagrees(monkeypatch, backend):
    # k 6, threshold 5: C_6 already reads the settled order-6 coefficient, and
    # window 5 is not tested, so an onset at 6 does not say the theorem failed
    spec = am_binary(F(3, 5))
    for ns in ([6, 7], [2, 6, 7]):
        report = settling_check(spec, 6, ns, backend)
        assert report.observed_onset == 6
        assert report.verdict == "settled at N=6 (theorem threshold 5)"
    # a jets table in which window 5 reads what window 3 reads, which disagrees
    real = expansion._increment_jets

    def skewed(spec, ns, order, backend):
        jets = real(spec, ns, order, backend)
        return {**jets, 5: real(spec, (3,), order, backend)[3]}

    monkeypatch.setattr(expansion, "_increment_jets", skewed)
    report = settling_check(spec, 6, [5, 6, 7], backend)
    assert report.observed_onset == 6 and report.settled == (False, True, True)
    assert report.verdict == "settled at N=6, later than the threshold 5"


def test_settling_float_backend():
    report = settling_check(am_binary(F(3, 5)), 2, [3, 4, 5], FLOAT64)
    assert report.observed_onset == 3
    assert report.values[0] == pytest.approx(-162 / 625, rel=1e-12)


@pytest.mark.parametrize("request_of", [
    lambda: settling_check(am_binary(F(3, 5)), 2, [2.5, 3.9, 5]),
    lambda: MultiSiteSpec(3, (1.7, 0, 1)),
    lambda: bounds_scan(am_binary(F(3, 5)), [F(1, 10)], [2.9, 4]),
    lambda: settling_check(am_binary(F(3, 5)), 2, ["3", 4]),
], ids=["windows", "kvec", "orders", "numeric string"])
def test_sizes_must_be_integers(request_of):
    # a size that is not an integer is refused, as finite_entropy(model, 2.0)
    # is, rather than truncated into a different request
    with pytest.raises(TypeError):
        request_of()


@given(zero_sum_perturbations(2))
@settings(max_examples=25, deadline=None)
def test_stationary_jet_is_invariant(t):
    order = 5
    jet = stationary_series(t, order)
    # pi(x) (U + xT) == pi(x), coefficient by coefficient
    for j in range(2):
        acc = TruncatedSeries.constant(F(0), order)
        for i in range(2):
            col = TruncatedSeries.linear(F(1, 2), t.rows[i][j], order)
            acc = acc + jet[i] * col
        assert acc.coeffs == jet[j].coeffs
    total = jet[0] + jet[1]
    assert total.coeffs == TruncatedSeries.constant(F(1), order).coeffs


@given(am_specs(2))
@settings(max_examples=10, deadline=None)
def test_probability_jets_sum_to_unit_series(spec):
    for n in (2, 3, 4):
        total = probability_jet_total(spec, n, 4)
        assert total.coeffs[0] == 1
        assert all(c == 0 for c in total.coeffs[1:])


@given(high_snr_specs(2))
@settings(max_examples=10, deadline=None)
def test_probability_jets_sum_to_unit_series_high_snr(spec):
    total = probability_jet_total(spec, 3, 4)
    assert total.coeffs[0] == 1
    assert all(c == 0 for c in total.coeffs[1:])


def float_jet_error_bounds(spec, order):
    """A first-order bound on the float64 error of each coefficient of rate_series.

    Coefficient k is a sum over the L words of lengths n and n - 1 of leaf
    terms [-p log p]_k.  Each term is built from the probability jet by at
    most 2n roundings in the walk and 2k + 2 in the kernel, and a sum of L
    terms adds L - 1 more, each off by at most u = 2^-53 of the magnitude it
    rounds (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    ch. 3 and 4).  The magnitudes come from the same computation on absolute
    values: the probability jets with |T| for T, then the kernel's
    recurrence with every difference turned into a sum.  The exact
    coefficients can be 0 while the walk's products are not (equal emission
    rows make every word probability independent of T), so a flat tolerance
    cannot follow the error; this bound grows with the products that cancel.
    """
    n = settling_threshold(order)
    absolute = SimpleNamespace(R=spec.R, T=SimpleNamespace(
        rows=[[abs(v) for v in row] for row in spec.T.rows]))
    mags, leaves = [0.0] * (order + 1), 0
    for m in (n, n - 1):
        for jet in word_probability_jets(absolute, m, order).values():
            p = [float(c) for c in jet.coeffs]
            leaves += 1
            w = [0.0] * (order + 1)  # bounds |W_k|, W = log(p / p_0)
            for k in range(1, order + 1):
                w[k] = (k * p[k] + sum(p[g] * (k - g) * w[k - g] for g in range(1, k))) / (k * p[0])
            for k in range(order + 1):
                mags[k] += p[k] * abs(math.log(p[0])) + sum(p[k - h] * w[h] for h in range(1, k + 1))
    return [(leaves + 2 * n + 2 * k + 2) * 2.0**-53 * mag for k, mag in enumerate(mags)]


@given(am_specs(2))
@example(AlmostMemoryless(R=StochasticMatrix(((F(1, 5), F(4, 5)), (F(1, 5), F(4, 5)))),
                          T=PerturbationMatrix(((3, -3), (-4, 4)))))
@settings(max_examples=8, deadline=None)
def test_float_jets_track_exact_jets(spec):
    exact = rate_series(spec, 6)
    fast = rate_series(spec, 6, FLOAT64)
    bounds = float_jet_error_bounds(spec, 6)
    for a, b, bound in zip(exact.value_floats(), fast.values, bounds):
        assert abs(b - a) <= bound


def test_float64_am_coefficients_are_within_5e_14_of_exact():
    # floats read the exact leaves, once per distinct leaf, and sum with fsum,
    # so every coefficient through order 25 keeps its relative accuracy; the
    # vanishing odd orders come out as zero
    exact = rate_series(am_binary(F(3, 5)), 25).values
    with mpmath.workprec(256):
        want = [mp_value(v) for v in exact]
        for order in (21, 25):
            fast = rate_series(am_binary(F(3, 5)), order, FLOAT64).values
            for k, (got, w) in enumerate(zip(fast, want)):
                assert abs(got - w) <= 5e-14 * abs(w), (order, k)


@pytest.mark.parametrize("backend", [FLOAT64, FloatBackend(128)], ids=["float64", "bigfloat128"])
def test_float_jets_are_bitwise_invariant_under_relabelling(backend):
    # the float kernel reads each distinct leaf from the exact integers and
    # sums each coefficient with one fsum, so relabelling the hidden states
    # (and, in the almost-memoryless regime, the symbols) keeps every bit; in
    # the high-SNR regime R = I + eps*T ties the symbols to the states
    am, hs = (rate_series(spec, 7, backend).values for spec in (AM3, HS3))
    for states in permutations(range(3)):
        got = HighSnr(StochasticMatrix(relabel(HS3.M.rows, states)),
                      PerturbationMatrix(relabel(HS3.T.rows, states)))
        assert rate_series(got, 7, backend).values == hs, states
        for symbols in permutations(range(3)):
            got = AlmostMemoryless(StochasticMatrix(relabel(AM3.R.rows, states, symbols)),
                                   PerturbationMatrix(relabel(AM3.T.rows, states)))
            assert rate_series(got, 7, backend).values == am, (states, symbols)


@pytest.mark.parametrize("backend", [EXACT, FLOAT64, FloatBackend(128)],
                         ids=["exact", "float64", "bigfloat128"])
def test_a_scalar_is_the_jet_of_order_0(backend):
    # the order-0 jet walk of a regime and the window walk of its model at 0
    # read the same leaves over different scales, so C_n agrees: exactly, and
    # bit for bit on the float backends
    for spec in (am_binary(F(3, 5)), high_snr_binary(F(1, 5)), AM3, HS3):
        model = instantiate(spec, 0)
        for n in range(2, 7):
            got = increment_jet(spec, n, 0, backend).coeffs[0]
            assert got == conditional_increment(model, n, backend), (spec, n)


def test_increment_jet_input_checks():
    spec = am_binary(F(3, 5))
    with pytest.raises(ValueError):
        increment_jet(spec, 1, 2)
    with pytest.raises(ValueError):
        increment_jet(spec, 2, -1)


def test_negative_order_names_the_order():
    # the order is checked before the window that the order implies
    with pytest.raises(ValueError, match="order must be nonnegative"):
        rate_series(am_binary(F(3, 5)), -1)
    with pytest.raises(ValueError, match="^order must be nonnegative$"):
        am_binary_reference_series(F(3, 5), -1)


def test_coefficient_table_partial_sum():
    table = CoefficientTable("almost-memoryless", (F(1), F(2), F(3)), "exact")
    assert table.order == 2 and table.n_used == (2, 2, 3)
    assert table.partial_sum(F(1, 2)) == pytest.approx(1 + 1 + 0.75)
    assert table.partial_sum(F(1, 2), 1) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        table.partial_sum(0.1, 5)


@pytest.mark.parametrize("request_of", [
    lambda: rate_series(am_binary(F(3, 5)), 9),
    lambda: settling_check(am_binary(F(3, 5)), 4, range(2, 7)),
    lambda: multisite_derivative(MultiSiteSpec(4, (1, 0, 2, 1)), high_snr_binary(F(1, 5))),
], ids=["rate_series", "settling_check", "multisite_derivative"])
def test_one_walk_per_request(walks, request_of):
    # every window of a request comes from one walk of the observation tree
    request_of()
    assert walks[0] == 1
