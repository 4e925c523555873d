"""Per-site mixed derivatives and their vanishing/padding/blocking rules."""

import math
from fractions import Fraction
from itertools import product
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from hmpseries import (
    EXACT,
    FLOAT64,
    SITE_CAP,
    WEIGHT_CAP,
    FloatBackend,
    HighSnr,
    LogLinearValue,
    MultiSiteSpec,
    PerturbationMatrix,
    StochasticMatrix,
    WeightCapExceeded,
    am_binary,
    conditional_increment,
    entropy_rate_bracket,
    factor_positive,
    high_snr_binary,
    increment_jet,
    instantiate,
    load_model,
    multisite_derivative,
    multisite_value,
    perturbed_identity,
    perturbed_uniform,
    rate_series,
    stationary_distribution,
)
from hmpseries import entropy

from hmpseries.entropy import _Dense, _domain, _new_cells, _plan

from util import (
    AM3,
    HS3,
    _poly_mul,
    am_specs,
    brute_multisite_derivative,
    entropy_exact,
    high_snr_specs,
    ll_close,
    log1p_part,
)

F = Fraction
ZERO = LogLinearValue.make(0)

# ---------------------------------------------------------------------------
# The walk's coefficient lists
# ---------------------------------------------------------------------------

def _layout(caps):
    """The box of caps in the plan's order: the last variable most significant."""
    return sorted(product(*(range(c + 1) for c in caps)), key=lambda e: e[::-1])



def _linear(caps, i):
    """x_i as a coefficient list, with the entry factors (0, 1, shift_j) of each x_j."""
    _, _, _, shifts = _plan(caps, (caps,))
    one = _Dense([F(0)] * len(_layout(caps)))
    one[0] = F(1)
    return one * (F(0), F(1), shifts[i]), [(F(0), F(1), s) for s in shifts]


def test_multipoly_arithmetic_with_caps():
    caps = (2, 1)
    coefficient = dict(map(reversed, enumerate(_layout(caps))))
    x, (tx, ty) = _linear(caps, 0)
    y, _ = _linear(caps, 1)
    s = x + y
    p = s * tx + s * ty
    assert p[coefficient[(2, 0)]] == 1
    assert p[coefficient[(1, 1)]] == 2
    assert (0, 2) not in coefficient  # over the per-variable cap, dropped
    assert sum(p) == 3
    cube = p * tx
    assert (3, 0) not in coefficient  # over the cap on the first variable
    assert cube[coefficient[(2, 1)]] == 2
    assert sum(cube) == 2
    assert (x * ty)[coefficient[(1, 1)]] == 1


def test_multipoly_constant_and_zero():
    caps = (1, 1)
    shift = _plan(caps, (caps,))[3][0]
    one = _Dense([F(1), F(0), F(0), F(0)])
    zero = _Dense([F(0)] * 4)
    assert bool(one) and not bool(zero)
    assert one + one * (F(-1), F(0), shift) == zero
    assert one * (F(0), F(0), shift) == zero

@given(st.data())
@settings(max_examples=80, deadline=None)
def test_entry_product_matches_the_dict_product(data):
    # p times the table entry a + b*x_i, truncated at the caps, against util's
    # dict product; over integers, float coefficients are exact and the float
    # product must agree with no -0.0
    caps = tuple(data.draw(st.lists(st.integers(min_value=0, max_value=3),
                                    min_size=1, max_size=3)))
    i = data.draw(st.integers(min_value=0, max_value=len(caps) - 1))
    coeff = st.one_of(st.just(0), st.integers(min_value=-5, max_value=5))
    layout = _layout(caps)
    p = [data.draw(coeff) for _ in layout]
    a, b = data.draw(coeff), data.draw(coeff)
    shift = _plan(caps, (caps,))[3][i]
    unit = tuple(int(j == i) for j in range(len(caps)))
    want = _poly_mul({e: F(c) for e, c in zip(layout, p)}, {(0,) * len(caps): F(a), unit: F(b)},
                     caps)
    got = _Dense(map(F, p)) * (F(a), F(b), shift)
    assert {e: c for e, c in zip(layout, got) if c} == want
    fgot = _Dense(map(float, p)) * (float(a), float(b), shift)
    assert fgot == [float(c) for c in got]
    assert all(math.copysign(1, c) > 0 for c in fgot if not c)
    assert bool(got) == bool(want)


# ---------------------------------------------------------------------------
# Mixed derivatives
# ---------------------------------------------------------------------------

def test_weight_and_site_caps():
    spec = am_binary(F(3, 5))
    with pytest.raises(WeightCapExceeded):
        multisite_derivative(MultiSiteSpec(3, (2, 2, 1)), spec)
    with pytest.raises(WeightCapExceeded):
        multisite_derivative(MultiSiteSpec(7, (1, 0, 0, 0, 0, 0, 0)), spec)
    assert (WEIGHT_CAP, SITE_CAP) == (4, 6)
    with pytest.raises(WeightCapExceeded, match=f"^window length {SITE_CAP + 1} exceeds cap 6$"):
        multisite_value(spec, ["1/10"] * (SITE_CAP + 1))


def test_zeroth_derivative_is_the_window_increment():
    hs = high_snr_binary(F(1, 5))
    got = multisite_derivative(MultiSiteSpec(3, (0, 0, 0)), hs)
    want = increment_jet(hs, 3, 0).coeffs[0]
    assert got == want


@pytest.mark.parametrize("kvec", [(1, 0, 1, 0), (0, 2, 1, 0), (1, 0, 0, 1)])
def test_interior_zero_blocks_make_derivatives_vanish(kvec):
    # A zero strictly between active sites forces an exact zero.
    mspec = MultiSiteSpec(len(kvec), kvec)
    for spec in (high_snr_binary(F(1, 5)), am_binary(F(3, 5))):
        got = multisite_derivative(mspec, spec)
        assert isinstance(got, LogLinearValue) and got == ZERO


def test_no_contributing_leaf_gives_the_backend_zero():
    # with T = 0 no sequence probability depends on eps at all
    flat = HighSnr(StochasticMatrix((("4/5", "1/5"), ("1/5", "4/5"))),
                   PerturbationMatrix(((0, 0), (0, 0))))
    mspec = MultiSiteSpec(2, (1, 0))
    exact = multisite_derivative(mspec, flat)
    assert isinstance(exact, LogLinearValue) and exact == ZERO
    fast = multisite_derivative(mspec, flat, FLOAT64)
    assert isinstance(fast, float) and fast == 0


def test_leading_zeros_pad_without_changing_the_value():
    for spec in (high_snr_binary(F(1, 5)), am_binary(F(3, 5))):
        base = multisite_derivative(MultiSiteSpec(2, (0, 2)), spec)
        for pad in (1, 2):
            padded = multisite_derivative(
                MultiSiteSpec(2 + pad, (0,) * pad + (0, 2)), spec
            )
            assert padded == base


def test_padding_values_match_expectation():
    assert multisite_derivative(
        MultiSiteSpec(2, (0, 2)), high_snr_binary(F(1, 5))
    ) == LogLinearValue.make(F(-9, 4))
    assert multisite_derivative(
        MultiSiteSpec(2, (0, 2)), am_binary(F(3, 5))
    ) == LogLinearValue.make(F(-324, 625))


@pytest.mark.parametrize("spec, k", [
    pytest.param(high_snr_binary(F(2, 5)), 2, id="high_snr_binary"),
    pytest.param(am_binary(F(2, 5)), 2, id="am_binary"),
    pytest.param(HS3, 2, id="high_snr_3state"),
    pytest.param(AM3, 2, id="am_3state"),
    pytest.param(high_snr_binary(F(2, 5)), 3, id="high_snr_binary_k3"),
    pytest.param(am_binary(F(2, 5)), 3, id="am_binary_k3"),
])
def test_composition_sum_recovers_jet_coefficient(spec, k):
    # Sum of F^kvec / prod(k_i!) over weight-k site patterns equals the
    # order-k coefficient of the one-parameter window increment.
    n = 3
    total = ZERO
    for kvec in product(range(k + 1), repeat=n):
        if sum(kvec) != k:
            continue
        d = multisite_derivative(MultiSiteSpec(n, kvec), spec)
        denom = 1
        for ki in kvec:
            denom *= math.factorial(ki)
        total = total + d * F(1, denom)
    assert total == increment_jet(spec, n, k).coeffs[k]


def test_blocking_reduces_to_the_suffix():
    # With a zero at site j and only zeros before it, the window collapses
    # onto the sites after j.
    params_full = (F(1, 7), F(1, 11), 0, F(1, 5), F(1, 9))
    params_tail = (0, F(1, 5), F(1, 9))
    for spec in (high_snr_binary(F(1, 5)), am_binary(F(3, 5))):
        full = multisite_value(spec, params_full)
        tail = multisite_value(spec, params_tail)
        assert full == tail


def _per_site_entropy(pi, emits, transs, n):
    """H of the first n symbols under per-site tables, summed over hidden paths."""
    s = len(pi)
    dist = {}
    for ys in product(range(s), repeat=n):
        total = F(0)
        for xs in product(range(s), repeat=n):
            p = pi[xs[0]]
            for i in range(n):
                p *= emits[i].rows[xs[i]][ys[i]]
                if i + 1 < n:
                    p *= transs[i].rows[xs[i]][xs[i + 1]]
            total += p
        dist[ys] = total
    return entropy_exact(dist)


def test_exact_per_site_value_matches_enumeration():
    # distinct parameters give every site its own table denominators
    params = (F(1, 7), F(2, 11), F(1, 13))
    hs, am = high_snr_binary(F(1, 5)), am_binary(F(3, 5))
    cases = [
        (stationary_distribution(hs.M),
         [perturbed_identity(hs.T, v) for v in params], [hs.M] * 2, hs),
        (stationary_distribution(perturbed_uniform(am.T, params[0])),
         [am.R] * 3, [perturbed_uniform(am.T, v) for v in params[1:]], am),
    ]
    for pi, emits, transs, spec in cases:
        expect = (_per_site_entropy(pi, emits, transs, 3)
                  - _per_site_entropy(pi, emits, transs, 2))
        assert multisite_value(spec, params) == expect


@pytest.mark.parametrize("spec", [high_snr_binary(F(1, 5)), am_binary(F(3, 5)), HS3, AM3],
                         ids=["high_snr", "am", "high_snr_3state", "am_3state"])
def test_equal_site_values_are_the_model_walk(spec):
    # equal parameters at every site give the window increment of the model
    # at that parameter, digit for digit on every backend
    for backend in (EXACT, FLOAT64, FloatBackend(128)):
        with backend.ctx():
            for v in (F(1, 10), F(1, 7)):
                model = instantiate(spec, v)
                for n in (2, 3, 4):
                    got = multisite_value(spec, [v] * n, backend)
                    assert got == conditional_increment(model, n, backend), (backend, v, n)


def test_each_table_scale_is_factored_once(monkeypatch):
    # one lcm per table kind, D_start, D_R and D_M, each factored once, also
    # when every site has its own denominators
    calls = [0]
    factor = entropy.factor_positive

    def counting(q):
        calls[0] += 1
        return factor(q)

    monkeypatch.setattr(entropy, "factor_positive", counting)
    params = (F(1, 7), F(2, 11), F(1, 13))
    for spec in (high_snr_binary(F(1, 5)), am_binary(F(3, 5))):
        calls[0] = 0
        multisite_value(spec, params)
        assert calls[0] <= 3, spec
    quickstart = load_model(Path(__file__).parent / "golden" / "quickstart-model.json")
    for request, most in ((lambda: entropy_rate_bracket(quickstart, 6), 4),
                          (lambda: rate_series(am_binary(F(3, 5)), 9), 2)):
        calls[0] = 0
        request()
        assert calls[0] <= most


def test_blocking_float_backend_agrees():
    spec = high_snr_binary(F(1, 5))
    full = multisite_value(spec, (F(1, 7), F(1, 11), 0, F(1, 5), F(1, 9)), FLOAT64)
    tail = multisite_value(spec, (0, F(1, 5), F(1, 9)), FLOAT64)
    assert tail == pytest.approx(full, rel=1e-10)


@given(high_snr_specs(2))
@settings(max_examples=10, deadline=None)
def test_high_snr_interior_zero_property(spec):
    assert multisite_derivative(MultiSiteSpec(3, (1, 0, 1)), spec) == ZERO


@given(am_specs(2))
@settings(max_examples=10, deadline=None)
def test_am_interior_zero_property(spec):
    assert multisite_derivative(MultiSiteSpec(3, (1, 0, 1)), spec) == ZERO


@given(am_specs(2), high_snr_specs(2))
@settings(max_examples=8, deadline=None)
def test_am_float_derivative_tracks_exact(am, hs):
    # checked on a high-snr draw as well
    mspec = MultiSiteSpec(3, (0, 1, 1))
    for spec in (am, hs):
        exact = multisite_derivative(mspec, spec)
        fast = multisite_derivative(mspec, spec, FLOAT64)
        assert isinstance(exact, LogLinearValue)
        assert ll_close(exact, fast, rel=1e-10)


def test_multisite_spec_validation():
    with pytest.raises(ValueError):
        MultiSiteSpec(2, (1, 0, 0))
    with pytest.raises(ValueError):
        MultiSiteSpec(2, (1, -1))
    assert MultiSiteSpec(3, (1, 2, 0)).weight == 3


# ---------------------------------------------------------------------------
# Enumeration oracle and the exact per-site kernel
# ---------------------------------------------------------------------------

# every order of weight <= 3 at n = 2, 3; at n = 4 one per weight and site pattern
KVECS_3STATE = [k for n in (2, 3) for k in product(range(4), repeat=n) if sum(k) <= 3] + [
    (0, 0, 0, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 0, 2),
    (1, 0, 0, 1), (0, 1, 1, 1), (0, 0, 2, 1), (3, 0, 0, 0)]


@pytest.mark.parametrize("spec", [HS3, AM3], ids=["high_snr_3state", "am_3state"])
def test_exact_derivatives_match_enumeration_3state(spec):
    for kvec in KVECS_3STATE:
        got = multisite_derivative(MultiSiteSpec(len(kvec), kvec), spec)
        assert got == brute_multisite_derivative(spec, kvec), kvec


def _small_kvecs():
    return st.integers(min_value=2, max_value=4).flatmap(
        lambda n: st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n)
    ).filter(lambda k: sum(k) <= 3)


@given(am_specs(2), high_snr_specs(2), _small_kvecs())
@settings(max_examples=15, deadline=None)
def test_exact_derivatives_match_enumeration(am, hs, kvec):
    for spec in (am, hs):
        got = multisite_derivative(MultiSiteSpec(len(kvec), kvec), spec)
        assert got == brute_multisite_derivative(spec, kvec)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_exact_kernel_matches_the_log1p_series(data):
    # leaves N/q with integer coefficients N_e and N_0 > 0
    kvec = tuple(data.draw(_small_kvecs()))
    q = data.draw(st.integers(min_value=1, max_value=10**4))
    box = _layout(kvec)
    coeff = st.integers(min_value=-10**4, max_value=10**4)
    domain = _domain(EXACT, kvec=kvec)
    acc = _new_cells(factor_positive(q))
    expect = ZERO
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        terms = {e: data.draw(coeff) for e in box}
        # small constant terms make leaves share the cell of their N_0
        terms[box[0]] = data.draw(st.one_of(st.integers(min_value=1, max_value=3),
                                            st.integers(min_value=1, max_value=10**4)))
        domain.add_term(acc, [terms[e] for e in box])
        p = {e: F(c, q) for e, c in terms.items()}
        c0 = p[box[0]]
        expect = (expect - LogLinearValue.log_of(c0) * p[kvec]
                  - _poly_mul(p, log1p_part(p, c0, kvec), kvec).get(kvec, 0))
    assert domain.finish(acc) == [expect]


def _mp(value):
    """A LogLinearValue as an mpmath number at the working precision."""
    out = mpmath.mpf(value.rat.numerator) / value.rat.denominator
    for prime, c in value.logs:
        out += mpmath.log(prime) * mpmath.mpf(c.numerator) / c.denominator
    return out


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_float_kernel_matches_the_log1p_series(data):
    # the float64 kernel on leaves N/q against the exact series oracle.  Its
    # rounding is bounded by scale: the kvec coefficient of |p| times
    # -log(1 - |q|), whose coefficients bound every term of the recurrence
    kvec = tuple(data.draw(_small_kvecs()))
    q = data.draw(st.integers(min_value=1, max_value=10**4))
    box = _layout(kvec)
    coeff = st.integers(min_value=-10**4, max_value=10**4)
    domain = _domain(FLOAT64, kvec=kvec)
    _, _, _, sums = domain.prepare([], [], [], 1, {1})
    acc = sums[1]
    expect, scale = ZERO, 0.0
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        terms = {e: data.draw(coeff) for e in box}
        terms[box[0]] = data.draw(st.integers(min_value=1, max_value=10**4))
        domain.add_term(acc, [terms[e] / q for e in box])
        p = {e: F(c, q) for e, c in terms.items()}
        c0 = p[box[0]]
        expect = (expect - LogLinearValue.log_of(c0) * p[kvec]
                  - _poly_mul(p, log1p_part(p, c0, kvec), kvec).get(kvec, 0))
        size = {e: F(abs(c), q) for e, c in terms.items()}
        under = {e: F(c if e == box[0] else -abs(c), q) for e, c in terms.items()}
        scale += ((1 + abs(math.log(c0))) * abs(p[kvec])
                  - float(_poly_mul(size, log1p_part(under, c0, kvec), kvec).get(kvec, 0)))
    with mpmath.workprec(256):
        [value] = domain.finish(acc)
        assert abs(value - _mp(expect)) <= 1e-12 * scale


KVECS_N3 = [k for k in product(range(5), repeat=3) if sum(k) <= 4]


@pytest.mark.parametrize("spec", [am_binary(F(3, 5)), high_snr_binary(F(1, 5))],
                         ids=["am", "high_snr"])
def test_float_derivatives_track_exact_for_every_order_at_n3(spec):
    big = FloatBackend(128)
    for kvec in KVECS_N3:
        mspec = MultiSiteSpec(3, kvec)
        exact = multisite_derivative(mspec, spec)
        fast = multisite_derivative(mspec, spec, FLOAT64)
        slow = multisite_derivative(mspec, spec, big)
        assert isinstance(fast, float) and isinstance(slow, mpmath.mpf)
        with mpmath.workprec(256):
            want = _mp(exact)
            tol = max(1, abs(want))
            assert abs(fast - want) <= 1e-12 * tol, kvec
            assert abs(slow - want) <= mpmath.mpf(2) ** -110 * tol, kvec


GOLDEN = Path(__file__).parent / "golden" / "multisite-float-n4.txt"
# anchor name, regime, per-site parameters for multisite_value
PIN_ANCHORS = [("am", am_binary(F(3, 5)), ("1/10", "1/7", "1/5", "1/9")),
               ("high_snr", high_snr_binary(F(1, 5)), ("1/10", "1/7", "1/5", "1/9"))]


def float_pin_lines():
    """The reprs behind multisite-float-n4.txt: every kvec of weight <= 4 at
    n = 4 and one per-site value, per anchor and float backend."""
    lines = []
    kvecs = [k for k in product(range(5), repeat=4) if sum(k) <= 4]
    for name, spec, params in PIN_ANCHORS:
        for backend in (FLOAT64, FloatBackend(128)):
            with backend.ctx():  # a bigfloat repr carries its precision's digits
                for kvec in kvecs:
                    got = multisite_derivative(MultiSiteSpec(4, kvec), spec, backend)
                    lines.append(f"{name} {backend.tag} {','.join(map(str, kvec))} {got!r}")
                got = multisite_value(spec, params, backend)
                lines.append(f"{name} {backend.tag} value {','.join(params)} {got!r}")
    return "\n".join(lines) + "\n"


def test_float_per_site_digits_are_pinned():
    # written by an earlier version; no benchmark times the float per-site path
    assert float_pin_lines() == GOLDEN.read_text()
