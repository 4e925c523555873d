"""Finite-window entropies against direct enumeration over all words."""

import gc
import inspect
import math
from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from hmpseries import (
    EXACT,
    FLOAT64,
    AlmostMemoryless,
    DepthCapExceeded,
    EntropyBracket,
    EntropyReport,
    FloatBackend,
    HighSnr,
    HmpModel,
    LogLinearValue,
    NonpositiveConstantTerm,
    StochasticMatrix,
    am_binary,
    binary_symmetric_chain,
    c2_closed_form,
    conditional_increment,
    entropy_rate_bracket,
    entropy_report,
    finite_entropy,
    high_snr_binary,
    increment_jet,
    instantiate,
    load_model,
    lower_bound,
    probability_jet_total,
    rate_series,
    sample_path,
    sequence_log_probability,
    settling_check,
    settling_threshold,
    TruncatedSeries,
    entropy_accumulate,
    factor_positive,
    total_probability,
    validate_model,
)
from hmpseries import entropy, expansion, multisite, radius
from hmpseries.entropy import _domain, _new_cells
from hmpseries.multisite import MultiSiteSpec, multisite_derivative, multisite_value
from hmpseries.radius import bounds_scan, rational_grid

from util import (
    AM3,
    AM4,
    BASE3,
    CYCLIC3,
    FOUR,
    HS3,
    brute_finite_entropy,
    brute_increment,
    brute_increment_jet,
    brute_lower_bound,
    emission_perturbations,
    entropy_exact,
    hmp_models,
    joint_distribution,
    ll_close,
    mp_value,
    recursive_walk,
    reference_plan,
    relabel,
    stationary_distribution,
    stochastic_rows,
    word_probability,
    zero_sum_perturbations,
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


def test_exact_bracket_factors_only_the_table_scales(monkeypatch):
    # The bench's PRIMES_ANCHOR: its leaf constants go to the splitter, and
    # factor_positive sees only the lcm of the denominators of each table.
    model = load_model(Path(__file__).parent / "golden" / "primes-anchor-model.json")
    scales = {math.lcm(*(x.denominator for x in model.pi)),
              math.lcm(*(x.denominator for row in model.R.rows for x in row)),
              math.lcm(*(x.denominator for row in model.M.rows for x in row))}
    calls = []

    def counting(q):
        calls.append(q)
        return factor_positive(q)

    monkeypatch.setattr(entropy, "factor_positive", counting)
    entropy_rate_bracket(model, 4)
    assert set(calls) <= scales
    assert len(calls) <= 3  # one walk, three scales


def _warm_bracket_fractions(monkeypatch, backend):
    """Fractions built by a warm bracket on the quick-start model at n = 8 and 12."""
    model = load_model(Path(__file__).parent / "golden" / "quickstart-model.json")
    new = Fraction.__new__
    counts = []
    for n in (8, 12):
        entropy_rate_bracket(model, n, backend)  # warm every cache
        entropy._RECORDED.clear()  # but walk again
        calls = [0]

        def counting(cls, *args, **kwargs):
            calls[0] += 1
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        entropy_rate_bracket(model, n, backend)
        monkeypatch.undo()
        counts.append(calls[0])
    return counts


def test_exact_bracket_builds_no_fraction_per_log_term(monkeypatch):
    # The log coefficients of a depth stay integer sums over Q_d from the
    # leaves into the value, and C_n, c_n, the midpoint and the half-gap
    # combine them on integers, so the Fractions of a warm bracket (its
    # rational parts) do not grow with the thousands of log terms at n = 12.
    counts = _warm_bracket_fractions(monkeypatch, EXACT)
    assert counts[0] == counts[1] <= 100


@pytest.mark.parametrize("backend", [FLOAT64, FloatBackend(128)], ids=["float64", "bigfloat128"])
def test_float_bracket_maps_rationals_without_a_new_fraction(monkeypatch, backend):
    # the float kernel divides the integers of the walk's leaves, so the walks
    # of a warm float bracket build no Fraction: only _bracket's 1/2 is left.
    assert _warm_bracket_fractions(monkeypatch, backend) == [1, 1]


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
    jet, scalar = _domain(EXACT, order), _domain(EXACT)  # a scalar is the jet of order 0
    jet_acc = _new_cells(factor_positive(q))
    scalar_acc = _new_cells(factor_positive(q))
    expect = TruncatedSeries([F(0)] * (order + 1))
    for coeffs in leaves:
        jet.add_term(jet_acc, coeffs, 1)  # a jet's plan positions are its orders
        scalar.add_term(scalar_acc, coeffs[:1], 1)
        expect = entropy_accumulate(TruncatedSeries([F(c, q) for c in coeffs]), expect)
    assert jet.finish(jet_acc) == list(expect.coeffs)
    assert scalar.finish(scalar_acc) == [expect.coeffs[0]]


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


def test_total_probability_three_symbols(walks, monkeypatch):
    m = StochasticMatrix((("1/2", "1/4", "1/4"), ("1/6", "2/3", "1/6"),
                          ("1/3", "1/3", "1/3")))
    r = StochasticMatrix((("2/3", "1/3", 0), (0, "1/2", "1/2"),
                          ("1/4", "1/4", "1/2")))
    model = validate_model(m, r)
    assert total_probability(model, 4) == 1
    # each total is one walk of the exact kernel over the integer tables,
    # read from its cells; the prime anchor's Q_d has awkward prime factors
    tables = [0]
    integer_tables = entropy._integer_tables

    def counting(*args):
        tables[0] += 1
        return integer_tables(*args)

    monkeypatch.setattr(entropy, "_integer_tables", counting)
    anchor = load_model(Path(__file__).parent / "golden" / "primes-anchor-model.json")
    for n in range(2, 9):
        walks[0] = tables[0] = 0
        assert total_probability(anchor, n) == 1
        assert walks[0] == tables[0] == 1, n
    walks[0] = tables[0] = 0
    assert probability_jet_total(am_binary("3/5"), 5, 4).coeffs == (1, 0, 0, 0, 0)
    assert walks[0] == tables[0] == 1
    for total in (total_probability, probability_jet_total):
        assert "backend" not in inspect.signature(total).parameters


THREE_STATE = Path(__file__).parent / "golden" / "three-state-zero-emission-model.json"


def test_lower_bound_with_zero_emissions_matches_enumeration():
    # the model above: a zero emission prunes a different subtree per start state
    model = load_model(THREE_STATE)
    for n in (2, 3, 4):
        assert lower_bound(model, n) == brute_lower_bound(model, n)


@pytest.mark.parametrize("name", ["quickstart-model.json", THREE_STATE.name])
def test_c_n_takes_one_walk_beside_the_plain_one(walks, name):
    # H_n and c_n from the two reads of one backward walk, of width s
    model = load_model(Path(__file__).parent / "golden" / name)
    requests = (entropy_rate_bracket, entropy_report, lower_bound, finite_entropy,
                conditional_increment, total_probability)
    for request in requests:
        walks[:] = [0, 0]
        entropy._RECORDED.clear()  # each request walks cold
        request(model, 4)
        assert walks[0] == 1, request.__name__
        assert walks[1] == sum(model.size**d for d in range(4)), request.__name__


# each entry point with a request over the cost cap: a 4-state model at n = 14,
# a 3-state regime at order 25, which walks to n = 14, per-site requests on a
# binary regime (exact kvec (1,) x 11, predicted 2.1e+08; 21 site values,
# 7.2e+07, whose last site is out of range but is checked only once the walk
# is admitted), and a scan whose brackets walk to n = 24
_OVER_THE_CAP = {
    "finite_entropy": lambda: finite_entropy(FOUR, 14),
    "conditional_increment": lambda: conditional_increment(FOUR, 14),
    "lower_bound": lambda: lower_bound(FOUR, 14),
    "entropy_report": lambda: entropy_report(FOUR, 14),
    "entropy_rate_bracket": lambda: entropy_rate_bracket(FOUR, 14),
    "total_probability": lambda: total_probability(FOUR, 14),
    "increment_jet": lambda: increment_jet(AM3, 14, 25),
    "probability_jet_total": lambda: probability_jet_total(AM3, 14, 25),
    "rate_series": lambda: rate_series(AM3, 25),
    "settling_check": lambda: settling_check(AM3, 25, (3, 14)),
    "multisite_derivative": lambda: multisite_derivative(MultiSiteSpec(11, (1,) * 11),
                                                         am_binary("3/5")),
    "multisite_value": lambda: multisite_value(am_binary("3/5"), ["1/10"] * 20 + ["5"]),
    "bounds_scan": lambda: bounds_scan(am_binary("3/5"), rational_grid("1/100", "1/10", 10), [9],
                                       bound_depth=24),
}


@pytest.mark.parametrize("name", sorted(_OVER_THE_CAP))
def test_depth_cap(walks, name):
    assert settling_threshold(25) == 14
    with pytest.raises(DepthCapExceeded, match=r"^predicted cost \S+ exceeds the cap 6e\+07$"):
        _OVER_THE_CAP[name]()
    assert walks[0] == 0


# the predicted cost each request hands to the cost check (_check_depth), as an
# exact float: a change that moves an admission re-records this table on purpose
_ADMISSIONS = {
    "finite_entropy exact": (lambda: finite_entropy(QUICK, 12), 98177.51999999984),
    "lower_bound float64": (lambda: lower_bound(QUICK, 12, FLOAT64), 30958.559999999976),
    "report bigfloat:128": (lambda: entropy_report(QUICK, 9, FloatBackend(128)), 35384.16375),
    "bracket bigfloat:4096": (lambda: entropy_rate_bracket(QUICK, 8, FloatBackend(4096)),
                              3145133.52),
    "increment 4 states": (lambda: conditional_increment(FOUR, 5), 34257.600000000006),
    "windows without c_n": (lambda: entropy._windows(QUICK, [3, 7, 5], EXACT), 5590.439999999999),
    "windows with c_n": (lambda: entropy._windows(load_model(THREE_STATE), [1, 9, 4], FLOAT64,
                                                  lower_from=1), 437780.52),
    "total_probability": (lambda: total_probability(QUICK, 10), 24541.68),
    "jets order 0": (lambda: rate_series(am_binary("3/5"), 0), 133.02),
    "jets order 13 float64": (lambda: rate_series(high_snr_binary("1/5"), 13, FLOAT64),
                              20685.599999999995),
    "jets order 29": (lambda: rate_series(am_binary("3/5"), 29), 39669488.15999998),
    "settling bigfloat:128": (lambda: settling_check(AM3, 5, (3, 6, 4), FloatBackend(128)),
                              116111.25083496093),
    "probability_jet_total": (lambda: probability_jet_total(AM3, 6, 5), 45180.17999999999),
    "kvec exact": (lambda: multisite_derivative(MultiSiteSpec(4, (1, 0, 2, 1)), AM3),
                   9062.280000000002),
    "per-site values float64": (lambda: multisite_value(
        high_snr_binary("1/5"), [0, "1/10", 0, "1/20", 0], FLOAT64), 117.36),
    "bounds_scan": (lambda: bounds_scan(am_binary("3/5"), rational_grid("1/100", "1/10", 5),
                                        [4, 9], bound_depth=6), 6787.439999999997),
}


@pytest.mark.parametrize("name", sorted(_ADMISSIONS))
def test_admissions_are_pinned(monkeypatch, walks, name):
    # the first nonzero cost that reaches _check_depth, in any module that
    # calls it, equals the recorded float, and nothing has walked by then
    class Priced(Exception):
        pass

    def priced(n, lower_from=None, cost=0):
        if cost:
            raise Priced(cost)
        return check(n, lower_from)

    check = entropy._check_depth
    for module in (entropy, expansion, multisite, radius):
        if hasattr(module, "_check_depth"):
            monkeypatch.setattr(module, "_check_depth", priced)
    request, want = _ADMISSIONS[name]
    with pytest.raises(Priced) as got:
        request()
    assert got.value.args == (want,) and walks[0] == 0


def test_binary_exact_expansions_through_order_29_are_admitted(monkeypatch):
    # the walk is replaced, so only the prediction runs: both anchors pass it
    class Admitted(Exception):
        pass

    def admitted(*args):
        raise Admitted

    monkeypatch.setattr(entropy, "_read", admitted)
    for spec in (am_binary("3/5"), high_snr_binary("1/5")):
        for order in range(26, 30):
            with pytest.raises(Admitted):
                rate_series(spec, order)


def test_bigfloat_is_priced_by_its_bits(monkeypatch, walks):
    # every backend walks integers, but mpmath's leaf arithmetic and logs cost
    # more than hardware floats', and more at more bits: a bigfloat:128 bracket
    # runs to n = 19 and is refused at n = 20, and bigfloat:4096 is refused at
    # n = 13
    class Admitted(Exception):
        pass

    def admitted(*args):
        raise Admitted

    monkeypatch.setattr(entropy, "_read", admitted)
    for n, backend, verdict in ((18, FLOAT64, Admitted), (19, FloatBackend(128), Admitted),
                                (20, FloatBackend(128), DepthCapExceeded),
                                (12, FloatBackend(4096), Admitted),
                                (13, FloatBackend(4096), DepthCapExceeded)):
        with pytest.raises(verdict):
            entropy_rate_bracket(QUICK, n, backend)
    costs = [entropy._cost(2, 16, {15, 16}, b) for b in (FLOAT64, FloatBackend(128),
                                                          FloatBackend(512), FloatBackend(4096))]
    assert costs == sorted(costs) and costs[1] > 6 * costs[0]
    # a cost too large for a float is inf, not an OverflowError
    assert entropy._cost(2, 10**400, {10**400}, FLOAT64) == math.inf
    assert entropy._cost(2, 3, {3}, FloatBackend(10**400)) == math.inf
    assert entropy._cost(2, 3, {3}, EXACT, kvec=(10**400, 0, 0)) == math.inf
    assert walks[0] == 0


@pytest.mark.parametrize("backend", [FLOAT64, FloatBackend(128)], ids=["float64", "bigfloat128"])
def test_float_reports_are_bitwise_invariant_under_relabelling(backend):
    # each distinct leaf is read once from the exact integers and each target
    # summed by one fsum, so the order in which a walk meets the leaves does
    # not show: all 36 relabellings of hidden states and symbols give H_n, C_n
    # and c_n equal to the last bit
    m, r = BASE3.M.rows, BASE3.R.rows
    want = [entropy_report(BASE3, n, backend) for n in (1, 2, 5, 7)]
    for states in permutations(range(3)):
        for symbols in permutations(range(3)):
            model = validate_model(StochasticMatrix(relabel(m, states)),
                                   StochasticMatrix(relabel(r, states, symbols)))
            assert [entropy_report(model, n, backend) for n in (1, 2, 5, 7)] == want


# one walk each, with zero emissions (THREE_STATE, FOUR, the noiseless sites of
# a high-SNR value) and zero perturbation entries in the transitions (AM3, AM4)
# or emissions (HS3); no transition matrix itself has a zero, since models and
# almost-memoryless sites are strictly positive.  c_n is priced as a walk over
# the first symbol (X_1, Y_1), of width s * s, and read from a walk of width s
_ONE_WALK = {
    "scalar 2": (lambda: finite_entropy(QUICK, 6), 2, 2, 6),
    "scalar 3": (lambda: finite_entropy(load_model(THREE_STATE), 5), 3, 3, 5),
    "scalar 4": (lambda: finite_entropy(FOUR, 4), 4, 4, 4),
    "joint 2": (lambda: lower_bound(QUICK, 6), 2, 4, 6),
    "joint 3": (lambda: lower_bound(load_model(THREE_STATE), 5), 3, 9, 5),
    "joint 4": (lambda: lower_bound(FOUR, 4), 4, 16, 4),
    "jet 2": (lambda: increment_jet(high_snr_binary("1/5"), 6, 3), 2, 2, 6),
    "jet 3": (lambda: increment_jet(HS3, 5, 3), 3, 3, 5),
    "jet 4": (lambda: increment_jet(AM4, 4, 3), 4, 4, 4),
    "per-site 2": (lambda: multisite_derivative(MultiSiteSpec(5, (1, 0, 0, 1, 1)),
                                                am_binary("3/5")), 2, 2, 5),
    "per-site 3": (lambda: multisite_derivative(MultiSiteSpec(4, (1, 0, 1, 0)), AM3), 3, 3, 4),
    "per-site 4": (lambda: multisite_derivative(MultiSiteSpec(3, (1, 0, 1)), AM4), 4, 4, 3),
    "per-site values 2": (lambda: multisite_value(high_snr_binary("1/5"), [0, "1/10", 0, 0, 0]),
                          2, 2, 5),
    "per-site values 3": (lambda: multisite_value(HS3, [0, "1/10", 0, "1/10"]), 3, 3, 4),
}


@pytest.mark.parametrize("name", sorted(_ONE_WALK))
def test_predicted_nodes_bound_the_walk(walks, name):
    request, s, width, n = _ONE_WALK[name]
    request()
    assert walks[0] == 1 and walks[1] <= entropy._nodes(s, width, n)


@pytest.mark.parametrize("order, kvec", [(5, None), (None, (2, 0, 3)), (None, (1, 1, 1, 1)),
                                         (None, (3, 3, 3)), (0, None)])
def test_predicted_box_and_pairs_are_the_plans(order, kvec):
    # _cost's closed form against _plan: its node term scales with the box, and
    # a float leaf with the pairs plus one log, both 1 for a scalar, the plan of order 0
    targets = (kvec,) if kvec else tuple((k,) for k in range(order + 1))
    plan = entropy._plan(targets)
    box, pairs = len(plan[0]), sum(len(p) for _, _, p in plan[1] + plan[2]) + 1
    node, leaf = (entropy._cost(2, 3, record, FLOAT64) for record in (set(), {3}))
    got = [entropy._cost(2, 3, record, FLOAT64, order=order, kvec=kvec) for record in (set(), {3})]
    assert got == pytest.approx([node * box, node * box + (leaf - node) * pairs])


def test_plans_match_the_reference():
    # _plan enumerates the lattice below each target; the reference filters
    # the box of the caps and scans the whole box for every vector's pairs
    for order in range(21):
        targets = tuple((k,) for k in range(order + 1))
        assert entropy._plan(targets) == reference_plan((order,), targets), order
    for sites in range(1, 5):
        for kvec in product(range(3), repeat=sites):
            assert entropy._plan((kvec,)) == reference_plan(kvec, (kvec,)), kvec


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


def test_float64_brackets_are_within_2e_15_of_exact():
    # floats read the exact leaves, once per distinct leaf, and sum with fsum
    for model, n in ((QUICK, 12), (load_model(THREE_STATE), 8)):
        exact, fast = entropy_rate_bracket(model, n), entropy_rate_bracket(model, n, FLOAT64)
        with mpmath.workprec(256):
            for name in ("lower", "upper", "midpoint", "half_gap"):
                assert abs(getattr(fast, name) - mp_value(getattr(exact, name))) <= 2e-15, name


def test_blocks_of_leaves_and_terms_leave_the_values(monkeypatch):
    # _leaves counts its rows, and the float kernel sums its terms, _BLOCK at
    # a time; blocks of 3 keep every exact value and each float one within
    # rounding (a block dropped or counted twice is far off)
    def requests(backend):
        return [*rate_series(am_binary("3/5"), 9, backend).values,
                *vars(entropy_report(load_model(THREE_STATE), 5, backend)).values()]

    exact, floats = requests(EXACT), requests(FLOAT64)
    monkeypatch.setattr(entropy, "_BLOCK", 3)
    assert requests(EXACT) == exact
    assert requests(FLOAT64) == pytest.approx(floats, rel=1e-13, abs=1e-15)


def test_each_distinct_leaf_reaches_the_kernel_once_per_depth(monkeypatch):
    # _leaves keeps one count across the blocks of _BLOCK nodes of a depth, so
    # a leaf found in two blocks still reaches the kernel once
    calls, add_term = {}, entropy._JetExactDomain.add_term

    def counting(self, acc, p, m):
        calls.setdefault(id(acc), (acc, []))[1].append((tuple(p), m))
        return add_term(self, acc, p, m)

    monkeypatch.setattr(entropy._JetExactDomain, "add_term", counting)
    monkeypatch.setattr(entropy, "_BLOCK", 32)
    rate_series(am_binary("3/5"), 9)
    depths = [seen for _, seen in calls.values()]
    assert max(sum(m for _, m in seen) for seen in depths) > 32  # more than one block
    for seen in depths:
        assert len({p for p, _ in seen}) == len(seen)


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
    # the chain rule: the total is the sum of the per-symbol conditional logs
    prefix = [sequence_log_probability(model, ys[:t]) for t in range(41)]
    steps = [b - a for a, b in zip(prefix, prefix[1:])]
    assert prefix[0] == 0
    assert math.fsum(steps) == pytest.approx(prefix[-1], rel=1e-12)
    with pytest.raises(ValueError):
        sequence_log_probability(model, ys, backend=EXACT)


@pytest.mark.parametrize("ys, bad", [([0, -1], "-1 at step 1"), ([0, 2], "2 at step 1"),
                                     ([1.0], "1.0 at step 0")])
def test_sequence_log_probability_rejects_symbols_outside_the_alphabet(ys, bad):
    model = instantiate(high_snr_binary("1/5"), F(1, 5))
    with pytest.raises(ValueError, match=f"symbol {bad} is not in range\\(2\\)"):
        sequence_log_probability(model, ys, FLOAT64)


def test_long_path_entropy_estimate_lands_in_the_bracket():
    # Equipartition: -(1/n) log P([Y]) concentrates on the entropy rate,
    # which itself lies inside the exact window bracket.
    model = instantiate(am_binary("3/5"), F(1, 10))
    bracket = entropy_rate_bracket(model, 6)
    _, ys = sample_path(model, 100_000, seed=20260814)
    estimate = -sequence_log_probability(model, ys) / len(ys)
    slack = 0.02  # about twelve standard errors at this path length
    assert float(bracket.lower) - slack <= estimate <= float(bracket.upper) + slack


def _recording(monkeypatch):
    """Records [walk, plan, source, tables, accumulators, start, weights] of
    every walk through the one read path (_read): its description, the
    integer tables of its source, the accumulators its kernel prepares, and
    the start lists and weights the walk is given."""
    seen = []
    read, integer_tables, walk = entropy._read, entropy._integer_tables, entropy._walk

    def reading(described, n, keys, backend):
        seen.append([described])
        return read(described, n, keys, backend)

    def tables(source, plan):
        out = integer_tables(source, plan)
        seen[-1] += [plan, source, out]
        return out

    def walking(start, emit_at, trans_at, depth, n, sums, domain, weights=None):
        seen[-1] += [sums, start, weights]
        return walk(start, emit_at, trans_at, depth, n, sums, domain, weights)

    monkeypatch.setattr(entropy, "_read", reading)
    monkeypatch.setattr(entropy, "_integer_tables", tables)
    monkeypatch.setattr(entropy, "_walk", walking)
    return seen


def _denominators_lcm(matrices):
    return math.lcm(*(F(x).denominator for m in matrices for row in m for x in row))


def _assert_mapped(plan, source, tables, scales):
    """The tables are the source's rationals q times their kind's scale
    (kinds 0, 1, 2: start, emission, transition), and depths that share a
    table (A, B, i) share its mapped columns."""
    start, emits, transs = source
    beta, emit_at, trans_at = tables
    for coeffs, got in zip(start, beta, strict=True):
        assert got == [c * scales[0] for c in coeffs] + [0] * (len(plan[0]) - len(coeffs))
    for kind, tabs, mapped in ((1, emits, emit_at), (2, transs, trans_at)):
        assert len(tabs) == len(mapped)
        for (a, b, i), cols in zip(tabs, mapped):
            assert len(cols) == len(a[0]) and all(len(col) == len(a) for col in cols)
            for k, col in enumerate(cols):
                for j, entry in enumerate(col):
                    assert entry[:2] == (a[j][k] * scales[kind],
                                         (0 if b is None else b[j][k]) * scales[kind])
                    assert b is None or entry[2] == plan[3][i]
        for (t, cols) in zip(tabs, mapped):
            for (u, other) in zip(tabs, mapped):
                if t[0] is u[0] and t[1] is u[1] and t[2] == u[2]:
                    assert cols is other


QUICK = load_model(Path(__file__).parent / "golden" / "quickstart-model.json")


@pytest.mark.parametrize("request_of, shared, model", [
    (lambda b: finite_entropy(QUICK, 4, b), "", QUICK),
    (lambda b: finite_entropy(load_model(THREE_STATE), 3, b), "", load_model(THREE_STATE)),
    (lambda b: lower_bound(QUICK, 3, b), "", QUICK),
    (lambda b: lower_bound(load_model(THREE_STATE), 3, b), "", load_model(THREE_STATE)),
    (lambda b: multisite_value(am_binary("3/5"), ["1/10", "1/20", "1/30"], b), "", None),
    (lambda b: multisite_value(HS3, ["1/10", 0, "1/30"], b), "", None),
    (lambda b: increment_jet(am_binary("3/5"), 5, 3, b), "transs", None),
    (lambda b: increment_jet(high_snr_binary("1/5"), 5, 3, b), "emits", None),
    (lambda b: increment_jet(AM3, 3, 2, b), "transs", None),
    (lambda b: increment_jet(HS3, 3, 2, b), "emits", None),
    (lambda b: multisite_derivative(MultiSiteSpec(3, (1, 0, 2)), am_binary("3/5"), b), "", None),
    (lambda b: multisite_derivative(MultiSiteSpec(3, (0, 1, 1)), HS3, b), "", None),
    (lambda b: multisite_derivative(MultiSiteSpec(3, (1, 1, 0)), AM3, b), "", None),
], ids=["window", "window s=3", "joint first symbol", "joint first symbol s=3",
        "per-site values am", "per-site values hs3", "jet am", "jet high-snr", "jet am3",
        "jet hs3", "per-site derivative am", "per-site derivative hs3",
        "per-site derivative am3"])
def test_one_source_two_kernels(monkeypatch, request_of, shared, model):
    # both kernels walk the same integer tables of the same exact source, its
    # rationals times D_start, D_R and D_M, and read their leaves over the same
    # Q_d: the exact kernel from the factored scales, the float one in closed
    # form.  A model window's source is the backward one: it starts at 1 on
    # every state, goes through M^t, and weighs its reads by pi times D_start
    seen = _recording(monkeypatch)
    request_of(EXACT)
    exact = seen[:]
    seen.clear()
    entropy._RECORDED.clear()  # the float request walks cold too
    request_of(FLOAT64)
    assert len(exact) == len(seen) >= 1
    for (walk, plan, source, tables, cells, *walked), (fwalk, fplan, _, ftables, fsums,
                                                        *fwalked) in zip(exact, seen):
        assert plan == fplan and tables == ftables and walked == fwalked
        assert (walk.model is None) == (fwalk.model is None) == (model is None)
        start, emits, transs = source
        if model is not None:
            assert start == [[p] for p in model.pi]
            assert all(a == list(zip(*model.M.rows)) and b is None for a, b, _ in transs)
            assert walked == [[[1]] * model.size, [b for [b] in tables[0]]]
        else:
            assert walked == [tables[0], None]
        scales = (_denominators_lcm([start]),
                  *(_denominators_lcm(m for a, b, _ in tabs for m in (a, b) if m is not None)
                    for tabs in (emits, transs)))
        assert tables[3] == scales
        _assert_mapped(plan, source, tables[:3], scales)
        d_start, d_r, d_m = scales
        assert cells.keys() == fsums.keys()
        for (joint, depth), acc in cells.items():
            assert acc[1] == fsums[joint, depth][0] == d_start * d_r**depth * d_m**(depth - 1)
        if shared:  # a jet walk moves one variable, so every depth shares one table
            at = {"emits": 1, "transs": 2}[shared]
            assert len(tables[at]) > 1 and len({id(t) for t in tables[at]}) == 1


# ---------------------------------------------------------------------------
# The packed level-wise walk, against the recursive walk of tests/util.py
# ---------------------------------------------------------------------------

# exact requests with zero emissions (THREE_STATE, FOUR, pi's weights on the
# per-state leaves of every report), zero perturbation entries (AM3, AM4, HS3),
# 3 and 4 symbols, chains that are not reversible (FOUR, CYCLIC3) and am jets,
# whose T has negative entries
_PACKED = {
    "scalar 2": lambda: entropy_report(QUICK, 7),
    "scalar 3": lambda: entropy_report(load_model(THREE_STATE), 5),
    "scalar 3 cyclic": lambda: entropy_report(CYCLIC3, 5),
    "scalar 4": lambda: entropy_report(FOUR, 4),
    "jet am 2": lambda: rate_series(am_binary("3/5"), 11).values,
    "jet high-snr 2": lambda: rate_series(high_snr_binary("1/5"), 9).values,
    "jet am 3": lambda: increment_jet(AM3, 5, 4),
    "jet high-snr 3": lambda: increment_jet(HS3, 5, 3),
    "jet am 4": lambda: increment_jet(AM4, 4, 3),
    "per-site am 2": lambda: multisite_derivative(MultiSiteSpec(5, (1, 0, 2, 0, 1)),
                                                  am_binary("3/5")),
    "per-site am 3": lambda: multisite_derivative(MultiSiteSpec(4, (1, 0, 1, 0)), AM3),
    "per-site values high-snr 3": lambda: multisite_value(HS3, [0, "1/10", 0, "1/10"]),
    "totals": lambda: (total_probability(FOUR, 4), probability_jet_total(AM3, 4, 3)),
}


@pytest.mark.parametrize("name", sorted(_PACKED))
def test_packed_walk_matches_the_recursive_walk(monkeypatch, name):
    packed = _PACKED[name]()
    entropy._RECORDED.clear()  # the recursive walk runs the same request cold
    monkeypatch.setattr(entropy, "_walk", recursive_walk)
    assert packed == _PACKED[name]()


def test_packed_walk_matches_enumeration_on_three_and_four_symbols():
    for model in (load_model(THREE_STATE), FOUR):
        for n in (2, 3):
            assert finite_entropy(model, n) == brute_finite_entropy(model, n)
            assert lower_bound(model, n) == brute_lower_bound(model, n)
    for spec, n, order in ((AM3, 3, 3), (HS3, 3, 3), (AM4, 3, 2)):
        assert increment_jet(spec, n, order) == brute_increment_jet(spec, n, order)


@st.composite
def _large_regimes(draw):
    # entries of up to 10^6 over denominators of up to 2 * 10^6 (3 * 10^6 for
    # 3 symbols), and perturbations of either sign
    s, big = draw(st.sampled_from([2, 3])), 10**6
    if draw(st.booleans()):
        return AlmostMemoryless(draw(stochastic_rows(s, big)), draw(zero_sum_perturbations(s, big)))
    return HighSnr(draw(stochastic_rows(s, big)), draw(emission_perturbations(s, big)))


@given(_large_regimes(), st.integers(min_value=1, max_value=5), st.data())
@settings(max_examples=60, deadline=None)
def test_no_slot_overflows(spec, n, data):
    # the packed walk reads the recursive walk's leaves back, with their
    # multiplicities, and _slot_bits bounds every coefficient of them: on
    # regime sources, and on a model's backward source with both reads
    kind = data.draw(st.sampled_from(["per-site", "jet", "model"]))
    keys = {(False, d) for d in range(1, n + 1)}
    if kind == "per-site":
        kvec = tuple(data.draw(st.lists(st.integers(min_value=0, max_value=2),
                                        min_size=n, max_size=n)))
        plan = _domain(EXACT, kvec=kvec).plan
        source = expansion._regime_source(spec, n, range(n), kvec[0])
    elif kind == "jet":
        cap = data.draw(st.integers(min_value=0, max_value=4))
        plan, source = _domain(EXACT, cap).plan, expansion._regime_source(spec, n, [0] * n, cap)
    else:
        s = data.draw(st.sampled_from([2, 3, 4]))
        m = data.draw(stochastic_rows(s, 10**6))
        model = HmpModel(m, data.draw(stochastic_rows(s, 10**6)), stationary_distribution(m))
        plan, keys = _domain(EXACT).plan, keys | {(True, d) for d in range(1, n + 1)}
        source = ([[p] for p in model.pi], [(model.R.rows, None, 0)] * n,
                  [(list(zip(*model.M.rows)), None, 0)] * (n - 1))
    start, emit_at, trans_at, _ = entropy._integer_tables(source, plan)
    weights = None
    if kind == "model":
        start, weights = [[1]] * len(start), [b for [b] in start]
    leaves = []
    for walk in (entropy._walk, recursive_walk):
        sums = {key: Counter() for key in keys}
        walk(start, emit_at, trans_at, 0, n, sums,
             SimpleNamespace(plan=plan, add_term=lambda acc, p, m: acc.update({tuple(p): m})),
             weights)
        leaves.append(sums)
    assert leaves[0] == leaves[1]
    bits = entropy._slot_bits(start, emit_at, trans_at, n, weights)
    assert bits % 8 == 0
    assert all(abs(c) < 2 ** (bits - 1) for sums in leaves[1].values() for p in sums for c in p)


def test_a_leaf_with_zero_constant_term_is_refused():
    # symbol 1 has probability x at every state, so its leaves have a zero
    # constant term but a nonzero jet; a zero leaf would be pruned instead
    half = F(1, 2)
    emit = ([[1, 0], [1, 0]], [[-1, 1], [-1, 1]], 0)
    source = [[half], [half]], [emit] * 2, [([[half, half], [half, half]], None, 0)]
    for walk in (entropy._walk, recursive_walk):
        for backend in (EXACT, FLOAT64, FloatBackend(128)):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(entropy, "_walk", walk)
                with pytest.raises(NonpositiveConstantTerm,
                                   match=r"^sequence probability has constant term 0$"):
                    entropy._read(entropy._Walk(2, (), lambda n: source, order=2), 2,
                                  {(False, 1), (False, 2)}, backend)


# ---------------------------------------------------------------------------
# Window values a process remembers per model (entropy._RECORDED)
# ---------------------------------------------------------------------------

_WINDOW_REQUESTS = {
    "report": entropy_report,
    "bracket": lambda m, n, b: entropy_rate_bracket(m, n, b) if n > 1 else None,
    "H_n": finite_entropy,
    "C_n": conditional_increment,
    "c_n": lambda m, n, b: lower_bound(m, n, b) if n > 1 else None,
}


def _bits(value):
    """A value as its exact bits: a float's hex, an mpf's tuple, a dataclass's fields."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, mpmath.mpf):
        return value._mpf_
    if isinstance(value, (EntropyReport, EntropyBracket)):
        return tuple(_bits(getattr(value, f)) for f in value.__dataclass_fields__)
    return value


@pytest.mark.parametrize("backend", [EXACT, FLOAT64, FloatBackend(128)],
                         ids=["exact", "float64", "bigfloat128"])
@pytest.mark.parametrize("name", ["quickstart-model.json", THREE_STATE.name])
def test_remembered_windows_equal_cold_walks(backend, name):
    # ascending, descending and mixed requests on one model, each kind at
    # every n in turn (so a report precedes the bracket at the same n), read
    # the same bits as the same request walked cold, beside another backend's
    model = load_model(Path(__file__).parent / "golden" / name)
    ns = range(1, 7)
    cold = {}
    for n in ns:
        for kind, request in _WINDOW_REQUESTS.items():
            entropy._RECORDED.clear()
            cold[kind, n] = _bits(request(model, n, backend))
    for order in (list(ns), list(reversed(ns)), [4, 1, 6, 2, 5, 3]):
        entropy._RECORDED.clear()
        entropy_rate_bracket(model, max(ns), FLOAT64 if backend is EXACT else EXACT)
        for n in order:
            for kind, request in _WINDOW_REQUESTS.items():
                assert _bits(request(model, n, backend)) == cold[kind, n], (order, kind, n)
    if backend is EXACT:  # and they are the enumeration oracle's values
        h = {n: brute_finite_entropy(model, n) for n in ns}
        joint = {n: entropy_exact(joint_distribution(model, n)) for n in ns}
        for n in ns:
            rep = entropy_report(model, n)
            assert rep.entropy == h[n]
            assert rep.increment == (h[n] - h[n - 1] if n > 1 else h[1])
            assert rep.lower == (joint[n] - joint[n - 1] if n > 1 else None)


def test_a_window_sweep_walks_each_depth_once(monkeypatch, walks):
    # reports n = 1..8 each walk once, to n, and read each new depth once,
    # summed over the states and state by state; the brackets n = 2..8 that
    # follow walk nothing
    runs, read = [], entropy._read
    monkeypatch.setattr(entropy, "_read", lambda walk, n, keys, backend: (
        runs.append((n, keys)) or read(walk, n, keys, backend)))
    for n in range(1, 9):
        runs.clear()
        walks[0] = 0
        entropy_report(QUICK, n)
        joint = {(True, 1), (True, 2)} if n == 2 else {(True, n)} if n > 2 else set()
        assert runs == [(n, {(False, n)} | joint)]
        assert walks[0] == 1
    walks[0] = 0
    runs.clear()
    for n in range(2, 9):
        entropy_rate_bracket(QUICK, n)
    assert walks[0] == 0 and runs == []


def test_total_probability_always_walks_and_moves_no_entropy(walks):
    model = load_model(THREE_STATE)
    assert total_probability(model, 4) == 1
    h = finite_entropy(model, 4)
    walks[0] = 0
    assert total_probability(model, 4) == 1
    assert walks[0] == 1
    assert finite_entropy(model, 4) == h == brute_finite_entropy(model, 4)
    assert walks[0] == 1


def test_a_refused_request_records_nothing_and_is_refused_warm():
    message = r"^predicted cost .* exceeds the cap "
    with pytest.raises(DepthCapExceeded, match=message) as cold:
        entropy_rate_bracket(FOUR, 14)
    assert len(entropy._RECORDED) == 0
    for n in range(1, 6):
        entropy_report(FOUR, n)
    seen = dict(entropy._RECORDED[FOUR])
    with pytest.raises(DepthCapExceeded, match=message) as warm:
        entropy_rate_bracket(FOUR, 14)
    assert str(warm.value) == str(cold.value)
    assert entropy._RECORDED[FOUR] == seen


@pytest.mark.parametrize("backend", [EXACT, FLOAT64, FloatBackend(128)],
                         ids=["exact", "float64", "bigfloat128"])
def test_a_failed_walk_records_nothing_and_fails_warm(backend):
    # an unvalidated model whose pi has a negative entry: its words of length
    # 1 have positive probabilities, but the word (1, 1) has -1/8
    model = HmpModel(StochasticMatrix.identity(2), StochasticMatrix(((F(1, 2), F(1, 2)), (0, 1))),
                     (F(3, 2), F(-1, 2)))
    # (X_1 = 1, Y_1 = 1) has -1/2; one walk reads the per-state leaves of a
    # report at depth 1 before any leaf at depth 2
    messages = {finite_entropy: r"^sequence probability has constant term -1/8$",
                entropy_report: r"^sequence probability has constant term -1/2$"}
    cold = {}
    for request, message in messages.items():
        with pytest.raises(NonpositiveConstantTerm, match=message) as failure:
            request(model, 2, backend)
        cold[request] = str(failure.value)
        assert len(entropy._RECORDED) == 0
    finite_entropy(model, 1, backend)
    seen = dict(entropy._RECORDED[model])
    for request in messages:
        with pytest.raises(NonpositiveConstantTerm) as warm:
            request(model, 2, backend)
        assert str(warm.value) == cold[request], request.__name__
    assert entropy._RECORDED[model] == seen


@pytest.mark.parametrize("model, top", [(FOUR, 4), (CYCLIC3, 5)], ids=["four-state", "cyclic"])
def test_non_reversible_windows_match_enumeration(model, top):
    # on a chain that is not reversible a word and its reverse differ in
    # probability, so a walk that took M for its transpose, or a word for its
    # reverse, would read other leaves; each request walks cold, and every
    # value is the oracle's
    words = product(range(model.size), repeat=3)
    assert any(word_probability(model, ys) != word_probability(model, ys[::-1]) for ys in words)
    h = {n: brute_finite_entropy(model, n) for n in range(1, top + 1)}
    joint = {n: entropy_exact(joint_distribution(model, n)) for n in range(1, top + 1)}
    for n in range(1, top + 1):
        entropy._RECORDED.clear()
        increment = h[n] - h[n - 1] if n > 1 else h[1]
        lower = joint[n] - joint[n - 1] if n > 1 else None
        assert entropy_report(model, n) == EntropyReport(n, h[n], increment, lower, "exact")
        if n > 1:
            entropy._RECORDED.clear()
            assert lower_bound(model, n) == lower
            entropy._RECORDED.clear()
            bracket = entropy_rate_bracket(model, n)
            assert (bracket.lower, bracket.upper) == (lower, increment)


def test_remembered_windows_go_with_their_model():
    model = load_model(THREE_STATE)
    entropy_rate_bracket(model, 4)
    assert len(entropy._RECORDED) == 1
    del model
    gc.collect()
    assert len(entropy._RECORDED) == 0


def test_bounds_scan_leaves_nothing_recorded():
    bounds_scan(high_snr_binary("1/5"), rational_grid("1/100", "2/5", 4), [2, 4], bound_depth=4)
    assert len(entropy._RECORDED) == 0
