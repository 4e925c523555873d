"""Model layer: exact matrices, stationary vectors, regimes, files, sampling."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings

from hmpseries import (
    AlmostMemoryless,
    HighSnr,
    HmpModel,
    NegativeEntry,
    NotStrictlyPositive,
    OutOfRange,
    ParseError,
    PerturbationMatrix,
    RowSumViolation,
    StochasticMatrix,
    ValidationError,
    am_binary,
    binary_symmetric_chain,
    binary_symmetric_emission,
    high_snr_binary,
    instantiate,
    load_model,
    load_regime,
    model_from_dict,
    model_to_dict,
    parse_rational,
    perturbed_identity,
    perturbed_uniform,
    regime_from_dict,
    regime_kind,
    regime_to_dict,
    sample_path,
    stationary_distribution,
    stationary_first_order,
    validate_model,
)
from hmpseries.expansion import stationary_series

from util import hmp_models, stochastic_rows, zero_sum_perturbations

F = Fraction


def test_parse_rational_exact_forms():
    assert parse_rational("1/3") == F(1, 3)
    assert parse_rational("0.1") == F(1, 10)
    assert parse_rational(0.1) == F(1, 10)  # via the shortest decimal repr
    assert parse_rational(F(2, 7)) == F(2, 7)
    assert parse_rational(3) == F(3)


def test_parse_rational_rejections():
    with pytest.raises(ParseError):
        parse_rational("one third")
    with pytest.raises(ParseError):
        parse_rational(True)


def test_stochastic_matrix_validation():
    with pytest.raises(RowSumViolation):
        StochasticMatrix((("1/2", "1/3"), ("1/2", "1/2")))
    with pytest.raises(NegativeEntry):
        StochasticMatrix((("3/2", "-1/2"), ("1/2", "1/2")))


def test_stochastic_matrix_helpers():
    m = binary_symmetric_chain("1/5")
    assert m.rows == ((F(4, 5), F(1, 5)), (F(1, 5), F(4, 5)))
    assert m.column_sums() == (1, 1)
    assert StochasticMatrix.identity(2).rows == ((1, 0), (0, 1))
    assert StochasticMatrix.uniform(3).rows[0] == (F(1, 3),) * 3
    assert not StochasticMatrix.identity(2).strictly_positive
    assert m.strictly_positive


def test_perturbation_matrix_validation():
    with pytest.raises(RowSumViolation):
        PerturbationMatrix(((1, 1), (-1, 1)))
    t = PerturbationMatrix(((-2, 2), (3, -3)))
    t.require_emission_signs()
    bad = PerturbationMatrix(((2, -2), (0, 0)))
    with pytest.raises(NegativeEntry):
        bad.require_emission_signs()
    assert PerturbationMatrix.zero(2).rows == ((0, 0), (0, 0))


def test_stationary_distribution_example():
    m = StochasticMatrix((("9/10", "1/10"), ("3/10", "7/10")))
    assert stationary_distribution(m) == (F(3, 4), F(1, 4))


@given(stochastic_rows(2))
def test_stationary_is_exactly_invariant_s2(m):
    pi = stationary_distribution(m)
    assert sum(pi) == 1
    for j in range(2):
        assert sum(pi[i] * m.rows[i][j] for i in range(2)) == pi[j]


@given(stochastic_rows(3))
@settings(max_examples=40)
def test_stationary_is_exactly_invariant_s3(m):
    pi = stationary_distribution(m)
    assert sum(pi) == 1
    for j in range(3):
        assert sum(pi[i] * m.rows[i][j] for i in range(3)) == pi[j]


def test_validate_model_checks():
    m = binary_symmetric_chain("1/5")
    r = binary_symmetric_emission("1/10")
    model = validate_model(m, r)
    assert model.pi == (F(1, 2), F(1, 2))
    with pytest.raises(NotStrictlyPositive):
        validate_model(StochasticMatrix.identity(2), r)
    with pytest.raises(ValidationError):
        validate_model(m, StochasticMatrix.uniform(3))


def test_regime_constructors_validate():
    with pytest.raises(NotStrictlyPositive):
        HighSnr(StochasticMatrix.identity(2), PerturbationMatrix.zero(2))
    with pytest.raises(NegativeEntry):
        high_snr_binary("1/5").__class__(
            binary_symmetric_chain("1/5"), PerturbationMatrix(((1, -1), (-1, 1)))
        )
    # an emission column that is identically zero is rejected
    dead = StochasticMatrix(((1, 0), (1, 0)))
    with pytest.raises(ValidationError):
        AlmostMemoryless(dead, PerturbationMatrix.zero(2))
    assert regime_kind(high_snr_binary("1/5")) == "high-snr"
    assert regime_kind(am_binary("3/5")) == "almost-memoryless"


def test_am_binary_parameter_range():
    am_binary(0)
    am_binary(1)
    with pytest.raises(ValidationError):
        am_binary("6/5")


def test_perturbed_identity_and_uniform():
    t = PerturbationMatrix(((-1, 1), (1, -1)))
    assert perturbed_identity(t, F(1, 5)).rows == (
        (F(4, 5), F(1, 5)), (F(1, 5), F(4, 5))
    )
    with pytest.raises(OutOfRange):
        perturbed_identity(t, F(3, 2))
    u = PerturbationMatrix(((1, -1), (-1, 1)))
    assert perturbed_uniform(u, F(3, 10)).rows == (
        (F(4, 5), F(1, 5)), (F(1, 5), F(4, 5))
    )
    with pytest.raises(OutOfRange):
        perturbed_uniform(u, F(1, 2))  # entries hit 0 exactly


def test_instantiate_both_regimes():
    hs = instantiate(high_snr_binary("1/5"), F(1, 5))
    assert hs.R.rows == ((F(4, 5), F(1, 5)), (F(1, 5), F(4, 5)))
    assert hs.pi == (F(1, 2), F(1, 2))
    am = instantiate(am_binary("3/5"), F(3, 10))
    assert am.M.rows == ((F(4, 5), F(1, 5)), (F(1, 5), F(4, 5)))
    assert am.R.rows == ((F(4, 5), F(1, 5)), (F(1, 5), F(4, 5)))
    assert am.pi == (F(1, 2), F(1, 2))


@given(zero_sum_perturbations(3))
@settings(max_examples=30)
def test_stationary_first_order_matches_series_and_differences(t):
    psi = stationary_first_order(t)
    assert sum(psi) == 0
    # exact arbiter: order-1 coefficient of the stationary jet
    jet = stationary_series(t, 1)
    assert tuple(p.coeffs[1] for p in jet) == psi
    # independent numeric check: central difference of the exact stationary
    h = F(1, 10 ** 6)
    try:
        hi = stationary_distribution(perturbed_uniform(t, h))
        lo = stationary_distribution(perturbed_uniform(t, -h))
    except OutOfRange:
        return
    for a, b, p in zip(hi, lo, psi):
        assert float((a - b) / (2 * h)) == pytest.approx(float(p), abs=1e-4)


def test_stationary_first_order_example():
    t = PerturbationMatrix((("1/2", 0, "-1/2"), (0, 0, 0), (1, "-1/2", "-1/2")))
    assert stationary_first_order(t) == (F(1, 2), F(-1, 6), F(-1, 3))


def test_sample_path_is_seeded_and_in_range():
    model = instantiate(am_binary("3/5"), F(1, 10))
    xs, ys = sample_path(model, 200, seed=7)
    assert (xs, ys) == sample_path(model, 200, seed=7)
    assert sample_path(model, 200, seed=8) != (xs, ys)
    assert len(xs) == len(ys) == 200
    assert set(xs) <= {0, 1} and set(ys) <= {0, 1}


def test_sample_path_noiseless_copies_the_chain():
    model = instantiate(high_snr_binary("1/5"), 0)
    xs, ys = sample_path(model, 64, seed=3)
    assert ys == xs


def test_model_dict_round_trip():
    model = validate_model(
        binary_symmetric_chain("1/5"), binary_symmetric_emission("1/10")
    )
    data = model_to_dict(model)
    again = model_from_dict(json.loads(json.dumps(data)))
    assert again == model


def test_regime_dict_round_trip():
    for spec in (high_snr_binary("1/5"), am_binary("3/5")):
        data = regime_to_dict(spec)
        assert regime_from_dict(json.loads(json.dumps(data))) == spec


def test_json_decimal_text_is_exact(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "s": 2,
        "M": [[0.9, 0.1], [0.3, 0.7]],
        "R": [["1/2", "0.5"], [0.25, "3/4"]],
    }))
    model = load_model(path)
    assert model.M.rows == ((F(9, 10), F(1, 10)), (F(3, 10), F(7, 10)))
    assert model.R.rows == ((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4)))
    assert model.pi == (F(3, 4), F(1, 4))


def test_load_errors_carry_context(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"s": 2, "M": [["1/2", "1/2"]]}))
    with pytest.raises(ParseError, match="M"):
        load_model(path)
    path.write_text(json.dumps({"regime": "sideways", "s": 2}))
    with pytest.raises(ParseError, match="regime"):
        load_regime(path)
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_model(path)


@given(hmp_models(2))
@settings(max_examples=25)
def test_models_are_hashable_and_frozen(model):
    assert isinstance(hash(model), int)
    with pytest.raises(AttributeError):
        model.pi = None
