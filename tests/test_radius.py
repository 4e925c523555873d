"""Radius-of-convergence estimators and the bounds scan."""

import subprocess
import sys
from fractions import Fraction

import pytest

from hmpseries import radius
from hmpseries import (
    EXACT,
    DegenerateFit,
    DepthCapExceeded,
    RadiusEstimate,
    TooFewCoefficients,
    all_estimates,
    am_binary,
    bounds_scan,
    cauchy_hadamard_estimate,
    domb_sykes_estimate,
    entropy_rate_bracket,
    high_snr_binary,
    instantiate,
    rate_series,
    ratio_estimate,
    rational_grid,
)

F = Fraction


def geometric(rho, order=12):
    return [rho ** -k for k in range(order + 1)]


def test_geometric_series_is_recovered_exactly():
    for rho in (0.5, 1.0, 3.0):
        for est in all_estimates(geometric(rho)):
            assert not est.indeterminate
            assert est.value == pytest.approx(rho, abs=1e-12)


def test_methods_are_labelled():
    methods = [e.method for e in all_estimates(geometric(2.0))]
    assert methods == ["ratio", "cauchy-hadamard", "domb-sykes"]


def test_domb_sykes_handles_polynomial_prefactor():
    # c_k = k 2^k has radius 1/2; the ratio plot is a straight line in 1/k
    # with intercept exactly 2, which the fit recovers.
    cs = [0.0] + [k * 2.0 ** k for k in range(1, 13)]
    est = domb_sykes_estimate(cs)
    assert est.value == pytest.approx(0.5, abs=1e-12)
    assert est.diagnostics["intercept"] == pytest.approx(2.0, abs=1e-10)
    assert not est.diagnostics["low_confidence"]


def test_even_series_uses_stride_two():
    cs = []
    for k in range(13):
        cs.append(4.0 ** (-(k // 2)) if k % 2 == 0 else 0.0)
    for est in all_estimates(cs):
        assert est.value == pytest.approx(2.0, abs=1e-9)
    assert ratio_estimate(cs).diagnostics["stride"] == 2
    assert all(k % 2 == 0 for k in ratio_estimate(cs).orders)


def test_constant_tail_indeterminate_cases():
    flat = rate_series(am_binary(0), 13)  # every coefficient past c0 is zero
    zero = [0.0] * 13  # c0 as well
    for table in (flat, zero):
        for est in all_estimates(table):
            assert est.indeterminate
            assert est.value is None
            assert est.diagnostics == {"note": "all coefficients beyond order 0 vanish"}


def test_ratio_names_why_it_gives_up():
    # nonzero orders 2, 5, 7 and 10 beyond 0: their stride is 1, and no two
    # are adjacent, so there is no ratio to take, though nothing vanishes
    cs = [2.0 ** -k if k in (0, 2, 5, 7, 10) else 0.0 for k in range(11)]
    est = ratio_estimate(cs)
    assert est.indeterminate and est.value is None
    assert est.diagnostics == {"note": "no two nonzero orders are a stride of 1 apart"}
    assert cauchy_hadamard_estimate(cs).value == pytest.approx(2.0)
    with pytest.raises(TooFewCoefficients, match="have 0$"):
        domb_sykes_estimate(cs)


def test_too_few_coefficients():
    with pytest.raises(TooFewCoefficients):
        ratio_estimate([1.0, 2.0, 4.0, 8.0])  # order 3 < 4
    sparse = [1.0, 0.0, 0.5, 0.0, 0.25, 0.0, 0.0, 0.0]  # only two usable orders
    with pytest.raises(TooFewCoefficients):
        cauchy_hadamard_estimate(sparse)
    with pytest.raises(TooFewCoefficients):
        domb_sykes_estimate([1.0, 1.0, 1.0, 1.0, 1.0])  # 3 ratio points


def test_degenerate_fit_for_entire_functions():
    # c_{k+1}/c_k = 1/k exactly, so the fitted intercept vanishes.
    cs = [1.0, 1.0]
    for k in range(1, 10):
        cs.append(cs[-1] / k)
    with pytest.raises(DegenerateFit):
        domb_sykes_estimate(cs)


def test_estimate_validation():
    with pytest.raises(ValueError):
        RadiusEstimate("ratio", None, False, ())
    with pytest.raises(ValueError):
        RadiusEstimate("ratio", -1.0, False, (1, 2))
    ok = RadiusEstimate("ratio", None, True, ())
    assert ok.indeterminate


def test_am_estimates_behave_like_the_reference_family():
    table = rate_series(am_binary(1), 13)
    ratio = ratio_estimate(table)
    ch = cauchy_hadamard_estimate(table)
    ds = domb_sykes_estimate(table)
    # the underlying singularity sits at 1/2 for this family
    assert abs(ds.value - 0.5) < 0.1
    per_order = ratio.diagnostics["per_order"]
    ks = sorted(per_order)
    vals = [per_order[k] for k in ks]
    assert all(a > b for a, b in zip(vals, vals[1:]))  # approaching from above
    assert vals[-1] < 0.61
    # the two coarse estimators agree to 25 percent here
    assert abs(ch.value / ratio.value - 1) < 0.25
    assert ratio.diagnostics["stride"] == 2


def test_high_snr_alternating_signs_are_reported():
    table = rate_series(high_snr_binary(F(1, 5)), 13)
    ds = domb_sykes_estimate(table)
    assert ds.diagnostics["sign_alternating"]
    assert ds.value < 0.1


def test_rational_grid_is_exact_and_inclusive():
    grid = rational_grid("1/100", "49/100", 50)
    assert len(grid) == 50
    assert grid[0] == F(1, 100) and grid[-1] == F(49, 100)
    step = F(48, 100 * 49)
    assert all(b - a == step for a, b in zip(grid, grid[1:]))
    with pytest.raises(ValueError):
        rational_grid(0, 1, 1)
    with pytest.raises(ValueError):
        rational_grid(1, 0, 5)


def test_bounds_scan_schema_and_gating():
    spec = am_binary(F(3, 5))
    scan = bounds_scan(spec, rational_grid("1/100", "2/5", 5), [2, 4])
    assert scan.regime == "almost-memoryless"
    assert scan.orders == (2, 4)
    assert scan.bound_depth == 2
    assert len(scan.rows) == 10
    for row in scan.rows:
        assert row.lower_bound <= row.upper_bound + 1e-12
        if row.inside:
            assert row.exit_direction == 0
        else:
            assert row.exit_direction in (-1, 1)
    with pytest.raises(ValueError):
        bounds_scan(spec, [], [2])
    with pytest.raises(ValueError):
        bounds_scan(spec, [F(1, 4), F(1, 8)], [2])
    with pytest.raises(ValueError, match="at least one truncation order"):
        bounds_scan(spec, [F(1, 4)], [])
    with pytest.raises(ValueError, match="nonnegative, got -1"):
        bounds_scan(spec, [F(1, 4)], [-1, 5])


@pytest.mark.parametrize("depth, orders, error, message", [
    pytest.param(1, [9], ValueError, "needs n >= 2", id="1-ValueError-needs n >= 2"),
    # ten float64 brackets at n = 20, about 14 s each on a 2-core x86 machine
    pytest.param(20, [9], DepthCapExceeded, "exceeds the cap",
                 id="20-DepthCapExceeded-exceeds the cap"),
    pytest.param(2.5, [9], TypeError, "cannot be interpreted as an integer",
                 id="2.5-TypeError-cannot be interpreted as an integer"),
    pytest.param(24, [9], DepthCapExceeded, "exceeds the cap", id="over-budget bound_depth"),
    pytest.param(2, [45], DepthCapExceeded, "exceeds the cap", id="over-budget table order"),
])
def test_bounds_scan_checks_bound_depth_before_building_the_table(
        monkeypatch, depth, orders, error, message):
    built = []

    def recording(*args, **kwargs):
        built.append(args)
        return rate_series(*args, **kwargs)

    monkeypatch.setattr(radius, "rate_series", recording)
    with pytest.raises(error, match=message):
        bounds_scan(am_binary(F(3, 5)), rational_grid(F(1, 100), F(1, 10), 10), orders,
                    bound_depth=depth)
    assert built == []


def test_bounds_scan_computes_the_band_with_its_backend(monkeypatch):
    seen = []

    def recording(model, n, backend, *rest):
        seen.append(backend)
        return entropy_rate_bracket(model, n, backend, *rest)

    monkeypatch.setattr(radius, "entropy_rate_bracket", recording)
    scan = bounds_scan(am_binary(F(3, 5)), [F(1, 10), F(1, 5)], [4], EXACT, bound_depth=3)
    assert seen == [EXACT, EXACT]
    exact = entropy_rate_bracket(instantiate(am_binary(F(3, 5)), F(1, 5)), 3, EXACT)
    row = scan.rows[1]
    assert (row.lower_bound, row.upper_bound) == (float(exact.lower), float(exact.upper))

def test_bounds_scan_small_parameters_stay_inside():
    spec = am_binary(F(3, 5))
    scan = bounds_scan(spec, rational_grid("1/100", "1/10", 4), [6, 8])
    assert all(row.inside for row in scan.rows)


_LAZY = """
import sys
import hmpseries
names = {"BoundsScan", "RadiusEstimate", "ScanRow", "all_estimates", "bounds_scan",
         "cauchy_hadamard_estimate", "domb_sykes_estimate", "ratio_estimate", "rational_grid"}
assert not {"numpy", "sympy", "mpmath"} & set(sys.modules), sys.modules.keys()
assert names | {"radius"} <= set(dir(hmpseries)) and "numpy" not in sys.modules
assert hmpseries.all_estimates is hmpseries.radius.all_estimates and "numpy" in sys.modules
from hmpseries import ratio_estimate
assert ratio_estimate is hmpseries.radius.ratio_estimate
star = {}
exec("from hmpseries import *", star)
assert all(star[name] is getattr(hmpseries.radius, name) for name in names)
assert star["radius"] is hmpseries.radius and star["entropy_report"] is hmpseries.entropy_report
"""


def test_the_package_loads_numpy_only_when_a_radius_name_is_used():
    # radius is the only numpy user (one Domb-Sykes fit), so the package binds
    # its names on first use: a library process that never touches them loads
    # neither numpy nor, before an exact or bigfloat request, sympy or mpmath;
    # dir() and star imports still list every radius name
    proc = subprocess.run([sys.executable, "-c", _LAZY], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
