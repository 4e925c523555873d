"""Radius-of-convergence estimates and bounds-window scans.

Three standard estimators over a coefficient table: consecutive-ratio,
Cauchy-Hadamard root, and a Domb-Sykes extrapolation of stride ratios
against 1/k.  Tables whose odd orders vanish identically (symmetric
families) are handled by detecting the stride from the zero pattern.

Estimates quantify the distance to the nearest singularity of the formal
series; nothing here certifies convergence, and no complex-parameter model
is ever constructed.  Estimators return value > 0 or an indeterminate flag,
never NaN.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from operator import index

import numpy as np  # kept here: the package binds radius lazily, so only its users load numpy

from .backends import FLOAT64
from .entropy import _price, _refuse, _Walk, _window_asks, entropy_rate_bracket
from .errors import DegenerateFit, TooFewCoefficients
from .expansion import CoefficientTable, _jet_walk, rate_series, settling_threshold
from .model import RegimeSpec, instantiate, parse_rational, regime_kind

_MIN_NONZERO = 4
_ZERO_REL = 1e-12
_SCAN_TOL = 1e-9


@dataclass(frozen=True)
class RadiusEstimate:
    method: str
    value: float | None
    indeterminate: bool
    orders: tuple[int, ...]
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.indeterminate and not (self.value is not None and self.value > 0):
            raise ValueError("estimate must be positive or flagged indeterminate")


def _coeff_floats(table) -> list[float]:
    if isinstance(table, CoefficientTable):
        return list(table.value_floats())
    return [float(v) for v in table]


def _nonzero_orders(cs) -> list[int]:
    scale = max(abs(c) for c in cs)
    if scale == 0:
        return []
    return [k for k in range(1, len(cs)) if abs(cs[k]) > _ZERO_REL * scale]


def _gate(table, method) -> tuple[list[float], list[int]]:
    """Common admission: the table's floats and its nonzero orders beyond 0,
    none when they all vanish (then the estimate is indeterminate)."""
    cs = _coeff_floats(table)
    if len(cs) - 1 < _MIN_NONZERO:
        raise TooFewCoefficients(
            f"{method}: table order {len(cs) - 1} is below the minimum {_MIN_NONZERO}"
        )
    ks = _nonzero_orders(cs)
    if 0 < len(ks) < _MIN_NONZERO:
        raise TooFewCoefficients(
            f"{method}: only {len(ks)} nonzero coefficients beyond order 0"
        )
    return cs, ks


def _indeterminate(method, note="all coefficients beyond order 0 vanish") -> RadiusEstimate:
    return RadiusEstimate(method, None, True, (), {"note": note})


def _stride(ks) -> int:
    m = 0
    for a, b in zip(ks, ks[1:]):
        m = gcd(m, b - a)
    return m or 1


def ratio_estimate(table) -> RadiusEstimate:
    """rho ~ |c_k / c_{k+m}|^{1/m}, averaged over the top available orders."""
    cs, ks = _gate(table, "ratio")
    if not ks:
        return _indeterminate("ratio")
    m = _stride(ks)
    kset = set(ks)
    points = [
        (k, abs(cs[k] / cs[k + m]) ** (1.0 / m))
        for k in ks
        if k + m in kset
    ]
    if not points:
        return _indeterminate("ratio", f"no two nonzero orders are a stride of {m} apart")
    used = points[-4:]
    value = sum(v for _, v in used) / len(used)
    return RadiusEstimate(
        "ratio",
        value,
        False,
        tuple(k for k, _ in used),
        {
            "stride": m,
            "per_order": {k: v for k, v in points},
            "sign_alternating": all(cs[k] * cs[k + m] < 0 for k, _ in points),
        },
    )


def cauchy_hadamard_estimate(table) -> RadiusEstimate:
    """rho ~ |c_k|^{-1/k} at the largest available orders."""
    cs, ks = _gate(table, "cauchy-hadamard")
    if not ks:
        return _indeterminate("cauchy-hadamard")
    points = [(k, abs(cs[k]) ** (-1.0 / k)) for k in ks]
    used = points[-3:]
    value = sum(v for _, v in used) / len(used)
    return RadiusEstimate(
        "cauchy-hadamard",
        value,
        False,
        tuple(k for k, _ in used),
        {"stride": _stride(ks), "per_order": {k: v for k, v in points}},
    )


def domb_sykes_estimate(table) -> RadiusEstimate:
    """Linear fit of the stride ratios c_{k+m}/c_k against 1/k.

    The fitted intercept b estimates the limiting ratio, so
    rho = |b|^{-1/m}; the sign of the ratios locates the singularity on
    the positive (all positive) or negative (all negative) axis of the
    stride variable.
    """
    cs, ks = _gate(table, "domb-sykes")
    if not ks:
        return _indeterminate("domb-sykes")
    m = _stride(ks)
    kset = set(ks)
    pts = [(k, cs[k + m] / cs[k]) for k in ks if k + m in kset]
    if len(pts) < 5:
        raise TooFewCoefficients(
            f"domb-sykes: needs at least 5 ratio points, have {len(pts)}"
        )
    x = np.array([1.0 / k for k, _ in pts])
    y = np.array([v for _, v in pts])
    coeffs, residuals, *_ = np.polyfit(x, y, 1, full=True)
    slope, intercept = float(coeffs[0]), float(coeffs[1])
    y_scale = float(np.max(np.abs(y)))
    if not np.isfinite(intercept) or abs(intercept) <= 1e-12 * y_scale:
        raise DegenerateFit("fitted intercept is zero or non-finite")
    residual = float(residuals[0]) if len(residuals) else 0.0
    rel_residual = (residual / len(pts)) ** 0.5 / abs(intercept)
    value = abs(intercept) ** (-1.0 / m)
    return RadiusEstimate(
        "domb-sykes",
        value,
        False,
        tuple(k for k, _ in pts),
        {
            "stride": m,
            "slope": slope,
            "intercept": intercept,
            "residual": residual,
            "low_confidence": bool(rel_residual > 1e-6),
            "sign_alternating": bool(all(v < 0 for _, v in pts)),
        },
    )


ESTIMATORS = {
    "ratio": ratio_estimate,
    "cauchy-hadamard": cauchy_hadamard_estimate,
    "domb-sykes": domb_sykes_estimate,
}


def all_estimates(table) -> tuple[RadiusEstimate, ...]:
    return tuple(fn(table) for fn in ESTIMATORS.values())


@dataclass(frozen=True)
class ScanRow:
    grid_value: float
    order: int
    partial_sum: float
    lower_bound: float
    upper_bound: float
    inside: bool
    exit_direction: int  # +1 above the band, -1 below, 0 inside


@dataclass(frozen=True)
class BoundsScan:
    regime: str
    orders: tuple[int, ...]
    bound_depth: int
    rows: tuple[ScanRow, ...]


def bounds_scan(spec: RegimeSpec, grid, orders, backend=FLOAT64,
                bound_depth: int = 2) -> BoundsScan:
    """Partial sums against the [c_N, C_N] band across a parameter grid.

    Each grid point instantiates the model exactly and computes the band with
    backend; each requested truncation order contributes one row per point.
    A point is inside when it lies within [lower - _SCAN_TOL, upper +
    _SCAN_TOL], a fixed 1e-9.  bound_depth, and the predicted cost of the
    table and of every bracket, are checked before the table is built.
    """
    grid = [parse_rational(g) for g in grid]
    if len(grid) < 1:
        raise ValueError("empty grid")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    orders = tuple(sorted(set(index(k) for k in orders)))
    if not orders:
        raise ValueError("need at least one truncation order")
    if orders[0] < 0:
        raise ValueError(f"truncation orders must be nonnegative, got {orders[0]}")
    k = max(orders)
    bracket = _price(_Walk(spec.T.size, _window_asks([bound_depth], 2)), backend)  # each point's
    jets = _price(_jet_walk(spec, (settling_threshold(k),), k), backend)  # rate_series' walk
    _refuse(jets + len(grid) * bracket)
    table = rate_series(spec, k, backend)
    rows = []
    for g in grid:
        br = entropy_rate_bracket(instantiate(spec, g), bound_depth, backend)
        lo, up = float(br.lower), float(br.upper)
        gf = float(g)
        for k in orders:
            ps = table.partial_sum(gf, k)
            if ps > up + _SCAN_TOL:
                direction = 1
            elif ps < lo - _SCAN_TOL:
                direction = -1
            else:
                direction = 0
            rows.append(ScanRow(gf, k, ps, lo, up, direction == 0, direction))
    return BoundsScan(regime_kind(spec), orders, bound_depth, tuple(rows))


def rational_grid(start, stop, steps: int) -> tuple[Fraction, ...]:
    """steps exact rational points from start to stop inclusive."""
    start, stop = parse_rational(start), parse_rational(stop)
    if steps < 2:
        raise ValueError("grid needs at least 2 points")
    if stop <= start:
        raise ValueError("grid must be increasing")
    h = (stop - start) / (steps - 1)
    return tuple(start + i * h for i in range(steps))
