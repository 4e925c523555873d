"""Mixed partial derivatives of finite-window entropies per site.

Each site i of the length-n window carries its own perturbation parameter
(eps_i on the emission at site i in the high-SNR regime; delta_i on the
transition into site i, and through the stationary start for site 1, in the
almost-memoryless regime).  F_n^{kvec} is the mixed partial derivative of
F_n = H_n - H_{n-1} at the origin, equal to prod(k_i!) times the multivariate
Taylor coefficient.

The traversal is the entropy module's, over polynomials with per-variable
degree caps k_i, walked as coefficient lists like the jets, from the tables
of expansion._poly_tables in which site i moves variable i.  The leaf
kernels are the entropy module's too, with kvec as their one target: the
exact one walks integers over Q_d and takes one log per distinct constant
term N_0 of a depth.  multisite_value walks its sites' own matrices, as
perturbed_identity and perturbed_uniform check them, like a model's window.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, prod

from .backends import EXACT
from .entropy import _domain, _matrix_tables, _traverse
from .errors import WeightCapExceeded
from .model import (
    HighSnr,
    RegimeSpec,
    parse_rational,
    perturbed_identity,
    perturbed_uniform,
    stationary_distribution,
)
from .expansion import _poly_tables

WEIGHT_CAP = 4
SITE_CAP = 6


@dataclass(frozen=True)
class MultiSiteSpec:
    """A window length n and one derivative order per site."""

    n: int
    kvec: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "kvec", tuple(int(k) for k in self.kvec))
        if len(self.kvec) != self.n:
            raise ValueError(f"kvec length {len(self.kvec)} != n = {self.n}")
        if any(k < 0 for k in self.kvec):
            raise ValueError("derivative orders must be nonnegative")

    @property
    def weight(self) -> int:
        return sum(self.kvec)


def _check_sites(n: int, what: str):
    if n > SITE_CAP:
        raise WeightCapExceeded(f"window length {n} exceeds cap {SITE_CAP}")
    if n < 2:
        raise ValueError(f"per-site {what} need n >= 2")


def multisite_derivative(mspec: MultiSiteSpec, spec: RegimeSpec, backend=EXACT):
    """F_n^{kvec}: the mixed partial derivative of H_n - H_{n-1} at 0.

    Exact backend returns a LogLinearValue; floating backends return their
    own scalar.
    """
    if mspec.weight > WEIGHT_CAP:
        raise WeightCapExceeded(f"total derivative weight {mspec.weight} exceeds cap {WEIGHT_CAP}")
    _check_sites(mspec.n, "derivatives")
    n, caps = mspec.n, mspec.kvec
    with backend.ctx():
        beta0, emit_at, trans_at = _poly_tables(spec, n, caps, range(n), backend.scalar)
        out = _traverse(beta0, emit_at, trans_at, n, {n - 1, n}, _domain(backend, kvec=caps))
        return (out[n][0] - out[n - 1][0]) * prod(factorial(k) for k in mspec.kvec)


def multisite_value(spec: RegimeSpec, params, backend=EXACT):
    """F_n = H_n - H_{n-1} at explicit per-site parameter values.

    The window length is len(params).  No derivatives: this is the plain
    finite-system increment of the per-site model, used to exhibit the
    blocking identity numerically.
    """
    params = [parse_rational(v) for v in params]
    n = len(params)
    _check_sites(n, "increments")
    if isinstance(spec, HighSnr):
        sites = [perturbed_identity(spec.T, v) for v in params]  # OutOfRange at the first bad site
        tables = stationary_distribution(spec.M), sites, [spec.M] * (n - 1)
    else:
        sites = [perturbed_uniform(spec.T, v) for v in params]
        tables = stationary_distribution(sites[0]), [spec.R] * n, sites[1:]
    with backend.ctx():
        out = _traverse(*_matrix_tables(*tables, backend.scalar), n, {n - 1, n}, _domain(backend))
        return out[n][0] - out[n - 1][0]
