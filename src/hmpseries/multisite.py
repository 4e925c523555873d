"""Mixed partial derivatives of finite-window entropies per site.

Each site i of the length-n window carries its own perturbation parameter
(eps_i on the emission at site i in the high-SNR regime; delta_i on the
transition into site i, and through the stationary start for site 1, in the
almost-memoryless regime).  F_n^{kvec} is the mixed partial derivative of
F_n = H_n - H_{n-1} at the origin, equal to prod(k_i!) times the multivariate
Taylor coefficient.

The traversal is the entropy module's, over polynomials with per-variable
degree caps k_i, walked as coefficient lists like the jets, from
expansion._regime_source with site i moving variable i.  The leaf kernels
are the entropy module's too, with kvec as their one target: the exact one
walks integers over Q_d and takes one log per distinct constant term N_0 of
a depth.  multisite_value describes its sites' own matrices, as
perturbed_identity and perturbed_uniform check them, like a model's window.
No weight or site count is capped: only the predicted cost (entropy._cost).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, prod
from operator import index

from .backends import EXACT
from .entropy import _check_depth, _cost, _domain, _traverse
from .model import (
    HighSnr,
    RegimeSpec,
    parse_rational,
    perturbed_identity,
    perturbed_uniform,
    stationary_distribution,
)
from .expansion import _regime_source


@dataclass(frozen=True)
class MultiSiteSpec:
    """A window length n and one derivative order per site."""

    n: int
    kvec: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "kvec", tuple(index(k) for k in self.kvec))
        if len(self.kvec) != self.n:
            raise ValueError(f"kvec length {len(self.kvec)} != n = {self.n}")
        if any(k < 0 for k in self.kvec):
            raise ValueError("derivative orders must be nonnegative")


def multisite_derivative(mspec: MultiSiteSpec, spec: RegimeSpec, backend=EXACT):
    """F_n^{kvec}: the mixed partial derivative of H_n - H_{n-1} at 0.

    Exact backend returns a LogLinearValue; floating backends return their
    own scalar.
    """
    n, caps = mspec.n, mspec.kvec
    if n < 2:
        raise ValueError("per-site derivatives need n >= 2")
    _check_depth(n, cost=_cost(spec.T.size, n, {n - 1, n}, backend, kvec=caps))
    with backend.ctx():
        out = _traverse(_regime_source(spec, n, range(n), caps[0]), n, {n - 1, n},
                        _domain(backend, kvec=caps))
        return (out[n][0] - out[n - 1][0]) * prod(factorial(k) for k in mspec.kvec)


def multisite_value(spec: RegimeSpec, params, backend=EXACT):
    """F_n = H_n - H_{n-1} at explicit per-site parameter values.

    The window length is len(params).  No derivatives: this is the plain
    finite-system increment of the per-site model, used to exhibit the
    blocking identity numerically.
    """
    params = [parse_rational(v) for v in params]
    n = len(params)
    if n < 2:
        raise ValueError("per-site increments need n >= 2")
    _check_depth(n, cost=_cost(spec.T.size, n, {n - 1, n}, backend))
    if isinstance(spec, HighSnr):
        sites = [perturbed_identity(spec.T, v) for v in params]  # OutOfRange at the first bad site
        pi, emits, transs = stationary_distribution(spec.M), sites, [spec.M] * (n - 1)
    else:
        sites = [perturbed_uniform(spec.T, v) for v in params]
        pi, emits, transs = stationary_distribution(sites[0]), [spec.R] * n, sites[1:]
    source = ([[p] for p in pi], [(m.rows, None, 0) for m in emits],
              [(m.rows, None, 0) for m in transs])
    with backend.ctx():
        out = _traverse(source, n, {n - 1, n}, _domain(backend))
        return out[n][0] - out[n - 1][0]
