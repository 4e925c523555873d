"""Mixed partial derivatives of finite-window entropies per site.

Each site i of the length-n window carries its own perturbation parameter
(eps_i on the emission at site i in the high-SNR regime; delta_i on the
transition into site i, and through the stationary start for site 1, in the
almost-memoryless regime).  F_n^{kvec} is the mixed partial derivative of
F_n = H_n - H_{n-1} at the origin, equal to prod(k_i!) times the multivariate
Taylor coefficient.

Each request is one walk for entropy._execute, which prices and runs it.
multisite_derivative walks expansion._regime_source with site i moving
variable i, polynomials with per-variable degree caps k_i as coefficient
lists, with kvec as the kernels' one target.  multisite_value walks its
sites' own matrices, which perturbed_identity and perturbed_uniform check
once the walk is admitted.  No weight or site count is capped: only the
predicted cost (entropy._price).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, prod
from operator import index

from .backends import EXACT
from .entropy import _execute, _Walk
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
    walk = _Walk(spec.T.size, ((False, n - 1), (False, n)),
                 lambda n: _regime_source(spec, n, range(n), caps[0]), kvec=caps)
    return _execute(walk, backend, lambda v: (v[False, n][0] - v[False, n - 1][0])
                    * prod(factorial(k) for k in caps))


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

    def source(n):  # once the walk is admitted: OutOfRange at the first bad site
        if isinstance(spec, HighSnr):
            sites = [perturbed_identity(spec.T, v) for v in params]
            pi, emits, transs = stationary_distribution(spec.M), sites, [spec.M] * (n - 1)
        else:
            sites = [perturbed_uniform(spec.T, v) for v in params]
            pi, emits, transs = stationary_distribution(sites[0]), [spec.R] * n, sites[1:]
        return ([[p] for p in pi], [(m.rows, None, 0) for m in emits],
                [(m.rows, None, 0) for m in transs])

    walk = _Walk(spec.T.size, ((False, n - 1), (False, n)), source)
    return _execute(walk, backend, lambda v: v[False, n][0] - v[False, n - 1][0])
