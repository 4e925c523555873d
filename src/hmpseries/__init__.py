"""Entropy rates of hidden Markov processes via exact Taylor expansions.

A hidden Markov process is a strictly positive Markov chain M observed
through an emission matrix R.  Its entropy rate has no closed form, but the
finite-window conditional entropies C_n = H_n - H_{n-1} sandwich it from
above (and c_n = H(Y_n | X_1, [Y]_1^{n-1}) from below), and in two
perturbative regimes -- near-noiseless emission R = I + eps*T and
near-memoryless chain M = U + delta*T -- the Taylor coefficients of C_n
stop changing once n >= ceil((k+3)/2).  This package computes those
coefficients exactly (values of the form q0 + sum q_i log p_i over primes),
in float64, or in arbitrary precision, together with bounds, settling
diagnostics, per-site mixed derivatives, and radius-of-convergence
estimates.  All entropies are in nats.
"""

from .backends import EXACT, FLOAT64, ExactBackend, FloatBackend, get_backend
from .entropy import (
    EntropyBracket,
    EntropyReport,
    c2_closed_form,
    conditional_increment,
    entropy_rate_bracket,
    entropy_report,
    finite_entropy,
    lower_bound,
    sequence_log_probability,
    total_probability,
)
from .errors import (
    DegenerateFit,
    DepthCapExceeded,
    DomainNotClosed,
    HmpSeriesError,
    NegativeEntry,
    NonpositiveConstantTerm,
    NotStrictlyPositive,
    OrderMismatch,
    OrderTooHigh,
    OutOfRange,
    ParseError,
    RowSumViolation,
    SingularSystem,
    TooFewCoefficients,
    ValidationError,
)
from .expansion import (
    HIGH_SNR_NOTE,
    REFERENCE_MAX_ORDER,
    CoefficientTable,
    SettlingReport,
    am_binary_reference_series,
    first_order_am,
    first_order_high_snr,
    increment_jet,
    probability_jet_total,
    rate_series,
    settling_check,
    settling_threshold,
    stationary_series,
)
from .loglinear import LogLinearValue, factor_positive
from .model import (
    AlmostMemoryless,
    HighSnr,
    HmpModel,
    PerturbationMatrix,
    RegimeSpec,
    StochasticMatrix,
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
from .multisite import (
    MultiSiteSpec,
    multisite_derivative,
    multisite_value,
)
from .series import (
    TruncatedSeries,
    entropy_accumulate,
    exp_series,
    log_series,
)

__version__ = "0.1.0"

# radius alone imports numpy (one Domb-Sykes fit), so its names bind on first
# use (PEP 562) and a process that never asks for them never loads numpy
_RADIUS = ("BoundsScan", "RadiusEstimate", "ScanRow", "all_estimates", "bounds_scan",
           "cauchy_hadamard_estimate", "domb_sykes_estimate", "ratio_estimate",
           "rational_grid")
__all__ = [name for name in globals() if not name.startswith("_")] + ["radius", *_RADIUS]


def __getattr__(name):
    if name in _RADIUS or name == "radius":
        from importlib import import_module

        radius = import_module(".radius", __name__)
        return radius if name == "radius" else getattr(radius, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
