"""The closed forms: C_2 and the first-order coefficients of both expansions,
and the stationary jet of the almost-memoryless regime, pinned digit for digit."""

from fractions import Fraction
from pathlib import Path

from hmpseries import (
    EXACT,
    FLOAT64,
    FloatBackend,
    PerturbationMatrix,
    am_binary,
    c2_closed_form,
    first_order_am,
    first_order_high_snr,
    high_snr_binary,
    instantiate,
    load_model,
    stationary_series,
)

from util import AM3, HS3

F = Fraction
GOLDEN = Path(__file__).parent / "golden"
PIN = GOLDEN / "closed-forms.txt"
BACKENDS = (EXACT, FLOAT64, FloatBackend(128))
# name, model for c2_closed_form; the three-state model has zero emissions, but
# every pair probability of a strictly positive chain vanishes only with its
# symbol, as tests/test_entropy.py checks
C2_MODELS = [(name, load_model(GOLDEN / f"{name}-model.json"))
             for name in ("quickstart", "primes-anchor", "three-state-zero-emission")]
C2_MODELS += [("hs3@1/10", instantiate(HS3, F(1, 10))), ("am3@1/10", instantiate(AM3, F(1, 10)))]
# name, first-order closed form, its two matrices
FIRST_ORDER = [(f"high-snr-binary@{p}", first_order_high_snr, high_snr_binary(p))
               for p in ("1/5", "1/3", "2/7")]
FIRST_ORDER += [(f"am-binary@{mu}", first_order_am, am_binary(mu)) for mu in ("3/5", "1/3", "4/5")]
FIRST_ORDER += [("hs3", first_order_high_snr, HS3), ("am3", first_order_am, AM3)]
STATIONARY = [("am3", AM3.T), ("asym2", PerturbationMatrix(((1, -1), (-2, 2))))]


def _show(value, backend):
    return value.render() if backend.is_exact else repr(value)


def closed_form_pin_lines():
    """The lines of closed-forms.txt: each closed form's exact render() and its
    float64 and bigfloat:128 reprs, and the exact stationary jets."""
    lines = []
    for backend in BACKENDS:
        with backend.ctx():  # a bigfloat repr carries its precision's digits
            for name, model in C2_MODELS:
                lines.append(f"c2 {name} {backend.tag} {_show(c2_closed_form(model, backend), backend)}")
            for name, closed_form, spec in FIRST_ORDER:
                first = spec.M if closed_form is first_order_high_snr else spec.R
                h0, h1 = closed_form(first, spec.T, backend)
                lines.append(f"h0,h1 {name} {backend.tag} {_show(h0, backend)} ; {_show(h1, backend)}")
    for name, t in STATIONARY:
        for order in (0, 1, 5, 9):
            jet = stationary_series(t, order)
            lines.append(f"stationary {name} {order} "
                         + " ; ".join(",".join(map(str, ser.coeffs)) for ser in jet))
    return "\n".join(lines) + "\n"


def test_closed_form_digits_are_pinned():
    assert closed_form_pin_lines() == PIN.read_text()
