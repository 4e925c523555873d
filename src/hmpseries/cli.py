"""Command-line front end.

Exit codes: 0 success, 1 computation/validation failure, 2 usage or input
parse errors.  Reports are assembled in full before anything is written, so
failures never emit partial output; identical invocations produce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from .backends import get_backend
from .entropy import (
    DEFAULT_DEPTH_CAP,
    entropy_rate_bracket,
    entropy_report,
)
from .errors import HmpSeriesError, ParseError
from .expansion import rate_series, settling_check
from .loglinear import LogLinearValue
from .model import (
    am_binary,
    high_snr_binary,
    load_model,
    load_regime,
    parse_rational,
    sample_path,
)
from .radius import all_estimates, bounds_scan, rational_grid

_EPILOG = """\
file formats (JSON, matrix entries as "a/b" or decimal strings or numbers):
  model:  {"s": 2, "M": [["4/5","1/5"],["1/5","4/5"]], "R": [["1","0"],["0","1"]]}
  regime: {"regime": "high-snr", "s": 2, "M": [[...]], "T": [["-1","1"],["1","-1"]]}
          {"regime": "almost-memoryless", "s": 2, "R": [[...]], "T": [["1","-1"],["-1","1"]]}

--regime also accepts the built-in symmetric binary families:
  "am" with --mu A/B          (channel fidelity mu = 1 - 2*eps)
  "high-snr" with --p A/B     (chain flip probability p)
The scan/expansion parameter is always the regime parameter itself
(eps in high-snr, delta in almost-memoryless with p = 1/2 - delta).
"""

_SCHEMAS = {
    "validate": "columns: s, strictly_positive, stationary",
    "entropy": "columns: n, entropy, entropy_float, increment, increment_float, "
    "lower, lower_float (lower empty at n=1)",
    "bounds": "columns: n, lower, upper, midpoint, half_gap (+ *_float twins)",
    "expand": "columns: k, n_used, value, value_float, note",
    "settle": "columns: k, n, value, value_float, settled, observed_onset, "
    "threshold, verdict",
    "radius": "columns: method, value, indeterminate, stride, orders, "
    "sign_alternating, low_confidence, residual, note",
    "scan": "columns: grid_value, order, partial_sum, lower_bound, "
    "upper_bound, inside_flag",
    "sample": "columns: t, x, y",
}


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"expected an integer, got {text!r}") from None


def _int_list(text: str) -> list[int]:
    return [_int(p) for p in text.split(",") if p.strip() != ""]


def _add_io(sub, backend_default="exact"):
    sub.add_argument("--backend", default=backend_default,
                     help="exact | float64 | bigfloat:BITS")
    sub.add_argument("--format", default="csv", choices=("csv", "json"),
                     dest="fmt", help="report format")
    sub.add_argument("--out", default=None, help="write the report to this path")


def _add_regime(sub):
    sub.add_argument("--regime", required=True,
                     help="regime file, or built-in family 'am' / 'high-snr'")
    sub.add_argument("--mu", default=None, help="fidelity for the built-in am family")
    sub.add_argument("--p", default=None,
                     help="flip probability for the built-in high-snr family")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hmpseries",
        description="Entropy rates of hidden Markov processes: exact finite-window "
        "entropies, Taylor expansions in two perturbative regimes, bounds, and "
        "radius-of-convergence estimates.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("validate", help="check a model file, report its invariants",
                          description=_SCHEMAS["validate"])
    sub.add_argument("--model", required=True)
    _add_io(sub)

    sub = subs.add_parser("entropy", help="finite-window entropies H_n, C_n, c_n",
                          description=_SCHEMAS["entropy"])
    sub.add_argument("--model", required=True)
    sub.add_argument("--n", required=True, help="window size, or comma list A,B,C")
    sub.add_argument("--depth-cap", type=int, default=DEFAULT_DEPTH_CAP)
    _add_io(sub)

    sub = subs.add_parser("bounds", help="entropy-rate bracket c_n <= H <= C_n",
                          description=_SCHEMAS["bounds"])
    sub.add_argument("--model", required=True)
    sub.add_argument("--n", required=True, help="window size, or comma list A,B,C")
    sub.add_argument("--depth-cap", type=int, default=DEFAULT_DEPTH_CAP)
    _add_io(sub)

    sub = subs.add_parser("expand", help="entropy-rate Taylor coefficients",
                          description=_SCHEMAS["expand"])
    _add_regime(sub)
    sub.add_argument("--order", type=int, required=True)
    _add_io(sub)

    sub = subs.add_parser("settle", help="coefficient settling across window sizes",
                          description=_SCHEMAS["settle"])
    _add_regime(sub)
    sub.add_argument("--k", type=int, required=True, help="coefficient order")
    sub.add_argument("--n", required=True, help="window sizes, comma list")
    _add_io(sub)

    sub = subs.add_parser("radius", help="radius-of-convergence estimates",
                          description=_SCHEMAS["radius"])
    _add_regime(sub)
    sub.add_argument("--order", type=int, required=True)
    _add_io(sub, backend_default="float64")

    sub = subs.add_parser("scan", help="partial sums against the bounds window",
                          description=_SCHEMAS["scan"])
    _add_regime(sub)
    sub.add_argument("--grid", required=True, help="START:STOP:STEPS, rational endpoints")
    sub.add_argument("--orders", required=True, help="truncation orders, comma list")
    sub.add_argument("--bound-depth", type=int, default=2)
    _add_io(sub, backend_default="float64")

    sub = subs.add_parser("sample", help="sample a joint (x, y) path",
                          description=_SCHEMAS["sample"])
    sub.add_argument("--model", required=True)
    sub.add_argument("--n", required=True, help="path length")
    sub.add_argument("--seed", type=int, required=True)
    _add_io(sub)
    return parser


def _render_value(v, backend) -> str:
    if isinstance(v, LogLinearValue):
        return v.render()
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    if v is None:
        return ""
    if getattr(backend, "bits", None):
        import mpmath

        return mpmath.nstr(v, int(backend.bits * 0.30103) + 3)
    return str(v)


def _render_float(v) -> str:
    return "" if v is None else repr(float(v))


def _emit(args, header, rows, payload) -> str:
    if args.fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _regime_from_args(args):
    name = args.regime
    if name in ("am", "almost-memoryless"):
        if args.mu is None:
            raise ParseError("the built-in am family needs --mu")
        return am_binary(parse_rational(args.mu))
    if name in ("high-snr", "hs"):
        if args.p is None:
            raise ParseError("the built-in high-snr family needs --p")
        return high_snr_binary(parse_rational(args.p))
    if args.mu is not None or args.p is not None:
        raise ParseError("--mu/--p apply only to the built-in families")
    return load_regime(name)


def _cmd_validate(args):
    model = load_model(args.model)
    stationary = [str(x) for x in model.pi]
    header = ["s", "strictly_positive", "stationary"]
    rows = [[model.size, model.M.strictly_positive, " ".join(stationary)]]
    payload = {
        "command": "validate",
        "s": model.size,
        "strictly_positive": model.M.strictly_positive,
        "stationary": stationary,
        "ok": True,
    }
    return _emit(args, header, rows, payload)


def _cmd_entropy(args):
    model = load_model(args.model)
    backend = get_backend(args.backend)
    header = ["n", "entropy", "entropy_float", "increment", "increment_float",
              "lower", "lower_float"]
    rows, jrows = [], []
    for n in _int_list(args.n):
        rep = entropy_report(model, n, backend, args.depth_cap)
        rows.append([
            rep.n,
            _render_value(rep.entropy, backend), _render_float(rep.entropy),
            _render_value(rep.increment, backend), _render_float(rep.increment),
            _render_value(rep.lower, backend), _render_float(rep.lower),
        ])
        jrows.append({
            "n": rep.n,
            "entropy": _render_value(rep.entropy, backend),
            "entropy_float": None if rep.entropy is None else float(rep.entropy),
            "increment": _render_value(rep.increment, backend),
            "increment_float": float(rep.increment),
            "lower": _render_value(rep.lower, backend),
            "lower_float": None if rep.lower is None else float(rep.lower),
        })
    payload = {"command": "entropy", "backend": backend.tag, "rows": jrows}
    return _emit(args, header, rows, payload)


def _cmd_bounds(args):
    model = load_model(args.model)
    backend = get_backend(args.backend)
    header = ["n", "lower", "lower_float", "upper", "upper_float",
              "midpoint", "midpoint_float", "half_gap", "half_gap_float"]
    rows, jrows = [], []
    for n in _int_list(args.n):
        br = entropy_rate_bracket(model, n, backend, args.depth_cap)
        rows.append([
            br.n,
            _render_value(br.lower, backend), _render_float(br.lower),
            _render_value(br.upper, backend), _render_float(br.upper),
            _render_value(br.midpoint, backend), _render_float(br.midpoint),
            _render_value(br.half_gap, backend), _render_float(br.half_gap),
        ])
        jrows.append({
            "n": br.n,
            "lower": _render_value(br.lower, backend),
            "lower_float": float(br.lower),
            "upper": _render_value(br.upper, backend),
            "upper_float": float(br.upper),
            "midpoint": _render_value(br.midpoint, backend),
            "midpoint_float": float(br.midpoint),
            "half_gap": _render_value(br.half_gap, backend),
            "half_gap_float": float(br.half_gap),
        })
    payload = {"command": "bounds", "backend": backend.tag, "rows": jrows}
    return _emit(args, header, rows, payload)


def _cmd_expand(args):
    spec = _regime_from_args(args)
    backend = get_backend(args.backend)
    table = rate_series(spec, args.order, backend)
    header = ["k", "n_used", "value", "value_float", "note"]
    rows, jrows = [], []
    for k, (v, n_used) in enumerate(zip(table.values, table.n_used)):
        rows.append([k, n_used, _render_value(v, backend), _render_float(v), table.note])
        jrows.append({
            "k": k,
            "n_used": n_used,
            "value": _render_value(v, backend),
            "value_float": float(v),
        })
    payload = {
        "command": "expand",
        "regime": table.regime,
        "backend": table.backend,
        "order": table.order,
        "note": table.note,
        "rows": jrows,
    }
    return _emit(args, header, rows, payload)


def _cmd_settle(args):
    spec = _regime_from_args(args)
    backend = get_backend(args.backend)
    rep = settling_check(spec, args.k, _int_list(args.n), backend)
    header = ["k", "n", "value", "value_float", "settled", "observed_onset",
              "threshold", "verdict"]
    rows, jrows = [], []
    for n, v, ok in zip(rep.ns, rep.values, rep.settled):
        rows.append([
            rep.k, n, _render_value(v, backend), _render_float(v), ok,
            "" if rep.observed_onset is None else rep.observed_onset,
            rep.threshold, rep.verdict,
        ])
        jrows.append({
            "n": n,
            "value": _render_value(v, backend),
            "value_float": float(v),
            "settled": ok,
        })
    payload = {
        "command": "settle",
        "k": rep.k,
        "threshold": rep.threshold,
        "observed_onset": rep.observed_onset,
        "verdict": rep.verdict,
        "backend": backend.tag,
        "rows": jrows,
    }
    return _emit(args, header, rows, payload)


def _cmd_radius(args):
    spec = _regime_from_args(args)
    backend = get_backend(args.backend)
    table = rate_series(spec, args.order, backend)
    header = ["method", "value", "indeterminate", "stride", "orders",
              "sign_alternating", "low_confidence", "residual", "note"]
    rows, jrows = [], []
    for est in all_estimates(table):
        d = est.diagnostics
        rows.append([
            est.method,
            "" if est.value is None else repr(est.value),
            est.indeterminate,
            d.get("stride", ""),
            " ".join(str(k) for k in est.orders),
            d.get("sign_alternating", ""),
            d.get("low_confidence", ""),
            d.get("residual", ""),
            d.get("note", ""),
        ])
        jrows.append({
            "method": est.method,
            "value": est.value,
            "indeterminate": est.indeterminate,
            "orders": list(est.orders),
            "diagnostics": {k: v for k, v in d.items() if k != "per_order"},
        })
    payload = {
        "command": "radius",
        "regime": table.regime,
        "order": table.order,
        "backend": table.backend,
        "note": table.note,
        "rows": jrows,
    }
    return _emit(args, header, rows, payload)


def _cmd_scan(args):
    spec = _regime_from_args(args)
    backend = get_backend(args.backend)
    parts = args.grid.split(":")
    if len(parts) != 3:
        raise ParseError(f"--grid expects START:STOP:STEPS, got {args.grid!r}")
    try:
        steps = int(parts[2])
    except ValueError:
        raise ParseError(f"--grid steps must be an integer, got {parts[2]!r}") from None
    grid = rational_grid(parse_rational(parts[0]), parse_rational(parts[1]), steps)
    scan = bounds_scan(spec, grid, _int_list(args.orders), backend,
                       bound_depth=args.bound_depth)
    header = ["grid_value", "order", "partial_sum", "lower_bound",
              "upper_bound", "inside_flag"]
    rows = [
        [repr(r.grid_value), r.order, repr(r.partial_sum), repr(r.lower_bound),
         repr(r.upper_bound), r.inside]
        for r in scan.rows
    ]
    jrows = [
        {
            "grid_value": r.grid_value,
            "order": r.order,
            "partial_sum": r.partial_sum,
            "lower_bound": r.lower_bound,
            "upper_bound": r.upper_bound,
            "inside_flag": r.inside,
            "exit_direction": r.exit_direction,
        }
        for r in scan.rows
    ]
    payload = {
        "command": "scan",
        "regime": scan.regime,
        "orders": list(scan.orders),
        "bound_depth": scan.bound_depth,
        "rows": jrows,
    }
    return _emit(args, header, rows, payload)


def _cmd_sample(args):
    model = load_model(args.model)
    n = _int(args.n)
    xs, ys = sample_path(model, n, args.seed)
    header = ["t", "x", "y"]
    rows = [[t, x, y] for t, (x, y) in enumerate(zip(xs, ys))]
    payload = {
        "command": "sample",
        "seed": args.seed,
        "xs": list(xs),
        "ys": list(ys),
    }
    return _emit(args, header, rows, payload)


_COMMANDS = {
    "validate": _cmd_validate,
    "entropy": _cmd_entropy,
    "bounds": _cmd_bounds,
    "expand": _cmd_expand,
    "settle": _cmd_settle,
    "radius": _cmd_radius,
    "scan": _cmd_scan,
    "sample": _cmd_sample,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = _COMMANDS[args.command](args)
    except ParseError as e:
        print(f"hmpseries: {e}", file=sys.stderr)
        return 2
    except HmpSeriesError as e:
        print(f"hmpseries: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"hmpseries: {e}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
