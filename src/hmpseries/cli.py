"""Command-line front end.

Exit codes: 0 success, 1 computation/validation failure, 2 usage or input
parse errors.  Reports are assembled in full before anything is written, so
failures never emit partial output; identical invocations produce
byte-identical reports.

Each handler builds one list of row dicts and a payload of report-level
values.  _emit writes JSON as the command, the payload and the rows (validate,
radius and sample have JSON that is not row-shaped: the payload alone), and
CSV by looking up each of the _COLUMNS in the row or else in the payload.  The
entropy and bounds reports share one handler, which takes the --n list from
one walk (_windows).
main reads each input once, the model or regime and then the backend, and
passes both to the handler; validate and sample take no --backend.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .backends import get_backend
from .entropy import _bracket, _windows
from .errors import HmpSeriesError, ParseError
from .expansion import rate_series, settling_check
from .model import (
    am_binary,
    high_snr_binary,
    load_model,
    load_regime,
    parse_rational,
    sample_path,
)
# eager: the radius and scan subcommands need it, as does bench/run.py's import probe
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
delta may be negative: a grid that starts below 0 needs the "=" form,
--grid=-1/10:1/10:3, or the start reads as an option.
"""

# The CSV columns of each report, in order; each subcommand's help lists them.
_COLUMNS = {
    "validate": ["s", "strictly_positive", "stationary"],
    "entropy": ["n", "entropy", "entropy_float", "increment", "increment_float",
                "lower", "lower_float"],
    "bounds": ["n", "lower", "lower_float", "upper", "upper_float",
               "midpoint", "midpoint_float", "half_gap", "half_gap_float"],
    "expand": ["k", "n_used", "value", "value_float", "note"],
    "settle": ["k", "n", "value", "value_float", "settled", "observed_onset",
               "threshold", "verdict"],
    "radius": ["method", "value", "indeterminate", "stride", "orders",
               "sign_alternating", "low_confidence", "residual", "note"],
    "scan": ["grid_value", "order", "partial_sum", "lower_bound",
             "upper_bound", "inside_flag"],
    "sample": ["t", "x", "y"],
}
_SCHEMAS = {command: "columns: " + ", ".join(cols) for command, cols in _COLUMNS.items()}


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"expected an integer, got {text!r}") from None


def _int_list(text: str) -> list[int]:
    """A comma-separated list of integers; an empty list or item is a ParseError."""
    return [_int(p) for p in text.split(",")]


def _add_io(sub, backend_default="exact"):
    """--format and --out, after --backend with this default unless it is None."""
    if backend_default is not None:
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
    _add_io(sub, backend_default=None)

    sub = subs.add_parser("entropy", help="finite-window entropies H_n, C_n, c_n",
                          description=_SCHEMAS["entropy"] + " (lower empty at n=1)")
    sub.add_argument("--model", required=True)
    sub.add_argument("--n", required=True, help="window size, or comma list A,B,C")
    _add_io(sub)

    sub = subs.add_parser("bounds", help="entropy-rate bracket c_n <= H <= C_n",
                          description=_SCHEMAS["bounds"])
    sub.add_argument("--model", required=True)
    sub.add_argument("--n", required=True, help="window size, or comma list A,B,C")
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
    _add_io(sub, backend_default=None)
    return parser


def _render_value(v, backend) -> str:
    if isinstance(v, float):
        return repr(v)
    if v is None:
        return ""
    if getattr(backend, "bits", None):
        import mpmath

        return mpmath.nstr(v, int(backend.bits * 0.30103) + 3)
    return str(v)


def _with_float(name, v, backend) -> dict:
    """Column name with the rendered value, and name_float with its float."""
    return {name: _render_value(v, backend), f"{name}_float": None if v is None else float(v)}


def _emit(args, rows, payload, row_json=True) -> str:
    if args.fmt == "json":
        doc = {"command": args.command, **payload}
        return json.dumps({**doc, "rows": rows} if row_json else doc, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = _COLUMNS[args.command]
    writer.writerow(header)
    writer.writerows([row[c] if c in row else payload[c] for c in header] for row in rows)
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


def _cmd_validate(args, model, backend):
    stationary = [str(x) for x in model.pi]
    row = {"s": model.size, "strictly_positive": model.M.strictly_positive,
           "stationary": " ".join(stationary)}
    return _emit(args, [row], {**row, "stationary": stationary, "ok": True}, row_json=False)


def _cmd_windows(args, model, backend):
    """entropy and bounds: each row's columns after n from a report of
    _windows, through _bracket for bounds, each with its _float."""
    bounds = args.command == "bounds"
    reports = _windows(model, _int_list(args.n), backend, lower_from=2 if bounds else 1)
    rows = []
    for rep in [_bracket(r, backend) for r in reports] if bounds else reports:
        row = {"n": rep.n}
        for name in _COLUMNS[args.command][1::2]:
            row.update(_with_float(name, getattr(rep, name), backend))
        rows.append(row)
    return _emit(args, rows, {"backend": backend.tag})


def _cmd_expand(args, spec, backend):
    table = rate_series(spec, args.order, backend)
    rows = [
        {"k": k, "n_used": n_used, **_with_float("value", v, backend)}
        for k, (v, n_used) in enumerate(zip(table.values, table.n_used))
    ]
    payload = {
        "regime": table.regime,
        "backend": table.backend,
        "order": table.order,
        "note": table.note,
    }
    return _emit(args, rows, payload)


def _cmd_settle(args, spec, backend):
    rep = settling_check(spec, args.k, _int_list(args.n), backend)
    rows = [
        {"n": n, **_with_float("value", v, backend), "settled": ok}
        for n, v, ok in zip(rep.ns, rep.values, rep.settled)
    ]
    payload = {
        "k": rep.k,
        "threshold": rep.threshold,
        "observed_onset": rep.observed_onset,
        "verdict": rep.verdict,
        "backend": backend.tag,
    }
    return _emit(args, rows, payload)


def _cmd_radius(args, spec, backend):
    table = rate_series(spec, args.order, backend)
    rows, jrows = [], []
    for est in all_estimates(table):
        d = est.diagnostics
        cells = {"method": est.method, "value": est.value, "indeterminate": est.indeterminate}
        rows.append({**cells, "orders": " ".join(str(k) for k in est.orders),
                     **{c: d.get(c, "") for c in ("stride", "sign_alternating",
                                                  "low_confidence", "residual", "note")}})
        jrows.append({**cells, "orders": list(est.orders),
                      "diagnostics": {k: v for k, v in d.items() if k != "per_order"}})
    payload = {
        "regime": table.regime,
        "order": table.order,
        "backend": table.backend,
        "note": table.note,
        "rows": jrows,
    }
    return _emit(args, rows, payload, row_json=False)


def _cmd_scan(args, spec, backend):
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
    rows = [
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
        "regime": scan.regime,
        "orders": list(scan.orders),
        "bound_depth": scan.bound_depth,
    }
    return _emit(args, rows, payload)


def _cmd_sample(args, model, backend):
    n = _int(args.n)
    xs, ys = sample_path(model, n, args.seed)
    rows = [{"t": t, "x": x, "y": y} for t, (x, y) in enumerate(zip(xs, ys))]
    payload = {
        "seed": args.seed,
        "xs": list(xs),
        "ys": list(ys),
    }
    return _emit(args, rows, payload, row_json=False)


_COMMANDS = {
    "validate": _cmd_validate,
    "entropy": _cmd_windows,
    "bounds": _cmd_windows,
    "expand": _cmd_expand,
    "settle": _cmd_settle,
    "radius": _cmd_radius,
    "scan": _cmd_scan,
    "sample": _cmd_sample,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        given = load_model(args.model) if "model" in args else _regime_from_args(args)
        backend = get_backend(args.backend) if "backend" in args else None
        text = _COMMANDS[args.command](args, given, backend)
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
        try:
            with open(args.out, "w") as f:
                f.write(text)
        except OSError as e:
            print(f"hmpseries: {args.out}: {e}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
