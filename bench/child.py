"""One benchmark process: a pass, a set-up probe, references, or the CLI in-process.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  Modes:

  pass     import hmpseries, build the workload's inputs, print "ready",
           wait for "go" on stdin, run every request once (timed one by one),
           print one JSON line with results, latencies and peak RSS.
  setup    the same set-up, then exit after "ready".
  refs     compute the reference values the checks compare against.
  cli      run the CLI corpus in this warm process through cli.main(argv).

With --trace the pass installs the span recorder (tracer.py) after set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
from fractions import Fraction
from time import perf_counter

import checks
import workloads


def _ready_then_wait():
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        raise SystemExit("expected 'go' on stdin")


def enc(v):
    """[exact text or None, float] for any value the package returns."""
    import hmpseries

    if isinstance(v, hmpseries.LogLinearValue):
        return [v.render(), float(v)]
    if isinstance(v, (Fraction, int)):
        return [str(v), float(v)]
    return [None, float(v)]


class Inputs:
    """hmpseries objects built from the plain-data inputs, cached by key."""

    def __init__(self, inputs: dict):
        import hmpseries

        self.h = hmpseries
        self._cache: dict[str, object] = {}
        self.calls = [self._call(r) for r in inputs["requests"]]

    def spec(self, data):
        key = json.dumps(data, sort_keys=True)
        if key not in self._cache:
            h = self.h
            if data.get("family") == "am":
                self._cache[key] = h.am_binary(Fraction(data["mu"]))
            elif data.get("family") == "high-snr":
                self._cache[key] = h.high_snr_binary(Fraction(data["p"]))
            else:
                self._cache[key] = h.regime_from_dict(data["regime"])
        return self._cache[key]

    def model(self, text):
        if text not in self._cache:
            self._cache[text] = self.h.model_from_dict(workloads.model_file(text))
        return self._cache[text]

    def _call(self, r):
        op = r["op"]
        if op == "rate_series":
            return "rate_series", (self.spec(r["spec"]), r["order"])
        if op == "multisite":
            mspec = self.h.MultiSiteSpec(len(r["kvec"]), tuple(r["kvec"]))
            return "multisite_derivative", (mspec, self.spec(r["spec"]))
        if op == "entropy_report":
            return "entropy_report", (self.model(r["model"]), r["n"])
        if op == "bracket":
            return "entropy_rate_bracket", (self.model(r["model"]), r["n"])
        if op == "settling":
            return "settling_check", (self.spec(r["spec"]), r["k"], tuple(r["ns"]))
        raise ValueError(f"unknown op {op!r}")


def encode_result(op: str, out) -> dict:
    if op == "rate_series":
        return {"values": [enc(v) for v in out.values]}
    if op == "multisite":
        return {"value": enc(out)}
    if op == "entropy_report":
        return {"entropy": enc(out.entropy), "increment": enc(out.increment),
                "lower": None if out.lower is None else enc(out.lower)}
    if op == "bracket":
        return {"lower": enc(out.lower), "upper": enc(out.upper)}
    if op == "settling":
        return {"values": [enc(v) for v in out.values], "settled": list(out.settled),
                "onset": out.observed_onset, "verdict": out.verdict}
    raise ValueError(op)


def execute(inputs: dict, built: Inputs, recorder=None) -> dict:
    """Run every request once, timing each; results are encoded after timing."""
    h = built.h
    results, latencies = {}, []
    start = perf_counter()
    for r, (fn, args) in zip(inputs["requests"], built.calls):
        if recorder is not None:
            recorder.request = r["id"]
        t0 = perf_counter()
        try:
            out = getattr(h, fn)(*args)
            ok = True
        except Exception as e:  # a failed request is a result to report
            out, ok = f"{type(e).__name__}: {e}", False
        latencies.append(perf_counter() - t0)
        results[r["id"]] = (ok, out)
    solve = perf_counter() - start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    encoded = {}
    for r in inputs["requests"]:
        ok, out = results[r["id"]]
        encoded[r["id"]] = encode_result(r["op"], out) if ok else {"error": out}
    return {"solve_s": solve, "latencies": latencies, "peak_rss_kb": rss_kb,
            "results": encoded}


def _add_trace(report: dict, recorder, spans_out: str | None) -> dict:
    report["layers"] = recorder.metrics()
    report["layers_by_group"] = recorder.self_times_by_group()
    if spans_out:
        recorder.dump(spans_out)
    return report


def run_pass(inputs: dict, trace: bool, spans_out: str | None) -> dict:
    built = Inputs(inputs)
    recorder = None
    if trace:
        import tracer

        recorder = tracer.Recorder().install()
    _ready_then_wait()
    report = execute(inputs, built, recorder)
    return report if recorder is None else _add_trace(report, recorder, spans_out)


def run_cli_inprocess(inputs: dict, files: dict, trace: bool, spans_out: str | None) -> dict:
    """The CLI corpus through cli.main in one warm process (imports done)."""
    import mpmath  # noqa: F401
    import numpy  # noqa: F401
    import sympy  # noqa: F401

    from hmpseries import cli

    recorder = None
    if trace:
        import tracer

        recorder = tracer.Recorder().install()
    results, latencies = {}, []
    start = perf_counter()
    for r in inputs["requests"]:
        argv = workloads.resolve_argv(r["argv"], files)
        if recorder is not None:
            recorder.request = r["id"]
        buf, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as e:
                code = e.code
        latencies.append(perf_counter() - t0)
        results[r["id"]] = {"code": code, "stdout": buf.getvalue(), "stderr": err.getvalue()[-500:]}
    report = {"solve_s": perf_counter() - start, "latencies": latencies,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "results": results}
    return report if recorder is None else _add_trace(report, recorder, spans_out)


# ---------------------------------------------------------------------------
# References: computed once per run, outside the timed passes.

def _forward_probabilities(model, n: int, start_state=None) -> list:
    """P(word), or P(X_1 = start, word), for every word of length n.

    A plain forward recursion, extended one symbol at a time over all words:
    it shares no code with the tree walk of the package, so the two check
    each other.
    """
    s = model.size
    m, r, pi = model.M.rows, model.R.rows, model.pi
    states = range(s) if start_state is None else (start_state,)
    level = [[pi[j] * r[j][y] if j in states else Fraction(0) for j in range(s)]
             for y in range(s)]
    for _ in range(n - 1):
        level = [[sum(a[j] * m[j][k] for j in range(s)) * r[k][y] for k in range(s)]
                 for a in level for y in range(s)]
    return [sum(a) for a in level]


def _exact_entropy(probs):
    import hmpseries

    logs = {}
    for p in probs:
        for prime, e in hmpseries.factor_positive(p) if p else ():
            logs[prime] = logs.get(prime, 0) - p * e
    return hmpseries.LogLinearValue(0, tuple(logs.items()))


def _oracle(model, n_max: int) -> dict:
    """Exact H_n and the joint entropies H(X_1, Y_1..n) for n <= n_max."""
    h = {0: _exact_entropy([])}
    joint = {}
    for n in range(1, n_max + 1):
        h[n] = _exact_entropy(_forward_probabilities(model, n))
        probs = []
        for x in range(model.size):
            probs.extend(_forward_probabilities(model, n, x))
        joint[n] = _exact_entropy(probs)
    return {"H": h, "J": joint}


def _x(v):
    return {"x": v.render() if hasattr(v, "render") else str(v)}


def _f(v, atol=None):
    out = {"f": float(v)}
    if atol is not None:
        out["atol"] = atol
    return out


def refs_library(inputs: dict) -> dict:
    import hmpseries as h

    built = Inputs(inputs)
    f64 = h.FLOAT64
    refs, oracles = {}, {}
    # The enumeration oracle is exact, so it checks only the requests marked
    # for it: on the prime models it would pay the factoring cost again.
    oracle_max = 6
    windows: dict[str, int] = {}
    for r in inputs["requests"]:
        if r.get("oracle") and r["n"] <= oracle_max:
            windows[r["model"]] = max(windows.get(r["model"], 0), r["n"])
    for r, (_, args) in zip(inputs["requests"], built.calls):
        op = r["op"]
        if op == "rate_series":
            spec, order = args
            floats = h.rate_series(spec, order, f64).values
            vals = [_f(c, atol) for c, atol in zip(floats, checks.jet_atols(floats))]
            if r["spec"] == workloads.AM_ANCHOR:
                table = h.am_binary_reference_series(Fraction(r["spec"]["mu"]),
                                                     min(order, h.REFERENCE_MAX_ORDER))
                vals[: len(table.values)] = [_x(v) for v in table.values]
            refs[r["id"]] = {"values": vals}
        elif op == "multisite":
            mspec, spec = args
            refs[r["id"]] = {"value": _f(h.multisite_derivative(mspec, spec, f64))}
        elif op in ("entropy_report", "bracket"):
            model, n = args
            if r.get("oracle") and n <= oracle_max:
                if r["model"] not in oracles:
                    oracles[r["model"]] = _oracle(model, windows[r["model"]])
                o = oracles[r["model"]]
                upper = o["H"][n] - o["H"][n - 1]
                lower = o["J"][n] - o["J"][n - 1] if n >= 2 else None
                entropy = o["H"][n]
                conv = _x
            else:
                rep = h.entropy_report(model, n, f64)
                entropy, upper, lower = rep.entropy, rep.increment, rep.lower
                conv = _f
            if op == "entropy_report":
                refs[r["id"]] = {"entropy": conv(entropy), "increment": conv(upper),
                                 "lower": None if lower is None else conv(lower)}
            else:
                refs[r["id"]] = {"lower": conv(lower), "upper": conv(upper)}
        elif op == "settling":
            # every window of the request lies at or past the threshold
            spec, k, ns = args
            coeff = h.am_binary_reference_series(Fraction(r["spec"]["mu"]), k).values[k]
            onset = min(ns)
            threshold = h.settling_threshold(k)
            refs[r["id"]] = {
                "values": [_x(coeff) for _ in ns],
                "settled": [True] * len(ns),
                "onset": onset,
                "verdict": f"settled at N={onset} (theorem threshold {threshold})",
            }
    return refs


def _row(values):
    return ["" if v is None else repr(float(v)) for v in values]


def refs_cli(inputs: dict) -> dict:
    """Expected CSV rows for the CLI calls on the seeded model.

    Exact fields are rendered from exact library values; float fields come
    from a different backend than the one the command uses (bigfloat for
    float64 commands, float64 for the bigfloat command), so the check
    crosses backends.
    """
    import hmpseries as h

    big = h.get_backend("bigfloat:96")
    models = {name: h.model_from_dict(workloads.model_file(text))
              for name, text in inputs["models"].items()}
    refs = {}
    for r in inputs["requests"]:
        argv = r["argv"]
        if "golden" in r:
            continue
        cmd = argv[0]
        opts = dict(zip(argv[1::2], argv[2::2]))
        model = models[opts["--model"][1:]]
        if cmd == "validate":
            rows = [[str(model.size), str(model.M.strictly_positive),
                     " ".join(str(x) for x in model.pi)]]
        elif cmd == "entropy":
            rows = []
            for n in (int(x) for x in opts["--n"].split(",")):
                rep = h.entropy_report(model, n, big)
                vals = _row([rep.entropy, rep.entropy, rep.increment, rep.increment,
                             rep.lower, rep.lower])
                rows.append([str(n)] + vals)
        elif cmd == "bounds":
            backend = h.FLOAT64 if opts["--backend"].startswith("bigfloat") else big
            rows = []
            for n in (int(x) for x in opts["--n"].split(",")):
                br = h.entropy_rate_bracket(model, n, backend)
                vals = []
                for v in (br.lower, br.upper, br.midpoint, br.half_gap):
                    vals += _row([v, v])
                rows.append([str(n)] + vals)
        elif cmd == "sample":
            xs, ys = h.sample_path(model, int(opts["--n"]), int(opts["--seed"]))
            rows = [[str(t), str(x), str(y)] for t, (x, y) in enumerate(zip(xs, ys))]
        else:
            raise ValueError(f"no reference for {cmd!r}")
        refs[r["id"]] = {"rows": rows}
    return refs


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("pass", "setup", "refs", "cli"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans-out", default=None)
    ap.add_argument("--files", default="{}", help="JSON map of CLI model names to paths")
    args = ap.parse_args()
    inputs = workloads.build(args.workload, args.seed)
    cli = args.workload == "cli-float"
    if args.mode == "setup":
        if cli:
            import hmpseries.cli  # noqa: F401
        else:
            Inputs(inputs)
        _ready_then_wait()
        return
    if args.mode == "pass":
        report = run_pass(inputs, args.trace, args.spans_out)
    elif args.mode == "cli":
        report = run_cli_inprocess(inputs, json.loads(args.files), args.trace, args.spans_out)
    else:
        report = refs_cli(inputs) if cli else refs_library(inputs)
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
