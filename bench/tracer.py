"""Span recorder for the traced run, installed from outside the package.

The recorder wraps the entry points of each layer (the modules under
src/hmpseries) by replacing module and class attributes in the running
process; nothing in the package is edited.  A span is kept for every call
of a wrapped function: name, start, end, parent span and request id.  Self
time is a span's duration minus the time of its child spans.  Hot internal
functions get counting wrappers only.  The untraced passes never import this
module.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# Metric group -> (module, attribute path) of each wrapped entry point.
SPANS = {
    "model": [("model", name) for name in (
        "am_binary", "high_snr_binary", "binary_symmetric_chain",
        "binary_symmetric_emission", "perturbed_identity", "perturbed_uniform",
        "instantiate", "stationary_distribution", "stationary_first_order",
        "validate_model", "load_model", "load_regime", "model_from_dict",
        "regime_from_dict", "sample_path", "joint_chain")],
    "entropy": [("entropy", name) for name in (
        "finite_entropy", "conditional_increment", "lower_bound",
        "entropy_rate_bracket", "entropy_report", "total_probability",
        "c2_closed_form", "sequence_log_probability")],
    "expansion": [("expansion", name) for name in (
        "rate_series", "increment_jet", "settling_check")],
    "expansion.leaf": [("expansion", "_JetExactDomain.add_term"),
                       ("expansion", "_JetFloatDomain.add_term")],
    "series.mul": [("series", "TruncatedSeries.__mul__")],
    "series.log_tail": [("series", "_log_tail")],
    "loglinear.factor": [("loglinear", "factor_positive")],
    "loglinear.scalar_leaf": [("loglinear", "_LLAccumulator.add_neg_plogp")],
    "multisite": [("multisite", name) for name in ("multisite_derivative", "multisite_value")],
    "radius": [("radius", name) for name in ("all_estimates", "bounds_scan")],
    "cli.main": [("cli", "main")],
}

# Per-layer metric -> (span group, "calls" | "self_s").
SPAN_METRICS = {
    "model.calls": ("model", "calls"),
    "model.self_s": ("model", "self_s"),
    "entropy.calls": ("entropy", "calls"),
    "entropy.self_s": ("entropy", "self_s"),
    "expansion.calls": ("expansion", "calls"),
    "expansion.self_s": ("expansion", "self_s"),
    "expansion.leaf_calls": ("expansion.leaf", "calls"),
    "expansion.leaf_s": ("expansion.leaf", "self_s"),
    "series.mul_calls": ("series.mul", "calls"),
    "series.mul_s": ("series.mul", "self_s"),
    "series.log_tail_calls": ("series.log_tail", "calls"),
    "series.log_tail_s": ("series.log_tail", "self_s"),
    "loglinear.factor_calls": ("loglinear.factor", "calls"),
    "loglinear.factor_s": ("loglinear.factor", "self_s"),
    "loglinear.scalar_leaf_calls": ("loglinear.scalar_leaf", "calls"),
    "loglinear.scalar_leaf_s": ("loglinear.scalar_leaf", "self_s"),
    "multisite.calls": ("multisite", "calls"),
    "multisite.self_s": ("multisite", "self_s"),
    "radius.calls": ("radius", "calls"),
    "radius.self_s": ("radius", "self_s"),
}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "hmpseries" or name.startswith("hmpseries."))]


def _replace_everywhere(original, replacement):
    """Rebind every module-level name in the package that points at original."""
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


class Recorder:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        # span: [name, start, end, parent index or -1, request id, child time]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request = None
        self.counters = {"entropy.walks": 0, "entropy.nodes": 0, "backends.log_calls": 0}
        self.max_factored_bits = 0
        self.absent: set[str] = set()
        self._factor_cache_start = None

    # -- wrappers ---------------------------------------------------------
    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            entry = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, 0.0]
            spans.append(entry)
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                entry[1], entry[2] = start, end
                if stack:
                    spans[stack[-1]][5] += end - start

        return wrapper

    def _factor_wrapper(self, fn):
        inner = self._span_wrapper("loglinear.factor", fn)

        @functools.wraps(fn)
        def wrapper(q):
            num = getattr(q, "numerator", q)
            den = getattr(q, "denominator", 1)
            bits = max(abs(num).bit_length(), abs(den).bit_length())
            if bits > self.max_factored_bits:
                self.max_factored_bits = bits
            return inner(q)

        return wrapper

    def _walk_wrapper(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(beta, emit_cols_at, trans_cols_at, depth, *rest):
            counters["entropy.nodes"] += 1
            if depth == 0:
                counters["entropy.walks"] += 1
            return fn(beta, emit_cols_at, trans_cols_at, depth, *rest)

        return wrapper

    def _log_wrapper(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(backend, x):
            counters["backends.log_calls"] += 1
            return fn(backend, x)

        return wrapper

    # -- installation -----------------------------------------------------
    def _patch(self, module: str, path: str, make) -> bool:
        mod = sys.modules.get(f"hmpseries.{module}")
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        if owner is None or attr not in vars(owner):
            return False
        raw = vars(owner)[attr]
        if owner_name:  # a method: keep staticmethods static, rebind aliases
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            new = make(fn)
            for alias, value in list(vars(owner).items()):
                if value is raw:
                    setattr(owner, alias, staticmethod(new) if is_static else new)
        else:
            _replace_everywhere(raw, make(raw))
        return True

    def install(self):
        """Wrap every entry point that exists; record the names that do not."""
        import hmpseries  # noqa: F401  (loads every layer module)
        import hmpseries.cli  # noqa: F401

        for group, targets in SPANS.items():
            found = False
            for module, path in targets:
                if group == "loglinear.factor":
                    make = self._factor_wrapper
                else:
                    make = functools.partial(self._span_wrapper, group)
                found |= self._patch(module, path, make)
            if not found:
                self.absent.add(group)
        if not self._patch("entropy", "_walk", self._walk_wrapper):
            self.absent.update({"entropy.walks", "entropy.nodes"})
        if not self._patch("backends", "FloatBackend.log", self._log_wrapper):
            self.absent.add("backends.log_calls")
        factorint = getattr(sys.modules["hmpseries.loglinear"], "_factorint", None)
        if factorint is None or not hasattr(factorint, "cache_info"):
            self.absent.add("loglinear.factor_hit_ratio")
        else:
            self._factor_cache_start = factorint.cache_info()
        return self

    # -- results ----------------------------------------------------------
    def self_times(self):
        return [(s[0], s[2] - s[1] - s[5]) for s in self.spans]

    def metrics(self) -> dict:
        """Per-layer metrics of the traced pass; absent names are left out."""
        groups: dict[str, list] = {}
        for name, self_s in self.self_times():
            g = groups.setdefault(name, [0, 0.0])
            g[0] += 1
            g[1] += self_s
        out = {}
        for metric, source in SPAN_METRICS.items():
            group, kind = source
            if group in self.absent:
                continue
            calls, self_s = groups.get(group, (0, 0.0))
            out[metric] = calls if kind == "calls" else self_s
        for name, value in self.counters.items():
            if name not in self.absent:
                out[name] = value
        if "loglinear.factor" not in self.absent:
            out["loglinear.max_factored_bits"] = self.max_factored_bits
        if self._factor_cache_start is not None:
            end = sys.modules["hmpseries.loglinear"]._factorint.cache_info()
            hits = end.hits - self._factor_cache_start.hits
            misses = end.misses - self._factor_cache_start.misses
            out["loglinear.factor_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        return out

    def self_times_by_group(self) -> dict:
        """Self time per request group ("jets" of "jets.07") and span name."""
        out: dict[str, dict[str, float]] = {}
        for span, (name, self_s) in zip(self.spans, self.self_times()):
            group = str(span[4]).split(".")[0]
            cell = out.setdefault(group, {})
            cell[name] = cell.get(name, 0.0) + self_s
        return out

    def dump(self, path):
        """Write every span (with its self time) as JSON."""
        rows = [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
             "request": s[4], "self": s[2] - s[1] - s[5]}
            for s in self.spans
        ]
        with open(path, "w") as f:
            json.dump({"spans": rows, "counters": self.counters,
                       "absent": sorted(self.absent)}, f)
