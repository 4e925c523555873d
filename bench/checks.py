"""The correctness gate: every request of every pass is checked.

Library results arrive as JSON from the pass process: each value is
[exact text or None, float].  A reference field {"x": text} demands the
exact text byte for byte; {"f": number} demands the float within
RTOL * |reference| + atol (atol defaults to ATOL, entropies being O(1)
nats).  CLI reports are parsed as CSV: fields whose expected text is a
float compare within the same tolerance, all other fields byte for byte.

Taylor coefficients are the exception to the flat ATOL.  Float arithmetic
returns an exact zero coefficient (the odd ones of the am family) as
rounding noise, and the size of that noise depends on the order in which
terms are summed, which a correct change may alter.  So the k-th
coefficient gets atol = RTOL * max_{j <= k} |c_j| (see jet_atols): the
scale of the jet up to that order, as the library scales its own jets.
"""

from __future__ import annotations

import csv
import io
import re
from pathlib import Path

RTOL = 1e-9
ATOL = 1e-12
GOLDEN = Path(__file__).resolve().parent / "golden"
_INT = re.compile(r"^-?\d+$")


def close(a: float, b: float, atol: float = ATOL) -> bool:
    return abs(a - b) <= RTOL * abs(b) + atol


def jet_atols(values) -> list[float]:
    """Absolute tolerance of each coefficient c_0, c_1, ... of a jet."""
    out, top = [], 0.0
    for v in values:
        top = max(top, abs(v))
        out.append(max(ATOL, RTOL * top))
    return out


def _value_ok(got, ref) -> bool:
    if not isinstance(got, list) or len(got) != 2:
        return False
    if "x" in ref:
        return got[0] == ref["x"]
    return got[1] is not None and close(got[1], ref["f"], ref.get("atol", ATOL))


def _matches(got, ref) -> bool:
    if isinstance(ref, dict) and ("x" in ref or "f" in ref):
        return _value_ok(got, ref)
    if isinstance(ref, dict):
        return isinstance(got, dict) and all(_matches(got.get(k), v) for k, v in ref.items())
    if isinstance(ref, list):
        return (isinstance(got, list) and len(got) == len(ref)
                and all(_matches(g, r) for g, r in zip(got, ref)))
    return got == ref


def _is_float_text(text: str) -> bool:
    if _INT.match(text) or not any(c.isdigit() for c in text):
        return False
    try:
        float(text)
    except ValueError:
        return False
    return True


def field_ok(got: str, expected: str, atol: float = ATOL) -> bool:
    if _is_float_text(expected):
        try:
            return close(float(got), float(expected), atol)
        except ValueError:
            return False
    return got == expected


def _atols(rows) -> list[list[float]]:
    """The absolute tolerance of each field of a report.  A coefficient table
    (first column "k", one order per row) scales each column like a jet."""
    atols = [[ATOL] * len(r) for r in rows]
    if rows and rows[0][:1] == ["k"]:
        for col in range(len(rows[0])):
            column = [float(r[col]) if col < len(r) and _is_float_text(r[col]) else 0.0
                      for r in rows[1:]]
            for i, atol in enumerate(jet_atols(column), start=1):
                if col < len(atols[i]):
                    atols[i][col] = atol
    return atols


def rows_ok(got_rows, expected_rows) -> bool:
    return len(got_rows) == len(expected_rows) and all(
        len(g) == len(e) and all(field_ok(a, b, t) for a, b, t in zip(g, e, ts))
        for g, e, ts in zip(got_rows, expected_rows, _atols(expected_rows))
    )


def _csv(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def check_cli(request: dict, result: dict, ref: dict | None) -> str | None:
    """None when the CLI call passed, else the reason it failed."""
    if result.get("code") != 0:
        return f"exit code {result.get('code')}: {result.get('stderr', '')[-200:]}"
    got = _csv(result["stdout"])
    if "golden" in request:
        expected = _csv((GOLDEN / request["golden"]).read_text())
        return None if rows_ok(got, expected) else "report differs from the golden report"
    if ref is None:
        return "no reference"
    return None if rows_ok(got[1:], ref["rows"]) else "report differs from the reference"


def check_library(result: dict, ref: dict | None) -> str | None:
    if "error" in result:
        return result["error"]
    if ref is None:
        return "no reference"
    return None if _matches(result, ref) else "value differs from the reference"


def _relations(requests: list[dict], results: dict) -> dict[str, str]:
    """Checks that tie requests together: c_n <= C_n, and report == bracket."""
    bad: dict[str, str] = {}
    by_window: dict[tuple, dict] = {}
    for r in requests:
        res = results.get(r["id"])
        if res is None or "error" in res:
            continue
        if r["op"] == "bracket":
            if not res["lower"][1] <= res["upper"][1] + ATOL:
                bad[r["id"]] = "lower bound above upper bound"
            by_window.setdefault((r["model"], r["n"]), {})["bracket"] = (r["id"], res)
        elif r["op"] == "entropy_report":
            by_window.setdefault((r["model"], r["n"]), {})["report"] = (r["id"], res)
    for pair in by_window.values():
        if len(pair) < 2:
            continue
        (rid, rep), (bid, br) = pair["report"], pair["bracket"]
        if rep["increment"] != br["upper"] or rep["lower"] != br["lower"]:
            bad[rid] = bad[bid] = "entropy_report and bracket disagree"
    return bad


def check_pass(inputs: dict, results: dict, refs: dict) -> dict[str, str]:
    """Request id -> failure reason, for every failed request of one pass."""
    failures: dict[str, str] = {}
    for r in inputs["requests"]:
        res = results.get(r["id"])
        if res is None:
            failures[r["id"]] = "no result"
            continue
        if r["op"] == "cli":
            why = check_cli(r, res, refs.get(r["id"]))
        else:
            why = check_library(res, refs.get(r["id"]))
        if why:
            failures[r["id"]] = why
    if inputs["workload"] != "cli-float":
        for rid, why in _relations(inputs["requests"], results).items():
            failures.setdefault(rid, why)
    return failures
