"""Tests of the benchmark itself: inputs, the correctness gate, the tracer.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import child  # noqa: E402
import workloads  # noqa: E402

# A small request list that touches every library op in well under a second.
SMALL = {
    "workload": "exact",
    "seed": 0,
    "models": {},
    "requests": [
        {"id": "r00", "op": "rate_series", "spec": workloads.AM_ANCHOR, "order": 5},
        {"id": "r01", "op": "rate_series", "spec": workloads.HS_ANCHOR, "order": 4},
        {"id": "r02", "op": "multisite", "spec": workloads.AM_ANCHOR, "kvec": [1, 0, 1]},
        {"id": "r03", "op": "entropy_report", "model": workloads.WINDOWS_BASE_2, "n": 4,
         "oracle": True},
        {"id": "r04", "op": "bracket", "model": workloads.WINDOWS_BASE_2, "n": 4,
         "oracle": True},
        {"id": "r05", "op": "bracket", "model": workloads.PRIMES_ANCHOR, "n": 2},
        {"id": "r06", "op": "settling", "spec": workloads.AM_ANCHOR, "k": 2, "ns": [3, 4]},
    ],
}


@pytest.fixture(scope="module")
def small_run():
    refs = child.refs_library(SMALL)
    report = child.execute(SMALL, child.Inputs(SMALL))
    return refs, report["results"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    a = workloads.dumps(workloads.build(workload, 11))
    b = workloads.dumps(workloads.build(workload, 11))
    assert a == b
    others = {workloads.dumps(workloads.build(workload, s)) for s in range(12, 16)}
    assert others - {a}, "the seed must change the inputs"


def test_relabelled_models_keep_the_entropy(small_run):
    import hmpseries as h

    import random

    text = workloads.relabel(workloads.WINDOWS_BASE_3, random.Random(3))
    assert text != workloads.WINDOWS_BASE_3
    a = h.finite_entropy(h.model_from_dict(workloads.model_file(text)), 3)
    b = h.finite_entropy(h.model_from_dict(workloads.model_file(workloads.WINDOWS_BASE_3)), 3)
    assert a == b


def test_gate_passes_correct_results(small_run):
    refs, results = small_run
    assert checks.check_pass(SMALL, results, refs) == {}


def test_gate_counts_a_wrong_exact_value(small_run):
    refs, results = small_run
    bad = json.loads(json.dumps(results))
    bad["r00"]["values"][2][0] = "-161/625"
    assert set(checks.check_pass(SMALL, bad, refs)) == {"r00"}


def test_gate_counts_a_wrong_float_value(small_run):
    refs, results = small_run
    bad = json.loads(json.dumps(results))
    bad["r01"]["values"][2][1] += 1e-6
    assert set(checks.check_pass(SMALL, bad, refs)) == {"r01"}


def test_gate_counts_a_wrong_low_order_coefficient_of_a_steep_jet(small_run):
    # the high-snr coefficients grow fast; c_0 must still be held to its own scale
    refs, results = small_run
    bad = json.loads(json.dumps(results))
    bad["r01"]["values"][0][1] += 1e-7
    assert set(checks.check_pass(SMALL, bad, refs)) == {"r01"}


def test_gate_counts_an_error_and_a_broken_relation(small_run):
    refs, results = small_run
    bad = json.loads(json.dumps(results))
    bad["r02"] = {"error": "ValueError: boom"}
    bad["r03"]["increment"][0] = bad["r03"]["entropy"][0]
    assert set(checks.check_pass(SMALL, bad, refs)) == {"r02", "r03", "r04"}


def test_gate_catches_a_wrong_answer_from_the_program(small_run, monkeypatch):
    import hmpseries as h

    refs, _ = small_run
    real = h.entropy_rate_bracket

    def skewed(model, n, *args):
        br = real(model, n, *args)
        return h.EntropyBracket(br.n, br.lower, br.upper + h.LogLinearValue(1), br.midpoint,
                                br.half_gap, br.backend)

    monkeypatch.setattr(h, "entropy_rate_bracket", skewed)
    results = child.execute(SMALL, child.Inputs(SMALL))["results"]
    assert set(checks.check_pass(SMALL, results, refs)) == {"r03", "r04", "r05"}


def test_cli_gate_compares_golden_reports():
    request = {"id": "r00", "op": "cli", "argv": [], "golden": "expand-am-exact-6.csv"}
    text = (checks.GOLDEN / "expand-am-exact-6.csv").read_text()
    assert checks.check_cli(request, {"code": 0, "stdout": text}, None) is None
    # a float field may move within the tolerance, an exact field may not
    nudged = text.replace("-0.2592,", "-0.25920000000001,")
    assert checks.check_cli(request, {"code": 0, "stdout": nudged}, None) is None
    wrong = text.replace("-0.2592,", "-0.2593,")
    assert checks.check_cli(request, {"code": 0, "stdout": wrong}, None)
    exact = text.replace("-162/625", "-163/625")
    assert checks.check_cli(request, {"code": 0, "stdout": exact}, None)
    assert checks.check_cli(request, {"code": 1, "stdout": text, "stderr": ""}, None)


def test_cli_gate_scales_coefficient_tolerance_with_the_jet():
    request = {"id": "r00", "op": "cli", "argv": [], "golden": "expand-am-float64-21.csv"}
    rows = checks._csv((checks.GOLDEN / "expand-am-float64-21.csv").read_text())

    def report(edit):
        out = [list(r) for r in rows]
        edit(out)
        return {"code": 0, "stdout": "".join(",".join(r) + "\n" for r in out)}

    def nudge_odd(out):
        # rounding noise on the zero odd coefficients, as another summation order gives
        for row in out[1:]:
            if int(row[0]) % 2:
                row[2] = row[3] = repr(float(row[2]) + 1e-10)

    def wrong_even(out):
        out[17][2] = out[17][3] = repr(float(out[17][2]) * (1 + 1e-6))

    assert checks.check_cli(request, report(lambda out: None), None) is None
    assert checks.check_cli(request, report(nudge_odd), None) is None
    assert checks.check_cli(request, report(wrong_even), None)


def test_golden_expansion_matches_the_reference_table():
    import hmpseries as h

    table = h.am_binary_reference_series("3/5", 13)
    rows = checks._csv((checks.GOLDEN / "expand-am-float64-21.csv").read_text())[1:]
    for k, v in enumerate(table.values):
        assert checks.close(float(rows[k][3]), float(v), 1e-10)


def test_traced_and_untraced_passes_return_the_same_results():
    script = (
        "import json, sys\n"
        f"sys.path[:0] = [{str(BENCH)!r}, {str(ROOT / 'src')!r}]\n"
        "import child, tracer\n"
        f"inputs = json.loads({json.dumps(json.dumps(SMALL))})\n"
        "plain = child.execute(inputs, child.Inputs(inputs))['results']\n"
        # a wrapped name that a later version removed
        "tracer.SPANS['gone'] = [('entropy', 'no_such_function')]\n"
        "tracer.SPAN_METRICS['gone.calls'] = ('gone', 'calls')\n"
        "rec = tracer.Recorder().install()\n"
        "traced = child.execute(inputs, child.Inputs(inputs), rec)['results']\n"
        "m = rec.metrics()\n"
        "print(json.dumps([plain == traced, m['expansion.leaf_calls'], m['entropy.walks'],"
        " sorted(rec.absent), 'gone.calls' in m]))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, timeout=120)
    same, leaf_calls, walks, absent, reported = json.loads(out.stdout)
    assert same
    assert leaf_calls > 0 and walks > 0
    assert absent == ["gone"] and not reported


def test_self_time_excludes_child_spans():
    import tracer

    rec = tracer.Recorder()
    inner = rec._span_wrapper("inner", lambda: sum(range(20000)))
    outer = rec._span_wrapper("outer", lambda: [inner() for _ in range(3)])
    outer()
    spans = {name: [] for name in ("inner", "outer")}
    for name, self_s in rec.self_times():
        spans[name].append(self_s)
    total_outer = rec.spans[0][2] - rec.spans[0][1]
    assert len(spans["inner"]) == 3
    assert abs(spans["outer"][0] + sum(spans["inner"]) - total_outer) < 1e-9


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


def test_benchmark_json_names_every_metric_the_runner_prints():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    traced = set(tracer_metric_names()) | {"cli.main_s", "cli.startup_s",
                                           "trace.overhead_ratio"}
    assert traced | {n for n in run.PER_LAYER if n.startswith("import.")} == set(run.PER_LAYER)


def tracer_metric_names():
    import tracer

    rec = tracer.Recorder()
    return list(tracer.SPAN_METRICS) + list(rec.counters) + [
        "loglinear.max_factored_bits", "loglinear.factor_hit_ratio"]
