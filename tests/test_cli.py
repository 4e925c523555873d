"""End-to-end checks of the command-line front end."""

import csv
import inspect
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hmpseries
from hmpseries import (HIGH_SNR_NOTE, FloatBackend, ParseError, entropy_report, get_backend,
                       load_model, model_to_dict, regime_to_dict)
from hmpseries.cli import build_parser, main

from util import AM3, FOUR

GOLDEN = Path(__file__).parent / "golden"

MODEL = {
    "s": 2,
    "M": [["4/5", "1/5"], ["1/5", "4/5"]],
    "R": [["1", "0"], ["0", "1"]],
}


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MODEL))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    return list(csv.reader(text.splitlines()))


def test_validate_ok(capsys, model_file):
    code, out, err = run_cli(capsys, "validate", "--model", model_file)
    assert code == 0 and err == ""
    rows = parse_csv(out)
    assert rows[0] == ["s", "strictly_positive", "stationary"]
    assert rows[1] == ["2", "True", "1/2 1/2"]


def test_validate_bad_rows_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "s": 2,
        "M": [["0.49", "0.5"], ["1/2", "1/2"]],
        "R": [["1", "0"], ["0", "1"]],
    }))
    code, out, err = run_cli(capsys, "validate", "--model", str(bad))
    assert code == 1
    assert out == ""
    assert "RowSumViolation" in err
    assert "row 0" in err


def test_missing_file_exit_2(capsys, tmp_path):
    code, out, err = run_cli(capsys, "validate", "--model", str(tmp_path / "nope.json"))
    assert code == 2 and out == ""


def test_unwritable_out_exit_2(capsys, model_file, tmp_path):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(capsys, "validate", "--model", model_file, "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith(f"hmpseries: {target}: ") and err.count("\n") == 1
    assert not target.parent.exists()


def test_entropy_exact_renders(capsys, model_file):
    code, out, err = run_cli(capsys, "entropy", "--model", model_file, "--n", "1,2")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0][:3] == ["n", "entropy", "entropy_float"]
    assert rows[1][1] == "log(2)"
    assert rows[1][5] == ""  # no lower bound at n = 1
    assert rows[2][1] == "-3/5·log(2) + log(5)"
    assert rows[2][3] == "-8/5·log(2) + log(5)"
    assert float(rows[2][4]) == pytest.approx(0.5004024235381879, rel=1e-12)


def test_entropy_depth_cap_exit_1(capsys, model_file, tmp_path, walks):
    # requests over the cost cap fail at once, before any walk, naming the
    # prediction and the cap: bigfloat is priced above float64, and a window or
    # order too large for a float is predicted as inf
    regime, four = tmp_path / "am3.json", tmp_path / "four.json"
    regime.write_text(json.dumps(regime_to_dict(AM3)))
    four.write_text(json.dumps(model_to_dict(FOUR)))
    huge = "1" + "0" * 400
    for argv in (["expand", "--regime", str(regime), "--order", "25"],
                 ["bounds", "--model", str(four), "--n", "14"],
                 ["entropy", "--model", model_file, "--n", "3,20"],
                 ["bounds", "--backend", "bigfloat:128", "--model", model_file, "--n", "22"],
                 ["entropy", "--model", model_file, "--n", huge],
                 ["expand", "--regime", "am", "--mu", "3/5", "--order", huge],
                 ["bounds", "--backend", "bigfloat:" + huge, "--model", model_file, "--n", "2"]):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1, argv
        assert code == 1 and out == "" and walks[0] == 0, argv
        assert re.search(r"DepthCapExceeded: predicted cost \S+ exceeds the cap 6e\+07$", err), err


@pytest.mark.parametrize("items", ["", ",", "3,,5", "3,", " ,4"])
def test_empty_list_or_item_exit_2(capsys, model_file, walks, items):
    # a window or order list is input: an empty list or item is a parse error
    # in the four commands that take one, before any walk and with no report
    for argv in (["entropy", "--model", model_file, "--n"],
                 ["bounds", "--model", model_file, "--n"],
                 ["settle", "--regime", "am", "--mu", "3/5", "--k", "2", "--n"],
                 ["scan", "--regime", "am", "--mu", "3/5", "--grid", "1/100:1/10:2", "--orders"]):
        code, out, err = run_cli(capsys, *argv, items)
        assert code == 2 and out == "" and walks[0] == 0, argv
        assert "expected an integer" in err, err


def test_caps_and_tolerances_are_not_options(capsys, model_file):
    # the cost cap and the float tolerances are module constants: no public
    # function or constructor takes one as a parameter
    knobs = {"cost_cap", "depth_cap", "weight_cap", "site_cap", "rel_tol", "tolerance", "strict",
             "with_steps"}
    public = [getattr(hmpseries, name) for name in dir(hmpseries) if not name.startswith("_")]
    public = [obj for obj in public  # exception classes have no Python signature
              if callable(obj) and not (isinstance(obj, type) and issubclass(obj, Exception))]
    assert len(public) > 50
    for obj in public:
        assert not knobs & set(inspect.signature(obj).parameters), obj.__name__
    for command in ("entropy", "bounds"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--model", model_file, "--n", "2", "--depth-cap", "3"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


def test_a_window_list_makes_one_walk_set_at_its_largest_n(capsys, walks):
    model = str(GOLDEN / "quickstart-model.json")
    ns = ",".join(map(str, range(1, 13)))
    # one backward walk reads H_n summed over the states and c_n state by state
    for argv in (["entropy", "--n", ns], ["bounds", "--n", "8,12"]):
        walks[0] = 0
        assert main([*argv, "--backend", "float64", "--model", model]) == 0
        assert walks[0] == 1
    capsys.readouterr()
    walks[0] = 0
    entropy_report(load_model(model), 1)
    assert walks[0] == 1


@pytest.mark.parametrize("command, ns", [("entropy", "3,1,3"), ("bounds", "3,2,3")])
def test_window_rows_follow_the_n_list(capsys, model_file, command, ns):
    code, out, _ = run_cli(capsys, command, "--model", model_file, "--n", ns)
    assert code == 0
    rows = parse_csv(out)[1:]
    assert [row[0] for row in rows] == ns.split(",")
    for n, row in zip(ns.split(","), rows):
        _, single, _ = run_cli(capsys, command, "--model", model_file, "--n", n)
        assert parse_csv(single)[1] == row


@pytest.mark.parametrize("command, ns, message", [
    ("entropy", "3,20", "DepthCapExceeded"),
    ("bounds", "3,1", "the conditional lower bound needs n >= 2"),
    ("entropy", "0", "window length must be positive, got 0"),
    # the first bad n of the list names the fault
    ("bounds", "2,1,0", "the conditional lower bound needs n >= 2"),
    ("bounds", "0,1", "window length must be positive, got 0"),
])
def test_an_invalid_n_fails_before_any_walk(capsys, model_file, walks, command, ns, message):
    code, out, err = run_cli(capsys, command, "--model", model_file, "--n", ns)
    assert code == 1 and out == "" and message in err
    assert walks[0] == 0


def test_entropy_bigfloat_backend(capsys, model_file):
    code, out, _ = run_cli(capsys, "entropy", "--model", model_file,
                           "--n", "1", "--backend", "bigfloat:120")
    assert code == 0
    rows = parse_csv(out)
    assert rows[1][1].startswith("0.6931471805599453094172321214581765")


QUICKSTART = ["--model", str(GOLDEN / "quickstart-model.json")]
# a 3-state model with zero emission entries, so pruning differs per start state
THREE_STATE = ["--model", str(GOLDEN / "three-state-zero-emission-model.json")]
# tests/util.FOUR: a 4-state chain that is not reversible, with zero emissions
FOUR_STATE = ["--model", str(GOLDEN / "four-state-model.json")]


@pytest.mark.parametrize("argv, golden", [
    (["entropy", "--backend", "float64", "--n", ",".join(map(str, range(1, 13))),
      *QUICKSTART], "entropy-quickstart-float64.csv"),
    (["bounds", "--backend", "bigfloat:128", "--n", "8,12", *QUICKSTART],
     "bounds-quickstart-bigfloat128.csv"),
    (["entropy", "--backend", "float64", "--n", ",".join(map(str, range(1, 13))),
      "--format", "json", *QUICKSTART], "entropy-quickstart-float64.json"),
    (["bounds", "--backend", "bigfloat:128", "--n", "8,12", "--format", "json",
      *QUICKSTART], "bounds-quickstart-bigfloat128.json"),
    (["expand", "--regime", "am", "--mu", "3/5", "--order", "21", "--backend", "float64"],
     "expand-am-float64-21.csv"),
    (["expand", "--regime", "high-snr", "--p", "1/5", "--order", "13",
      "--backend", "float64"], "expand-high-snr-float64-13.csv"),
    (["entropy", "--backend", "float64", "--n", "1,2,3,4,5,6,7,8", *THREE_STATE],
     "entropy-three-state-float64.csv"),
    (["bounds", "--backend", "bigfloat:128", "--n", "2,5,8", *THREE_STATE],
     "bounds-three-state-bigfloat128.csv"),
    (["entropy", "--backend", "float64", "--n", "1,2,3,4,5,6", *FOUR_STATE],
     "entropy-four-state-float64.csv"),
    (["entropy", "--backend", "bigfloat:128", "--n", "1,2,3,4,5,6", *FOUR_STATE],
     "entropy-four-state-bigfloat128.csv"),
    (["bounds", "--backend", "float64", "--n", "2,3,4,5,6", *FOUR_STATE],
     "bounds-four-state-float64.csv"),
    (["bounds", "--backend", "bigfloat:128", "--n", "2,3,4,5,6", *FOUR_STATE],
     "bounds-four-state-bigfloat128.csv"),
])
def test_float_reports_are_pinned_byte_for_byte(tmp_path, argv, golden):
    # the README quick-start model, the two regime anchors, a 3-state model
    # with zero emissions and a 4-state chain that is not reversible; the
    # files were written by an earlier version
    out = tmp_path / golden
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()



@pytest.mark.parametrize("argv, golden", [
    (["bounds", "--n", "2,3,4,5,6,7,8", *QUICKSTART], "bounds-quickstart-exact.csv"),
    (["bounds", "--n", "2,3,4", "--model", str(GOLDEN / "primes-anchor-model.json")],
     "bounds-primes-anchor-exact.csv"),
    (["bounds", "--n", "5", "--model", str(GOLDEN / "primes-anchor-model.json")],
     "bounds-primes-anchor-exact-5.csv"),
])
def test_exact_reports_are_pinned_byte_for_byte(tmp_path, argv, golden):
    # exact renders and their float digits; the prime-denominator model has
    # composite bases to refine, and at n = 5 it pins the splitter's decisions
    # on 50 composites of 56-129 bits that rho leaves whole.  The files were
    # written by an earlier version
    out = tmp_path / golden
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()

def test_unknown_backend_exit_2(capsys, model_file):
    # a precision below 24 bits is a malformed tag too, not a failed computation
    for tag, message in (("decimal", "unknown backend 'decimal'"),
                         ("bigfloat:10", "bad backend 'bigfloat:10'"),
                         ("bigfloat:-5", "bad backend 'bigfloat:-5'"),
                         ("bigfloat:abc", "bad backend 'bigfloat:abc'")):
        code, out, err = run_cli(capsys, "entropy", "--model", model_file,
                                 "--n", "1", "--backend", tag)
        assert (code, out) == (2, ""), tag
        assert err.startswith(f"hmpseries: {message}"), err
    regime = ["--regime", "am", "--mu", "3/5"]
    for argv in (["bounds", "--model", model_file, "--n", "2"],
                 ["expand", *regime, "--order", "2"],
                 ["settle", *regime, "--k", "2", "--n", "3"],
                 ["radius", *regime, "--order", "2"],
                 ["scan", *regime, "--grid", "0:1/10:1", "--orders", "2"]):
        code, out, err = run_cli(capsys, *argv, "--backend", "decimal")
        assert (code, out) == (2, ""), argv
        assert "unknown backend 'decimal'" in err, argv


def test_low_bigfloat_precision_is_a_parse_error_only_on_the_command_line():
    with pytest.raises(ParseError, match="at least 24 bits"):
        get_backend("bigfloat:23")
    with pytest.raises(ValueError, match="at least 24 bits"):
        FloatBackend(23)
    assert get_backend("bigfloat:24").bits == 24


def test_bounds_columns(capsys, model_file):
    code, out, _ = run_cli(capsys, "bounds", "--model", model_file, "--n", "2,3")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0][0] == "n" and rows[0][1] == "lower"
    for row in rows[1:]:
        assert float(row[2]) <= float(row[4]) + 1e-12


def test_bounds_json_carries_the_exact_columns_of_the_csv(capsys, model_file):
    code, out, _ = run_cli(capsys, "bounds", "--model", model_file, "--n", "2,3")
    assert code == 0
    csv_rows = parse_csv(out)
    code, out, _ = run_cli(capsys, "bounds", "--model", model_file, "--n", "2,3",
                           "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    for head, row in zip(csv_rows[1:], rows):
        by_name = dict(zip(csv_rows[0], head))
        for name in ("lower", "upper", "midpoint", "half_gap"):
            assert row[name] == by_name[name]
            assert repr(row[name + "_float"]) == by_name[name + "_float"]


def test_expand_reference_rows(capsys):
    code, out, _ = run_cli(capsys, "expand", "--regime", "am", "--mu", "1",
                           "--order", "13")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["k", "n_used", "value", "value_float", "note"]
    table = {r[0]: r for r in rows[1:]}
    assert table["2"][2] == "-2" and table["2"][1] == "3"
    assert table["4"][2] == "-4/3"
    assert table["6"][2] == "-32/15"
    assert table["13"][1] == "8"
    assert all(r[4] == "" for r in rows[1:])  # no note in this regime


def test_expand_json_payload(capsys):
    code, out, _ = run_cli(capsys, "expand", "--regime", "am", "--mu", "1",
                           "--order", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "expand"
    assert payload["regime"] == "almost-memoryless"
    assert payload["rows"][4]["value"] == "-4/3"
    assert payload["rows"][4]["value_float"] == pytest.approx(-4 / 3)


def test_expand_high_snr_carries_note(capsys):
    code, out, _ = run_cli(capsys, "expand", "--regime", "high-snr", "--p", "1/5",
                           "--order", "2")
    assert code == 0
    rows = parse_csv(out)
    assert rows[1][4] == HIGH_SNR_NOTE


def test_settle_verdict(capsys):
    code, out, _ = run_cli(capsys, "settle", "--regime", "am", "--mu", "3/5",
                           "--k", "2", "--n", "3,4,5")
    assert code == 0
    rows = parse_csv(out)
    assert rows[1][2] == "-162/625"
    assert rows[1][7] == "settled at N=3 (theorem threshold 3)"
    assert [r[4] for r in rows[1:]] == ["True", "True", "True"]
    # window 5, the threshold, is not tested: an onset at 6 is not late
    code, out, _ = run_cli(capsys, "settle", "--regime", "am", "--mu", "3/5",
                           "--k", "6", "--n", "6,7")
    assert code == 0
    verdict = ["6", "5", "settled at N=6 (theorem threshold 5)"]
    assert [r[5:] for r in parse_csv(out)[1:]] == [verdict, verdict]


def test_radius_report(capsys):
    code, out, _ = run_cli(capsys, "radius", "--regime", "am", "--mu", "1",
                           "--order", "13")
    assert code == 0
    rows = parse_csv(out)
    assert [r[0] for r in rows[1:]] == ["ratio", "cauchy-hadamard", "domb-sykes"]
    for row in rows[1:]:
        assert row[2] == "False"
        assert float(row[1]) > 0


def test_radius_indeterminate_family(capsys):
    code, out, _ = run_cli(capsys, "radius", "--regime", "am", "--mu", "0",
                           "--order", "13")
    assert code == 0
    rows = parse_csv(out)
    for row in rows[1:]:
        assert row[1] == "" and row[2] == "True"


def test_scan_schema_and_determinism(capsys):
    argv = ["scan", "--regime", "am", "--mu", "3/5", "--grid", "1/100:1/10:4",
            "--orders", "4,6"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["grid_value", "order", "partial_sum", "lower_bound",
                       "upper_bound", "inside_flag"]
    assert len(rows) == 1 + 4 * 2
    assert all(r[5] == "True" for r in rows[1:])
    code2, out2, _ = run_cli(capsys, *argv)
    assert code2 == 0 and out2 == out


def test_scan_bad_grid_exit_2(capsys):
    for grid, message in (("1/100:1/10", "--grid expects START:STOP:STEPS, got '1/100:1/10'"),
                          ("0:1/10:x", "--grid steps must be an integer, got 'x'")):
        code, out, err = run_cli(capsys, "scan", "--regime", "am", "--mu", "3/5",
                                 "--grid", grid, "--orders", "4")
        assert (code, out, err) == (2, "", f"hmpseries: {message}\n"), grid


def test_sample_roundtrip(capsys, model_file, tmp_path):
    argv = ["sample", "--model", model_file, "--n", "12", "--seed", "5"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["t", "x", "y"]
    assert len(rows) == 13
    assert [r[0] for r in rows[1:]] == [str(t) for t in range(12)]

    path = tmp_path / "path.csv"
    code, silent, _ = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0 and silent == ""
    assert path.read_text() == out


def test_sample_bad_length_exit_2(capsys, model_file):
    code, out, err = run_cli(capsys, "sample", "--model", model_file,
                             "--n", "abc", "--seed", "5")
    assert code == 2 and out == ""
    assert "'abc'" in err


def test_builtin_family_requires_its_parameter(capsys):
    code, _, err = run_cli(capsys, "expand", "--regime", "am", "--order", "4")
    assert code == 2 and "--mu" in err
    code, _, err = run_cli(capsys, "expand", "--regime", "high-snr", "--order", "4")
    assert code == 2 and "--p" in err


def test_parameter_with_regime_file_is_rejected(capsys, tmp_path):
    path = tmp_path / "regime.json"
    path.write_text(json.dumps({
        "regime": "almost-memoryless",
        "s": 2,
        "R": [["4/5", "1/5"], ["1/5", "4/5"]],
        "T": [["1", "-1"], ["-1", "1"]],
    }))
    code, out, _ = run_cli(capsys, "expand", "--regime", str(path), "--order", "2")
    assert code == 0
    code, _, err = run_cli(capsys, "expand", "--regime", str(path), "--order", "2",
                           "--mu", "1/2")
    assert code == 2 and "built-in" in err


def test_usage_errors_exit_2(capsys, model_file):
    for argv in (["expand", "--regime", "am", "--mu", "1"],  # missing --order
                 ["no-such-command"],
                 # validate and sample compute with no backend and take no --backend
                 ["validate", "--model", model_file, "--backend", "float64"],
                 ["sample", "--model", model_file, "--n", "3", "--seed", "1",
                  "--backend", "float64"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert capsys.readouterr().out == "", argv


def test_exactly_the_computing_subcommands_take_a_backend():
    subs = next(a for a in build_parser()._actions if a.dest == "command").choices
    takes = {name for name, sub in subs.items()
             if any(a.dest == "backend" for a in sub._actions)}
    assert takes == {"entropy", "bounds", "expand", "settle", "radius", "scan"}


def test_cli_import_leaves_sympy_and_mpmath_unloaded():
    # start-up cost of every CLI call: the exact and bigfloat libraries load
    # only when a computation needs them
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, hmpseries.cli; "
         "print(sorted({'sympy', 'mpmath'} & set(sys.modules)))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_float_requests_leave_sympy_unloaded():
    # the float kernel reads Q_d in closed form; only the exact kernel factors
    # the table scales, which loads sympy
    model = GOLDEN / "quickstart-model.json"
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from pathlib import Path; from hmpseries import *; "
         f"model = load_model(Path({str(model)!r})); "
         "rate_series(am_binary('3/5'), 9, FLOAT64); entropy_rate_bracket(model, 6, FLOAT64); "
         "entropy_rate_bracket(model, 6, FloatBackend(128)); print('sympy' in sys.modules); "
         "entropy_rate_bracket(model, 6); print('sympy' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "hmpseries", "expand", "--regime", "am",
         "--mu", "1/2", "--order", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "k,n_used,value,value_float,note"
    proc = subprocess.run(
        [sys.executable, "-m", "hmpseries", "frobnicate"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
