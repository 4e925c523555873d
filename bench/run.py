"""hmpseries benchmark: cold-process passes over two seeded workloads.

    python3 bench/run.py --workload exact --seed 1 --seconds 5 --trace 0

Run from the root of a checkout (the program is imported from its src/).
Every pass runs in a fresh child process, one at a time (a closed loop with
one client), because the program's caches decide the cost.  The last line
of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics; --trace 1 runs one untraced and
one traced pass plus an import probe and reports the per-layer metrics.
A full record (machine, request list, every pass) goes to
.bench_results/<workload>-seed<seed>-trace<t>.json.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from importlib import metadata
from pathlib import Path
from time import perf_counter

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_results"
MIN_SAMPLES = 100  # so that at least 10 request samples lie beyond p90
MIN_SETUPS = 5
DEADLINE_S = 170.0  # every child is killed past this point of the run

END_TO_END = {
    "setup_s": "s", "solve_s": "s", "request_p50_s": "s", "request_p90_s": "s",
    "peak_rss_mb": "MB", "pass_ratio": "ratio",
}
PER_LAYER = {
    "import.hmpseries_s": "s", "import.numpy_s": "s", "import.mpmath_s": "s",
    "import.sympy_s": "s", "cli.main_s": "s", "cli.startup_s": "s",
    "model.calls": "count", "model.self_s": "s",
    "entropy.calls": "count", "entropy.self_s": "s",
    "entropy.walks": "count", "entropy.nodes": "count",
    "expansion.calls": "count", "expansion.self_s": "s",
    "expansion.leaf_calls": "count", "expansion.leaf_s": "s",
    "series.mul_calls": "count", "series.mul_s": "s",
    "series.log_tail_calls": "count", "series.log_tail_s": "s",
    "loglinear.factor_calls": "count", "loglinear.factor_s": "s",
    "loglinear.factor_hit_ratio": "ratio", "loglinear.max_factored_bits": "bits",
    "loglinear.scalar_leaf_calls": "count", "loglinear.scalar_leaf_s": "s",
    "multisite.calls": "count", "multisite.self_s": "s",
    "radius.calls": "count", "radius.self_s": "s",
    "backends.log_calls": "count", "trace.overhead_ratio": "ratio",
}
# A fresh interpreter imports the CLI and makes one exact request (which
# imports sympy lazily); -X importtime reports each import's cumulative time.
IMPORT_PROBE = (
    "import hmpseries.cli\n"
    "import hmpseries as h\n"
    "from fractions import Fraction as F\n"
    "h.finite_entropy(h.instantiate(h.high_snr_binary(F(1, 5)), F(1, 5)), 2)\n"
)


class ChildFailed(Exception):
    pass


class Runner:
    """Starts every child process of one run and kills any that outlive it."""

    def __init__(self, workload: str, seed: int, run_dir: Path):
        self.workload, self.seed, self.run_dir = workload, seed, run_dir
        self.t_start = perf_counter()
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self._procs: list[subprocess.Popen] = []

    def _popen(self, argv, **kw) -> subprocess.Popen:
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, **kw)
        self._procs.append(proc)
        remaining = max(1.0, DEADLINE_S - (perf_counter() - self.t_start))
        timer = threading.Timer(remaining, proc.kill)
        timer.daemon = True
        timer.start()
        proc._bench_timer = timer
        return proc

    def _reap(self, proc):
        proc._bench_timer.cancel()
        self._procs.remove(proc)

    def close(self):
        for proc in list(self._procs):
            proc.kill()
            proc.wait()
            self._reap(proc)

    def _child_argv(self, mode, *extra):
        return [sys.executable, str(BENCH / "child.py"), mode, "--workload", self.workload,
                "--seed", str(self.seed), *extra]

    def _handshake(self, argv) -> tuple[float, str]:
        """Spawn, time until "ready", send "go", return (setup_s, stdout rest)."""
        with open(self.run_dir / "child.err", "ab") as err:
            t0 = perf_counter()
            proc = self._popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                               stderr=err, text=True)
        try:
            line = proc.stdout.readline()
            setup = perf_counter() - t0
            if line.strip() != "ready":
                raise ChildFailed(f"child did not get ready: {line!r}")
            proc.stdin.write("go\n")
            proc.stdin.close()
            out = proc.stdout.read()
            code = proc.wait()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            self._reap(proc)
        if code != 0:
            raise ChildFailed(f"child exited with {code}")
        return setup, out

    def run_json(self, argv) -> dict:
        with open(self.run_dir / "child.err", "ab") as err:
            proc = self._popen(argv, stdout=subprocess.PIPE, stderr=err, text=True)
        try:
            out = proc.stdout.read()
            code = proc.wait()
        finally:
            self._reap(proc)
        if code != 0 or not out.strip():
            raise ChildFailed(f"{argv[2:4]} exited with {code}")
        return json.loads(out.strip().splitlines()[-1])

    def setup_only(self) -> float:
        return self._handshake(self._child_argv("setup"))[0]

    def library_pass(self, trace=False) -> dict:
        extra = ["--trace", "--spans-out", str(self.spans_path())] if trace else []
        setup, out = self._handshake(self._child_argv("pass", *extra))
        report = json.loads(out.strip().splitlines()[-1])
        report["setup_s"] = setup
        return report

    def cli_inprocess(self, files: dict, trace=False) -> dict:
        extra = ["--files", json.dumps(files)]
        if trace:
            extra += ["--trace", "--spans-out", str(self.spans_path())]
        return self.run_json(self._child_argv("cli", *extra))

    def cli_pass(self, inputs: dict, files: dict) -> dict:
        """The CLI corpus, one fresh `python -m hmpseries` process per request."""
        results, latencies, rss = {}, [], []
        out_path, err_path = self.run_dir / "cli.out", self.run_dir / "cli.err"
        start = perf_counter()
        for r in inputs["requests"]:
            argv = workloads.resolve_argv(r["argv"], files)
            with open(out_path, "wb") as out, open(err_path, "wb") as err:
                t0 = perf_counter()
                proc = self._popen([sys.executable, "-m", "hmpseries", *argv],
                                   stdout=out, stderr=err)
                _, status, usage = os.wait4(proc.pid, 0)
                latencies.append(perf_counter() - t0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            self._reap(proc)
            rss.append(usage.ru_maxrss)
            results[r["id"]] = {"code": proc.returncode, "stdout": out_path.read_text(),
                                "stderr": err_path.read_text()[-500:]}
        return {"solve_s": perf_counter() - start, "latencies": latencies,
                "peak_rss_kb": max(rss), "results": results}

    def import_probe(self) -> dict:
        proc = self._popen([sys.executable, "-X", "importtime", "-c", IMPORT_PROBE],
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        try:
            err = proc.stderr.read()
            code = proc.wait()
        finally:
            self._reap(proc)
        if code != 0:
            raise ChildFailed(f"import probe exited with {code}")
        found = {}
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            parts = line.split("|")
            name = parts[2].strip()
            if name in ("hmpseries", "numpy", "mpmath", "sympy") and name not in found:
                try:
                    found[name] = int(parts[1]) / 1e6
                except ValueError:
                    continue
        return {f"import.{k}_s": v for k, v in found.items()}

    def spans_path(self) -> Path:
        return OUT / f"spans-{self.workload}-seed{self.seed}.json"


def machine_info() -> dict:
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {}
    for pkg in ("sympy", "numpy", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "platform": platform.platform(), "packages": versions}


def write_model_files(inputs: dict, run_dir: Path) -> dict:
    files = {}
    for name, text in inputs["models"].items():
        path = run_dir / f"{name}.json"
        path.write_text(json.dumps(workloads.model_file(text)))
        files[name] = str(path)
    return files


def solve_by_group(inputs: dict, passes) -> dict:
    """Median over the passes of each request group's summed latency."""
    groups: dict[str, list[float]] = {}
    for p in passes:
        sums: dict[str, float] = {}
        for r, latency in zip(inputs["requests"], p["latencies"]):
            group = r["id"].split(".")[0]
            sums[group] = sums.get(group, 0.0) + latency
        for group, total in sums.items():
            groups.setdefault(group, []).append(total)
    return {g: statistics.median(v) for g, v in groups.items()}


def end_to_end(passes, setups, attempted, failed) -> dict:
    latencies = [x for p in passes for x in p["latencies"]]
    return {
        "setup_s": statistics.median(setups),
        "solve_s": statistics.median(p["solve_s"] for p in passes),
        "request_p50_s": statistics.median(latencies),
        "request_p90_s": statistics.quantiles(latencies, n=10)[8],
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) / 1024,
        "pass_ratio": (attempted - failed) / attempted,
    }


def measure(runner: Runner, inputs: dict, files: dict, seconds: float, record: dict):
    """Passes until the latency samples suffice and the time is up.

    The passes that the samples need (one of `exact`, ten of `cli-float`)
    take longer than the declared run time at this version, so the number of
    passes is fixed and the latency percentiles are always taken over the
    same request mix.
    """
    cli = inputs["workload"] == "cli-float"
    min_passes = math.ceil(MIN_SAMPLES / len(inputs["requests"]))
    # set-ups are spread over the run, so that their median averages over
    # the machine's drift: some before the passes, one per CLI pass, the
    # rest after
    passes, setups = [], [runner.setup_only() for _ in range(MIN_SETUPS // 2)]
    start = perf_counter()
    while len(passes) < min_passes or perf_counter() - start < seconds:
        if cli:
            setups.append(runner.setup_only())
            p = runner.cli_pass(inputs, files)
        else:
            p = runner.library_pass()
            setups.append(p["setup_s"])
        passes.append(p)
    while len(setups) < MIN_SETUPS:
        setups.append(runner.setup_only())
    record["setups_s"] = setups
    return passes, setups


def trace_run(runner: Runner, inputs: dict, files: dict) -> tuple[list, dict]:
    """One untraced and one traced pass, plus the import probe."""
    layers = runner.import_probe()
    if inputs["workload"] == "cli-float":
        plain = runner.cli_inprocess(files)
        traced = runner.cli_inprocess(files, trace=True)
        sub = runner.cli_pass(inputs, files)
        main_s = sum(plain["latencies"])
        layers["cli.main_s"] = main_s
        layers["cli.startup_s"] = sum(sub["latencies"]) - main_s
        passes = [plain, traced, sub]
    else:
        plain = runner.library_pass()
        traced = runner.library_pass(trace=True)
        layers["cli.main_s"] = 0.0
        layers["cli.startup_s"] = 0.0
        passes = [plain, traced]
    layers.update(traced["layers"])
    layers["trace.overhead_ratio"] = traced["solve_s"] / plain["solve_s"]
    return passes, layers, traced["layers_by_group"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "hmpseries" / "__init__.py").is_file():
        print(f"bench: no program to measure under {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"run-{os.getpid()}"
    run_dir.mkdir()
    inputs = workloads.build(args.workload, args.seed)
    record = {"machine": machine_info(), "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "requests": inputs["requests"], "models": inputs["models"]}
    runner = Runner(args.workload, args.seed, run_dir)
    try:
        files = write_model_files(inputs, run_dir)
        refs = runner.run_json(runner._child_argv("refs"))
        if args.trace:
            passes, layers, record["self_s_by_group"] = trace_run(runner, inputs, files)
        else:
            passes, setups = measure(runner, inputs, files, args.seconds, record)
    except ChildFailed as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    finally:
        runner.close()
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = failed = 0
    record["passes"] = []
    for p in passes:
        failures = checks.check_pass(inputs, p["results"], refs)
        attempted += len(inputs["requests"])
        failed += len(failures)
        record["passes"].append({k: p[k] for k in ("solve_s", "latencies", "peak_rss_kb")}
                                | {"setup_s": p.get("setup_s"), "failures": failures})
        for rid, why in failures.items():
            print(f"bench: {rid} failed: {why}", file=sys.stderr)

    if args.trace:
        values = layers
        # a metric whose wrapped name no longer exists is absent, not a failure
        record["absent"] = sorted(set(PER_LAYER) - set(values))
        units = PER_LAYER
    else:
        values = end_to_end(passes, setups, attempted, failed)
        record["solve_s_by_group"] = solve_by_group(inputs, passes)
        units = END_TO_END
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units if k in values}
    record["metrics"] = metrics
    record["latency_samples"] = sum(len(p["latencies"]) for p in passes)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
