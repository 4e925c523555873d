"""The benchmark still finds every name it depends on in the package."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json
from tracer import Recorder
recorder = Recorder().install()
print(json.dumps(sorted(recorder.absent)))
"""


def _run(argv, *paths):
    """Runs a child with the package's src/ (and paths) importable, writing no
    bytecode into the checkout."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [*map(str, paths), str(ROOT / "src"), env.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, *argv], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True)


def test_tracer_finds_every_wrapped_name():
    # a renamed kernel, _walk or _factorint would drop its metrics from the
    # traced benchmark run; the recorder reports such names as absent
    out = _run(["-c", SCRIPT], ROOT / "bench")
    assert json.loads(out.stdout.splitlines()[-1]) == []


def test_the_import_probe_times_every_module_it_reports():
    # bench/run.py's traced run reads import.<name>_s of these four modules
    # from the -X importtime lines of its probe, read here without importing
    # bench/run.py
    tree = ast.parse((ROOT / "bench" / "run.py").read_text())
    [probe] = [ast.literal_eval(node.value) for node in tree.body
               if isinstance(node, ast.Assign)
               and [getattr(t, "id", None) for t in node.targets] == ["IMPORT_PROBE"]]
    err = _run(["-X", "importtime", "-c", probe]).stderr
    names = {line.split("|")[2].strip() for line in err.splitlines()
             if line.startswith("import time:") and line.count("|") == 2}
    assert {"hmpseries", "numpy", "mpmath", "sympy"} <= names
