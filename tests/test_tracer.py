"""The bench tracer still finds every name it wraps in the package."""

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


def test_tracer_finds_every_wrapped_name():
    # a renamed kernel, _walk or _factorint would drop its metrics from the
    # traced benchmark run; the recorder reports such names as absent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "bench"), str(ROOT / "src"), env.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == []
