"""The benchmark's --trace mode finds every function it wraps by name."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Installs the tracer in a fresh interpreter, as perfbench/run.py does for
# a traced sample, so its wrappers never leak into the test process.
PROBE = """
import json, sys
sys.path.insert(0, "perfbench")
import child
tracer = child.Tracer()
tracer.install()
expected = [f"{layer}.{name}" for layer, entries in child.TRACED.items()
            for _, name, _ in entries]
print(json.dumps({"expected": expected, "wrapped": sorted(tracer.calls)}))
"""


def test_tracer_wraps_every_traced_name():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    # a renamed or deleted function ends install() in an AttributeError
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert sorted(out["expected"]) == out["wrapped"]
