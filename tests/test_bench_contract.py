"""The benchmark's tracer still runs against the package.

``bench/tracer.py`` wraps package names from outside and ``bench/layers.py``
probes ``exactalg.laurent_gcd``; a deletion in ``src/`` that breaks either
would only show as missing per-layer numbers, so it is checked here.
"""
import json
import os
import pathlib
import subprocess
import sys

from stringydet import exactalg

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_tracer_replays_a_compute():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracer.py"),
         "compute", "--r", "3", "--k", "2", "--format", "json"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["exit"] == 0


def test_layer_probes_find_the_gcd():
    assert callable(exactalg.laurent_gcd)
