"""The benchmark's `--trace 1` mode wraps package functions by name
(benchmarks/tracer.py, POINTS).  A refactor that renames or deletes one
of them breaks traced runs, so install the tracer here."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_resolves_every_point():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "benchmarks")]))
    proc = subprocess.run([sys.executable, "-c", "import tracer; tracer.install()"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
