"""The benchmark's `--trace 1` mode wraps package functions by name
(benchmarks/tracer.py, POINTS).  A refactor that renames or deletes one
of them breaks traced runs, so install the tracer here."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_traced(code):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "benchmarks")]))
    proc = subprocess.run([sys.executable, "-c", "import tracer; t = tracer.install()\n" + code],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_tracer_resolves_every_point():
    _run_traced("")


def test_traced_sweep_visits_every_element():
    out = _run_traced(
        "from azunorm import presets\n"
        "from azunorm.norm_principle import np_bruteforce_check\n"
        "np_bruteforce_check(presets.unitary_m2_f3i('identity'))\n"
        "print(t.counts['algebras.elements_visited'])\n")
    assert out.split() == ["6561"]
