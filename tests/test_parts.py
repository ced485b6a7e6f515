"""Sweeps cut into code ranges (Ring.map_code_parts): forked parts give the
in-process result field by field, a worker's exception reaches the caller
unchanged, and no process or pipe outlives a call."""

import dataclasses
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from azunorm import presets, rings
from azunorm.norm_principle import np_bruteforce_check
from azunorm.rings import ExactAlgebraError, NonUnitError, ShapeError

ROOT = Path(__file__).resolve().parents[1]
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
FORKS = CPUS >= 2 and multiprocessing.get_all_start_methods()[0] == "fork"
needs_fork = pytest.mark.skipif(
    not FORKS, reason="needs two CPUs and fork as the default start method")
FD_DIR = Path("/proc/self/fd")


def _open_fds():
    return len(os.listdir(FD_DIR)) if FD_DIR.is_dir() else 0


def _no_children():
    assert multiprocessing.active_children() == []


@pytest.fixture(autouse=True)
def nothing_left_behind():
    before = _open_fds()
    yield
    _no_children()
    assert _open_fds() == before


def _m2_f3i():
    return presets.unitary_m2_f3i("identity").algebra


@pytest.fixture
def second_thread():
    """A live thread besides the main one, for the length of a test."""
    stop = threading.Event()
    t = threading.Thread(target=stop.wait)
    t.start()
    yield
    stop.set()
    t.join(timeout=10)
    assert not t.is_alive()


CASES = {**{f"m2-f3i-{h}": (presets.unitary_m2_f3i, h) for h in presets.H_NAMES},
         **{f"deg1-{n}": (presets.degree_one_unitary, n) for n in presets.ETALE_NAMES}}


@pytest.mark.parametrize("case", sorted(CASES))
def test_split_sweep_equals_the_serial_sweep(case, monkeypatch):
    build, arg = CASES[case]
    awi = build(arg)
    size = awi.algebra.size
    monkeypatch.setattr(rings, "PART_MIN", size + 1)
    assert rings._part_count(size) == 1
    serial = np_bruteforce_check(awi)
    monkeypatch.setattr(rings, "PART_MIN", 1)
    assert rings._part_count(size) == (min(size, CPUS) if FORKS else 1)
    split = np_bruteforce_check(awi)
    _no_children()
    for f in dataclasses.fields(serial):
        assert getattr(split, f.name) == getattr(serial, f.name), f.name
    assert serial.equal and serial.lhs == serial.rhs


@needs_fork
def test_parts_of_a_sweep_run_in_two_processes():
    alg = _m2_f3i()
    assert alg.size == 6561
    got = alg.map_code_parts(lambda lo, hi: (os.getpid(), lo, hi))
    _no_children()
    parts = min(CPUS, 6561 // rings.PART_MIN)
    assert len({pid for pid, _, _ in got}) == parts >= 2
    assert got[0][0] == os.getpid()
    cuts = [lo for _, lo, _ in got] + [got[-1][2]]
    assert cuts[0] == 0 and cuts[-1] == 6561
    assert [hi for _, _, hi in got] == cuts[1:]


def test_a_second_thread_keeps_the_sweep_in_this_process(second_thread):
    alg = _m2_f3i()
    got = alg.map_code_parts(lambda lo, hi: (os.getpid(), lo, hi))
    assert got == [(os.getpid(), 0, 6561)]


@needs_fork
@pytest.mark.parametrize("exc", [ShapeError, NonUnitError])
def test_worker_exception_reaches_the_caller(exc):
    alg = _m2_f3i()

    def part(lo, hi):
        if lo > 0:
            raise exc(f"codes {lo}..{hi} failed")
        return lo
    with pytest.raises(exc) as info:
        alg.map_code_parts(part)
    _no_children()
    parts = min(CPUS, 6561 // rings.PART_MIN)
    # the first worker runs the second range
    assert type(info.value) is exc
    assert str(info.value) == f"codes {6561 // parts}..{6561 * 2 // parts} failed"


@needs_fork
def test_worker_arithmetic_error_is_the_one_raised_here():
    alg = _m2_f3i()
    zero = alg.zero_p()
    with pytest.raises(NonUnitError) as here:
        alg.inv_p(zero)
    with pytest.raises(NonUnitError) as there:
        alg.map_code_parts(lambda lo, hi: alg.inv_p(zero) if lo > 0 else lo)
    _no_children()
    assert str(there.value) == str(here.value)


@needs_fork
def test_worker_that_dies_without_a_result():
    alg = _m2_f3i()

    def part(lo, hi):
        if lo > 0:
            os._exit(3)
        return lo
    with pytest.raises(ExactAlgebraError, match="exited with code 3"):
        alg.map_code_parts(part)
    _no_children()


@needs_fork
@pytest.mark.parametrize("exc", [ShapeError, KeyboardInterrupt])
def test_an_error_here_terminates_the_workers(exc):
    alg = _m2_f3i()

    def part(lo, hi):
        if lo > 0:
            time.sleep(60)
        raise exc("the first part failed")
    t0 = time.monotonic()
    with pytest.raises(exc):
        alg.map_code_parts(part)
    _no_children()
    assert time.monotonic() - t0 < 30


CLI_CFG = """\
[ring]
kind = prime
modulus = 3

[etale]
s = -1

[algebra]
form = split
degree = 2
involution = hermitian
h = 0,1;1,0

[tasks]
task = h90-all
task = np-bruteforce
"""

RUN_CLI = "import sys; from azunorm.cli import main; sys.exit(main())"
# the same run with a second live thread, which keeps every sweep serial
RUN_CLI_SERIAL = ("import sys, threading; stop = threading.Event(); "
                  "threading.Thread(target=stop.wait, daemon=True).start(); "
                  "from azunorm.cli import main; sys.exit(main())")


def _env():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")


def test_cli_stdout_through_a_pipe_is_the_serial_stdout(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CLI_CFG)
    outs = []
    for code in (RUN_CLI, RUN_CLI_SERIAL):
        proc = subprocess.run([sys.executable, "-c", code, "run", "--config", str(cfg)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              cwd=tmp_path, env=_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert outs[0].decode().splitlines() == [
        "CHECK h90-all PASS total=96 verified=96",
        "CHECK np-bruteforce PASS lhs=4 rhs=4 unitary=96 units=5760"]


def test_split_path_tests_pass_in_dev_mode():
    """Rerun this module with resource warnings as errors, so a pipe or
    file left open by a split fails the suite.  An unclosed file warns in
    its finalizer, which pytest reports as an unraisable-exception warning;
    only pytest's own -W can make that an error."""
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
         "-m", "pytest", "-W", "error::ResourceWarning",
         "-W", "error::pytest.PytestUnraisableExceptionWarning",
         "-q", "-p", "no:cacheprovider", str(Path(__file__)), "-k", "not dev_mode"],
        capture_output=True, text=True, cwd=ROOT, env=_env(), timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
