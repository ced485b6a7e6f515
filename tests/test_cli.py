"""Command-line driver: config parsing with line-accurate errors, task
execution, CHECK line and JSON report formats, exit codes, determinism."""

import contextlib
import gc
import io
import json
import random
import tempfile
import weakref
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from azunorm import cli, presets
from azunorm.algebras import TableAlgebra
from azunorm.cli import ConfigError, parse_config
from azunorm.etale import QuadraticEtale

UNITARY_CFG = """\
# 2x2 matrices with a square root of -1 adjoined, conjugate-adjoint form
[ring]
kind = prime
modulus = 3

[etale]
s = -1

[algebra]
form = split
degree = 2
involution = hermitian
h = identity

[tasks]
task = verify-azumaya
task = h90-all
task = np-bruteforce

[run]
seed = 0
"""

QUATERNION_CFG = """\
[ring]
kind = prime
modulus = 5

[algebra]
form = quaternion
a = 2
b = 3
involution = conjugation

[tasks]
task = verify-azumaya
task = groups which=SL
"""

TABLE_CFG = """\
[ring]
kind = prime
modulus = 3

[algebra]
form = table
rank = 4
gamma = 1:0:0:0,0:1:0:0,0:0:1:0,0:0:0:1, 0:1:0:0,2:0:0:0,0:0:0:1,0:0:2:0, 0:0:1:0,0:0:0:2,2:0:0:0,0:1:0:0, 0:0:0:1,0:0:1:0,0:2:0:0,2:0:0:0
unit = 0
involution = none

[tasks]
task = verify-azumaya
"""


QUATERNION_F5_ETALE_CFG = """\
[ring]
kind = prime
modulus = 5

[etale]
s = 2

[algebra]
form = quaternion
a = -1
b = -1
involution = conjugation

[tasks]
task = axioms which=norm-inclusion
"""


def write(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_canonical_config():
    cfg = parse_config(UNITARY_CFG)
    assert cfg.ring.size == 3
    assert cfg.etale is not None and cfg.etale.size == 9
    assert cfg.awi is not None and cfg.awi.kind == "unitary"
    assert [t[0] for t in cfg.tasks] == ["verify-azumaya", "h90-all", "np-bruteforce"]
    assert cfg.seed == 0


def test_parse_error_even_modulus_line_number():
    bad = "[ring]\nkind = zmod\nmodulus = 4\n\n[tasks]\ntask = verify-azumaya\n"
    with pytest.raises(ConfigError) as e:
        parse_config(bad)
    assert str(e.value).startswith("line 3:")


def test_parse_error_unknown_key():
    bad = "[ring]\nkind = prime\nmodulus = 3\ntolerance = 0.1\n"
    with pytest.raises(ConfigError) as e:
        parse_config(bad)
    assert "line 4" in str(e.value)
    assert "tolerance" in str(e.value)


def test_parse_error_unknown_section():
    bad = "[ring]\nkind = prime\nmodulus = 3\n\n[extras]\nfoo = 1\n"
    with pytest.raises(ConfigError) as e:
        parse_config(bad)
    assert "line 5" in str(e.value)


def test_parse_error_duplicate_key():
    bad = "[ring]\nkind = prime\nmodulus = 3\nmodulus = 5\n"
    with pytest.raises(ConfigError) as e:
        parse_config(bad)
    assert "line 4" in str(e.value)


def test_parse_error_missing_ring():
    with pytest.raises(ConfigError) as e:
        parse_config("[tasks]\ntask = verify-azumaya\n")
    assert "missing [ring]" in str(e.value)


def test_parse_error_unknown_task_param():
    bad = UNITARY_CFG.replace("task = h90-all", "task = h90-all depth=3")
    with pytest.raises(ConfigError) as e:
        parse_config(bad)
    assert "depth" in str(e.value)


def test_main_exit_zero_and_check_lines(tmp_path, capsys):
    path = write(tmp_path, UNITARY_CFG)
    assert cli.main(["run", "--config", path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        parts = line.split()
        assert parts[0] == "CHECK" and parts[2] == "PASS"
    assert lines[0].split()[1] == "verify-azumaya"
    assert "total=96" in lines[1] and "verified=96" in lines[1]


def test_main_error_exit_one(tmp_path, capsys):
    cfg = UNITARY_CFG.replace("involution = hermitian\nh = identity",
                              "involution = transpose")
    cfg = cfg.replace("task = verify-azumaya\ntask = h90-all\n", "")
    path = write(tmp_path, cfg)
    assert cli.main(["run", "--config", path]) == 1
    out = capsys.readouterr().out
    assert "CHECK np-bruteforce ERROR" in out
    assert 'detail="' in out


def test_main_missing_config_exit_two(tmp_path, capsys):
    assert cli.main(["run", "--config", str(tmp_path / "absent.cfg")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_main_parse_error_exit_two(tmp_path, capsys):
    path = write(tmp_path, "[ring]\nkind = zmod\nmodulus = 4\n")
    assert cli.main(["run", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: line 3:")


def test_main_unknown_subcommand_exit_two(tmp_path, capsys):
    path = write(tmp_path, UNITARY_CFG)
    assert cli.main(["frobnicate", "--config", path]) == 2
    assert "unknown subcommand" in capsys.readouterr().err


def test_main_bad_flag_values(tmp_path, capsys):
    path = write(tmp_path, UNITARY_CFG)
    assert cli.main(["run", "--config", path, "--jobs", "0"]) == 2
    assert cli.main(["run", "--config", path, "--seed", "-4"]) == 2
    capsys.readouterr()


def test_subcommand_single_task(tmp_path, capsys):
    path = write(tmp_path, UNITARY_CFG)
    assert cli.main(["groups", "--config", path, "which=U"]) == 0
    out = capsys.readouterr().out
    assert "CHECK groups PASS" in out and "U=96" in out
    assert cli.main(["groups", "--config", path, "which=SU"]) == 0
    assert "SU=24" in capsys.readouterr().out


def test_subcommand_rejects_unknown_param(tmp_path, capsys):
    path = write(tmp_path, UNITARY_CFG)
    assert cli.main(["groups", "--config", path, "depth=2"]) == 2
    assert "unknown parameter" in capsys.readouterr().err
    assert cli.main(["groups", "--config", path, "which"]) == 2
    assert "is not key=value" in capsys.readouterr().err


def test_params_without_subcommand_rejected(tmp_path, capsys):
    path = write(tmp_path, UNITARY_CFG)
    assert cli.main(["run", "--config", path, "which=U"]) == 2
    assert "only accepted with a task subcommand" in capsys.readouterr().err


def test_alias_subcommand(tmp_path, capsys):
    path = write(tmp_path, UNITARY_CFG)
    assert cli.main(["azumaya-verify", "--config", path]) == 0
    assert "CHECK azumaya-verify PASS" in capsys.readouterr().out


def test_nrd_and_h90_subcommands(tmp_path, capsys):
    path = write(tmp_path, UNITARY_CFG)
    assert cli.main(["nrd", "--config", path, "x=1:0,0:0,0:0,1:0"]) == 0
    out = capsys.readouterr().out
    assert "CHECK nrd PASS" in out and "unit=1" in out
    assert cli.main(["h90", "--config", path, "a=1:0,0:0,0:0,1:0"]) == 0
    assert "CHECK h90 PASS" in capsys.readouterr().out


def test_quaternion_config_runs(tmp_path, capsys):
    path = write(tmp_path, QUATERNION_CFG)
    assert cli.main(["run", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "CHECK verify-azumaya PASS" in out
    assert "CHECK groups PASS" in out


def test_table_config_runs(tmp_path, capsys):
    path = write(tmp_path, TABLE_CFG)
    assert cli.main(["run", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "CHECK verify-azumaya PASS" in out and "det-unit=1" in out


def test_report_json_shape_and_order(tmp_path, capsys):
    path = write(tmp_path, UNITARY_CFG)
    report = tmp_path / "report.jsonl"
    assert cli.main(["run", "--config", path, "--report", str(report)]) == 0
    capsys.readouterr()
    lines = report.read_text().splitlines()
    assert len(lines) == 3
    for line in lines:
        rec = json.loads(line)
        assert list(rec.keys()) == ["task", "status", "metrics", "detail", "witness"]
        assert rec["status"] == "PASS"
        assert list(rec["metrics"].keys()) == sorted(rec["metrics"].keys())


def test_reports_byte_identical(tmp_path, capsys):
    path = write(tmp_path, UNITARY_CFG)
    r1 = tmp_path / "a.jsonl"
    r2 = tmp_path / "b.jsonl"
    assert cli.main(["run", "--config", path, "--seed", "7", "--report", str(r1)]) == 0
    assert cli.main(["run", "--config", path, "--seed", "7", "--report", str(r2)]) == 0
    capsys.readouterr()
    assert r1.read_bytes() == r2.read_bytes()
    assert b'"task"' in r1.read_bytes()


def test_survey_deterministic(tmp_path, capsys):
    cfg = "[ring]\nkind = prime\nmodulus = 3\n\n[tasks]\ntask = survey d=0,1\n"
    path = write(tmp_path, cfg)
    r1 = tmp_path / "s1.jsonl"
    r2 = tmp_path / "s2.jsonl"
    assert cli.main(["run", "--config", path, "--report", str(r1)]) == 0
    assert cli.main(["run", "--config", path, "--report", str(r2)]) == 0
    capsys.readouterr()
    assert r1.read_bytes() == r2.read_bytes()
    rec = json.loads(r1.read_text().splitlines()[0])
    assert rec["metrics"]["f3i-linear-d0"] == 8
    assert rec["metrics"]["f3i-unitary-d0"] == 4


def test_removed_flags_exit_two(tmp_path, capsys):
    path = write(tmp_path, UNITARY_CFG)
    assert cli.main(["run", "--config", path, "--jobs", "4"]) == 2
    assert cli.main(["run", "--config", path, "--strict"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_survey_bad_d_is_an_error_record(tmp_path, capsys):
    cfg = "[ring]\nkind = prime\nmodulus = 3\n\n[tasks]\ntask = survey d=0,x\n"
    path = write(tmp_path, cfg)
    assert cli.main(["run", "--config", path]) == 1
    out = capsys.readouterr().out
    assert out.startswith('CHECK survey ERROR detail="line 6: survey d must be an integer')


def test_table_element_literal_is_an_error_record(tmp_path, capsys):
    path = write(tmp_path, QUATERNION_CFG)
    assert cli.main(["nrd", "--config", path, "x=1,0,0,y"]) == 1
    out = capsys.readouterr().out
    assert out == 'CHECK nrd ERROR detail="entry must be an integer, got \'y\'"\n'


def test_element_literal_errors_carry_the_task_line(tmp_path, capsys):
    cfg = UNITARY_CFG.replace("task = h90-all", "task = h90 a=1:0,0:0,0:0,z")
    path = write(tmp_path, cfg)
    assert cli.main(["run", "--config", path]) == 1
    assert "detail=\"line 17: entry must be an integer, got 'z'\"" in capsys.readouterr().out
    # a subcommand task has no config line, so its errors carry no prefix
    path = write(tmp_path, UNITARY_CFG)
    assert cli.main(["h90", "--config", path, "a=1:0,0:0,0:0,z"]) == 1
    assert "detail=\"entry must be an integer, got 'z'\"" in capsys.readouterr().out


def test_linear_functor_on_etale_center():
    cfg = parse_config(UNITARY_CFG)
    tasks = [("axioms", {"which": "additivity"}, 0),
             ("functor", {"kind": "linear", "d": "1"}, 0)]
    code, recs = cli.run(cfg, tasks=tasks, out=io.StringIO())
    assert code == 0
    assert recs[0].metrics == {"checked": 16, "failures": 0}
    assert recs[1].metrics == {"order": 1}


def test_norm_inclusion_on_etale_center():
    cfg = parse_config(UNITARY_CFG)
    tasks = [("axioms", {"which": "norm-inclusion"}, 0)]
    code, recs = cli.run(cfg, tasks=tasks, out=io.StringIO())
    assert code == 0
    assert recs[0].status == "PASS"
    assert recs[0].metrics == {"included": 1, "equal": 1, "extended": 64,
                               "mapped": 8, "base": 8}
    # both sides again by sweeps.  Base: determinants of the units of
    # M2(C), C = F3[i].  Extended: the units of CT = C tensor F9, pushed to C
    # by N(z) = z * frob(z), where frob acts on the F9 coordinates only.
    alg = cfg.algebra
    C = alg.center
    base = set()
    for p in alg.elements_p():
        det = C.sub_p(C.mul_p(p[0], p[3]), C.mul_p(p[1], p[2]))
        if C.is_unit_p(det):
            base.add(det)
    nine = presets.f9()
    CT = QuadraticEtale(nine, nine.from_int(-1))
    extended = [z for z in CT.elements_p() if CT.is_unit_p(z)]
    mapped = set()
    for z in extended:
        x, y = CT.mul_p(z, tuple(nine.pow_p(c, 3) for c in z))
        assert x[1] == y[1] == nine.base.zero_p()
        mapped.add((x[0], y[0]))
    assert (len(extended), len(mapped), len(base)) == (64, 8, 8)
    assert mapped == base


def test_run_keeps_no_reference_to_the_config():
    cfg = parse_config(UNITARY_CFG)
    tasks = [("np-witness", {"a": "1:0,1:0,0:0,1:0"}, 0),
             ("nrd", {"x": "1:0,1:0,0:0,1:0"}, 0)]
    assert cli.run(cfg, tasks=tasks, out=io.StringIO())[0] == 0
    refs = [weakref.ref(cfg.algebra), weakref.ref(cfg.awi)]
    del cfg
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_internal_error_is_an_error_record(monkeypatch):
    cfg = parse_config(UNITARY_CFG)
    run_task = cli.run_task

    def flaky(name, params, cfg, seed, lineno):
        if lineno == 2:
            raise TypeError("unsupported operand")
        return run_task(name, params, cfg, seed, lineno)
    monkeypatch.setattr(cli, "run_task", flaky)
    tasks = [("nrd", {"x": "1:0,1:0,0:0,1:0"}, 1),
             ("nrd", {"x": "1:0,1:0,0:0,1:0"}, 2),
             ("nrd", {"x": "1:0,1:0,0:0,1:0"}, 3)]
    out = io.StringIO()
    code, recs = cli.run(cfg, tasks=tasks, out=out)
    assert code == 1
    assert [r.status for r in recs] == ["PASS", "ERROR", "PASS"]
    assert recs[1].detail == "internal error: TypeError: unsupported operand"
    assert len(out.getvalue().splitlines()) == 3


def test_norm_inclusion_on_quaternions_over_f5_stops_early(monkeypatch):
    visits = []
    elements_p = TableAlgebra.elements_p

    def counted(self):
        for x in elements_p(self):
            visits.append(x)
            yield x
    monkeypatch.setattr(TableAlgebra, "elements_p", counted)
    cfg = parse_config(QUATERNION_F5_ETALE_CFG)
    code, recs = cli.run(cfg, out=io.StringIO())
    assert code == 0
    assert recs[0].check_line() == (
        "CHECK axioms PASS base=4 equal=1 extended=24 included=1 mapped=4")
    # the extended table has 25^4 = 390,625 elements
    assert len(visits) < 1000


def test_base_change_rejects_nonpositive_samples(tmp_path, capsys):
    path = write(tmp_path, UNITARY_CFG)
    for samples in ("-3", "0"):
        assert cli.main(["axioms", "--config", path, "which=base-change",
                         f"samples={samples}"]) == 1
        out = capsys.readouterr().out
        assert out.startswith('CHECK axioms ERROR detail="samples must be at least 1')


Z9_DEGREE_ONE_CFG = """\
[ring]
kind = zmod
modulus = 9

[etale]
s = 2

[algebra]
form = split
degree = 1
involution = hermitian
h = identity

[tasks]
task = functor kind=unitary ext=identity d=1
task = functor kind=unitary ext=etale d=0
task = functor kind=unitary ext=etale d=1
task = functor kind=unitary ext=etale d=0 algebra=no
task = functor kind=unitary ext=etale d=2 algebra=no
task = functor kind=unitary ext=identity d=0 algebra=no
"""


def _functor_record(order, divisors):
    return ('{"task": "functor", "status": "PASS", "metrics": {"order": %d}, '
            '"detail": "divisors = %s", "witness": null}\n' % (order, divisors))


def test_unitary_functor_report_bytes_on_z9(tmp_path, capsys):
    path = write(tmp_path, Z9_DEGREE_ONE_CFG)
    report = tmp_path / "r.jsonl"
    assert cli.main(["run", "--config", path, "--report", str(report)]) == 0
    capsys.readouterr()
    want = (_functor_record(1, "[]") * 3 + _functor_record(72, "[3, 24]")
            + _functor_record(2, "[2]") + _functor_record(12, "[12]"))
    assert report.read_text() == want


@pytest.mark.parametrize("h", ["identity", "diag(1,-1)", "0,1;1,0"])
def test_unitary_functor_report_bytes_on_m2_f3i(tmp_path, capsys, h):
    cfg = UNITARY_CFG.replace("h = identity", f"h = {h}")
    path = write(tmp_path, cfg)
    report = tmp_path / "r.jsonl"
    for d in ("0", "1", "2"):
        assert cli.main(["functor", "--config", path, "--report", str(report),
                         "kind=unitary", "ext=identity", f"d={d}"]) == 0
        assert capsys.readouterr().out == "CHECK functor PASS order=1\n"
        assert report.read_text() == _functor_record(1, "[]")


# -- fuzzed task lines ---------------------------------------------------------------

FUZZ_CFGS = {
    "f3-degree-one": UNITARY_CFG.replace("degree = 2", "degree = 1").split("[tasks]")[0],
    "z9-degree-one": Z9_DEGREE_ONE_CFG.split("[tasks]")[0],
    "quaternions-f3": QUATERNION_F5_ETALE_CFG.replace("modulus = 5", "modulus = 3")
                                             .replace("s = 2", "s = -1").split("[tasks]")[0],
}

# values each key takes when it is well formed; every integer stays small,
# so no task scales up
FUZZ_INTS = ["0", "1", "2", "3", "-1"]
FUZZ_LITERALS = ["1", "0", "2", "0:1", "2:1", "1:1", "1,0,0,0", "0,1,1,0"]
FUZZ_VALUES = {
    "axioms.which": ["norm-inclusion", "additivity", "base-change"],
    "groups.which": ["U", "SU", "SO", "SL", "U,SU", "U,SO,SL"],
    "kind": ["linear", "unitary"],
    "ext": ["identity", "etale"],
    "algebra": ["yes", "no"],
    "poly": ["x2-1", "x2-tx-1"],
    "d": FUZZ_INTS + ["0,1"], "samples": FUZZ_INTS, "seed": FUZZ_INTS,
    "a": FUZZ_LITERALS, "x": FUZZ_LITERALS,
}
# malformed values, and the values of every other key
FUZZ_OTHER = sorted({"", "bogus", "1x", "--1", "0x10", "1.5", "+2", "-3", "1:2:3", "a",
                     "1,,2", ",", "9999999999", "x:y"}
                    | {v for vals in FUZZ_VALUES.values() for v in vals})
# the key without which a task can only report an error
FUZZ_NEEDS = {"axioms": "which", "groups": "which", "nrd": "x", "h90": "a", "np-witness": "a"}


def _task_params(rng, name):
    """Parameters for one task line: its own keys, with a well-formed value
    three times in four, and one line in ten with a malformed token (an
    unknown key, no `=`, an empty key)."""
    known = sorted(cli._TASK_PARAMS[name]) if name in cli._TASK_PARAMS else []
    keys = [FUZZ_NEEDS[name]] if name in FUZZ_NEEDS and rng.random() < 0.8 else []
    keys += [rng.choice(known) for _ in range(rng.randint(0, 3))] if known else []
    params = []
    for key in keys:
        pool = FUZZ_VALUES.get(f"{name}.{key}") or FUZZ_VALUES[key]
        params.append(f"{key}={rng.choice(pool if rng.random() < 0.75 else FUZZ_OTHER)}")
    if rng.random() < 0.1:
        params.append(rng.choice(["zzz=1", "noequals", "=1", "d==1"]))
    return params


# every task gets its own examples, 12 x 16 = 192 in all; the choices come
# from a random.Random seeded by hypothesis, because hypothesis's own draws
# lean towards the first value of each list
@pytest.mark.parametrize("name", sorted(cli._TASK_PARAMS) + ["bogus"])
@settings(max_examples=16, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_fuzzed_task_lines_never_crash(name, seed):
    rng = random.Random(seed)
    cfg_text = FUZZ_CFGS[rng.choice(sorted(FUZZ_CFGS))]
    params = _task_params(rng, name)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.cfg"
        if rng.random() < 0.5:
            path.write_text(cfg_text)
            argv = [name, "--config", str(path), *params]
        else:
            path.write_text(cfg_text + "\n[tasks]\ntask = " + " ".join([name, *params]) + "\n")
            argv = ["run", "--config", str(path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert 'detail="internal error' not in out.getvalue()


# -- fuzzed config sections ---------------------------------------------------------

# well-formed [ring], [etale] and [algebra] bodies, one per algebra form and
# involution, over a prime field and over Z/9
SECTION_SEEDS = [
    UNITARY_CFG.split("[tasks]")[0],
    UNITARY_CFG.replace("h = identity", "h = 0,1;1,0").split("[tasks]")[0],
    UNITARY_CFG.replace("h = identity", "h = diag(1:0,2)").split("[tasks]")[0],
    Z9_DEGREE_ONE_CFG.split("[tasks]")[0],
    QUATERNION_CFG.split("[tasks]")[0],
    QUATERNION_F5_ETALE_CFG.split("[tasks]")[0],
    TABLE_CFG.split("[tasks]")[0],
    "[ring]\nkind = zmod\nmodulus = 9\n\n[algebra]\nform = split\ndegree = 2\n"
    "involution = transpose\n",
    "[ring]\nkind = prime\nmodulus = 5\n\n[algebra]\nform = split\ndegree = 2\n"
    "involution = adjoint\ng = 0,1;-1,0\n",
]
SECTION_KEYS = sorted({k for name in ("ring", "etale", "algebra")
                       for k in cli._SECTION_KEYS[name]} | {"bogus", ""})
SECTION_VALUES = sorted(
    {"", "-2", "-1", "0", "1", "2", "3", "4", "5", "6", "9", "15", "25", "27", "+2",
     "0x3", "1.5", "1e1", "two", "prime", "zmod", "split", "quaternion", "table",
     "hermitian", "transpose", "adjoint", "conjugation", "none", "identity",
     "diag(1,-1)", "diag(1:1,2)", "diag(0,1)", "diag(", "diag()", "diag(1,,2)",
     "0,1;1,0", "0,1;-1,0", "1,0;0,1", "0,0;0,0", "0,1;0,0", "1:1,0;0,1:2", "0,1;2",
     "1:0,0:1", "1:2:3", "x:y", ";", ",", ":", "1:0,0:1,0:1,2:0", "1:0:0,0:1:0",
     "1:0,0:1;0:1,1:0", "1:0,0:1,0:1,1:0", "0:1,1:0,1:0,0:1"})
SECTION_LINES = ["[ring]", "[etale]", "[algebra]", "[bogus]", "[ring", "[]",
                 "modulus", "= 3", "kind = prime", "s = 2", "# comment"]


def _mutated_sections(rng):
    """A seed body with one to four mutations: a value or key replaced, a
    line dropped, copied to another place or inserted, or a character
    dropped."""
    lines = rng.choice(SECTION_SEEDS).splitlines()
    for _ in range(rng.randint(1, 4)):
        pairs = [i for i, line in enumerate(lines) if "=" in line]
        op = rng.choice([0, 0, 0, 0, 0, 1, 2, 3, 4, 5]) if pairs else rng.randint(2, 5)
        i = rng.choice(pairs) if op < 2 else rng.randrange(len(lines))
        key, _, value = lines[i].partition("=")
        if op == 0:
            lines[i] = f"{key}= {rng.choice(SECTION_VALUES)}"
        elif op == 1:
            lines[i] = f"{rng.choice(SECTION_KEYS)} ={value}"
        elif op == 2:
            del lines[i]
        elif op == 3:
            lines.insert(rng.randrange(len(lines) + 1), lines[i])
        elif op == 4:
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(SECTION_LINES))
        elif lines[i]:
            k = rng.randrange(len(lines[i]))
            lines[i] = lines[i][:k] + lines[i][k + 1:]
        if not lines:
            lines = [""]
    return "\n".join(lines) + "\n"


def _int_values(text, key):
    return [int(v) for line in text.splitlines()
            for k, eq, v in [line.partition("=")]
            if eq and k.strip() == key and v.strip().lstrip("+-").isdigit()]


# as for task lines, the choices come from a random.Random seeded by hypothesis
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_fuzzed_config_sections_never_crash(seed):
    rng = random.Random(seed)
    text = _mutated_sections(rng)
    # building a degree-n algebra costs about n^6 ring operations and a
    # verify-azumaya task far more, so the mutations keep n small
    assume(all(v <= 4 for v in _int_values(text, "degree") + _int_values(text, "rank")))
    text += "\n[tasks]\ntask = nrd x=1,0,0,0\n"
    if all(v <= 2 for v in _int_values(text, "degree")):
        text += "task = verify-azumaya\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.cfg"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["run", "--config", str(path)])
    assert code in (0, 1, 2), text
    assert "Traceback" not in err.getvalue(), text
    assert 'detail="internal error' not in out.getvalue(), text
