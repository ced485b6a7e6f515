"""Batch driver: strict line-oriented configs, deterministic seeded reports.

A config names one ring, optionally a rank-2 etale extension over it, one
algebra with an optional involution, and a list of tasks.  Running it
prints one `CHECK <task> <PASS|FAIL|ERROR> <metrics...>` line per task
and, when a report path is set, appends one JSON record per line with a
fixed field order.  The same config and seed always produce the same
bytes.

Exit codes: 0 when every task PASSes, 1 when any task FAILs or ERRORs,
2 for unusable input (unreadable config, parse errors, bad flags) or
report I/O failures.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from functools import cached_property

from . import presets
from .algebras import (AlgebraWithInvolution, MatrixAlgebra, TableAlgebra,
                       adjoint_involution, azumaya_verify,
                       hermitian_involution, nrd, quaternion_conjugation,
                       quaternion_table, transpose_involution)
from .etale import QuadraticEtale
from .groups import enumerate_special, enumerate_unitary, functor_linear, functor_unitary
from .hilbert90 import h90_witness, inclusion_check
from .norm_principle import np_bruteforce_check, np_witness, pm_split
from .rings import (ConfigError, ExactAlgebraError, PrimeField, RingMatrix,
                    Zmod, _is_prime)
from .transfers import (FiniteFreeExtension, additivity_check,
                        base_change_check, etale_extension,
                        norm_inclusion_check)

_SECTION_KEYS = {
    "ring": {"kind", "modulus"},
    "etale": {"s"},
    "algebra": {"form", "degree", "a", "b", "rank", "gamma", "unit",
                "involution", "h", "g"},
    "tasks": {"task"},
    "run": {"seed", "report-path"},
}

# the bounds keep trial-division primality fast and the split degree at most
# DEGREE_MAX; they do not keep sweeps small, which visit |C|^(n^2) elements
MODULUS_BOUND = 2 ** 16
DEGREE_MAX = 4

# what each `axioms which=...` reads; any other parameter is refused
_AXIOM_PARAMS = {
    "norm-inclusion": {"ext"},
    "additivity": {"d", "ext", "algebra"},
    "base-change": {"poly", "samples"},
}

_TASK_PARAMS = {
    "verify-azumaya": set(),
    "azumaya-verify": set(),
    "nrd": {"x"},
    "h90": {"a"},
    "h90-all": set(),
    "np-witness": {"a", "seed"},
    "np-bruteforce": set(),
    "groups": {"which"},
    "functor": {"kind", "d", "ext", "algebra"},
    "axioms": {"which"}.union(*_AXIOM_PARAMS.values()),
    "survey": {"d"},
}


class ExperimentConfig:
    """A validated experiment: ring, optional etale layer, algebra, tasks."""

    def __init__(self):
        self.ring = None
        self.etale = None
        self.algebra = None
        self.awi = None
        self.tasks = []
        self.seed = 0
        self.report_path = None

    @cached_property
    def split(self):
        """The plus/minus splitting of the unitary involution, built once."""
        return pm_split(self.awi)


def _fail(lineno: int, msg: str):
    # line 0 marks a subcommand task, which has no config line
    raise ConfigError(msg, line=lineno or None)


def _parse_sections(text: str):
    """Raw pass: sections -> {key: (value, lineno)}, each section's header
    line, and the tasks in order."""
    sections, heads = {}, {}
    tasks = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTION_KEYS:
                _fail(lineno, f"unknown section [{name}]")
            if name in sections or (name == "tasks" and tasks):
                _fail(lineno, f"duplicate section [{name}]")
            sections[name], heads[name] = {}, lineno
            current = name
            continue
        if "=" not in line:
            _fail(lineno, "expected `key = value`")
        if current is None:
            _fail(lineno, "key outside any section")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SECTION_KEYS[current]:
            _fail(lineno, f"unknown key {key!r} in section [{current}]")
        if current == "tasks":
            tasks.append((value, lineno))
            continue
        if key in sections[current]:
            _fail(lineno, f"duplicate key {key!r}")
        sections[current][key] = (value, lineno)
    return sections, heads, tasks


def _want_int(value: str, lineno: int, what: str) -> int:
    try:
        return int(value, 10)
    except ValueError:
        _fail(lineno, f"{what} must be an integer, got {value!r}")


def _build_ring(sec, head: int):
    kind, kl = sec.get("kind", (None, head))
    if kind is None:
        _fail(kl, "section [ring] needs `kind`")
    mod, ml = sec.get("modulus", (None, 0))
    if mod is None:
        _fail(kl, "section [ring] needs `modulus`")
    n = _want_int(mod, ml, "modulus")
    if n < 2:
        _fail(ml, "modulus must be at least 2")
    if n >= MODULUS_BOUND:
        _fail(ml, f"modulus must be below {MODULUS_BOUND}")
    if n % 2 == 0:
        _fail(ml, f"even modulus {n}: 2 is not a unit")
    if kind == "prime":
        if not _is_prime(n):
            _fail(ml, f"{n} is not prime")
        return PrimeField(n)
    if kind == "zmod":
        return Zmod(n)
    _fail(kl, f"unknown ring kind {kind!r} (expected prime or zmod)")


def _center_entry(center, token: str, lineno: int):
    """One element literal: `x:y` over an etale center, an integer otherwise."""
    token = token.strip()
    if isinstance(center, QuadraticEtale):
        parts = token.split(":")
        if len(parts) == 1:
            parts = [parts[0], "0"]
        if len(parts) != 2:
            _fail(lineno, f"etale entries look like x:y, got {token!r}")
        x = _want_int(parts[0], lineno, "entry")
        y = _want_int(parts[1], lineno, "entry")
        return (center.base.int_p(x), center.base.int_p(y))
    return center.int_p(_want_int(token, lineno, "entry"))


def _parse_matrix(center, n: int, literal: str, lineno: int) -> RingMatrix:
    literal = literal.strip()
    if literal == "identity":
        return RingMatrix.identity(center, n)
    if literal.startswith("diag(") and literal.endswith(")"):
        entries = [_center_entry(center, t, lineno)
                   for t in literal[5:-1].split(",")]
        if len(entries) != n:
            _fail(lineno, f"diag needs {n} entries, got {len(entries)}")
        zero = center.zero_p()
        return RingMatrix(center, n, n, [entries[i] if i == j else zero
                                         for i in range(n) for j in range(n)])
    # rows separated by `;` are the flat row-major list with a second separator
    entries = literal.replace(";", ",").split(",")
    if len(entries) != n * n:
        _fail(lineno, f"matrix needs {n * n} entries, got {len(entries)}")
    return RingMatrix(center, n, n, [_center_entry(center, t, lineno) for t in entries])


def _at(lineno: int, build, *args):
    """build(*args), with a library error reported at config line lineno."""
    try:
        return build(*args)
    except ExactAlgebraError as e:
        _fail(lineno, str(e))


def _build_algebra(cfg: ExperimentConfig, sec, head: int):
    form, fl = sec.get("form", (None, head))
    if form is None:
        _fail(fl, "section [algebra] needs `form`")
    inv_name, il = sec.get("involution", ("none", fl))

    if form == "split":
        deg, dl = sec.get("degree", (None, fl))
        if deg is None:
            _fail(fl, "split form needs `degree`")
        n = _want_int(deg, dl, "degree")
        if n < 1:
            _fail(dl, "degree must be positive")
        if n > DEGREE_MAX:
            _fail(dl, f"degree must be at most {DEGREE_MAX}")
        center = cfg.etale if cfg.etale is not None else cfg.ring
        algebra = _at(dl, MatrixAlgebra, center, n)
        if inv_name == "hermitian":
            if cfg.etale is None:
                _fail(il, "hermitian involution needs an [etale] section")
            hlit, hl = sec.get("h", ("identity", il))
            h = _parse_matrix(center, n, hlit, hl)
            involution = _at(hl, hermitian_involution, algebra, h)
        elif inv_name == "transpose":
            involution = _at(il, transpose_involution, algebra)
        elif inv_name == "adjoint":
            glit, gl = sec.get("g", (None, il))
            if glit is None:
                _fail(il, "adjoint involution needs `g`")
            g = _parse_matrix(center, n, glit, gl)
            involution = _at(gl, adjoint_involution, algebra, g)
        elif inv_name == "none":
            involution = None
        else:
            _fail(il, f"unknown involution {inv_name!r} for split form")
    elif form == "quaternion":
        alit, al = sec.get("a", (None, fl))
        blit, bl = sec.get("b", (None, fl))
        if alit is None or blit is None:
            _fail(fl, "quaternion form needs `a` and `b`")
        a = _want_int(alit, al, "a")
        b = _want_int(blit, bl, "b")
        # the builder refuses a parameter that is not a unit: name the first
        at = bl if cfg.ring.is_unit_p(cfg.ring.int_p(a)) else al
        algebra = _at(at, quaternion_table, cfg.ring, a, b)
        if inv_name == "conjugation":
            involution = _at(il, quaternion_conjugation, algebra)
        elif inv_name == "none":
            involution = None
        else:
            _fail(il, f"unknown involution {inv_name!r} for quaternion form")
    elif form == "table":
        rlit, rl = sec.get("rank", (None, fl))
        glit, gl = sec.get("gamma", (None, fl))
        if rlit is None or glit is None:
            _fail(fl, "table form needs `rank` and `gamma`")
        rank = _want_int(rlit, rl, "rank")
        unit_lit, ul = sec.get("unit", ("0", gl))
        unit = _want_int(unit_lit, ul, "unit")
        flat = [t for chunk in glit.split(";") for t in chunk.split(",") if t.strip()]
        if len(flat) != rank * rank:
            _fail(gl, f"gamma needs {rank * rank} entries, got {len(flat)}")
        base = cfg.ring
        gamma = []
        for i in range(rank):
            row = []
            for j in range(rank):
                vec = flat[i * rank + j].split(":")
                if len(vec) != rank:
                    _fail(gl, f"gamma entry ({i},{j}) needs {rank} coordinates")
                row.append(tuple(base.int_p(_want_int(v, gl, "gamma")) for v in vec))
            gamma.append(tuple(row))
        algebra = _at(gl if 0 <= unit < rank else ul,
                      TableAlgebra, base, tuple(gamma), unit)
        if inv_name != "none":
            _fail(il, "table form takes involution = none in configs")
        involution = None
    else:
        _fail(fl, f"unknown algebra form {form!r}")

    cfg.algebra = algebra
    if involution is not None:
        cfg.awi = _at(il, AlgebraWithInvolution, algebra, involution)


def _parse_task_line(value: str, lineno: int):
    parts = value.split()
    if not parts:
        _fail(lineno, "empty task")
    name = parts[0]
    if name not in _TASK_PARAMS:
        _fail(lineno, f"unknown task {name!r}")
    return name, _task_params(name, parts[1:], lineno), lineno


def _task_params(name: str, tokens, lineno: int) -> dict:
    """key=value tokens of task name; line 0 for a subcommand's argv tokens."""
    params = {}
    for tok in tokens:
        if "=" not in tok:
            _fail(lineno, f"task parameter {tok!r} is not key=value")
        k, v = tok.split("=", 1)
        if k not in _TASK_PARAMS[name]:
            _fail(lineno, f"unknown parameter {k!r} for task {name}")
        if k in params:
            _fail(lineno, f"duplicate parameter {k!r} for task {name}")
        params[k] = v
    return params


def parse_config(text: str) -> ExperimentConfig:
    """Validate a config; the first problem raises ConfigError with its line."""
    sections, heads, task_lines = _parse_sections(text)
    cfg = ExperimentConfig()
    if "ring" not in sections:
        raise ConfigError("line 1: missing [ring] section")
    cfg.ring = _build_ring(sections["ring"], heads["ring"])
    if "etale" in sections:
        slit, sl = sections["etale"].get("s", (None, heads["etale"]))
        if slit is None:
            _fail(sl, "section [etale] needs `s`")
        s = _want_int(slit, sl, "s")
        try:
            cfg.etale = QuadraticEtale(cfg.ring, s)
        except ExactAlgebraError as e:
            _fail(sl, str(e))
    if "algebra" in sections:
        _build_algebra(cfg, sections["algebra"], heads["algebra"])
    if "run" in sections:
        seed_lit, sl = sections["run"].get("seed", (None, 0))
        if seed_lit is not None:
            seed = _want_int(seed_lit, sl, "seed")
            if seed < 0:
                _fail(sl, "seed must be nonnegative")
            cfg.seed = seed
        rp, _ = sections["run"].get("report-path", (None, 0))
        cfg.report_path = rp
    for value, lineno in task_lines:
        cfg.tasks.append(_parse_task_line(value, lineno))
    return cfg


# -- report records ------------------------------------------------------------

class ReportRecord:
    """One task execution; serialized with a fixed field order."""

    def __init__(self, task: str, status: str, metrics=None, detail: str = "",
                 witness=None):
        self.task = task
        self.status = status
        self.metrics = dict(metrics or {})
        self.detail = detail
        self.witness = witness

    def to_json(self) -> str:
        body = {
            "task": self.task,
            "status": self.status,
            "metrics": {k: self.metrics[k] for k in sorted(self.metrics)},
            "detail": self.detail,
            "witness": self.witness,
        }
        return json.dumps(body, separators=(", ", ": "), sort_keys=False)

    def check_line(self) -> str:
        parts = [f"{k}={self.metrics[k]}" for k in sorted(self.metrics)]
        line = f"CHECK {self.task} {self.status}"
        if parts:
            line += " " + " ".join(parts)
        if self.status == "ERROR" and self.detail:
            line += f' detail="{self.detail}"'
        return line


def _need_algebra(cfg):
    if cfg.algebra is None:
        raise ConfigError("this task needs an [algebra] section")
    return cfg.algebra


def _need_unitary(cfg):
    if cfg.awi is None or cfg.awi.kind != "unitary":
        raise ConfigError("this task needs a unitary involution")
    return cfg.awi


def _parse_element(cfg, literal: str, lineno: int):
    alg = _need_algebra(cfg)
    entries = [t for t in literal.split(",") if t.strip()]
    if isinstance(alg, MatrixAlgebra):
        ring, count, what = alg.center, alg.n * alg.n, "entries"
    else:
        ring, count, what = alg.base, alg.rank, "coordinates"
    if len(entries) != count:
        _fail(lineno, f"element needs {count} {what}, got {len(entries)}")
    return tuple(_center_entry(ring, t, lineno) for t in entries)


def _extension_for(cfg, name: str) -> FiniteFreeExtension:
    if name == "identity":
        return FiniteFreeExtension.identity(cfg.ring)
    if name == "etale":
        if cfg.etale is None:
            raise ConfigError("ext=etale needs an [etale] section")
        return etale_extension(cfg.etale)
    raise ConfigError(f"unknown extension {name!r} (expected identity or etale)")


def _int_param(params, key, default, lineno: int):
    if key not in params:
        return default
    return _want_int(params[key], lineno, f"parameter {key}")


def _with_algebra(params, lineno: int) -> bool:
    """The algebra= parameter of functor and axioms: yes (the default) or no."""
    value = params.get("algebra", "yes")
    if value not in ("yes", "no"):
        _fail(lineno, f"algebra must be yes or no, got {value!r}")
    return value == "yes"


def run_task(name: str, params: dict, cfg: ExperimentConfig, seed: int,
             lineno: int) -> ReportRecord:
    """Run one task; lineno is its config line (0 for a subcommand task)."""
    if name in ("verify-azumaya", "azumaya-verify"):
        rep = azumaya_verify(_need_algebra(cfg))
        return ReportRecord(name, "PASS" if rep.ok else "FAIL",
                            {"dimension": rep.dimension,
                             "det-unit": 1 if rep.ok else 0})

    if name == "nrd":
        if "x" not in params:
            raise ConfigError("task nrd needs x=<element>")
        alg = _need_algebra(cfg)
        x = alg.elem(_parse_element(cfg, params["x"], lineno))
        value = nrd(alg, x)
        return ReportRecord(name, "PASS",
                            {"unit": 1 if value.ring.is_unit_p(value.payload) else 0},
                            detail=f"nrd = {value}")

    if name == "h90":
        awi = _need_unitary(cfg)
        if "a" not in params:
            raise ConfigError("task h90 needs a=<element>")
        a = awi.algebra.elem(_parse_element(cfg, params["a"], lineno))
        w = h90_witness(awi, a)
        dump = {"lambda": str(w.lam), "c": str(w.c), "b": str(w.b)}
        return ReportRecord(name, "PASS" if w.verified else "FAIL",
                            {"verified": 1 if w.verified else 0}, witness=dump)

    if name == "h90-all":
        rep = inclusion_check(_need_unitary(cfg))
        return ReportRecord(name, "PASS" if rep.ok else "FAIL",
                            {"total": rep.total, "verified": rep.verified})

    if name == "np-witness":
        awi = _need_unitary(cfg)
        if "a" not in params:
            raise ConfigError("task np-witness needs a=<element>")
        a = awi.algebra.elem(_parse_element(cfg, params["a"], lineno))
        use_seed = _int_param(params, "seed", seed, lineno)
        if use_seed < 0:
            _fail(lineno, "seed must be nonnegative")
        w = np_witness(cfg.split, a, seed=use_seed)
        dump = {"route": w.route, "w": str(w.w)}
        if w.seed is not None:
            dump["seed"] = w.seed
        return ReportRecord(name, "PASS" if w.verified else "FAIL",
                            {"verified": 1 if w.verified else 0,
                             "direct": 1 if w.route == "direct" else 0},
                            detail=f"route = {w.route}", witness=dump)

    if name == "np-bruteforce":
        rep = np_bruteforce_check(_need_unitary(cfg))
        return ReportRecord(name, "PASS" if rep.ok else "FAIL",
                            {"lhs": rep.lhs_size, "rhs": rep.rhs_size,
                             "units": rep.unit_count,
                             "unitary": rep.unitary_count})

    if name == "groups":
        metrics = {}
        for w in params.get("which", "U,SU").split(","):
            w = w.strip()
            if w == "U":
                if cfg.awi is None:
                    raise ConfigError("group U needs an involution")
                metrics["U"] = len(enumerate_unitary(cfg.awi))
            elif w in ("SU", "SO", "SL"):
                target = (_need_algebra(cfg) if cfg.awi is None or w == "SL"
                          else cfg.awi)
                metrics[w] = len(enumerate_special(target, w))
            else:
                raise ConfigError(f"unknown group {w!r}")
        return ReportRecord(name, "PASS", metrics)

    if name == "functor":
        kind = params.get("kind", "linear")
        d = _int_param(params, "d", 1, lineno)
        ext = _extension_for(cfg, params.get("ext", "identity"))
        with_algebra = _with_algebra(params, lineno)
        if kind == "linear":
            arg = _need_algebra(cfg) if with_algebra else None
            value = functor_linear(arg, ext, d)
        elif kind == "unitary":
            if not with_algebra:
                if cfg.etale is None:
                    raise ConfigError("unitary functor without algebra needs [etale]")
                arg = cfg.etale
            else:
                arg = _need_unitary(cfg)
            value = functor_unitary(arg, ext, d)
        else:
            raise ConfigError(f"unknown functor kind {kind!r}")
        return ReportRecord(name, "PASS", {"order": value.order},
                            detail=f"divisors = {value.elementary_divisors}")

    if name == "axioms":
        which = params.get("which")
        extra = sorted(set(params) - {"which"} - _AXIOM_PARAMS.get(which, set()))
        if which in _AXIOM_PARAMS and extra:
            _fail(lineno, f"unknown parameter {extra[0]!r} for axioms which={which}")
        if which == "norm-inclusion":
            alg = _need_algebra(cfg)
            ext = _extension_for(cfg, params.get("ext", "etale"))
            rep = norm_inclusion_check(alg, ext)
            status = "PASS" if rep.included else "FAIL"
            return ReportRecord(name, status,
                                {"included": 1 if rep.included else 0,
                                 "equal": 1 if rep.equal else 0,
                                 "extended": rep.extended_norms,
                                 "mapped": rep.mapped_size,
                                 "base": rep.base_norms})
        if which == "additivity":
            d = _int_param(params, "d", 1, lineno)
            e1 = FiniteFreeExtension.identity(cfg.ring)
            e2 = _extension_for(cfg, params.get("ext", "etale"))
            arg = _need_algebra(cfg) if _with_algebra(params, lineno) else None
            rep = additivity_check(arg, e1, e2, d=d)
            return ReportRecord(name, "PASS" if rep.ok else "FAIL",
                                {"checked": rep.checked,
                                 "failures": len(rep.failures)})
        if which == "base-change":
            poly = params.get("poly", "x2-1")
            if poly not in presets.POLY_EXTENSION_NAMES:
                raise ConfigError(f"unknown polynomial extension {poly!r}")
            samples = _int_param(params, "samples", 200, lineno)
            rep = base_change_check(presets.poly_extension_preset(poly),
                                    samples=samples, seed=seed)
            return ReportRecord(name, "PASS" if rep.ok else "FAIL",
                                {"samples": rep.samples,
                                 "eval-matches": rep.eval_matches,
                                 "units": rep.unit_samples,
                                 "nonunits": rep.nonunit_samples})
        raise ConfigError("axioms needs which = norm-inclusion | additivity | base-change")

    if name == "survey":
        dlist = [_want_int(t, lineno, "survey d")
                 for t in params.get("d", "0,1,2,3").split(",")]
        metrics = {}
        for ename, c in presets.etale_family():
            ext = etale_extension(c)
            base_id = FiniteFreeExtension.identity(c.base)
            for d in dlist:
                lin = functor_linear(None, ext, d)
                metrics[f"{ename}-linear-d{d}"] = lin.order
                uni = functor_unitary(c, base_id, d)
                metrics[f"{ename}-unitary-d{d}"] = uni.order
        return ReportRecord(name, "PASS", metrics,
                            detail=f"family = {','.join(presets.ETALE_NAMES)}")

    raise ConfigError(f"unknown task {name!r}")


def run(cfg: ExperimentConfig, tasks=None, seed=None, out=None):
    """Execute tasks in order; returns (exit code, records)."""
    if out is None:
        out = sys.stdout
    todo = tasks if tasks is not None else cfg.tasks
    use_seed = cfg.seed if seed is None else seed
    records = []
    worst = 0
    for name, params, lineno in todo:
        try:
            rec = run_task(name, params, cfg, use_seed, lineno)
        except ExactAlgebraError as e:
            rec = ReportRecord(name, "ERROR", {}, detail=str(e))
        except Exception as e:
            # a bug in one task must not lose the records of the others
            traceback.print_exc(file=sys.stderr)
            rec = ReportRecord(name, "ERROR", {},
                               detail=f"internal error: {type(e).__name__}: {e}")
        records.append(rec)
        out.write(rec.check_line() + "\n")
        if rec.status != "PASS":
            worst = 1
    return worst, records


def _write_report(path: str, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(rec.to_json() + "\n")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    subcommand = None
    if argv and not argv[0].startswith("-"):
        subcommand = argv.pop(0)
        if subcommand != "run" and subcommand not in _TASK_PARAMS:
            print(f"unknown subcommand {subcommand!r}", file=sys.stderr)
            return 2

    parser = argparse.ArgumentParser(
        prog="azunorm",
        description="exact verification tasks over small finite rings")
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--report", default=None)
    parser.add_argument("params", nargs="*",
                        help="task parameters as key=value (subcommand mode)")
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    if args.seed is not None and args.seed < 0:
        print("--seed must be nonnegative", file=sys.stderr)
        return 2

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        print(f"cannot read config: {e}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2

    tasks = None
    if subcommand and subcommand != "run":
        try:
            tasks = [(subcommand, _task_params(subcommand, args.params, 0), 0)]
        except ConfigError as e:
            print(e, file=sys.stderr)
            return 2
    elif args.params:
        print("task parameters are only accepted with a task subcommand",
              file=sys.stderr)
        return 2

    code, records = run(cfg, tasks=tasks, seed=args.seed)
    report_path = args.report if args.report is not None else cfg.report_path
    if report_path:
        try:
            _write_report(report_path, records)
        except OSError as e:
            print(f"cannot write report: {e}", file=sys.stderr)
            return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
