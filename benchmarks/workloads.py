"""Seeded workload inputs and the expected outputs they are checked against.

This module never imports azunorm.  Everything the program receives is
config text and task literals built here; every check on what comes back
uses frozen values or the independent F9 = F3[i] arithmetic below, so the
generator stays an oracle that shares no code with the program it checks.
"""

from __future__ import annotations

import random
import re

WORKLOADS = ("sweep", "witness", "transfer")
DEFAULT_SEED = 0

# -- F9 = F3[i] and M2(F9), written out independently -----------------------

P = 3
F9 = [(x, y) for y in range(P) for x in range(P)]


def f_add(a, b):
    return ((a[0] + b[0]) % P, (a[1] + b[1]) % P)


def f_mul(a, b):
    return ((a[0] * b[0] - a[1] * b[1]) % P, (a[0] * b[1] + a[1] * b[0]) % P)


def f_conj(a):
    return (a[0], (-a[1]) % P)


def f_inv(a):
    n = (a[0] * a[0] + a[1] * a[1]) % P          # a * conj(a), in F3
    ninv = pow(n, -1, P)
    c = f_conj(a)
    return (c[0] * ninv % P, c[1] * ninv % P)


ZERO, ONE = (0, 0), (1, 0)
IDENTITY = (ONE, ZERO, ZERO, ONE)


def m_mul(a, b):
    return (f_add(f_mul(a[0], b[0]), f_mul(a[1], b[2])),
            f_add(f_mul(a[0], b[1]), f_mul(a[1], b[3])),
            f_add(f_mul(a[2], b[0]), f_mul(a[3], b[2])),
            f_add(f_mul(a[2], b[1]), f_mul(a[3], b[3])))


def m_star(a):
    """Conjugate transpose: the involution of the form h = identity."""
    return (f_conj(a[0]), f_conj(a[2]), f_conj(a[1]), f_conj(a[3]))


def m_det(a):
    return f_add(f_mul(a[0], a[3]), f_mul((-a[1][0] % P, -a[1][1] % P), a[2]))


def m2_f9_units_and_unitaries():
    """Units and unitary elements (a * a^* = 1) of M2(F9), canonical order."""
    units, unitary = [], []
    for a0 in F9:
        for a1 in F9:
            for a2 in F9:
                for a3 in F9:
                    a = (a0, a1, a2, a3)
                    if m_det(a) == ZERO:
                        continue
                    units.append(a)
                    if m_mul(a, m_star(a)) == IDENTITY:
                        unitary.append(a)
    if len(units) != 5760 or len(unitary) != 96:
        raise RuntimeError(f"F9 oracle broken: {len(units)} units, "
                           f"{len(unitary)} unitary elements")
    return units, unitary


def literal(a) -> str:
    """Element literal of the CLI: row-major entries written x:y."""
    return ",".join(f"{x}:{y}" for x, y in a)


_ENTRY = re.compile(r"\[([^\[\]]*)\]")


def parse_shown(text: str):
    """Read back an M2(F9) element printed by the program, e.g.
    `[[[1 + 2*x], [0]]; [[0], [x]]]`, where x stands for i."""
    entries = []
    for body in _ENTRY.findall(text):
        x = y = 0
        for term in body.split(" + "):
            term = term.strip()
            if term == "x":
                y += 1
            elif term.endswith("*x"):
                y += int(term[:-2])
            else:
                x += int(term)
        entries.append((x % P, y % P))
    if len(entries) != 4:
        raise ValueError(f"not a 2x2 matrix over F9: {text!r}")
    return tuple(entries)


def np_witness_ok(a, w) -> bool:
    """w * w^* = 1 and det(w) = det(a) * conj(det(a))^-1."""
    if m_mul(w, m_star(w)) != IDENTITY:
        return False
    da = m_det(a)
    return m_det(w) == f_mul(da, f_inv(f_conj(da)))


def h90_ok(a, b) -> bool:
    """b is a unit and b * sigma(b)^-1 = a, i.e. b = a * b^*."""
    return m_det(b) != ZERO and m_mul(a, m_star(b)) == b


# -- configs ---------------------------------------------------------------

def _config(ring_mod, etale, algebra_lines, tasks):
    lines = ["[ring]", "kind = prime", f"modulus = {ring_mod}"]
    if etale is not None:
        lines += ["[etale]", f"s = {etale}"]
    lines += ["[algebra]"] + algebra_lines
    lines += ["[tasks]"] + [f"task = {t}" for t in tasks]
    return "\n".join(lines) + "\n"


def _hermitian_m2_f3i(h, tasks):
    return _config(3, -1, ["form = split", "degree = 2",
                           "involution = hermitian", f"h = {h}"], tasks)


SWEEP_FORMS = ("identity", "diag(1,-1)", "0,1;1,0")
SWEEP_TASKS = ("np-bruteforce", "groups which=U,SU", "h90-all")
# elements each sweeping task covers, fixed by its inputs: |M2(F9)| = 9^4
# per sweep, |M3(F3)| = 3^9; `groups which=U,SU` asks for two sweeps
M2F9, M3F3 = 9 ** 4, 3 ** 9
SWEEP_ELEMENTS = {"np-bruteforce": M2F9, "groups which=U,SU": 2 * M2F9,
                  "h90-all": M2F9, "groups which=SO": M3F3}

TRANSFER_QUAT_TASKS = ("survey d=0,1,2,3", "axioms which=norm-inclusion",
                       "axioms which=additivity d=1",
                       "functor kind=linear d=2 ext=etale algebra=no")
KNOWN_CRASH = ("axioms which=additivity", "TypeError")


def make(workload: str, seed: int):
    """The inputs of one run: a spec for the child process, plus the
    per-operation expectations the parent checks the results against.

    spec = {"configs": [text], "ops": [op]} where op is
    ["task", config index, task index] or ["lib", name, args...].
    expect[i] describes op i; it is never sent to the child.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep":
        blocks = [(_hermitian_m2_f3i(h, SWEEP_TASKS), list(SWEEP_TASKS))
                  for h in SWEEP_FORMS]
        blocks.append((_config(3, None, ["form = split", "degree = 3",
                                         "involution = transpose"],
                               ["groups which=SO"]), ["groups which=SO"]))
        order = list(range(len(blocks)))
        rng.shuffle(order)
        configs, ops, expect = [], [], []
        for b in order:
            text, tasks = blocks[b]
            configs.append(text)
            for j, t in enumerate(tasks):
                ops.append(["task", len(configs) - 1, j])
                expect.append({"kind": "sweep", "task": t, "canon": (b, j)})
        return {"configs": configs, "ops": ops}, expect

    if workload == "witness":
        units, unitary = m2_f9_units_and_unitaries()
        is_h90 = [rng.randrange(20) == 0 for _ in range(2000)]
        # distinct units, so the mix of witness routes varies little by seed
        picked = iter(rng.sample(units, is_h90.count(False)))
        tasks, expect = [], []
        for i, h90 in enumerate(is_h90):
            if h90:
                a = rng.choice(unitary)
                tasks.append(f"h90 a={literal(a)}")
                expect.append({"kind": "h90", "a": a, "canon": (0, i)})
            else:
                a = next(picked)
                tasks.append(f"np-witness a={literal(a)} "
                             f"seed={rng.randrange(1 << 16)}")
                expect.append({"kind": "np-witness", "a": a, "canon": (0, i)})
        spec = {"configs": [_hermitian_m2_f3i("identity", tasks)],
                "ops": [["task", 0, i] for i in range(len(tasks))]}
        return spec, expect

    if workload == "transfer":
        split = _hermitian_m2_f3i("identity", [KNOWN_CRASH[0]])
        quat = _config(3, -1, ["form = quaternion", "a = -1", "b = -1",
                               "involution = conjugation"], TRANSFER_QUAT_TASKS)
        items = [(["task", 0, j], {"kind": "transfer", "task": t, "canon": (0, j)})
                 for j, t in enumerate(TRANSFER_QUAT_TASKS)]
        items.append((["task", 1, 0], {"kind": "transfer", "task": KNOWN_CRASH[0],
                                       "canon": (1, 0)}))
        items.append((["lib", "transfer_on_functor", "unitary", "f9gen", 1],
                      {"kind": "lib", "task": "transfer unitary f9gen d=1",
                       "canon": (2, 0)}))
        rng.shuffle(items)
        return ({"configs": [quat, split], "ops": [op for op, _ in items]},
                [e for _, e in items])

    raise ValueError(f"unknown workload {workload!r}")


def elements_covered(expect) -> int:
    """Sum of |A| over the sweeps the tasks' inputs ask for."""
    return sum(SWEEP_ELEMENTS.get(e.get("task"), 0) for e in expect
               if e["kind"] == "sweep")
