"""Checks on every output of a pass: frozen values, the independent F9
oracle, determinism across passes and a committed SHA-256 of the report.

A failed operation is one that raised, did not PASS, or gave an output that
does not match.  `axioms which=additivity` on the split M2(F3[i]) config is
known to raise a TypeError (groups.functor_linear multiplies a pair of
center payloads in the base ring); it is kept, counted as failed, and left
out of the hashed report bytes so that a fix does not change the hash.
"""

from __future__ import annotations

import hashlib
import json
import os

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ORACLES = os.path.join(ROOT, "tests", "order_oracles.py")


def _order_oracles():
    """The group-order formulas of tests/order_oracles.py, read, not imported
    (importing would write bytecode next to the tests)."""
    with open(ORACLES, encoding="utf-8") as fh:
        source = fh.read()
    namespace = {"__name__": "order_oracles"}
    exec(compile(source, ORACLES, "exec"), namespace)
    return namespace


_oracle = _order_oracles()
_U2 = _oracle["unitary_order"](2, 3)
_SU2 = _oracle["special_unitary_order"](2, 3)
# SO_3(q) is isomorphic to PGL_2(q), of order q(q^2 - 1) = |SL_2(q)| for odd q
_SO3 = _oracle["sl_order"](2, 3)

SWEEP_FROZEN = {
    "np-bruteforce": {"lhs": 4, "rhs": 4, "units": 5760, "unitary": _U2},
    "groups which=U,SU": {"U": _U2, "SU": _SU2},
    "h90-all": {"total": _U2, "verified": _U2},
    "groups which=SO": {"SO": _SO3},
}
if (_U2, _SU2, _SO3) != (96, 24, 24):
    raise RuntimeError("order oracles disagree with the frozen sweep values")

_SURVEY = {
    "f3i": (8, 1, 2, 1, 4, 1, 2, 1), "f3split": (4, 1, 4, 1, 2, 1, 2, 1),
    "f5sqrt2": (24, 1, 2, 3, 6, 1, 2, 3), "f5split": (16, 1, 4, 1, 4, 1, 2, 1),
    "f7sqrt3": (48, 1, 2, 3, 8, 1, 2, 1), "z9sqrt2": (72, 1, 2, 9, 12, 1, 2, 3),
    "f9gen": (80, 1, 2, 1, 10, 1, 2, 1),
}
TRANSFER_FROZEN = {
    "survey d=0,1,2,3": (
        {f"{c}-{kind}-d{d}": orders[4 * k + d] for c, orders in _SURVEY.items()
         for k, kind in enumerate(("linear", "unitary")) for d in range(4)},
        "family = f3i,f3split,f5sqrt2,f5split,f7sqrt3,z9sqrt2,f9gen"),
    "axioms which=norm-inclusion": (
        {"base": 2, "equal": 1, "extended": 8, "included": 1, "mapped": 2}, ""),
    "axioms which=additivity d=1": ({"checked": 16, "failures": 0}, ""),
    "functor kind=linear d=2 ext=etale algebra=no": ({"order": 2},
                                                     "divisors = [2]"),
    # the known crash; once fixed, every unit of F3 x F9 (2 * 8) must check
    "axioms which=additivity": ({"checked": 16, "failures": 0}, ""),
    "transfer unitary f9gen d=1": {"well_defined": True, "hom_ok": True,
                                   "sigma_compat": True, "source_order": 1,
                                   "target_order": 1, "mapping": 1},
}

# SHA-256 of the report bytes in canonical operation order; the sweep and
# transfer reports do not depend on the seed, the witness one does
REPORT_SHA256 = {
    "sweep": "03bd7ce650ca0638bb0ea0eb9ef24ab681b554ae3ec2d9f9856dbb31cddd93a3",
    "transfer": "df9471d31eb81520be709935aee0c27a92011c6a940a79202985a195325a39d9",
    ("witness", workloads.DEFAULT_SEED):
        "2d7e11aca43ab2d3cc268f5ae4c6260d627eba9f2bc6e4e3693b72191b0b863d",
}


def is_known_crash(e, out):
    return (e.get("task") == workloads.KNOWN_CRASH[0] and out["error"] is not None
            and out["error"].startswith(workloads.KNOWN_CRASH[1] + ":"))


def check_op(e, out):
    """None when the operation's output is right, else what is wrong."""
    if out["error"] is not None:
        return f"raised {out['error']}"
    if e["kind"] == "lib":
        want = TRANSFER_FROZEN[e["task"]]
        return None if out["lib"] == want else f"got {out['lib']}, want {want}"
    if len(out["records"]) != 1:
        return f"{len(out['records'])} records"
    rec = json.loads(out["records"][0])
    if rec["status"] != "PASS":
        return f"status {rec['status']}: {rec['detail']}"
    m = rec["metrics"]
    if e["kind"] == "sweep":
        want = SWEEP_FROZEN[e["task"]]
        return None if m == want else f"got {m}, want {want}"
    if e["kind"] == "transfer":
        want, detail = TRANSFER_FROZEN[e["task"]]
        if m != want or rec["detail"] != detail:
            return f"got {m} {rec['detail']!r}, want {want} {detail!r}"
        return None
    if e["kind"] == "np-witness":
        route = rec["witness"]["route"]
        if m != {"verified": 1, "direct": int(route == "direct")}:
            return f"metrics {m} for route {route}"
        w = workloads.parse_shown(rec["witness"]["w"])
        return None if workloads.np_witness_ok(e["a"], w) else "witness fails the F9 oracle"
    if e["kind"] == "h90":
        if m != {"verified": 1}:
            return f"metrics {m}"
        b = workloads.parse_shown(rec["witness"]["b"])
        return None if workloads.h90_ok(e["a"], b) else "witness fails the F9 oracle"
    raise ValueError(f"unknown operation kind {e['kind']!r}")


def report_digest(expect, ops) -> str:
    """SHA-256 of the report a CLI run of the same tasks would write, in
    canonical operation order, without the known crash."""
    lines = []
    for e, out in sorted(zip(expect, ops), key=lambda eo: eo[0]["canon"]):
        if e.get("task") != workloads.KNOWN_CRASH[0]:
            lines.extend(out["records"])
            if "lib" in out:
                lines.append(json.dumps(out["lib"], sort_keys=True))
    data = "".join(line + "\n" for line in lines).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def committed_sha(workload, seed):
    if workload == "witness":
        return REPORT_SHA256.get(("witness", seed))
    return REPORT_SHA256.get(workload)
