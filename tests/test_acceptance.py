"""Acceptance suite: every shipped guarantee, exercised end to end.

Each test covers one numbered guarantee and prints a single summary line;
run with -s (or read captured output) to see the counts.  Everything here
is exact arithmetic: no tolerances, no sampling shortcuts on the exhaustive
checks.
"""

import json
import time

from order_oracles import sl_order, special_unitary_order, unitary_order

from azunorm import cli, presets
from azunorm.algebras import (AlgebraWithInvolution, MatrixAlgebra,
                              adjoint_involution, azumaya_verify, center_data,
                              hermitian_involution, reduced_char_poly,
                              to_table, transpose_involution)
from azunorm.groups import enumerate_special, enumerate_unitary
from azunorm.hilbert90 import inclusion_check
from azunorm.norm_principle import np_bruteforce_check, np_witness, pm_split
from azunorm.rings import PrimeField, RingMatrix
from azunorm.transfers import (base_change_check, additivity_check,
                               etale_extension, norm_inclusion_check,
                               transfer_on_functor)


def report(n, text):
    print(f"CRITERION {n}: PASS ({text})", flush=True)


def test_criterion_1_norm_identity_bruteforce():
    t0 = time.monotonic()
    cases = []
    for name in presets.ETALE_NAMES:
        c = presets.etale_preset(name)
        assert c.size <= 81
        cases.append((f"degree-1 {name}", presets.degree_one_unitary(name)))
    for h in presets.H_NAMES:
        cases.append((f"m2-f3i {h}", presets.unitary_m2_f3i(h)))
    cases.append(("m2-f5 split center", presets.unitary_m2_f5split()))
    counts = []
    for label, awi in cases:
        rep = np_bruteforce_check(awi)
        assert rep.equal, label
        assert rep.lhs == rep.rhs and rep.lhs_size == rep.rhs_size
        counts.append(f"{label}: {rep.lhs_size}")
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report(1, f"{len(cases)} algebra/involution cases, exact set equality, "
              f"{elapsed:.1f}s")


def test_criterion_2_norm_one_factorization_everywhere():
    rep = inclusion_check(presets.unitary_m2_f3i("identity"))
    assert rep.ok and rep.total == 96 and rep.verified == 96
    degree_one_total = 0
    for name in presets.ETALE_NAMES:
        c = presets.etale_preset(name)
        r1 = inclusion_check(presets.degree_one_unitary(name))
        assert r1.ok and r1.total == r1.verified
        assert r1.total == len(c.unitary_scalars())
        degree_one_total += r1.total
    report(2, f"96/96 matrix unitaries + {degree_one_total} degree-1 "
              f"unitaries across {len(presets.ETALE_NAMES)} centers, "
              f"all witnesses re-verified")


def test_criterion_3_witness_on_every_unit():
    awi = presets.unitary_m2_f3i("identity")
    alg = awi.algebra
    C = awi.center_ring
    split = pm_split(awi)
    one = alg.one_p()
    units = 0
    direct = 0
    for p in alg.elements_p():
        if not alg.is_unit_p(p):
            continue
        units += 1
        w = np_witness(split, alg.elem(p), seed=0)
        assert w.verified
        if w.route == "direct":
            direct += 1
        wp = w.w.payload
        assert alg.mul_p(wp, awi.sigma_p(wp)) == one
        na = awi.nrd_p(p)
        assert awi.nrd_p(wp) == C.mul_p(na, C.inv_p(C.sigma_p(na)))
    assert units == 5760
    frac = 100.0 * direct / units
    report(3, f"witness for all {units} units, both identities exact, "
              f"direct route {direct}/{units} = {frac:.1f}%")


def test_criterion_4_azumaya_and_char_poly_agreement():
    for p in (3, 5):
        for n in (2, 3):
            rep = azumaya_verify(presets.matrix_preset(p, n))
            assert rep.ok and rep.dimension == n ** 4
    for p in (5, 7):
        quat, _ = presets.quaternion_preset(p)
        assert azumaya_verify(quat).ok
    assert not azumaya_verify(presets.dual_numbers(3)).ok

    # the 2x2 algebra over the quadratic center, re-encoded as a rank-8
    # structure table; the induced center identification must carry every
    # reduced characteristic polynomial across exactly
    C = presets.etale_preset("f3i")
    AC = MatrixAlgebra(C, 2)
    table, fwd, back = to_table(AC)
    assert table.rank == 8 and table.size == 6561
    cd = center_data(table)
    z = C.zero_p()

    def phi(cp):
        scalar = (cp, z, z, cp)
        return cd.ccoords_p(fwd(scalar))[0]

    # phi is an isomorphism of the two centers
    seen = set()
    for a in C.elements_p():
        fa = phi(a)
        seen.add(fa)
        for b in C.elements_p():
            assert phi(C.add_p(a, b)) == cd.ring.add_p(phi(a), phi(b))
            assert phi(C.mul_p(a, b)) == cd.ring.mul_p(phi(a), phi(b))
    assert len(seen) == C.size

    checked = 0
    for idx in range(AC.size):
        pay = AC.decode(idx)
        split_poly = reduced_char_poly(AC, AC.elem(pay))
        table_poly = reduced_char_poly(table, table.elem(fwd(pay)))
        assert tuple(phi(c) for c in split_poly.coeffs) == table_poly.coeffs
        checked += 1
    assert checked == 6561
    report(4, "Azumaya verdicts on 7 algebras, char polys agree on all "
              "6561 table elements")


def test_criterion_5_involution_classification():
    f3, f5 = PrimeField(3), PrimeField(5)
    C = presets.etale_preset("f3i")
    for base, n in ((f3, 2), (f3, 3), (f5, 2), (f5, 3)):
        a = MatrixAlgebra(base, n)
        aw = AlgebraWithInvolution(a, transpose_involution(a))
        assert aw.kind == "orthogonal"
        assert aw.symmetric_rank == n * (n + 1) // 2
    for base in (f3, f5):
        a = MatrixAlgebra(base, 2)
        g = RingMatrix.from_rows(base, [[0, 1], [-1, 0]])
        aw = AlgebraWithInvolution(a, adjoint_involution(a, g))
        assert aw.kind == "symplectic"
        assert aw.symmetric_rank == 2 * 1 // 2
    for n in (2, 3):
        a = MatrixAlgebra(C, n)
        aw = AlgebraWithInvolution(a, hermitian_involution(a, RingMatrix.identity(C, n)))
        assert aw.kind == "unitary" and aw.degree == n
    report(5, "transpose/skew-adjoint/conjugate-adjoint classified on "
              "2x2 and 3x3 instances, fixed ranks n(n+1)/2 and n(n-1)/2")


def test_criterion_6_norm_inclusion_and_transfer():
    runs = 0
    for name, alg, ext in presets.norm_pairs():
        rep = norm_inclusion_check(alg, ext)
        assert rep.included, name
        t = transfer_on_functor("linear", alg, ext, 1)
        assert t.well_defined and t.hom_ok
        runs += 1
    for name in presets.ETALE_NAMES:
        c = presets.etale_preset(name)
        ext = etale_extension(c)
        for d in (0, 1, 2, 3):
            t = transfer_on_functor("linear", None, ext, d)
            assert t.well_defined and t.hom_ok
            runs += 1
        for d in (1, 2):
            t = transfer_on_functor("unitary", c, ext, d)
            assert t.well_defined and t.hom_ok and t.sigma_compat
            runs += 1
    report(6, f"norm inclusion on all 4 shipped extension pairs, "
              f"{runs} transfer maps all well-defined")


def test_criterion_7_additivity_and_base_change():
    for name in presets.ADDITIVITY_NAMES:
        alg, e1, e2, d = presets.additivity_case(name)
        rep = additivity_check(alg, e1, e2, d)
        assert rep.ok and rep.checked > 0 and not rep.failures
    total = 0
    for name in presets.POLY_EXTENSION_NAMES:
        ext = presets.poly_extension_preset(name)
        for seed in (3, 11):
            rep = base_change_check(ext, samples=200, seed=seed)
            assert rep.ok and rep.samples == 200
            assert rep.eval_matches == 200 and not rep.failures
            total += rep.samples
    report(7, f"additivity exact on 4 product extensions, base change on "
              f"{total} seeded samples over 2 polynomial extensions")


def test_criterion_8_group_orders_vs_independent_formulas():
    aw = presets.unitary_m2_f3i("identity")
    u = len(enumerate_unitary(aw))
    su = len(enumerate_special(aw, "SU"))
    sl = len(enumerate_special(presets.matrix_preset(3, 2), "SL"))
    assert u == unitary_order(2, 3) == 96
    assert su == special_unitary_order(2, 3) == 24
    assert sl == sl_order(2, 3) == 24
    report(8, f"enumerated orders {u}/{su}/{sl} match the closed-form "
              f"oracle script")


def test_criterion_9_survey_determinism(tmp_path):
    cfg = "[ring]\nkind = prime\nmodulus = 3\n\n[tasks]\ntask = survey\n"
    path = tmp_path / "survey.cfg"
    path.write_text(cfg)
    out1 = tmp_path / "r1.jsonl"
    out2 = tmp_path / "r2.jsonl"
    assert cli.main(["run", "--config", str(path), "--seed", "5",
                     "--report", str(out1)]) == 0
    assert cli.main(["run", "--config", str(path), "--seed", "5",
                     "--report", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2 and b1
    rec = json.loads(b1.decode().splitlines()[0])
    assert rec["status"] == "PASS"
    assert rec["metrics"]["f3i-linear-d0"] == 8
    report(9, f"repeated survey runs byte-identical "
              f"({len(b1)} bytes, {len(rec['metrics'])} metrics)")
