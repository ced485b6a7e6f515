"""Norm-compatibility witnesses: symmetric/antisymmetric splitting, the
invertible-corner domain, direct and factored witnesses, and the
brute-force set comparison they are checked against."""

import pytest

from azunorm import norm_principle, presets
from azunorm.norm_principle import (NPWitness, PreconditionError, PlusMinusSplit,
                                    direct_np_witness, np_bruteforce_check,
                                    np_witness, open_set_member, pm_split)
from azunorm.rings import ClassificationError


def m2_split():
    aw = presets.unitary_m2_f3i("identity")
    return aw, pm_split(aw)


def scalar(alg, n):
    return alg.elem(alg.scale_base_p(alg.one_p(), alg.base.int_p(n)))


def test_split_shape_matrix_case():
    aw, sp = m2_split()
    alg = aw.algebra
    assert sp.m == 4
    assert sp.basis_plus[0] == alg.one_p()
    assert len(sp.basis_plus) == len(sp.basis_minus) == 4
    for p in sp.basis_plus:
        assert aw.sigma_p(p) == p
    for p in sp.basis_minus:
        assert aw.sigma_p(p) == alg.neg_p(p)


def test_split_needs_unitary_involution():
    from azunorm.algebras import (AlgebraWithInvolution, MatrixAlgebra,
                                  transpose_involution)
    from azunorm.rings import PrimeField
    a = MatrixAlgebra(PrimeField(3), 2)
    aw = AlgebraWithInvolution(a, transpose_involution(a))
    with pytest.raises(ClassificationError):
        pm_split(aw)


def test_membership_frozen():
    aw, sp = m2_split()
    alg = aw.algebra
    assert open_set_member(sp, alg.elem(sp.sqrt_b))
    assert not open_set_member(sp, alg.elem(alg.one_p()))


def test_direct_witness_on_root_scalar():
    aw, sp = m2_split()
    alg = aw.algebra
    w = direct_np_witness(sp, alg.elem(sp.sqrt_b))
    assert w.route == "direct" and w.verified
    assert w.w.payload == scalar(alg, 2).payload


def test_direct_witness_outside_domain_rejected():
    aw, sp = m2_split()
    alg = aw.algebra
    with pytest.raises(PreconditionError):
        direct_np_witness(sp, alg.elem(alg.one_p()))


def test_factored_witness_on_identity():
    aw, sp = m2_split()
    alg = aw.algebra
    w = np_witness(sp, alg.elem(alg.one_p()))
    assert w.route == "factored" and w.verified
    assert w.w.payload == alg.one_p()
    assert w.seed is None            # anchored candidates sufficed
    w1, w2 = w.parts
    assert w1.route == w2.route == "direct"
    assert (w1.w * w2.w).payload == w.w.payload


def test_witness_needs_a_unit():
    aw, sp = m2_split()
    alg = aw.algebra
    with pytest.raises(PreconditionError):
        np_witness(sp, alg.elem(alg.zero_p()))


def test_witness_identities_replay():
    aw, sp = m2_split()
    alg = aw.algebra
    C = aw.center_ring
    checked = 0
    for idx in range(0, alg.size, 97):
        p = alg.decode(idx)
        if not alg.is_unit_p(p):
            continue
        w = np_witness(sp, alg.elem(p), seed=11)
        assert w.verified
        wp = w.w.payload
        assert alg.mul_p(wp, aw.sigma_p(wp)) == alg.one_p()
        na = aw.nrd_p(p)
        want = C.mul_p(na, C.inv_p(C.sigma_p(na)))
        assert aw.nrd_p(wp) == want
        checked += 1
    assert checked >= 40


def test_degree_one_split_and_witnesses():
    d1 = presets.degree_one_unitary("f3i")
    alg = d1.algebra
    sp = pm_split(d1)
    assert sp.m == 1
    root = alg.elem(sp.sqrt_b)
    one = alg.elem(alg.one_p())
    assert open_set_member(sp, root) and open_set_member(sp, one)
    w_root = np_witness(sp, root)
    w_one = np_witness(sp, one)
    assert w_root.route == w_one.route == "direct"
    assert w_root.verified and w_one.verified
    assert w_root.w.payload == scalar(alg, 2).payload
    assert w_one.w.payload == alg.one_p()


def test_bruteforce_m2_f3i():
    rep = np_bruteforce_check(presets.unitary_m2_f3i("identity"))
    assert rep.ok and rep.equal
    assert rep.lhs_size == rep.rhs_size == 4
    assert rep.unitary_count == 96
    assert rep.lhs == rep.rhs


def test_bruteforce_degree_one_frozen():
    rep = np_bruteforce_check(presets.degree_one_unitary("f3i"))
    assert rep.ok
    assert (rep.lhs_size, rep.rhs_size) == (4, 4)
    assert (rep.unit_count, rep.unitary_count) == (8, 4)


def test_bruteforce_first_kind_rejected():
    from azunorm.algebras import (AlgebraWithInvolution, MatrixAlgebra,
                                  transpose_involution)
    from azunorm.rings import PrimeField
    a = MatrixAlgebra(PrimeField(3), 2)
    aw = AlgebraWithInvolution(a, transpose_involution(a))
    with pytest.raises(ClassificationError):
        np_bruteforce_check(aw)


def test_anchored_candidates_land_in_domain():
    aw, sp = m2_split()
    alg = aw.algebra
    count = 0
    for v, vinv in sp.anchored_candidates():
        assert alg.mul_p(v, vinv) == alg.one_p()
        assert open_set_member(sp, alg.elem(v))
        count += 1
        if count >= 20:
            break
    assert count == 20


def test_direct_route_computes_omega_once(monkeypatch):
    aw, sp = m2_split()
    alg = aw.algebra
    a = next(alg.elem(p) for p in alg.elements_p()
             if alg.is_unit_p(p) and open_set_member(sp, alg.elem(p)))
    real = norm_principle._omega
    calls = []

    def counted(split, payload):
        calls.append(payload)
        return real(split, payload)

    monkeypatch.setattr(norm_principle, "_omega", counted)
    w = np_witness(sp, a)
    assert w.route == "direct" and w.verified
    assert calls == [a.payload]
