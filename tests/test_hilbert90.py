"""Constructive norm-one factorization: for every unitary a, an explicit
unit b with b * sigma(b)^{-1} = a, replayed by direct multiplication."""

import pytest
from order_oracles import unitary_order

from azunorm import presets
from azunorm.algebras import AlgebraWithInvolution, MatrixAlgebra, hermitian_involution
from azunorm.groups import enumerate_unitary
from azunorm.hilbert90 import _descend, find_lambda, h90_witness, inclusion_check
from azunorm.rings import ClassificationError, ExactAlgebraError, RingMatrix


def diag_generators():
    aw = presets.unitary_m2_f3i("identity")
    c = aw.center_ring
    i = c.sqrt_gen
    m = RingMatrix.from_rows(c, [[i, c.zero], [c.zero, -i]])
    return aw, aw.algebra.elem(m.cells)


def test_lambda_choice_frozen():
    aw, a = diag_generators()
    alg = aw.algebra
    c = aw.center_ring
    assert find_lambda(aw, a) == c.one
    assert find_lambda(aw, alg.elem(alg.one_p())) == c.one
    assert find_lambda(aw, alg.elem(alg.neg_p(alg.one_p()))) == -c.one


def test_witness_for_identity():
    aw, _ = diag_generators()
    alg = aw.algebra
    w = h90_witness(aw, alg.elem(alg.one_p()))
    assert w.verified
    assert w.c == aw.center_ring.from_int(2)
    # with c = 2 the combination c + sigma(c)*1 collapses to the identity
    assert w.b.payload == alg.one_p()


def test_witness_for_minus_identity():
    aw, _ = diag_generators()
    alg = aw.algebra
    c = aw.center_ring
    w = h90_witness(aw, alg.elem(alg.neg_p(alg.one_p())))
    assert w.verified
    assert w.c == c.sqrt_gen
    two_sqrt = alg.scale_base_p(aw.embed_center(c.sqrt_gen).payload, c.base.int_p(2))
    assert w.b.payload == two_sqrt


def test_witness_for_diagonal_generator():
    aw, a = diag_generators()
    alg = aw.algebra
    w = h90_witness(aw, a)
    assert w.verified
    assert w.lam == aw.center_ring.one
    assert w.c == aw.center_ring.from_int(2)
    # b = 2*(1 + a), a unit multiple of the naive combination 1 + a
    naive = alg.add_p(alg.one_p(), a.payload)
    assert w.b.payload == alg.scale_base_p(naive, aw.center_ring.base.int_p(2))
    # replay the factorization
    bp = w.b.payload
    assert alg.mul_p(bp, alg.inv_p(aw.sigma_p(bp))) == a.payload


def test_witness_replay_over_all_forms():
    for h in presets.H_NAMES:
        aw = presets.unitary_m2_f3i(h)
        alg = aw.algebra
        for g in enumerate_unitary(aw)[:24]:
            w = h90_witness(aw, g)
            assert w.verified
            bp = w.b.payload
            assert alg.is_unit_p(bp)
            assert alg.mul_p(bp, alg.inv_p(aw.sigma_p(bp))) == g.payload


def test_descent_check_rejects_what_is_no_witness():
    # the descent is checked as a * sigma(b) = b with b a unit
    aw, a = diag_generators()
    alg = aw.algebra
    c = aw.center_ring
    assert _descend(aw, a, c.one).verified
    # 1 + sqrt(-1) has norm 2: a unit that is not norm-one, and its b is a unit
    w = _descend(aw, aw.embed_center(c.one + c.sqrt_gen), c.one)
    assert w.b.is_unit and not w.verified
    # -1 is norm-one, but -lambda = 1 is its eigenvalue: b = 2 - 2 = 0
    w = _descend(aw, alg.elem(alg.neg_p(alg.one_p())), c.one)
    assert w.b.payload == alg.zero_p() and not w.verified


def test_inclusion_check_full_unitary_group():
    rep = inclusion_check(presets.unitary_m2_f3i("identity"))
    assert rep.ok
    assert rep.total == unitary_order(2, 3) == 96
    assert rep.verified == 96
    assert rep.failures == []


def test_inclusion_check_fails_on_the_split_center():
    c = presets.etale_preset("f3split")
    a = MatrixAlgebra(c, 2)
    rep = inclusion_check(AlgebraWithInvolution(
        a, hermitian_involution(a, RingMatrix.identity(c, 2))))
    assert not rep.ok
    assert (rep.total, rep.verified) == (48, 36)
    assert [msg for _, msg in rep.failures] == 12 * [
        "search exhausted: no circle scalar gives a unit characteristic value"]


def test_inclusion_check_degree_one():
    for name in presets.ETALE_NAMES:
        rep = inclusion_check(presets.degree_one_unitary(name))
        assert rep.ok and rep.total == rep.verified
        assert rep.total == len(presets.etale_preset(name).unitary_scalars())


def test_twisted_units_cover_unitary_group():
    # every unitary element arises as b*sigma(b)^{-1} for some unit b;
    # in the commutative degree-one cases the two sets coincide exactly
    for case, exact in ((presets.unitary_m2_f3i("identity"), False),
                        (presets.degree_one_unitary("f5sqrt2"), True),
                        (presets.degree_one_unitary("z9sqrt2"), True)):
        alg = case.algebra
        twisted = set()
        for p in alg.elements_p():
            if alg.is_unit_p(p):
                twisted.add(alg.mul_p(p, alg.inv_p(case.sigma_p(p))))
        unitary = {g.payload for g in enumerate_unitary(case)}
        assert unitary <= twisted
        if exact:
            assert twisted == unitary


def test_non_unitary_input_rejected():
    aw, _ = diag_generators()
    alg = aw.algebra
    c = aw.center_ring
    # 1 + sqrt(-1) has norm (1+i)(1-i) = 2, so its scalar matrix is not unitary
    bad = aw.embed_center(c.one + c.sqrt_gen)
    assert alg.mul_p(bad.payload, aw.sigma_p(bad.payload)) != alg.one_p()
    with pytest.raises(ExactAlgebraError):
        h90_witness(aw, bad)


def test_witness_checks_its_input_once(monkeypatch):
    aw, a = diag_generators()
    calls = []
    is_unitary_elem = AlgebraWithInvolution.is_unitary_elem

    def counted(self, e):
        calls.append(e)
        return is_unitary_elem(self, e)
    monkeypatch.setattr(AlgebraWithInvolution, "is_unitary_elem", counted)
    assert h90_witness(aw, a).verified
    assert calls == [a]
    with pytest.raises(ClassificationError, match="^element is not norm-one unitary$"):
        h90_witness(aw, aw.embed_center(aw.center_ring.one + aw.center_ring.sqrt_gen))
    assert len(calls) == 2


@pytest.mark.parametrize("h", presets.H_NAMES)
def test_inclusion_check_tests_each_unitary_once(monkeypatch, h):
    # enumerate_unitary tests each element; the witnesses do not test it again
    aw = presets.unitary_m2_f3i(h)
    calls = []
    is_unitary_p = AlgebraWithInvolution.is_unitary_p

    def counted(self, p):
        calls.append(p)
        return is_unitary_p(self, p)
    monkeypatch.setattr(AlgebraWithInvolution, "is_unitary_p", counted)
    rep = inclusion_check(aw)
    assert rep.ok and rep.total == rep.verified == 96
    assert len(calls) == len(set(calls)) == 96


def test_public_entry_points_still_check_their_input():
    aw, _ = diag_generators()
    bad = aw.embed_center(aw.center_ring.one + aw.center_ring.sqrt_gen)
    for entry in (find_lambda, h90_witness):
        with pytest.raises(ClassificationError, match="^element is not norm-one unitary$"):
            entry(aw, bad)


def test_first_kind_involution_rejected():
    from azunorm.algebras import AlgebraWithInvolution, transpose_involution
    from azunorm.rings import PrimeField
    a = MatrixAlgebra(PrimeField(3), 2)
    aw = AlgebraWithInvolution(a, transpose_involution(a))
    with pytest.raises(ExactAlgebraError):
        inclusion_check(aw)
