"""Finite free extensions, norm pushes between functor values, additivity
over product extensions, and the symbolic polynomial base change."""

import itertools
import random

import pytest

from azunorm import presets
from azunorm.rings import (ClassificationError, ExactAlgebraError, NonUnitError,
                           PrimeField, ShapeError, Zmod)
from azunorm.transfers import (FiniteFreeExtension, PolyExtension,
                               additivity_check, base_change_check,
                               center_extension, etale_extension,
                               norm_inclusion_check, transfer_on_functor)


def test_identity_extension_norm_is_identity():
    f5 = PrimeField(5)
    e = FiniteFreeExtension.identity(f5)
    for k in range(5):
        p = f5.int_p(k)
        assert e.norm_p(e.embed_p(p)) == p


def test_quotient_extension_norm_of_scalars():
    f3 = PrimeField(3)
    e = FiniteFreeExtension.from_quotient(presets.f9())
    # N(r*1) = r^2 for a rank-2 extension
    for k in range(3):
        r = f3.int_p(k)
        assert e.norm_p(e.embed_p(r)) == f3.mul_p(r, r)


def test_etale_extension_matches_intrinsic_norm():
    for name in ("f3i", "f5split", "z9sqrt2"):
        c = presets.etale_preset(name)
        e = etale_extension(c)
        for p in c.elements_p():
            assert e.norm_p(p) == c.norm_p(p)


def test_extension_norm_multiplicative():
    c = presets.etale_preset("f7sqrt3")
    e = etale_extension(c)
    elems = list(c.elements_p())
    rng = random.Random(5)
    for _ in range(400):
        x = rng.choice(elems)
        y = rng.choice(elems)
        lhs = e.norm_p(c.mul_p(x, y))
        rhs = c.base.mul_p(e.norm_p(x), e.norm_p(y))
        assert lhs == rhs


def test_product_extension_norm_splits():
    f3 = PrimeField(3)
    e1 = FiniteFreeExtension.identity(f3)
    e2 = etale_extension(presets.etale_preset("f3i"))
    prod = FiniteFreeExtension.product(e1, e2)
    for u in prod.total.units():
        p1, p2 = u.payload
        assert prod.norm_p(u.payload) == f3.mul_p(e1.norm_p(p1), e2.norm_p(p2))


def test_embedding_check_rejects_a_non_multiplicative_map():
    f9 = presets.f9()
    zero = f9.base.zero_p()

    def first_coordinate(p):
        return (p[0], zero)
    with pytest.raises(ExactAlgebraError, match="not multiplicative"):
        FiniteFreeExtension(f9, f9, [f9.one_p()], first_coordinate,
                            coords_p=lambda p: (p,))


def test_embedding_check_sees_every_element():
    # wrong at one element only, so a check on a sample of pairs can miss it
    f503 = PrimeField(503)
    bad = f503.int_p(252)

    def embed(p):
        return f503.int_p(253) if p == bad else p
    with pytest.raises(ExactAlgebraError, match="embedding is not"):
        FiniteFreeExtension(f503, f503, [f503.one_p()], embed,
                            coords_p=lambda p: (p,))


def test_coordinate_table_matches_the_per_combo_sum():
    c = presets.etale_preset("f9gen")
    CT, ext_c = center_extension(c, etale_extension(c))
    table = {}
    for combo in itertools.product(list(c.elements_p()), repeat=ext_c.rank):
        acc = CT.zero_p()
        for x, b in zip(combo, ext_c.basis):
            acc = CT.add_p(acc, CT.mul_p(ext_c.embed_p(x), b))
        table[acc] = combo
    assert len(table) == CT.size == 6561
    assert list(ext_c._table.items()) == list(table.items())


def test_norm_inclusion_frozen_counts():
    expected = {
        "m2f3-f9": (8, 2, 2),
        "m2f3-split": (4, 2, 2),
        "m2f5-f25": (24, 4, 4),
    }
    for name, counts in expected.items():
        _, alg, ext = (name,) + presets.norm_pair(name)
        rep = norm_inclusion_check(alg, ext)
        assert rep.included and rep.equal
        assert (rep.extended_norms, rep.mapped_size, rep.base_norms) == counts
        assert rep.counterexamples == []


def test_norm_inclusion_base_mismatch_rejected():
    _, alg, _ = ("x",) + presets.norm_pair("m2f3-f9")
    wrong = FiniteFreeExtension.identity(PrimeField(5))
    with pytest.raises(ShapeError):
        norm_inclusion_check(alg, wrong)


def test_linear_transfer_no_algebra():
    c = presets.etale_preset("f3i")
    rep = transfer_on_functor("linear", None, etale_extension(c), 2)
    assert rep.well_defined and rep.hom_ok
    assert (rep.source_order, rep.target_order) == (2, 2)
    # the nontrivial source class maps to the nontrivial target class
    assert sorted(rep.mapping.values()) == [1, 2]


def test_linear_transfer_with_matrix_algebra():
    name, alg, ext = ("m2f3-f9",) + presets.norm_pair("m2f3-f9")
    rep = transfer_on_functor("linear", alg, ext, 1)
    assert rep.well_defined and rep.hom_ok
    assert rep.bad_pairs == []


def test_unitary_transfer_on_center():
    c = presets.etale_preset("f3i")
    rep = transfer_on_functor("unitary", c, etale_extension(c), 2)
    assert rep.well_defined and rep.hom_ok and rep.sigma_compat
    assert (rep.source_order, rep.target_order) == (2, 2)


def test_unitary_transfer_rejects_first_kind():
    from azunorm.algebras import (AlgebraWithInvolution, MatrixAlgebra,
                                  transpose_involution)
    f3 = PrimeField(3)
    a = MatrixAlgebra(f3, 2)
    aw = AlgebraWithInvolution(a, transpose_involution(a))
    with pytest.raises(ClassificationError):
        transfer_on_functor("unitary", aw, etale_extension(presets.etale_preset("f3i")), 2)


def test_unknown_functor_kind_rejected():
    with pytest.raises(ClassificationError):
        transfer_on_functor("projective", None,
                            etale_extension(presets.etale_preset("f3i")), 1)


def test_additivity_all_preset_cases():
    expected = {"powers-f3": 16, "powers-f5": 96, "m2-f3": 16, "m2-f5": 96}
    for name in presets.ADDITIVITY_NAMES:
        alg, e1, e2, d = presets.additivity_case(name)
        rep = additivity_check(alg, e1, e2, d)
        assert rep.ok, name
        assert rep.checked == expected[name]
        assert rep.failures == []


def test_poly_extension_norm_of_x_frozen():
    f5 = PrimeField(5)
    for name in presets.POLY_EXTENSION_NAMES:
        ext = presets.poly_extension_preset(name)
        assert ext.base == f5
        x = ext.element([[0], [1]])
        # both moduli have constant term -1, so N(x) = -1 identically in t
        assert ext.norm_p(x) == (f5.int_p(4),)


def test_poly_extension_norm_multiplicative_symbolic():
    ext = presets.poly_extension_preset("x2-tx-1")
    rng = random.Random(9)
    rt = ext.rt
    for _ in range(60):
        a = ext.sample(rng)
        b = ext.sample(rng)
        lhs = ext.norm_p(ext.total.mul_p(a, b))
        rhs = rt.mul_p(ext.norm_p(a), ext.norm_p(b))
        assert lhs == rhs


def test_base_change_check_passes():
    for name in presets.POLY_EXTENSION_NAMES:
        ext = presets.poly_extension_preset(name)
        rep = base_change_check(ext, samples=200, seed=3)
        assert rep.ok
        assert rep.samples == 200 and rep.eval_matches == 200
        assert rep.unit_samples + rep.nonunit_samples == 200
        assert rep.failures == []
    # seed 3 draws one sample with a constant unit norm on the second preset,
    # so the inverse-reconstruction branch is exercised
    rep = base_change_check(presets.poly_extension_preset("x2-tx-1"),
                            samples=200, seed=3)
    assert rep.unit_samples == 1


@pytest.mark.parametrize("samples", [0, -3])
def test_base_change_needs_a_sample(samples):
    with pytest.raises(ExactAlgebraError, match="samples must be at least 1"):
        base_change_check(presets.poly_extension_preset("x2-1"), samples=samples, seed=0)


def test_unit_norm_element_inverts():
    ext = presets.poly_extension_preset("x2-tx-1")
    rt = ext.rt
    two = ext.element([[2], []])
    n = ext.norm_p(two)
    assert rt.is_unit_p(n) and rt.t_degree(n) == 0
    inv = ext.total.inv_p(two)
    assert ext.total.mul_p(two, inv) == ext.total.one_p()


def test_base_change_requires_reduced_base():
    from azunorm.rings import ExactAlgebraError
    # a base with nilpotents is rejected before any sampling can happen
    with pytest.raises(ExactAlgebraError):
        PolyExtension(Zmod(9), [[-1], [], [1]])


def test_poly_extension_reduction_consistency():
    ext = presets.poly_extension_preset("x2-tx-1")
    rng = random.Random(21)
    rt = ext.rt
    f5 = ext.base
    for at in (0, 1, 2):
        ring = ext.reduced_ring(at)
        for _ in range(40):
            s = ext.sample(rng)
            n = ext.norm_p(s)
            evaluated = rt.eval_p(n, f5.int_p(at))
            reduced = ring.mult_matrix(ext.reduce_p(s, at)).det().payload
            assert evaluated == reduced
