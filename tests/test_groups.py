"""Unitary and norm-one groups by enumeration, reduced-norm images, and
finite abelian quotients with their invariant factors."""

import random

import pytest
from hypothesis import given, settings, strategies as st
from order_oracles import gl_order, sl_order, special_unitary_order, unitary_order

from azunorm import groups, presets
from azunorm.algebras import (AlgebraElem, AlgebraWithInvolution, MatrixAlgebra,
                              TableAlgebra, adjoint_involution, extend_awi,
                              hermitian_involution, nrd, scalar_extension,
                              transpose_involution)
from azunorm.groups import (FiniteAbelianPresentation, enumerate_special,
                            enumerate_unitary, functor_linear, functor_unitary,
                            nrd_image, nrd_unit_image)
from azunorm.rings import ExactAlgebraError, PrimeField, ProductRing, RingMatrix, Zmod
from azunorm.transfers import FiniteFreeExtension, etale_extension

F3 = PrimeField(3)


def test_unitary_group_order_matches_formula():
    aw = presets.unitary_m2_f3i("identity")
    u = enumerate_unitary(aw)
    su = enumerate_special(aw, "SU")
    assert len(u) == unitary_order(2, 3) == 96
    assert len(su) == special_unitary_order(2, 3) == 24


def test_unitary_order_is_form_independent():
    for h in presets.H_NAMES:
        aw = presets.unitary_m2_f3i(h)
        assert len(enumerate_unitary(aw)) == unitary_order(2, 3)


def test_special_linear_order_matches_formula():
    sl = enumerate_special(presets.matrix_preset(3, 2), "SL")
    assert len(sl) == sl_order(2, 3) == 24


def test_degree_one_unitary_groups_are_the_circles():
    for name in presets.ETALE_NAMES:
        aw = presets.degree_one_unitary(name)
        c = aw.center_ring
        assert len(enumerate_unitary(aw)) == len(c.unitary_scalars())
        assert len(enumerate_special(aw, "SU")) == 1


def test_unitary_members_replay():
    aw = presets.unitary_m2_f3i("hyperbolic")
    alg = aw.algebra
    one = alg.one_p()
    for g in enumerate_unitary(aw):
        assert alg.mul_p(g.payload, aw.sigma_p(g.payload)) == one


def test_norm_image_of_unitary_group():
    aw = presets.unitary_m2_f3i("identity")
    u = enumerate_unitary(aw)
    img = nrd_image(u, aw)
    circle = set(aw.center_ring.unitary_scalars())
    assert img == circle
    assert len(img) == 4


def test_first_isomorphism_count():
    # |U| = |SU| * |nrd(U)| for every shipped unitary case
    cases = [presets.unitary_m2_f3i(h) for h in presets.H_NAMES]
    cases += [presets.degree_one_unitary(n) for n in presets.ETALE_NAMES]
    for aw in cases:
        u = enumerate_unitary(aw)
        su = enumerate_special(aw, "SU")
        img = nrd_image(u, aw)
        assert len(u) == len(su) * len(img)


def test_norm_image_rejects_non_closed_sets():
    aw = presets.unitary_m2_f3i("identity")
    i = aw.embed_center(aw.center_ring.sqrt_gen)
    with pytest.raises(ExactAlgebraError):
        nrd_image([i], aw)


def test_unit_norm_image_split_and_table():
    m2 = presets.matrix_preset(3, 2)
    assert nrd_unit_image(m2) == {F3.int_p(1), F3.int_p(2)}
    table, _ = presets.quaternion_preset(5)
    f5 = table.base
    assert nrd_unit_image(table) == {f5.int_p(k) for k in (1, 2, 3, 4)}


def test_orthogonal_group_replay():
    a = MatrixAlgebra(F3, 2)
    aw = AlgebraWithInvolution(a, transpose_involution(a))
    so = enumerate_special(aw, "SO")
    one = a.one_p()
    onec = aw.center_ring.one_p()
    for g in so:
        assert a.mul_p(g.payload, aw.sigma_p(g.payload)) == one
        assert aw.nrd_p(g.payload) == onec
    # closure under multiplication
    members = {g.payload for g in so}
    for g in so:
        for h in so:
            assert a.mul_p(g.payload, h.payload) in members


# -- frames against the sweep ----------------------------------------------------

def _symplectic_m2_f3():
    a = MatrixAlgebra(F3, 2)
    g = RingMatrix.from_rows(F3, [[F3.zero, F3.one], [-F3.one, F3.zero]])
    return AlgebraWithInvolution(a, adjoint_involution(a, g))


def _transpose_m3_f3():
    a = MatrixAlgebra(F3, 3)
    return AlgebraWithInvolution(a, transpose_involution(a))


FRAME_CASES = ([(f"m2-f3i-{h}", lambda h=h: presets.unitary_m2_f3i(h))
                for h in presets.H_NAMES]
               + [("m3-f3-transpose", _transpose_m3_f3),
                  ("m2-f3-symplectic", _symplectic_m2_f3)]
               + [(f"deg1-{n}", lambda n=n: presets.degree_one_unitary(n))
                  for n in presets.ETALE_NAMES])


def _swept_unitary(aw):
    alg = aw.algebra
    one = alg.one_p()
    return [p for p in alg.elements_p() if alg.mul_p(p, aw.sigma_p(p)) == one]


@pytest.mark.parametrize("name,build", FRAME_CASES, ids=[n for n, _ in FRAME_CASES])
def test_frames_equal_the_sweep(name, build):
    aw = build()
    assert aw.involution.form is not None
    swept = _swept_unitary(aw)
    assert [u.payload for u in enumerate_unitary(aw)] == swept
    onec = aw.center_ring.one_p()
    special = [p for p in swept if aw.nrd_p(p) == onec]
    which = "SU" if aw.kind == "unitary" else "SO"
    assert [u.payload for u in enumerate_special(aw, which)] == special


SPLIT_FORMS = {"identity": [[1, 0], [0, 1]], "diag": [[1, 0], [0, -1]],
               "hyperbolic": [[0, 1], [1, 0]]}


@pytest.mark.parametrize("h", sorted(SPLIT_FORMS))
def test_frames_equal_the_sweep_over_a_split_center(h):
    c = presets.etale_preset("f3split")
    a = MatrixAlgebra(c, 2)
    aw = AlgebraWithInvolution(
        a, hermitian_involution(a, RingMatrix.from_rows(c, SPLIT_FORMS[h])))
    swept = _swept_unitary(aw)
    assert [u.payload for u in enumerate_unitary(aw)] == swept
    assert len(swept) == gl_order(2, 3) == 48
    onec = c.one_p()
    special = [p for p in swept if aw.nrd_p(p) == onec]
    assert [u.payload for u in enumerate_special(aw, "SU")] == special
    assert len(special) == sl_order(2, 3) == 24


def test_frame_orders_match_the_oracles():
    assert len(enumerate_unitary(_symplectic_m2_f3())) == sl_order(2, 3)
    # frames only: the sweep of M2(f5split) visits 390,625 elements
    assert len(enumerate_unitary(presets.unitary_m2_f5split())) == gl_order(2, 5) == 480


def test_frames_visit_no_algebra_elements(monkeypatch):
    c = presets.etale_preset("f3i")
    a = MatrixAlgebra(c, 2)
    aw = AlgebraWithInvolution(a, hermitian_involution(a, RingMatrix.identity(c, 2)))

    def no_sweep():
        raise AssertionError("swept the algebra")
    monkeypatch.setattr(a, "elements_p", no_sweep)
    assert len(enumerate_unitary(aw)) == unitary_order(2, 3)
    assert len(enumerate_special(aw, "SU")) == special_unitary_order(2, 3)


def test_table_involution_keeps_the_sweep(monkeypatch):
    table, aw = presets.quaternion_preset(3)
    assert aw.involution.form is None
    swept = _swept_unitary(aw)

    def no_frames(*args):
        raise AssertionError("frame search on a table involution")
    monkeypatch.setattr(groups, "_frames_p", no_frames)
    visits = []
    sweep = table.elements_p

    def counted():
        for p in sweep():
            visits.append(p)
            yield p
    monkeypatch.setattr(table, "elements_p", counted)
    assert [u.payload for u in enumerate_unitary(aw)] == swept
    assert len(visits) == table.size


def test_frames_are_checked_through_the_involution_matrix():
    # a recorded form that disagrees with the matrix: the symplectic frames
    # are not orthogonal, and the re-check through sigma must say so
    a = MatrixAlgebra(F3, 2)
    inv = transpose_involution(a)
    inv.form = _symplectic_m2_f3().involution.form
    with pytest.raises(ExactAlgebraError):
        enumerate_unitary(AlgebraWithInvolution(a, inv))


# -- frames after scalar extension -------------------------------------------------

def _orthogonal_m2_f3():
    a = MatrixAlgebra(F3, 2)
    return AlgebraWithInvolution(a, transpose_involution(a))


def _f3i_extension():
    return etale_extension(presets.etale_preset("f3i"))


EXTENDED_CASES = ([(f"deg1-{n}-etale", lambda n=n: (presets.degree_one_unitary(n),
                                                    etale_extension(presets.etale_preset(n))))
                   for n in presets.ETALE_NAMES]
                  + [(f"m2-f3i-{h}-identity", lambda h=h: (presets.unitary_m2_f3i(h),
                                                           FiniteFreeExtension.identity(F3)))
                     for h in presets.H_NAMES]
                  + [("m2-f3-symplectic-f3i", lambda: (_symplectic_m2_f3(), _f3i_extension())),
                     ("m2-f3-orthogonal-f3i", lambda: (_orthogonal_m2_f3(), _f3i_extension()))])


@pytest.mark.parametrize("name,build", EXTENDED_CASES, ids=[n for n, _ in EXTENDED_CASES])
def test_extended_frames_equal_the_sweep(name, build):
    aw, ext = build()
    big, mp = extend_awi(aw, ext)
    assert big.involution.form is not None
    assert big.kind == aw.kind
    assert [u.payload for u in enumerate_unitary(big)] == _swept_unitary(big)
    # the extension map intertwines sigma
    rng = random.Random(29)
    elems = list(aw.algebra.elements_p())
    for x in rng.sample(elems, min(60, len(elems))):
        assert mp(aw.sigma_p(x)) == big.sigma_p(mp(x))


def test_extended_symplectic_group_is_sl2_f9():
    big, _ = extend_awi(_symplectic_m2_f3(), _f3i_extension())
    assert len(enumerate_unitary(big)) == sl_order(2, 9) == 720


def test_unit_norm_image_matches_a_sweep():
    for alg in (presets.matrix_preset(3, 2),
                MatrixAlgebra(presets.etale_preset("f3i"), 2),
                MatrixAlgebra(Zmod(9), 2)):
        C = alg.center
        dets = set()
        for p in alg.elements_p():
            det = C.sub_p(C.mul_p(p[0], p[3]), C.mul_p(p[1], p[2]))
            if C.is_unit_p(det):
                dets.add(det)
        assert nrd_unit_image(alg) == dets


# the quaternions over F_p, and their extension by the etale preset with
# the same base, which is a field of p^2 elements
QUAT_EXTENSIONS = [(3, "f3i"), (5, "f5sqrt2"), (7, "f7sqrt3")]


def _norm_form_image(C, coeffs):
    """Unit values of sum c_i x_i^2 over every x in C^4, one coordinate at
    a time: the values reachable after coordinate i are the earlier ones
    plus every c_i x^2."""
    vals = {C.zero_p()}
    for c in coeffs:
        terms = {C.mul_p(c, C.mul_p(x, x)) for x in C.elements_p()}
        vals = {C.add_p(v, t) for v in vals for t in terms}
    return {v for v in vals if C.is_unit_p(v)}


@pytest.mark.parametrize("p,etale", QUAT_EXTENSIONS)
def test_unit_norm_image_of_tables_matches_a_full_sweep(p, etale):
    table, _ = presets.quaternion_preset(p)
    ext_table, _ = scalar_extension(table, etale_extension(presets.etale_preset(etale)))
    # the base table, element by element
    swept = {nrd(table, AlgebraElem(table, x)).payload
             for x in table.elements_p() if table.is_unit_p(x)}
    assert nrd_unit_image(table) == swept
    # (-1, -1) quaternions: nrd(x0 + x1 i + x2 j + x3 k) = x0^2 + x1^2 + x2^2
    # + x3^2, and x is a unit exactly when nrd(x) is
    for alg in (table, ext_table):
        C = alg.cdata.ring
        assert C == alg.base
        one = C.one_p()
        for k, x in enumerate(alg.elements_p()):
            if k == 500:
                break
            form = C.zero_p()
            for c in x:
                form = C.add_p(form, C.mul_p(c, c))
            assert nrd(alg, AlgebraElem(alg, x)).payload == form
        assert nrd_unit_image(alg) == _norm_form_image(C, [one] * 4)
    assert _norm_form_image(table.base, [table.base.one_p()] * 4) == swept


def test_unit_norm_image_stops_once_it_saturates(monkeypatch):
    visits = []
    elements_p = TableAlgebra.elements_p

    def counted(self):
        for x in elements_p(self):
            visits.append(x)
            yield x
    monkeypatch.setattr(TableAlgebra, "elements_p", counted)
    expected = {"f3i": 33, "f5sqrt2": 135, "f7sqrt3": 166}
    for p, etale in QUAT_EXTENSIONS:
        table, _ = presets.quaternion_preset(p)
        ext_table, _ = scalar_extension(table, etale_extension(presets.etale_preset(etale)))
        visits.clear()
        assert len(nrd_unit_image(ext_table)) == p * p - 1
        assert len(visits) == expected[etale]
    # a proper-subgroup image is swept to the end: with every norm read as 1,
    # the image {1} never fills the two units of F3
    table, _ = presets.quaternion_preset(3)
    one = table.base.one
    monkeypatch.setattr(groups, "algebra_nrd", lambda alg, x: one)
    visits.clear()
    assert nrd_unit_image(table) == {one.payload}
    assert len(visits) == table.size == 81


# -- abelian presentations -------------------------------------------------------

def test_invariant_factors_cyclic():
    z9 = Zmod(9)
    units = [p for p in z9.elements_p() if z9.is_unit_p(p)]
    pres = FiniteAbelianPresentation(z9, units)
    assert pres.order == 6
    assert pres.elementary_divisors == [6]


def test_invariant_factors_product():
    f3 = PrimeField(3)
    f9c = presets.etale_preset("f3i")
    pr = ProductRing([f3, f9c])
    units = [p for p in pr.elements_p() if pr.is_unit_p(p)]
    pres = FiniteAbelianPresentation(pr, units)
    assert pres.order == 16
    assert pres.elementary_divisors == [2, 8]


def test_invariant_factors_of_quotient():
    c = presets.etale_preset("f3i")
    units = [p for p in c.elements_p() if c.is_unit_p(p)]
    squares = [c.mul_p(p, p) for p in units]
    pres = FiniteAbelianPresentation(c, units, squares)
    assert pres.order == 2
    assert pres.elementary_divisors == [2]
    # coset structure replays
    for rep, members in pres.cosets:
        for m in members:
            assert pres.rep(m) == rep
    for r1, _ in pres.cosets:
        for r2, _ in pres.cosets:
            prod = pres.op(r1, r2)
            assert prod in {r for r, _ in pres.cosets}
            assert pres.op(prod, pres.inverse_rep(r2)) == r1


def test_divisors_do_not_depend_on_input_order():
    z9 = Zmod(9)
    units = [p for p in z9.elements_p() if z9.is_unit_p(p)]
    a = FiniteAbelianPresentation(z9, units)
    b = FiniteAbelianPresentation(z9, list(reversed(units)))
    assert a.elementary_divisors == b.elementary_divisors
    assert [r for r, _ in a.cosets] == [r for r, _ in b.cosets]


def test_presentation_rejects_non_groups():
    z9 = Zmod(9)
    with pytest.raises(ExactAlgebraError):
        FiniteAbelianPresentation(z9, [z9.int_p(1), z9.int_p(3)])
    with pytest.raises(ExactAlgebraError):
        FiniteAbelianPresentation(z9, [z9.int_p(1), z9.int_p(2)])  # not closed


# -- functor values ---------------------------------------------------------------

def test_power_quotient_orders():
    ext = etale_extension(presets.etale_preset("f3i"))
    assert functor_linear(None, ext, 2).order == 2
    assert functor_linear(None, ext, 1).order == 1
    # d = 0 keeps the whole unit group
    assert functor_linear(None, ext, 0).order == 8


def test_split_algebra_swallows_everything():
    ext = etale_extension(presets.etale_preset("f3i"))
    q = functor_linear(presets.matrix_preset(3, 2), ext, 2)
    assert q.is_trivial


def test_unitary_functor_orders():
    f3id = FiniteFreeExtension.identity(F3)
    c = presets.etale_preset("f3i")
    assert functor_unitary(c, f3id, 2).order == 2
    assert functor_unitary(c, f3id, 0).order == 4
    aw = presets.unitary_m2_f3i("identity")
    assert functor_unitary(aw, f3id, 1).order == 1
    assert functor_unitary(aw, f3id, 0).order == 1


def test_unitary_functor_rejects_first_kind():
    a = MatrixAlgebra(F3, 2)
    aw = AlgebraWithInvolution(a, transpose_involution(a))
    from azunorm.rings import ClassificationError
    with pytest.raises(ClassificationError):
        functor_unitary(aw, FiniteFreeExtension.identity(F3), 1)


# -- the subgroup check against an all-pairs closure -------------------------------

SUBGROUP_RINGS = [Zmod(9), presets.etale_preset("f3i"), presets.etale_preset("f5split"),
                  ProductRing([F3, presets.etale_preset("f3i")])]


def _all_pairs_closure(ring, subset):
    out = set(subset)
    while True:
        more = {ring.mul_p(a, b) for a in out for b in out} - out
        if not more:
            return out
        out |= more


def _accepts(build):
    try:
        build()
    except ExactAlgebraError:
        return False
    return True


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_subgroup_check_matches_all_pairs_closure(data):
    ring = data.draw(st.sampled_from(SUBGROUP_RINGS), label="ring")
    units = [u.payload for u in ring.units()]
    one = ring.one_p()
    others = [u for u in units if u != one]
    subset = {one} | data.draw(st.sets(st.sampled_from(others), max_size=4), label="picked")
    if data.draw(st.booleans(), label="close"):
        subset = _all_pairs_closure(ring, subset)
    toggle = data.draw(st.sampled_from([None] + others), label="toggle")
    if toggle is not None:
        subset ^= {toggle}
    # units only: closed under products means a subgroup
    closed = all(ring.mul_p(a, b) in subset for a in subset for b in subset)
    assert _accepts(lambda: FiniteAbelianPresentation(ring, subset)) == closed
    assert _accepts(lambda: FiniteAbelianPresentation(ring, units, subset)) == closed
    # on 1x1 matrices nrd is the entry, so the value set is the subset
    alg = MatrixAlgebra(ring, 1)
    elems = [AlgebraElem(alg, (x,)) for x in subset]
    assert _accepts(lambda: nrd_image(elems)) == closed
    if closed:
        assert {v.payload for v in nrd_image(elems)} == subset


def test_subgroup_check_rejects_non_units():
    z9 = Zmod(9)
    units = [z9.int_p(k) for k in (1, 2, 4, 5, 7, 8)]
    with pytest.raises(ExactAlgebraError, match="non-unit"):
        FiniteAbelianPresentation(z9, units + [z9.int_p(3)])
    with pytest.raises(ExactAlgebraError, match="1 is not a member"):
        FiniteAbelianPresentation(z9, units[1:])
