"""Unitary and norm-one groups by enumeration, reduced-norm images, and
finite abelian quotients with their invariant factors."""

import gc
import io
import itertools
import math
import random
import weakref

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from order_oracles import (gl_order, lifted_special_unitary_order, lifted_unitary_order,
                           sl_order, special_unitary_order, unitary_order)

from azunorm import cli, groups, presets
from azunorm.algebras import (AlgebraElem, AlgebraWithInvolution, Involution,
                              MatrixAlgebra, TableAlgebra, adjoint_involution,
                              extend_awi, hermitian_involution, nrd,
                              scalar_extension, to_table, transpose_involution)
from azunorm.groups import (FiniteAbelianPresentation, enumerate_special,
                            enumerate_unitary, functor_linear, functor_unitary,
                            nrd_image, nrd_unit_image)
from azunorm.rings import (ClassificationError, ExactAlgebraError, PrimeField, ProductRing,
                          RingMatrix, Zmod, generated)
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
    img = nrd_image(u)
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
        img = nrd_image(u)
        assert len(u) == len(su) * len(img)


def test_norm_image_rejects_non_closed_sets():
    aw = presets.unitary_m2_f3i("identity")
    i = aw.embed_center(aw.center_ring.sqrt_gen)
    with pytest.raises(ExactAlgebraError):
        nrd_image([i])


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


def _antidiagonal_m3_f3():
    # gram_02 = 1: the third column's condition against the first is not
    # 0 = 0, as it is for every diagonal form
    a = MatrixAlgebra(F3, 3)
    g = RingMatrix.from_rows(F3, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    return AlgebraWithInvolution(a, adjoint_involution(a, g))


FRAME_CASES = ([(f"m2-f3i-{h}", lambda h=h: presets.unitary_m2_f3i(h))
                for h in presets.H_NAMES]
               + [("m3-f3-transpose", _transpose_m3_f3),
                  ("m3-f3-antidiagonal", _antidiagonal_m3_f3),
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


# under "mixed" some first columns have the row (1 + t, 1 - t) over
# f3split = F3[t]/(t^2 - 1): no entry is a unit, yet the row completes to an
# invertible matrix, so its pivot column is a combination of columns
SPLIT_FORMS = {"identity": [[1, 0], [0, 1]], "diag": [[1, 0], [0, -1]],
               "hyperbolic": [[0, 1], [1, 0]], "mixed": [[1, 1], [1, 0]]}


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


def test_frames_of_hermitian_m3_f3i_match_the_oracles(monkeypatch):
    # 9^9 elements: only the frames can list U, and the orders come from
    # order_oracles, which shares no code with them
    c = presets.etale_preset("f3i")
    a = MatrixAlgebra(c, 3)
    aw = AlgebraWithInvolution(a, hermitian_involution(a, RingMatrix.identity(c, 3)))

    def no_sweep():
        raise AssertionError("swept the algebra")
    monkeypatch.setattr(a, "elements_p", no_sweep)
    assert len(enumerate_unitary(aw)) == unitary_order(3, 3) == 24192
    assert len(enumerate_special(aw, "SU")) == special_unitary_order(3, 3) == 6048


def test_frames_over_a_galois_ring_match_the_oracles(monkeypatch):
    # Z/9[sqrt 2] is local but not a field: the frames of M2 over it are
    # checked against the lift of the orders over F3[i]
    c = presets.etale_preset("z9sqrt2")
    a = MatrixAlgebra(c, 2)
    aw = AlgebraWithInvolution(a, hermitian_involution(a, RingMatrix.identity(c, 2)))

    def no_sweep():
        raise AssertionError("swept the algebra")
    monkeypatch.setattr(a, "elements_p", no_sweep)
    assert len(enumerate_unitary(aw)) == lifted_unitary_order(2, 3) == 7776
    assert len(enumerate_special(aw, "SU")) == lifted_special_unitary_order(2, 3) == 648


def _hermitian_form(c, x, y, z):
    """[[x, y], [sigma(y), z]] from the x-th and z-th sigma-fixed elements
    and the y-th element of c, all in canonical order."""
    fixed = [e for e in c.elements_p() if c.sigma_p(e) == e]
    yp = c.decode(y)
    return RingMatrix(c, 2, 2, [fixed[x], yp, c.sigma_p(yp), fixed[z]])


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(center=st.sampled_from(["f3i", "f3split"]), x=st.integers(0, 2),
       y=st.integers(0, 8), z=st.integers(0, 2))
# x = 0 makes the first column isotropic, with y other than the hyperbolic 1
@example(center="f3i", x=0, y=4, z=1)
@example(center="f3i", x=0, y=5, z=0)
@example(center="f3split", x=0, y=1, z=2)
@example(center="f3split", x=0, y=6, z=0)
def test_frames_equal_the_sweep_on_random_hermitian_forms(center, x, y, z):
    c = presets.etale_preset(center)
    h = _hermitian_form(c, x, y, z)
    assume(h.det().is_unit)
    a = MatrixAlgebra(c, 2)
    aw = AlgebraWithInvolution(a, hermitian_involution(a, h))
    swept = _swept_unitary(aw)
    assert [u.payload for u in enumerate_unitary(aw)] == swept
    onec = c.one_p()
    assert ([u.payload for u in enumerate_special(aw, "SU")]
            == [p for p in swept if aw.nrd_p(p) == onec])


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(center=st.sampled_from(["f3i", "f3split"]), x=st.integers(0, 2),
       y=st.integers(0, 8), z=st.integers(0, 2))
@example(center="f3i", x=0, y=4, z=1)
@example(center="f3split", x=0, y=1, z=2)
def test_reduced_norms_of_unitaries_lie_on_the_circle_on_random_hermitian_forms(
        center, x, y, z):
    # nrd(U) lies in the norm-one circle, which np_bruteforce_check assumes
    c = presets.etale_preset(center)
    h = _hermitian_form(c, x, y, z)
    assume(h.det().is_unit)
    a = MatrixAlgebra(c, 2)
    aw = AlgebraWithInvolution(a, hermitian_involution(a, h))
    onec = c.one_p()
    unitary = enumerate_unitary(aw)
    assert unitary
    for u in unitary:
        nv = aw.nrd_p(u.payload)
        assert c.mul_p(nv, c.sigma_p(nv)) == onec


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


@pytest.mark.parametrize("build, which", [
    (lambda: presets.unitary_m2_f3i("identity"), "SO"),
    (_transpose_m3_f3, "SU"),
    (_symplectic_m2_f3, "SU"),
], ids=["hermitian-SO", "transpose-SU", "symplectic-SU"])
def test_special_group_of_the_other_kind_is_refused(build, which):
    with pytest.raises(ClassificationError, match=f"{which} needs"):
        enumerate_special(build(), which)


def test_symplectic_special_group_is_the_whole_group():
    aw = _symplectic_m2_f3()
    assert ([u.payload for u in enumerate_special(aw, "SO")]
            == [u.payload for u in enumerate_unitary(aw)])


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
    expected = {"f3i": 14, "f5sqrt2": 32, "f7sqrt3": 58}
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
    monkeypatch.setattr(groups, "nrd_payload", lambda alg, x: one.payload)
    visits.clear()
    assert nrd_unit_image(table) == {one.payload}
    assert len(visits) == table.size == 81


# -- one algebra, two presentations -----------------------------------------------

def _presented_cases():
    """(id, awi over a matrix algebra, kind, |U|, |SU| or |SO|, nrd stride)."""
    f3i = presets.etale_preset("f3i")
    m2 = MatrixAlgebra(f3i, 2)
    sp = MatrixAlgebra(F3, 2)
    cases = [(f"hermitian-{h}", presets.unitary_m2_f3i(h), "unitary", 96, 24,
              1 if h == "identity" else 41) for h in presets.H_NAMES]
    cases.append(("transpose", AlgebraWithInvolution(m2, transpose_involution(m2)),
                  "orthogonal", 16, 8, 1))
    g = RingMatrix.from_rows(F3, [[0, 1], [-1, 0]])
    cases.append(("symplectic", AlgebraWithInvolution(sp, adjoint_involution(sp, g)),
                  "symplectic", 24, 24, 1))
    cases.append(("degree-one", presets.degree_one_unitary("f3i"), "unitary", 4, 1, 1))
    return cases


PRESENTED = _presented_cases()


@pytest.mark.parametrize("aw, kind, order, special, stride", [c[1:] for c in PRESENTED],
                         ids=[c[0] for c in PRESENTED])
def test_table_presentation_classifies_like_the_matrix_algebra(
        aw, kind, order, special, stride):
    # the table carries the involution transported through to_table; its
    # center is rebuilt from the table alone, so only fwd links the two
    alg = aw.algebra
    table, fwd, back = to_table(alg)
    tw = AlgebraWithInvolution(table, Involution(
        table, table.matrix_of(lambda p: fwd(aw.sigma_p(back(p))))))
    assert aw.kind == tw.kind == kind
    assert tw.cdata is table.cdata
    u = enumerate_unitary(aw)
    assert len(u) == order
    assert {x.payload for x in enumerate_unitary(tw)} == {fwd(x.payload) for x in u}
    which = "SU" if kind == "unitary" else "SO"
    tone = tw.center_ring.one_p()
    assert len(enumerate_special(aw, which)) == special
    assert sum(tw.nrd_p(fwd(x.payload)) == tone for x in u) == special
    # reduced norms agree through fwd once embedded back into each algebra
    for p in itertools.islice(alg.elements_p(), 0, None, stride):
        assert table.cdata.embed_p(tw.nrd_p(fwd(p))) == fwd(alg.cdata.embed_p(aw.nrd_p(p)))


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
            assert pres.op(prod, pres.rep(c.inv_p(r2))) == r1


def test_divisors_do_not_depend_on_input_order():
    z9 = Zmod(9)
    units = [p for p in z9.elements_p() if z9.is_unit_p(p)]
    a = FiniteAbelianPresentation(z9, units)
    b = FiniteAbelianPresentation(z9, list(reversed(units)))
    assert a.elementary_divisors == b.elementary_divisors
    assert [r for r, _ in a.cosets] == [r for r, _ in b.cosets]


# an oracle that shares no code with groups.py: (Z/n)^x for odd n splits by
# the CRT into cyclic (Z/p^k)^x of order phi(p^k) = p^(k-1) (p-1), and Z/m
# modulo d-th powers is Z/gcd(m, d); the i-th largest invariant factor takes
# the i-th largest power of each prime from the cyclic parts
def _prime_powers(m):
    """{p: k} with m the product of the p^k, by trial division."""
    out, p = {}, 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def _units_mod_powers_factors(n: int, d: int):
    """Invariant factors of (Z/n)^x modulo d-th powers, ascending; d = 0 keeps all."""
    primary = {}
    for p, k in _prime_powers(n).items():
        for q, e in _prime_powers(math.gcd(p ** (k - 1) * (p - 1), d)).items():
            primary.setdefault(q, []).append(q ** e)
    for powers in primary.values():
        powers.sort(reverse=True)
    return _combine_primary(primary)


def _combine_primary(primary):
    """Invariant factors, ascending, from {p: the p-primary factors, descending}."""
    factors = [math.prod(powers[i] for powers in primary.values() if i < len(powers))
               for i in range(max(map(len, primary.values()), default=0))]
    return factors[::-1]


def test_oracle_on_known_groups():
    assert _units_mod_powers_factors(9, 0) == [6]
    assert _units_mod_powers_factors(105, 0) == [2, 2, 12]
    assert _units_mod_powers_factors(105, 2) == [2, 2, 2]
    assert _units_mod_powers_factors(63, 3) == [3, 3]
    assert _units_mod_powers_factors(3, 0) == [2]
    assert _units_mod_powers_factors(91, 3) == [3, 3]
    assert _units_mod_powers_factors(25, 3) == []


@pytest.mark.parametrize("d", [0, 2, 3])
def test_invariant_factors_match_the_crt_oracle(d):
    for n in range(3, 402, 2):
        zn = Zmod(n)
        units = [u for u in range(n) if math.gcd(u, n) == 1]
        pres = FiniteAbelianPresentation(zn, units, {pow(u, d, n) for u in units})
        assert pres.elementary_divisors == _units_mod_powers_factors(n, d), n


# (order, invariant factors) for d = 0..4
LINEAR_POWER_QUOTIENTS = {
    "f3i": ((8, [8]), (1, []), (2, [2]), (1, []), (4, [4])),
    "f3split": ((4, [2, 2]), (1, []), (4, [2, 2]), (1, []), (4, [2, 2])),
    "f5sqrt2": ((24, [24]), (1, []), (2, [2]), (3, [3]), (4, [4])),
    "f5split": ((16, [4, 4]), (1, []), (4, [2, 2]), (1, []), (16, [4, 4])),
    "f7sqrt3": ((48, [48]), (1, []), (2, [2]), (3, [3]), (4, [4])),
    "z9sqrt2": ((72, [3, 24]), (1, []), (2, [2]), (9, [3, 3]), (4, [4])),
    "f9gen": ((80, [80]), (1, []), (2, [2]), (1, []), (4, [4])),
}
UNITARY_POWER_QUOTIENTS = {
    "f3i": ((4, [4]), (1, []), (2, [2]), (1, []), (4, [4])),
    "f3split": ((2, [2]), (1, []), (2, [2]), (1, []), (2, [2])),
    "f5sqrt2": ((6, [6]), (1, []), (2, [2]), (3, [3]), (2, [2])),
    "f5split": ((4, [4]), (1, []), (2, [2]), (1, []), (4, [4])),
    "f7sqrt3": ((8, [8]), (1, []), (2, [2]), (1, []), (4, [4])),
    "z9sqrt2": ((12, [12]), (1, []), (2, [2]), (3, [3]), (4, [4])),
    "f9gen": ((10, [10]), (1, []), (2, [2]), (1, []), (2, [2])),
}


@pytest.mark.parametrize("name", presets.ETALE_NAMES)
def test_power_quotients_of_the_etale_presets_frozen(name):
    c = presets.etale_preset(name)
    ext = etale_extension(c)
    identity = FiniteFreeExtension.identity(c.base)
    for d in range(5):
        q = functor_linear(None, ext, d)
        assert (q.order, q.elementary_divisors) == LINEAR_POWER_QUOTIENTS[name][d], d
        q = functor_unitary(c, identity, d)
        assert (q.order, q.elementary_divisors) == UNITARY_POWER_QUOTIENTS[name][d], d


def test_presentation_rejects_non_groups():
    z9 = Zmod(9)
    with pytest.raises(ExactAlgebraError):
        FiniteAbelianPresentation(z9, [z9.int_p(1), z9.int_p(3)])
    with pytest.raises(ExactAlgebraError):
        FiniteAbelianPresentation(z9, [z9.int_p(1), z9.int_p(2)])  # not closed
    # both are groups, but the subgroup does not lie in the group
    with pytest.raises(ExactAlgebraError, match="outside the group"):
        FiniteAbelianPresentation(z9, [1, 8], [1, 2, 4, 5, 7, 8])


# -- the lazy cosets and the record of verified groups against eager builds --------

def _eager_cosets(ring, members, subgroup):
    """(representative, sorted members) per coset, built at once from scratch."""
    out, seen = [], set()
    for g in sorted(set(members), key=ring.encode):
        if g not in seen:
            coset = tuple(sorted({ring.mul_p(g, h) for h in subgroup}, key=ring.encode))
            seen.update(coset)
            out.append((coset[0], coset))
    return out


def _assert_matches_eager(pres):
    ring = pres.ring
    eager = _eager_cosets(ring, pres.members, pres.subgroup)
    rep_of = {m: r for r, coset in eager for m in coset}
    # the Lagrange order is read before any coset is built
    assert pres._coset_of is None and pres.order == len(eager)
    assert pres.cosets == eager
    assert all(pres.rep(m) == r for m, r in rep_of.items())
    reps = [r for r, _ in eager]
    # every representative times about eight of them spread over the list
    assert all(pres.op(a, b) == rep_of[ring.mul_p(a, b)]
               for a in reps for b in reps[::max(1, len(reps) // 8)])


def _power_quotients(c, ext, identity, d):
    return functor_linear(None, ext, d), functor_unitary(c, identity, d)


@pytest.mark.parametrize("name", presets.ETALE_NAMES)
def test_lazy_cosets_match_an_eager_build_on_the_etale_presets(name):
    # survey's sharing: one preset, extension and identity over every d
    c = presets.etale_preset(name)
    ext, identity = etale_extension(c), FiniteFreeExtension.identity(c.base)
    for d in range(5):
        shared = _power_quotients(c, ext, identity, d)
        for pres in shared:
            _assert_matches_eager(pres)
        f = presets.etale_preset(name)
        fresh = _power_quotients(f, etale_extension(f), FiniteFreeExtension.identity(f.base), d)
        assert [(q.order, q.elementary_divisors) for q in shared] == \
            [(q.order, q.elementary_divisors) for q in fresh]
    assert len(identity._centers) == 1


@pytest.mark.parametrize("d", [0, 2, 3])
def test_lazy_cosets_match_an_eager_build_on_the_crt_cases(d):
    for n in range(3, 402, 2):
        zn = Zmod(n)
        units = [u for u in range(n) if math.gcd(u, n) == 1]
        _assert_matches_eager(FiniteAbelianPresentation(zn, units, {pow(u, d, n) for u in units}))


# a second oracle, for quotients by any subgroup, that shares no code with
# elementary_divisors: Q[p^j], the elements of Q killed by p^j, has
# |Q[p^j]| / |Q[p^(j-1)]| = p^c_j, where c_j counts the invariant factors
# divisible by p^j
def _factors_from_element_orders(orders):
    """Invariant factors, ascending, of the abelian group with these element orders."""
    primary = {}
    for p in _prime_powers(len(orders)):
        counts, below, j = [], 1, 1
        while True:
            at = sum(1 for o in orders if p ** j % o == 0)
            if at == below:
                break
            ratio, c = at // below, 0
            while ratio % p == 0:
                ratio, c = ratio // p, c + 1
            assert ratio == 1 and at % below == 0, (p, j)
            counts.append(c)
            below, j = at, j + 1
        primary[p] = [p ** sum(1 for c in counts if c > i) for i in range(counts[0])]
    return _combine_primary(primary)


def test_element_order_oracle_on_known_groups():
    assert _factors_from_element_orders([1]) == []
    assert _factors_from_element_orders([1, 2, 2, 2]) == [2, 2]
    assert _factors_from_element_orders([1, 2, 4, 4]) == [4]
    # Z/2 x Z/6: one element of order 1, three of 2, two of 3, six of 6
    assert _factors_from_element_orders([1] + [2] * 3 + [3] * 2 + [6] * 6) == [2, 6]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_invariant_factors_of_any_subgroup_quotient_match_the_element_orders(data):
    ring = data.draw(st.one_of(
        st.integers(1, 200).map(lambda k: Zmod(2 * k + 1)),
        st.sampled_from(presets.ETALE_NAMES).map(presets.etale_preset)), label="ring")
    units = list(ring.units_p())
    one = ring.one_p()
    picked = data.draw(st.lists(st.sampled_from(units), min_size=1, max_size=3),
                       label="picked")
    sub = _all_pairs_closure(ring, {one, *picked})
    rep_of = {m: r for r, coset in _eager_cosets(ring, units, sub) for m in coset}
    orders = []
    for r in set(rep_of.values()):
        x, k = r, 1
        while rep_of[x] != rep_of[one]:
            x, k = ring.mul_p(x, r), k + 1
        orders.append(k)
    want = _factors_from_element_orders(orders)
    assert FiniteAbelianPresentation(ring, units, sub).elementary_divisors == want


def test_rejected_set_raises_on_every_call():
    z9 = Zmod(9)
    for _ in range(2):
        with pytest.raises(ExactAlgebraError, match="not closed"):
            FiniteAbelianPresentation(z9, [1, 2])
        with pytest.raises(ExactAlgebraError, match="not closed"):
            FiniteAbelianPresentation(z9, [1, 2, 4, 5, 7, 8], [1, 2])
    assert frozenset([1, 2]) not in z9._subgroups


def _counting_products(ring):
    calls = []
    real = ring.mul_p

    def mul_p(a, b):
        calls.append(1)
        return real(a, b)

    ring.mul_p = mul_p
    return calls


def test_accepted_set_is_closed_once_per_ring_object():
    units = [1, 2, 4, 5, 7, 8]
    first, second = Zmod(9), Zmod(9)
    assert first == second
    FiniteAbelianPresentation(first, units)
    for ring in (first, second):
        calls = _counting_products(ring)
        FiniteAbelianPresentation(ring, units)
        # the equal ring built separately keeps no record of the first one
        assert bool(calls) == (ring is second)
        calls.clear()
        FiniteAbelianPresentation(ring, units)
        assert not calls


def test_record_holds_only_accepted_sets_and_dies_with_its_ring():
    ring = presets.etale_preset("f5split")
    units = [u.payload for u in ring.units()]
    tried = [units, [ring.one_p()], units[:3], {ring.mul_p(u, u) for u in units},
             {ring.pow_p(u, 4) for u in units}]
    for subset in tried:
        try:
            FiniteAbelianPresentation(ring, subset)
        except ExactAlgebraError:
            pass
    closed = [frozenset(s) for s in tried if _all_pairs_closure(ring, s) == set(s)]
    assert len(closed) == 4
    assert ring._subgroups == set(closed)
    pres = FiniteAbelianPresentation(ring, units)
    pres.elementary_divisors
    alive = weakref.ref(ring)
    del ring, pres
    gc.collect()
    assert alive() is None


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
    assert q.order == 1


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


# -- the unitary functor reads U only until nrd fills the circle --------------------

def _listed_presentations(aw, ext, ds):
    """The unitary functor at each d, built here from the fully listed
    {nrd(u) : u in U} of the extended involution."""
    big, _ = extend_awi(aw, ext)
    CT = big.center_ring
    nrds = {big.nrd_p(u.payload) for u in enumerate_unitary(big)}
    members = [c.payload for c in CT.unitary_scalars()]
    out = []
    for d in ds:
        powd = {CT.pow_p(g, d) for g in members}
        out.append(FiniteAbelianPresentation(
            CT, members, {CT.mul_p(n, p) for n in nrds for p in powd}))
    return out


def _f3split_hermitian_m2():
    c = presets.etale_preset("f3split")
    a = MatrixAlgebra(c, 2)
    return AlgebraWithInvolution(a, hermitian_involution(a, RingMatrix.identity(c, 2)))


def _hermitian_m3_f3i():
    c = presets.etale_preset("f3i")
    a = MatrixAlgebra(c, 3)
    return AlgebraWithInvolution(a, hermitian_involution(a, RingMatrix.identity(c, 3)))


WALK_CASES = ([(f"m2-f3i-{h}-{e}", lambda h=h, e=e: (
                  presets.unitary_m2_f3i(h),
                  _f3i_extension() if e == "etale" else FiniteFreeExtension.identity(F3)))
               for h in presets.H_NAMES for e in ("identity", "etale")]
              + [("m2-f5split", lambda: (presets.unitary_m2_f5split(),
                                         FiniteFreeExtension.identity(PrimeField(5)))),
                 ("m2-f3split", lambda: (_f3split_hermitian_m2(),
                                         FiniteFreeExtension.identity(F3)))]
              + [c for c in EXTENDED_CASES if c[0].startswith("deg1-")]
              + [("m3-f3i-identity", lambda: (_hermitian_m3_f3i(),
                                              FiniteFreeExtension.identity(F3)))])


def _same_presentation(got, want):
    assert got.order == want.order
    assert got.elementary_divisors == want.elementary_divisors
    assert got.cosets == want.cosets


@pytest.mark.parametrize("name,build", WALK_CASES, ids=[n for n, _ in WALK_CASES])
def test_unitary_functor_matches_the_listed_norms(name, build):
    aw, ext = build()
    # d = 0 compares the norm images themselves
    ds = (0, 2)
    for d, want in zip(ds, _listed_presentations(aw, ext, ds)):
        _same_presentation(functor_unitary(aw, ext, d), want)


def _counted_frames(monkeypatch):
    counts = []
    real = groups._frames_p

    def counted(alg, *form):
        counts.append(0)
        for p in real(alg, *form):
            counts[-1] += 1
            yield p
    monkeypatch.setattr(groups, "_frames_p", counted)
    return counts


@pytest.mark.parametrize("h", presets.H_NAMES)
def test_unitary_functor_walks_to_the_end_when_the_circle_is_never_met(monkeypatch, h):
    aw, ext = presets.unitary_m2_f3i(h), FiniteFreeExtension.identity(F3)
    want = _listed_presentations(aw, ext, (0,))[0]
    real = groups._saturate
    monkeypatch.setattr(groups, "_saturate",
                        lambda ring, values, bound: real(ring, values,
                                                         bound | {"never a payload"}))
    counts = _counted_frames(monkeypatch)
    _same_presentation(functor_unitary(aw, ext, 0), want)
    assert counts == [unitary_order(2, 3)]


def test_saturate_stops_at_its_bound_and_keeps_values_outside_it():
    values = iter([1, 2, 1, 3])
    assert groups._saturate(Zmod(3), values, {1, 2}) == {1, 2}
    assert list(values) == [1, 3]
    values = iter([1, 5, 2, 1])
    assert groups._saturate(Zmod(3), values, {1, 2}) == {1, 5, 2}
    assert list(values) == []
    assert groups._saturate(Zmod(3), iter([]), {1}) == set()


Z9_UNITS = set(Zmod(9).units_p())  # cyclic of order 6, generated by 2


def _logged(values, log):
    for v in values:
        log.append(v)
        yield v


def test_saturate_stops_after_one_generator():
    read = []
    assert groups._saturate(Zmod(9), _logged([2, 4, 5], read), Z9_UNITS) == Z9_UNITS
    assert read == [2]


def test_saturate_reads_a_proper_subgroup_to_the_end():
    # the squares {1, 4, 7} have index two
    read = []
    assert groups._saturate(Zmod(9), _logged([4, 1, 7, 4], read), Z9_UNITS) == {1, 4, 7}
    assert read == [4, 1, 7, 4]


def test_saturate_reads_everything_after_a_value_outside_its_bound():
    read = []
    assert groups._saturate(Zmod(9), _logged([3, 2, 5], read), Z9_UNITS) == {3, 2, 5}
    assert read == [3, 2, 5]
    assert groups._saturate(Zmod(9), iter([]), Z9_UNITS) == set()


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 29).map(lambda k: 2 * k + 1), st.data())
def test_saturate_is_its_bound_once_the_values_read_generate_it(n, data):
    # Zmod takes odd n >= 3; bound is a subgroup of the units of Z/n and
    # the values are any units: the first prefix that lies in bound and
    # generates it is read, and nothing after it; with no such prefix every
    # value is read and returned
    ring = Zmod(n)
    one, units = ring.one_p(), st.sampled_from(ring.units_p())
    bound = _all_pairs_closure(ring, {one, *data.draw(st.lists(units, max_size=3))})
    values = data.draw(st.lists(units, max_size=12))
    stop = next((k for k in range(1, len(values) + 1)
                 if set(values[:k]) <= bound
                 and _all_pairs_closure(ring, {one, *values[:k]}) == bound), None)
    read = []
    got = groups._saturate(ring, _logged(values, read), bound)
    if stop is None:
        assert got == set(values) and read == values
    else:
        assert got == bound and read == values[:stop]


@pytest.mark.parametrize("h", presets.H_NAMES)
def test_unitary_functor_reads_few_extended_frames(monkeypatch, h):
    # U of M2(F3[i]) along the etale extension has 5,760 frames; the walk
    # stops once the subgroup the norms generate fills the 8-element circle
    # (5 frames on the identity form, 3 on diag, 100 on the hyperbolic one)
    counts = _counted_frames(monkeypatch)
    q = functor_unitary(presets.unitary_m2_f3i(h), _f3i_extension(), 0)
    assert (q.order, q.elementary_divisors) == (1, [])
    assert len(counts) == 1 and counts[0] < 5760 // 10


def test_degree_one_unitary_functor_reads_few_form_values(monkeypatch):
    # degree-one Z/9[sqrt 2] along its etale extension: the frames are the
    # 72 points of the circle of a 6,561-element center, and reading them
    # all takes about 19,000 _lin calls; their norms generate it far sooner
    calls = []
    real = groups._lin

    def counted(*args):
        calls.append(1)
        return real(*args)
    monkeypatch.setattr(groups, "_lin", counted)
    ext = etale_extension(presets.etale_preset("z9sqrt2"))
    q = functor_unitary(presets.degree_one_unitary("z9sqrt2"), ext, 0)
    assert (q.order, q.elementary_divisors) == (1, [])
    assert len(calls) < 5_000


def test_unitary_functor_of_hermitian_m3_f3i_along_the_etale_extension_frozen():
    # 81^9 elements and U far too large to list: the walk stops once the
    # norms fill the circle of the 81-element extended center; d = 1 is
    # trivial for any norms, d = 0 shows that they fill the circle
    aw, ext = _hermitian_m3_f3i(), _f3i_extension()
    for d in (0, 1):
        q = functor_unitary(aw, ext, d)
        assert (q.order, q.elementary_divisors) == (1, []), d


def test_first_extended_m3_frame_reads_few_solutions(monkeypatch):
    # the first column of hermitian M3(F3[i]) along the etale extension has
    # 81^3 = 531,441 solutions; the first frame is read without listing them
    big, _ = extend_awi(_hermitian_m3_f3i(), _f3i_extension())
    center = type(big.algebra.center)
    real = center.add_p
    adds = []

    def counted(self, x, y):
        adds.append(1)
        return real(self, x, y)
    monkeypatch.setattr(center, "add_p", counted)
    first = next(groups._frames_p(big.algebra, *big.involution.form))
    assert big.is_unitary_p(first)
    assert len(adds) < 10_000


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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_generated_folds_to_the_all_pairs_closure(data):
    ring = data.draw(st.sampled_from(SUBGROUP_RINGS), label="ring")
    one = ring.one_p()
    units = [u.payload for u in ring.units()]
    picked = data.draw(st.lists(st.sampled_from(units), max_size=4), label="picked")
    span = {one}
    for g in picked:
        span = generated(ring.mul_p, span, g)
    assert span == _all_pairs_closure(ring, {one, *picked})


def _additive_closure(ring, subset):
    out = set(subset)
    while True:
        more = {ring.add_p(a, b) for a in out for b in out} - out
        if not more:
            return out
        out |= more


@pytest.mark.parametrize("name", ["z9", "f9gen"])
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_generated_folds_to_the_additive_closure(name, data):
    # Z/9 and the F9[sqrt(1 + i)] tower under addition, from {0}
    ring = Zmod(9) if name == "z9" else presets.etale_preset("f9gen")
    zero = ring.zero_p()
    picked = data.draw(st.lists(st.sampled_from(list(ring.elements_p())), max_size=3))
    span = {zero}
    for g in picked:
        span = generated(ring.add_p, span, g)
    assert span == _additive_closure(ring, {zero, *picked})


def test_verifying_a_group_takes_at_most_two_products_per_member():
    # a join of index k costs (k - 1)(|reached| + 1) products and adds
    # (k - 1)|reached| members, so a group M is closed in 2|M| - 2 products
    # at most, and every member past 1 costs one at least
    f9gen = presets.etale_preset("f9gen")
    ct, _ = etale_extension(f9gen).extended_center(f9gen)
    z = Zmod(15015)
    for ring, members in [(z, [u for u in range(15015) if math.gcd(u, 15015) == 1]),
                          (f9gen, [u.payload for u in f9gen.units()]),
                          (ct, [c.payload for c in ct.unitary_scalars()])]:
        calls = _counting_products(ring)
        FiniteAbelianPresentation(ring, members)
        assert len(members) - 1 <= len(calls) <= 2 * len(members) - 2


GROUPS_CONFIGS = {
    "m2-f3i": "[etale]\ns = -1\n[algebra]\nform = split\ndegree = 2\n"
              "involution = hermitian\nh = identity\n",
    "m3-f3": "[algebra]\nform = split\ndegree = 3\ninvolution = transpose\n",
}


@pytest.mark.parametrize("case, which, want", [
    ("m2-f3i", "U,SU", {"U": 96, "SU": 24}),
    ("m2-f3i", "SU,U", {"SU": 24, "U": 96}),
    ("m2-f3i", "SU", {"SU": 24}),
    ("m3-f3", "U,SO", {"U": 48, "SO": 24}),
])
def test_groups_task_enumerates_u_once(monkeypatch, case, which, want):
    # one frame search per involution, shared by a groups task and a later
    # h90-all task on the same config
    cfg = cli.parse_config("[ring]\nkind = prime\nmodulus = 3\n" + GROUPS_CONFIGS[case])
    real = groups._frames_p
    runs = []

    def counted(alg, *form):
        runs.append(alg)
        return real(alg, *form)

    monkeypatch.setattr(groups, "_frames_p", counted)
    tasks = [("groups", {"which": which}, 1)]
    if cfg.awi.kind == "unitary":
        tasks.append(("h90-all", {}, 2))
    code, recs = cli.run(cfg, tasks=tasks, out=io.StringIO())
    assert code == 0 and recs[0].metrics == want
    if cfg.awi.kind == "unitary":
        assert recs[1].metrics == {"total": 96, "verified": 96}
    assert runs == [cfg.awi.algebra]
    # each call hands out its own list: mutating one leaves the next intact
    first = enumerate_unitary(cfg.awi)
    payloads = [u.payload for u in first]
    first.reverse()
    first.pop()
    assert [u.payload for u in enumerate_unitary(cfg.awi)] == payloads
    assert runs == [cfg.awi.algebra]
