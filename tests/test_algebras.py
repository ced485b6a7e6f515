"""Matrix and structure-constant algebras: Azumaya verification, reduced
characteristic polynomials, reduced norms, involutions and their kinds."""

import random
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st
from ring_laws import dense_apply

from azunorm import presets
from azunorm.algebras import (AlgebraWithInvolution, Involution, MatrixAlgebra,
                              TableAlgebra, adjoint_involution, azumaya_verify,
                              center_data, extend_awi, hermitian_involution,
                              nrd, nrd_data, quaternion_conjugation,
                              quaternion_table, rebase_table,
                              reduced_char_poly, reduced_char_poly_data,
                              scalar_extension, to_table, transpose_involution)
from azunorm.groups import enumerate_unitary
from azunorm.rings import (ClassificationError, NonUnitError, PrimeField,
                           RingElem, RingMatrix, ShapeError, Zmod)
from azunorm.transfers import etale_extension

F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


# -- Azumaya verification -------------------------------------------------------

def test_matrix_algebras_are_azumaya():
    for p in (3, 5):
        for n in (2, 3):
            rep = azumaya_verify(presets.matrix_preset(p, n))
            assert rep.ok
            assert rep.dimension == n ** 4


def test_quaternions_are_azumaya():
    for p in (5, 7):
        table, _ = presets.quaternion_preset(p)
        rep = azumaya_verify(table)
        assert rep.ok and rep.dimension == 16


def test_nilpotents_break_azumaya():
    rep = azumaya_verify(presets.dual_numbers())
    assert not rep.ok
    assert rep.det == F3.zero


def test_matrix_over_etale_is_azumaya_over_its_center():
    aw = presets.unitary_m2_f3i("identity")
    rep = azumaya_verify(aw.algebra)
    assert rep.ok and rep.dimension == 16


# -- reduced characteristic polynomial ------------------------------------------

def test_split_char_poly_frozen():
    a = MatrixAlgebra(F7, 2)
    x = a.elem(RingMatrix.from_rows(F7, [[1, 0], [0, 2]]).cells)
    p = reduced_char_poly(a, x)
    assert list(p.coeffs) == [F7.int_p(2), F7.int_p(4), F7.int_p(1)]


def test_quaternion_char_poly_and_norm_frozen():
    table, _ = presets.quaternion_preset(5)
    i = table.elem(table.basis_p()[1])
    p = reduced_char_poly(table, i)
    assert list(p.coeffs) == [F5.int_p(1), F5.int_p(0), F5.int_p(1)]
    x = table.elem((F5.int_p(1),) * 4)  # 1 + i + j + k
    assert nrd(table, x) == F5.from_int(4)


def test_char_poly_annihilates_in_split_form():
    rng = random.Random(3)
    a = presets.matrix_preset(5, 2)
    zero = a.zero_p()
    elems = list(a.elements_p())
    for p in rng.sample(elems, 100):
        poly = reduced_char_poly_data(a, p)
        acc = zero
        power = a.one_p()
        for k in range(poly.degree + 1):
            acc = a.add_p(acc, a.scale_base_p(power, poly.coeff(k)))
            power = a.mul_p(power, p)
        assert acc == zero


def test_quaternion_norm_is_conjugation_product():
    table, aw = presets.quaternion_preset(5)
    rng = random.Random(4)
    elems = list(table.elements_p())
    for p in rng.sample(elems, 120):
        n = nrd(table, table.elem(p))
        prod = table.mul_p(p, aw.sigma_p(p))
        assert prod == table.scale_base_p(table.one_p(), n.payload)


def test_norm_multiplicative_seeded():
    rng = random.Random(20240816)
    cases = [presets.matrix_preset(3, 2), presets.matrix_preset(5, 3),
             presets.quaternion_preset(5)[0],
             presets.unitary_m2_f3i("identity").algebra]
    for alg in cases:
        cd = center_data(alg)
        c = cd.ring
        elems = list(alg.elements_p())
        for _ in range(2000):
            x = rng.choice(elems)
            y = rng.choice(elems)
            lhs = nrd_data(alg, alg.mul_p(x, y))
            rhs = c.mul_p(nrd_data(alg, x).payload,
                          nrd_data(alg, y).payload)
            assert lhs.payload == rhs


def test_norm_multiplicative_exhaustive_small():
    alg = presets.matrix_preset(3, 2)
    cd = center_data(alg)
    c = cd.ring
    vals = {p: nrd_data(alg, p).payload for p in alg.elements_p()}
    for x, nx in vals.items():
        for y, ny in vals.items():
            assert vals[alg.mul_p(x, y)] == c.mul_p(nx, ny)


def test_norm_detects_units_exactly():
    for alg in (presets.matrix_preset(3, 2), presets.quaternion_preset(5)[0]):
        cd = center_data(alg)
        c = cd.ring
        for p in alg.elements_p():
            expected = c.is_unit_p(nrd_data(alg, p).payload)
            assert alg.is_unit_p(p) == expected


def test_norm_machinery_refuses_non_azumaya_tables():
    with pytest.raises(ClassificationError):
        center_data(presets.dual_numbers())


# -- involution classification (dimension counts) -------------------------------

def test_transpose_is_orthogonal():
    for n, rank in ((2, 3), (3, 6)):
        a = MatrixAlgebra(F3, n)
        aw = AlgebraWithInvolution(a, transpose_involution(a))
        assert aw.kind == "orthogonal"
        assert aw.symmetric_rank == n * (n + 1) // 2 == rank


def test_alternating_adjoint_is_symplectic():
    a = MatrixAlgebra(F5, 2)
    g = RingMatrix.from_rows(F5, [[0, 1], [-1, 0]])
    aw = AlgebraWithInvolution(a, adjoint_involution(a, g))
    assert aw.kind == "symplectic"
    assert aw.symmetric_rank == 2 * (2 - 1) // 2 == 1


def test_conjugate_transpose_is_unitary():
    for n in (2, 3):
        c = presets.etale_preset("f3i")
        a = MatrixAlgebra(c, n)
        aw = AlgebraWithInvolution(a, hermitian_involution(a, RingMatrix.identity(c, n)))
        assert aw.kind == "unitary"
        assert aw.degree == n


def test_quaternion_conjugation_is_symplectic():
    _, aw = presets.quaternion_preset(5)
    assert aw.kind == "symplectic"
    assert aw.symmetric_rank == 1


def test_symmetric_adjoint_is_orthogonal():
    a = MatrixAlgebra(F5, 2)
    g = RingMatrix.from_rows(F5, [[0, 1], [1, 0]])
    aw = AlgebraWithInvolution(a, adjoint_involution(a, g))
    assert aw.kind == "orthogonal"
    assert aw.symmetric_rank == 3


def test_involution_constructor_rejects_bad_forms():
    a = MatrixAlgebra(F5, 2)
    with pytest.raises(NonUnitError):
        hermitian = RingMatrix.from_rows(F5, [[1, 0], [0, 0]])
        adjoint_involution(a, hermitian)
    with pytest.raises(ClassificationError):
        skewish = RingMatrix.from_rows(F5, [[1, 1], [0, 1]])
        adjoint_involution(a, skewish)


def test_involution_fixes_one_and_reverses_products():
    cases = [presets.unitary_m2_f3i("diag"), presets.unitary_m2_f3i("hyperbolic"),
             presets.quaternion_preset(7)[1]]
    rng = random.Random(8)
    for aw in cases:
        alg = aw.algebra
        sig = aw.sigma_p
        assert sig(alg.one_p()) == alg.one_p()
        elems = list(alg.elements_p())
        for _ in range(150):
            x = rng.choice(elems)
            y = rng.choice(elems)
            assert sig(alg.mul_p(x, y)) == alg.mul_p(sig(y), sig(x))
            assert sig(sig(x)) == x


HERMITIAN_ROWS = {"identity": [[1, 0], [0, 1]], "diag": [[1, 0], [0, -1]],
                  "hyperbolic": [[0, 1], [1, 0]]}


def test_involution_matrix_matches_closed_forms():
    # every element, against h^-1 conj(X)^T h and g^-1 X^T g in matrix arithmetic
    assert set(HERMITIAN_ROWS) == set(presets.H_NAMES)
    for h_name, rows in HERMITIAN_ROWS.items():
        aw = presets.unitary_m2_f3i(h_name)
        c = aw.algebra.center
        h = RingMatrix.from_rows(c, rows)
        hinv = h.inverse()
        for p in aw.algebra.elements_p():
            x = RingMatrix(c, 2, 2, p)
            assert aw.sigma_p(p) == (hinv * x.transpose().map_entries(c.sigma_p) * h).cells
    a = presets.matrix_preset(3, 3)
    aw = AlgebraWithInvolution(a, transpose_involution(a))
    g = RingMatrix.identity(F3, 3)
    ginv = g.inverse()
    for p in a.elements_p():
        assert aw.sigma_p(p) == (ginv * RingMatrix(F3, 3, 3, p).transpose() * g).cells


def _quaternion_conjugation(p):
    return presets.quaternion_preset(p)[1]


def _m3_transpose():
    m3 = presets.matrix_preset(3, 3)
    return AlgebraWithInvolution(m3, transpose_involution(m3))


SHIPPED_INVOLUTIONS = {
    **{f"m2-f3i-{h}": partial(presets.unitary_m2_f3i, h) for h in presets.H_NAMES},
    "m2-f5split": presets.unitary_m2_f5split,
    **{f"deg1-{n}": partial(presets.degree_one_unitary, n) for n in presets.ETALE_NAMES},
    **{f"quat-f{p}": partial(_quaternion_conjugation, p) for p in (3, 5, 7)},
    "m3-f3-transpose": _m3_transpose,
}


@pytest.mark.parametrize("name", sorted(SHIPPED_INVOLUTIONS))
def test_involution_is_an_anti_automorphism_of_order_two(name):
    aw = SHIPPED_INVOLUTIONS[name]()
    alg = aw.algebra
    sig = aw.sigma_p
    assert sig(alg.one_p()) == alg.one_p()
    elems = st.integers(min_value=0, max_value=alg.size - 1).map(alg.decode)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(elems, elems)
    def check(x, y):
        assert sig(sig(x)) == x
        assert sig(alg.add_p(x, y)) == alg.add_p(sig(x), sig(y))
        assert sig(alg.mul_p(x, y)) == alg.mul_p(sig(y), sig(x))

    check()


@pytest.mark.parametrize("name", sorted(SHIPPED_INVOLUTIONS))
def test_involution_matrix_applies_like_the_dense_product(name):
    # every element of the algebras of at most 6,561 elements; a stride of
    # 61 codes, prime to every digit size, through the larger ones
    aw = SHIPPED_INVOLUTIONS[name]()
    alg = aw.algebra
    mat = aw.involution.matrix
    step = 1 if alg.size <= 6561 else 61
    for code in range(0, alg.size, step):
        coords = alg.coords_p(alg.decode(code))
        assert mat.apply(coords) == dense_apply(mat, coords)


@pytest.mark.parametrize("name", sorted(SHIPPED_INVOLUTIONS))
def test_nrd_is_multiplicative(name):
    aw = SHIPPED_INVOLUTIONS[name]()
    alg = aw.algebra
    mul = aw.center_ring.mul_p
    assert aw.nrd_p(alg.one_p()) == aw.center_ring.one_p()
    elems = st.integers(min_value=0, max_value=alg.size - 1).map(alg.decode)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(elems, elems)
    def check(x, y):
        assert aw.nrd_p(alg.mul_p(x, y)) == mul(aw.nrd_p(x), aw.nrd_p(y))

    check()


# -- the unitary test: a*b = 1 without forming all of a*b -------------------------

PRODUCT_ALGEBRAS = {
    "m2-z9": lambda: MatrixAlgebra(Zmod(9), 2),
    "m2-f3i": lambda: MatrixAlgebra(presets.etale_preset("f3i"), 2),
    "m2-f5split": lambda: MatrixAlgebra(presets.etale_preset("f5split"), 2),
    "m3-f3": lambda: presets.matrix_preset(3, 3),
    **{f"deg1-{n}": lambda n=n: MatrixAlgebra(presets.etale_preset(n), 1)
       for n in presets.ETALE_NAMES},
}


def _random_unit(alg, rng):
    while True:
        a = alg.decode(rng.randrange(alg.size))
        if alg.is_unit_p(a):
            return a


@pytest.mark.parametrize("name", sorted(PRODUCT_ALGEBRAS))
def test_mul_is_one_matches_the_full_product(name):
    alg = PRODUCT_ALGEBRAS[name]()
    one = alg.one_p()
    rng = random.Random(23)
    pairs = [(alg.decode(rng.randrange(alg.size)), alg.decode(rng.randrange(alg.size)))
             for _ in range(300)]
    for _ in range(20):
        a = _random_unit(alg, rng)
        pairs += [(a, alg.inv_p(a)), (alg.inv_p(a), a)]
    verdicts = [alg.mul_is_one_p(a, b) for a, b in pairs]
    assert verdicts == [alg.mul_p(a, b) == one for a, b in pairs]
    assert verdicts.count(True) >= 40


@pytest.mark.parametrize("name", sorted(PRODUCT_ALGEBRAS))
def test_mul_is_one_sees_every_entry(name):
    # b = a^-1 * E, where E is the identity with entry (i, j) changed, so
    # a*b differs from 1 at (i, j) alone
    alg = PRODUCT_ALGEBRAS[name]()
    C, n = alg.center, alg.n
    one = alg.one_p()
    rng = random.Random(29)
    for _ in range(3):
        a = _random_unit(alg, rng)
        a_inv = alg.inv_p(a)
        for pos in range(n * n):
            for value in C.elements_p():
                if value == one[pos]:
                    continue
                e = one[:pos] + (value,) + one[pos + 1:]
                b = alg.mul_p(a_inv, e)
                assert alg.mul_p(a, b) == e
                assert not alg.mul_is_one_p(a, b), (pos, value)


UNITARY_CASES = [f"m2-f3i-{h}" for h in presets.H_NAMES] + \
    [f"deg1-{n}" for n in presets.ETALE_NAMES] + ["m2-f5split", "quat-f3", "quat-f5"]


@pytest.mark.parametrize("name", UNITARY_CASES)
def test_is_unitary_matches_the_full_product(name):
    # every element up to 6,561; M2(f5split) by a stride of 61 codes plus
    # its 480 unitaries from the frames; the quaternion tables take the
    # generic a*b == 1
    aw = SHIPPED_INVOLUTIONS[name]()
    alg = aw.algebra
    one = alg.one_p()
    if alg.size <= 6561:
        elems = list(alg.elements_p())
    else:
        elems = [alg.decode(c) for c in range(0, alg.size, 61)]
        elems += [e.payload for e in enumerate_unitary(aw)]
    verdicts = [aw.is_unitary_p(p) for p in elems]
    assert verdicts == [alg.mul_p(p, aw.sigma_p(p)) == one for p in elems]
    assert any(verdicts) and not all(verdicts)
    assert all(aw.is_unitary_elem(alg.elem(p)) == v
               for p, v in zip(elems[:200], verdicts))


@pytest.mark.parametrize("name", ["m2-f3", "quat-f3", "deg1-f5sqrt2"])
def test_algebra_digit_codes_follow_the_enumeration(name):
    alg = {"m2-f3": lambda: presets.matrix_preset(3, 2),
           "quat-f3": presets.quaternion_f3,
           "deg1-f5sqrt2": lambda: presets.degree_one_unitary("f5sqrt2").algebra}[name]()
    elems = list(alg.elements_p())
    assert len(elems) == alg.size
    assert all(alg.decode(alg.encode(p)) == p for p in elems)
    assert [alg.decode(i) for i in range(alg.size)] == elems


@pytest.mark.parametrize("name", ["m2-f3i", "quat-f3"])
def test_algebra_elements_are_ring_elements(name):
    build = {"m2-f3i": lambda: presets.unitary_m2_f3i("identity").algebra,
             "quat-f3": presets.quaternion_f3}[name]
    alg = build()
    rng = random.Random(17)
    units = []
    while len(units) < 8:
        p = alg.decode(rng.randrange(alg.size))
        if alg.is_unit_p(p):
            units.append(alg.elem(p))
    for x in units:
        assert isinstance(x, RingElem)
        assert x ** -1 == x.inverse()
        assert x ** 3 == x * x * x
    payloads = [x.payload for x in units]
    again = build()
    seen = {alg.elem(p) for p in payloads} | {again.elem(p) for p in payloads}
    assert len(seen) == len(set(payloads))
    assert all(again.elem(p) in seen for p in payloads)
    with pytest.raises(ShapeError):
        units[0] + alg.cdata.ring.one


# -- structure-table round trips -------------------------------------------------

def test_split_to_table_preserves_norms():
    a = presets.matrix_preset(3, 2)
    table, fwd, back = to_table(a)
    for p in a.elements_p():
        assert back(fwd(p)) == p
        assert nrd_data(a, p).payload == nrd_data(table, fwd(p)).payload


def test_etale_center_reconstructed_from_table():
    aw = presets.unitary_m2_f3i("identity")
    table, fwd, back = to_table(aw.algebra)
    cd = center_data(table)
    assert cd.degree == 2
    assert cd.ring.size == 9
    rep = azumaya_verify(table)
    # over the presentation base F_3 the table is rank 8 with a rank-2 center,
    # so the Azumaya criterion over F_3 itself must fail (it is not the center)
    assert not rep.ok


def test_char_poly_invariant_under_basis_change():
    rng = random.Random(20240816)
    table, _ = presets.quaternion_preset(5)
    base = table.base
    sample = [table.int_p(3), (base.int_p(1),) * 4,
              (base.int_p(2), base.int_p(1), base.int_p(0), base.int_p(4))]
    expected = [list(reduced_char_poly_data(table, p).coeffs) for p in sample]
    changes = 0
    while changes < 50:
        vecs = [table.one_p()] + [tuple(base.int_p(rng.randrange(5)) for _ in range(4))
                                  for _ in range(3)]
        try:
            moved, fwd, back = rebase_table(table, vecs)
        except NonUnitError:
            continue
        changes += 1
        for p, coeffs in zip(sample, expected):
            assert list(reduced_char_poly_data(moved, fwd(p)).coeffs) == coeffs
            assert back(fwd(p)) == p


def test_scalar_extension_is_a_ring_map():
    alg = presets.matrix_preset(3, 2)
    ext = etale_extension(presets.etale_preset("f3i"))
    big, mp = scalar_extension(alg, ext)
    rng = random.Random(12)
    elems = list(alg.elements_p())
    for _ in range(200):
        x = rng.choice(elems)
        y = rng.choice(elems)
        assert mp(alg.mul_p(x, y)) == big.mul_p(mp(x), mp(y))
        assert mp(alg.add_p(x, y)) == big.add_p(mp(x), mp(y))
    assert mp(alg.one_p()) == big.one_p()


def test_extended_involution_keeps_kind():
    _, aw = presets.quaternion_preset(5)
    ext = etale_extension(presets.etale_preset("f5sqrt2"))
    big, mp = extend_awi(aw, ext)
    assert big.kind == "symplectic"
    rng = random.Random(13)
    elems = list(aw.algebra.elements_p())
    for _ in range(100):
        x = rng.choice(elems)
        assert mp(aw.sigma_p(x)) == big.sigma_p(mp(x))


def test_formless_matrix_involution_extends_along_an_etale_center():
    a = MatrixAlgebra(F3, 2)
    aw = AlgebraWithInvolution(a, Involution(a, transpose_involution(a).matrix))
    assert aw.involution.form is None
    f3i = presets.etale_preset("f3i")
    big, mp = extend_awi(aw, etale_extension(f3i))
    assert big.involution.matrix == transpose_involution(MatrixAlgebra(f3i, 2)).matrix
    assert big.kind == "orthogonal"


def test_element_arithmetic():
    table, _ = presets.quaternion_preset(5)
    i = table.elem(table.basis_p()[1])
    j = table.elem(table.basis_p()[2])
    k = table.elem(table.basis_p()[3])
    assert i * j == k
    assert j * i == -k
    assert i * i == -table.elem(table.one_p())
    assert (i + j) * k == i * k + j * k
    assert i ** -1 == -i
    assert (i * j * k).payload == table.scale_base_p(table.one_p(), F5.int_p(4))


def test_center_data_shapes():
    cd = center_data(presets.matrix_preset(3, 2))
    assert cd.degree == 2 and cd.ring == F3
    aw = presets.unitary_m2_f3i("identity")
    assert aw.cdata.degree == 2
    assert aw.cdata.ring.size == 9
    table, _ = presets.quaternion_preset(5)
    cdq = center_data(table)
    assert cdq.degree == 2 and cdq.ring == F5
