"""Exact linear algebra over Z/n and prime fields: determinants,
characteristic polynomials, inverses, root extraction."""

import random

import pytest
from hypothesis import given, settings, strategies as st
from ring_laws import check_enumeration, check_laws, elements

from azunorm import presets
from azunorm.rings import (NonUnitError, NoRootError, Poly, PolyQuotient,
                           PolyRing, PrimeField, ProductRing, RingMatrix,
                           Zmod, enumerate_units, nth_root_monic, nullspace,
                           row_reduce, solve_field)

Z9 = Zmod(9)
F5 = PrimeField(5)
F7 = PrimeField(7)


def rand_matrix(rng, ring, n):
    return RingMatrix(ring, n, n,
                      [ring.int_p(rng.randrange(ring.size)) for _ in range(n * n)])


def test_diagonal_determinant_frozen():
    m = RingMatrix.from_rows(Z9, [[2, 0, 0], [0, 5, 0], [0, 0, 8]])
    assert m.det() == Z9.from_int(8)


def test_determinant_multiplicative_seeded():
    rng = random.Random(20240816)
    for _ in range(1000):
        a = rand_matrix(rng, Z9, 3)
        b = rand_matrix(rng, Z9, 3)
        assert (a * b).det() == a.det() * b.det()


def test_determinant_of_identity_and_swap():
    assert RingMatrix.identity(Z9, 4).det() == Z9.one
    swapped = RingMatrix.from_rows(F5, [[0, 1], [1, 0]])
    assert swapped.det() == -F5.one


def test_char_poly_matches_field_determinant():
    # Berkowitz constant term against the Gaussian-elimination determinant
    rng = random.Random(7)
    for _ in range(300):
        m = rand_matrix(rng, F7, 3)
        p = m.char_poly()
        assert p.is_monic and p.degree == 3
        const = p.coeff_elem(0)
        assert const == ((-F7.one) ** 3) * m.det()


def test_char_poly_annihilates_matrix():
    rng = random.Random(11)
    for ring in (Z9, F5):
        for _ in range(120):
            m = rand_matrix(rng, ring, 3)
            p = m.char_poly()
            acc = RingMatrix.zeros(ring, 3, 3)
            power = RingMatrix.identity(ring, 3)
            for k in range(p.degree + 1):
                acc = acc + power.scale(p.coeff(k))
                power = power * m
            assert acc == RingMatrix.zeros(ring, 3, 3)


def test_inverse_roundtrip_over_nonfield():
    rng = random.Random(99)
    found = 0
    ident = RingMatrix.identity(Z9, 3)
    while found < 100:
        m = rand_matrix(rng, Z9, 3)
        if not Z9.is_unit_p(m.det().payload):
            with pytest.raises(NonUnitError):
                m.inverse()
            continue
        assert m * m.inverse() == ident
        assert m.inverse() * m == ident
        found += 1


def test_inverse_roundtrip_over_field():
    rng = random.Random(98)
    ident = RingMatrix.identity(F7, 4)
    found = 0
    while found < 100:
        m = rand_matrix(rng, F7, 4)
        if m.det() == F7.zero:
            continue
        assert m * m.inverse() == ident
        found += 1


def test_monic_root_extraction_roundtrip():
    rng = random.Random(5)
    for _ in range(500):
        ring = rng.choice((F5, F7))
        n = rng.choice((2, 3))
        deg = rng.randrange(1, 4)
        coeffs = [ring.int_p(rng.randrange(ring.size)) for _ in range(deg)]
        q = Poly(ring, coeffs + [ring.one_p()])
        root = nth_root_monic(q ** n, n)
        assert root == q


def test_monic_root_rejects_non_powers():
    # t^2 + 1 is not a square of a monic linear polynomial over F_5
    p = Poly.from_ints(F5, [1, 0, 1])
    with pytest.raises(NoRootError):
        nth_root_monic(p, 2)


def test_nullspace_vectors_annihilate():
    rng = random.Random(31)
    for _ in range(200):
        m = RingMatrix(F5, 3, 4,
                       [F5.int_p(rng.randrange(5)) for _ in range(12)])
        basis = nullspace(m)
        zero = [F5.zero_p()] * 3
        for v in basis:
            assert m.apply(list(v)) == zero
        # rank-nullity over a field
        reduced, pivots = row_reduce(F5, [m.row(i) for i in range(3)])
        assert len(basis) == 4 - len(pivots)


def test_solve_field_roundtrip():
    rng = random.Random(13)
    solved = 0
    while solved < 100:
        m = rand_matrix(rng, F7, 3)
        x = [F7.int_p(rng.randrange(7)) for _ in range(3)]
        rhs = m.apply(x)
        got = solve_field(m, rhs)
        if got is None:
            continue
        assert m.apply(got) == rhs
        solved += 1


def test_unit_enumeration_counts():
    assert len(list(enumerate_units(Z9))) == 6
    assert len(list(enumerate_units(F7))) == 6


def test_poly_quotient_field_detection():
    f9 = PolyQuotient(PrimeField(3), Poly.from_ints(PrimeField(3), [1, 0, 1]))
    assert f9.size == 9
    assert f9.is_field
    dual = PolyQuotient(PrimeField(3), Poly.from_ints(PrimeField(3), [0, 0, 1]))
    assert not dual.is_field


def test_product_ring_componentwise():
    pr = ProductRing([PrimeField(3), F5])
    f3, f5 = pr.factors
    a = pr.elem((f3.int_p(2), f5.int_p(3)))
    b = pr.elem((f3.int_p(2), f5.int_p(2)))
    assert (a * b).payload == (f3.int_p(1), f5.int_p(1))
    assert pr.size == 15
    assert pr.is_unit_p(a.payload)
    assert not pr.is_unit_p((f3.zero_p(), f5.one_p()))


def test_polynomial_ring_evaluation():
    rt = PolyRing(F5)
    p = rt.elem(Poly.from_ints(F5, [1, 2, 1]).coeffs)  # (t+1)^2
    for k in range(5):
        val = rt.eval_p(p.payload, F5.int_p(k))
        assert val == F5.int_p((k + 1) ** 2 % 5)


def test_element_encode_roundtrip():
    for ring in (Z9, F5, F7):
        seen = set()
        for p in ring.elements_p():
            seen.add(ring.encode(p))
        assert seen == set(range(ring.size))


LAW_RINGS = [("Z9", lambda: Z9), ("F5", lambda: F5),
             ("F9", lambda: PolyQuotient(PrimeField(3), Poly.from_ints(PrimeField(3), [1, 0, 1]))),
             ("F3xf3i", lambda: ProductRing([PrimeField(3), presets.etale_preset("f3i")]))]


@pytest.mark.parametrize("name,build", LAW_RINGS, ids=[n for n, _ in LAW_RINGS])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_ring_laws(name, build, data):
    ring = build()
    check_laws(ring, *(data.draw(elements(ring)) for _ in range(3)))


@pytest.mark.parametrize("name,build", LAW_RINGS, ids=[n for n, _ in LAW_RINGS])
def test_enumeration_order_and_codes(name, build):
    check_enumeration(build())
