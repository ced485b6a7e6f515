"""Exact linear algebra over Z/n and prime fields: determinants,
characteristic polynomials, inverses, root extraction."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st
from ring_laws import (check_enumeration, check_laws, dense_apply, dense_product,
                       elements)

from azunorm import presets
from azunorm.algebras import MatrixAlgebra, scalar_extension
from azunorm.rings import (CACHE_MAX, NonUnitError, NoRootError, Poly, PolyQuotient,
                           PolyRing, PrimeField, ProductRing, Ring, RingMatrix,
                           ShapeError, Zmod, enumerate_units, matmul_cells,
                           nth_root_monic, nullspace, row_reduce, solve_field,
                           square_and_multiply)
from azunorm.transfers import etale_extension

Z9 = Zmod(9)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


def rand_matrix(rng, ring, n):
    return RingMatrix(ring, n, n,
                      [ring.decode(rng.randrange(ring.size)) for _ in range(n * n)])


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
    # Berkowitz constant term against the Gauss-Jordan determinant
    rng = random.Random(7)
    f3i = presets.etale_preset("f3i")
    assert f3i.is_field
    for ring, n, count in ((F7, 3, 300), (F3, 3, 100), (F5, 3, 100), (f3i, 3, 100),
                           (F3, 4, 100), (F5, 4, 100), (F7, 4, 100), (f3i, 4, 40)):
        for _ in range(count):
            m = rand_matrix(rng, ring, n)
            p = m.char_poly()
            assert p.is_monic and p.degree == n
            const = ring.elem(p.coeff(0))
            assert const == ((-ring.one) ** n) * m.det()


@pytest.mark.parametrize("name", ["Z9", "F5", "f3i", "f3split"])
def test_closed_form_determinants_match_the_char_poly(name):
    ring = {"Z9": Z9, "F5": F5}.get(name) or presets.etale_preset(name)
    elems = list(ring.elements_p())
    m2 = MatrixAlgebra(ring, 2)
    for n in (1, 2):
        for cells in itertools.product(elems, repeat=n * n):
            m = RingMatrix(ring, n, n, cells)
            const = m.char_poly().coeff(0)
            want = const if n % 2 == 0 else ring.neg_p(const)
            assert m.det().payload == want
            if n == 2:
                assert m2.det_p(cells) == want


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
    # the inverse exists exactly when the determinant is nonzero
    rng = random.Random(98)
    singular = 0
    for ring, n in ((F7, 4), (F3, 3), (presets.etale_preset("f3i"), 3)):
        ident = RingMatrix.identity(ring, n)
        found = 0
        while found < 100:
            m = rand_matrix(rng, ring, n)
            if m.det() == ring.zero:
                singular += 1
                with pytest.raises(NonUnitError):
                    m.inverse()
                continue
            assert m * m.inverse() == ident
            assert m.inverse() * m == ident
            found += 1
    assert singular > 0


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


def test_square_makes_two_polynomial_products(monkeypatch):
    q = Poly.from_ints(F7, [3, 1, 2, 1])
    want = q * q
    real = Poly.__mul__
    calls = []

    def counted(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(Poly, "__mul__", counted)
    assert q ** 2 == want
    assert len(calls) == 1


def test_first_power_makes_no_product(monkeypatch):
    ring = Zmod(9)
    real = ring.mul_p
    calls = []

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(ring, "mul_p", counted)
    assert ring.pow_p(5, 1) == 5
    assert ring.pow_p(5, 0) == ring.one_p()
    assert calls == []


@pytest.mark.parametrize("name", ["Z9", "f3i", "m2-f3"])
def test_powers_match_repeated_multiplication(name):
    ring = {"Z9": lambda: Z9, "f3i": lambda: presets.etale_preset("f3i"),
            "m2-f3": lambda: MatrixAlgebra(F3, 2)}[name]()
    rng = random.Random(13)
    one = ring.one_p()
    for _ in range(12):
        a = ring.decode(rng.randrange(ring.size))
        q = Poly(ring, [ring.decode(rng.randrange(ring.size)) for _ in range(2)] + [one])
        want, want_q = one, Poly(ring, [one])
        for k in range(10):
            assert ring.pow_p(a, k) == want
            assert q ** k == want_q
            want, want_q = ring.mul_p(want, a), want_q * q
        with pytest.raises(ShapeError):
            q ** -1
        if ring.is_unit_p(a):
            inv = ring.inv_p(a)
            want = one
            for k in range(1, 4):
                want = ring.mul_p(want, inv)
                assert ring.pow_p(a, -k) == want


def test_power_loop_refuses_negative_exponents():
    # the loop halves k, which stays at -1 for every negative k
    with pytest.raises(ShapeError):
        square_and_multiply(lambda x, y: x * y, 1, 2, -1)


def test_monic_root_rejects_non_powers():
    # t^2 + 1 is not a square of a monic linear polynomial over F_5
    p = Poly.from_ints(F5, [1, 0, 1])
    with pytest.raises(NoRootError):
        nth_root_monic(p, 2)


def _root_by_full_powers(p, n):
    """The lifting as written before it computed single coefficients: every
    step raises the partial root to the n-th power and reads one
    coefficient."""
    ring = p.ring
    n_inv = ring.inv_p(ring.int_p(n))
    m = p.degree // n
    coeffs = [ring.zero_p()] * m + [ring.one_p()]
    for j in range(1, m + 1):
        cur = (Poly(ring, coeffs) ** n).coeff(n * m - j)
        coeffs[m - j] = ring.mul_p(ring.sub_p(p.coeff(n * m - j), cur), n_inv)
    q = Poly(ring, coeffs)
    if q ** n != p:
        raise NoRootError(f"no exact {n}-th root")
    return q


@pytest.mark.parametrize("p,etale", [(3, "f3i"), (5, "f5sqrt2"), (7, "f7sqrt3")])
def test_monic_root_matches_full_powers_on_quaternion_tables(p, etale):
    table, _ = presets.quaternion_preset(p)
    ext_table, _ = scalar_extension(table, etale_extension(presets.etale_preset(etale)))
    for alg in (table, ext_table):
        cdata = alg.cdata
        for k, x in enumerate(alg.elements_p()):
            if k == 150:
                break
            char = RingMatrix.from_columns(
                cdata.ring, [cdata.ccoords_p(alg.mul_p(x, b)) for b in cdata.cbasis]
            ).char_poly()
            assert nth_root_monic(char, cdata.degree) == \
                _root_by_full_powers(char, cdata.degree)
    # a degree-4 polynomial that is no square: (t^2 + 1)^2 + t
    f = table.base
    no_square = Poly.from_ints(f, [1, 1, 2, 0, 1])
    for root in (nth_root_monic, _root_by_full_powers):
        with pytest.raises(NoRootError):
            root(no_square, 2)


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
    # over F3, None exactly when no vector solves the system
    vecs = [list(v) for v in itertools.product(range(3), repeat=3)]
    inconsistent = 0
    for _ in range(40):
        m = rand_matrix(rng, F3, 3)
        images = [m.apply(v) for v in vecs]
        for rhs in vecs:
            got = solve_field(m, rhs)
            assert (got is None) == (rhs not in images)
            if got is None:
                inconsistent += 1
            else:
                assert m.apply(got) == rhs
    assert inconsistent > 0


def test_unit_enumeration_counts():
    assert len(list(enumerate_units(Z9))) == 6
    assert len(list(enumerate_units(F7))) == 6


def test_poly_quotient_field_detection():
    f9 = PolyQuotient(PrimeField(3), Poly.from_ints(PrimeField(3), [1, 0, 1]))
    assert f9.size == 9
    assert f9.is_field
    dual = PolyQuotient(PrimeField(3), Poly.from_ints(PrimeField(3), [0, 0, 1]))
    assert not dual.is_field


@pytest.mark.parametrize("ints, field", [
    ([2, 1, 0, 0, 1], True),        # x^4 + x + 2
    ([1, 0, 2, 0, 1], False),       # (x^2 + 1)^2: no root, a quadratic factor
    ([1, 1, 0, 0, 1], False),       # x^4 + x + 1: root at 1
    ([2, 2, 0, 0, 0, 1], True),     # x^5 + 2x + 2
    ([1, 0, 0, 0, 0, 1], False),    # x^5 + 1: root at 2
])
def test_trial_factor_field_test_matches_every_unit(ints, field):
    # degree 4 and up: trial division by monic factors of degree <= deg/2,
    # against "every nonzero element has a unit determinant"
    q = PolyQuotient(F3, Poly.from_ints(F3, ints))
    assert q.is_field == field
    assert all(q.decide_unit_p(p) for p in q.elements_p() if p != q.zero_p()) == field


def test_trial_factor_field_test_gives_up_on_large_bases(monkeypatch):
    # x^4 + x + 6 is irreducible over F151, but 151^2 > 20000 trial factors:
    # the test answers False without dividing once
    def no_division(self, m):
        raise AssertionError("trial division ran")
    monkeypatch.setattr(Poly, "divmod_monic", no_division)
    f151 = PrimeField(151)
    assert not PolyQuotient(f151, Poly.from_ints(f151, [6, 1, 0, 0, 1])).is_field


@pytest.mark.parametrize("ring", [F5, Z9], ids=["F5", "Z9"])
def test_divmod_monic_divides(ring):
    rng = random.Random(13)
    for _ in range(200):
        p = Poly.from_ints(ring, [rng.randrange(ring.size) for _ in range(rng.randint(0, 7))])
        m = Poly.from_ints(ring, [rng.randrange(ring.size) for _ in range(rng.randint(0, 4))]
                           + [1])
        q, r = p.divmod_monic(m)
        assert q * m + r == p
        assert r.degree < m.degree


def test_caches_stay_empty_above_their_bound():
    big = PolyQuotient(F3, Poly.from_ints(F3, [1, 1] + [0] * 8 + [1]))
    assert big.size == 3 ** 10 > CACHE_MAX
    x = big.shift_p(big.one_p())
    for a in (big.one_p(), x, big.add_p(x, big.one_p()), big.zero_p()):
        if big.is_unit_p(a):
            assert big.mul_p(a, big.inv_p(a)) == big.one_p()
    assert big._unit_cache == {} and big._inv_cache == {}
    assert big._mul_t is None


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


def test_sparse_apply_matches_the_dense_product():
    # random shapes over a non-field and a field, with zero rows and zero
    # vector entries; each matrix is applied twice, after its rows are compiled
    rng = random.Random(20261019)
    f3i = presets.etale_preset("f3i")
    for ring in (Z9, f3i):
        zero = ring.zero_p()
        for _ in range(200):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
            dead = {i for i in range(nrows) if rng.random() < 0.3}
            cells = [zero if i in dead or rng.random() < 0.4
                     else ring.decode(rng.randrange(ring.size))
                     for i in range(nrows) for _ in range(ncols)]
            m = RingMatrix(ring, nrows, ncols, cells)
            for _ in range(2):
                vec = [zero if rng.random() < 0.4 else ring.decode(rng.randrange(ring.size))
                       for _ in range(ncols)]
                assert m.apply(vec) == dense_apply(m, vec)
                assert m.apply(tuple(vec)) == dense_apply(m, vec)
            assert [list(row) for row in m._rows] == \
                [[(k, a) for k, a in enumerate(m.row(i)) if a != zero] for i in range(nrows)]
            with pytest.raises(ShapeError):
                m.apply([zero] * (ncols + 1))
            with pytest.raises(ShapeError):
                m.apply([zero] * (ncols - 1))


# -- the one slot-wise sum and negation, and the one matrix product ---------------

SLOT_RINGS = [(n, lambda n=n: presets.etale_preset(n)) for n in presets.ETALE_NAMES] + [
    ("f9", presets.f9),
    ("product", lambda: ProductRing([F3, presets.etale_preset("f3i"), Z9])),
    ("m2-f3i", lambda: presets.unitary_m2_f3i().algebra),
    ("m3-f3", lambda: presets.matrix_preset(3, 3)),
] + [(f"quat-f{p}", lambda p=p: presets.quaternion_preset(p)[0]) for p in (3, 5, 7)]


def _slot_rings(ring):
    """The ring of each payload slot, read off the ring's own structure."""
    if isinstance(ring, ProductRing):
        return ring.factors
    if isinstance(ring, PolyQuotient):
        return [ring.base] * ring.deg
    if isinstance(ring, MatrixAlgebra):
        return [ring.center] * (ring.n * ring.n)
    return [ring.base] * ring.rank


@pytest.mark.parametrize("name,build", SLOT_RINGS, ids=[n for n, _ in SLOT_RINGS])
def test_slotwise_ops_match_a_per_slot_loop(name, build):
    # every pair of a ring of at most 81 elements, else 400 seeded pairs; a
    # tabled tower answers from its tables, filled by Ring.add_p and Ring.neg_p
    ring = build()
    slots = _slot_rings(ring)
    rng = random.Random(name)
    if ring.size <= 81:
        pairs = list(itertools.product(list(ring.elements_p()), repeat=2))
    else:
        codes = [rng.randrange(ring.size) for _ in range(800)]
        pairs = [(ring.decode(a), ring.decode(b)) for a, b in zip(codes[::2], codes[1::2])]
    for a, b in pairs:
        total, neg = [], []
        for k, slot in enumerate(slots):
            total.append(slot.add_p(a[k], b[k]))
            neg.append(slot.neg_p(a[k]))
        assert ring.add_p(a, b) == Ring.add_p(ring, a, b) == tuple(total)
        assert ring.neg_p(a) == Ring.neg_p(ring, a) == tuple(neg)
    if not isinstance(ring, PolyQuotient):
        assert type(ring).add_p is Ring.add_p and type(ring).neg_p is Ring.neg_p


def test_matrix_product_matches_the_dense_product():
    # random rectangular shapes over a non-field and a field, with zero rows
    # in both factors and scattered zero cells
    rng = random.Random(20261021)
    f3i = presets.etale_preset("f3i")
    for ring in (Z9, f3i):
        zero = ring.zero_p()

        def rand(nrows, ncols):
            dead = {i for i in range(nrows) if rng.random() < 0.3}
            return RingMatrix(ring, nrows, ncols, [
                zero if i in dead or rng.random() < 0.4
                else ring.decode(rng.randrange(ring.size))
                for i in range(nrows) for _ in range(ncols)])

        for _ in range(200):
            rows, inner, cols = (rng.randint(1, 6) for _ in range(3))
            a, b = rand(rows, inner), rand(inner, cols)
            want = dense_product(a, b)
            prod = a * b
            assert (prod.nrows, prod.ncols) == (rows, cols)
            assert list(prod.cells) == want
            assert matmul_cells(ring, a.cells, b.cells, rows, inner, cols) == want
        with pytest.raises(ShapeError):
            rand(2, 3) * rand(2, 3)
    # MatrixAlgebra.mul_p is the same product on square payloads
    for alg in (MatrixAlgebra(f3i, 2), MatrixAlgebra(F3, 3)):
        for _ in range(200):
            a, b = (alg.decode(rng.randrange(alg.size)) for _ in range(2))
            want = dense_product(alg.as_matrix_p(a), alg.as_matrix_p(b))
            assert alg.mul_p(a, b) == tuple(want)
