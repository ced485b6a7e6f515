"""Rank-2 extensions R[x]/(x^2 - s): involution, norm, the norm-one circle,
and the constructive scalar factorization c -> c*sigma(c)^{-1}."""

import pytest
from hypothesis import given, settings, strategies as st
from ring_laws import check_enumeration, check_laws, elements

from azunorm import presets
from azunorm.etale import QuadraticEtale
from azunorm.rings import ExactAlgebraError, NonUnitError, PrimeField, ShapeError, Zmod
from azunorm.transfers import etale_extension

F3 = PrimeField(3)

CIRCLE_SIZES = {"f3i": 4, "f3split": 2, "f5sqrt2": 6, "f5split": 4,
                "f7sqrt3": 8, "z9sqrt2": 12, "f9gen": 10}


def test_gauss_norms_frozen():
    c = presets.etale_preset("f3i")
    i = c.sqrt_gen
    assert c.norm(i) == F3.from_int(1)
    assert c.norm(c.one + i) == F3.from_int(2)


def test_defining_scalar_must_make_4s_a_unit():
    with pytest.raises(NonUnitError):
        QuadraticEtale(Zmod(9), 3)
    with pytest.raises(NonUnitError):
        QuadraticEtale(Zmod(15), 5)


def test_sigma_is_an_involutive_ring_map():
    for _, c in presets.etale_family():
        elems = [c.elem(p) for p in c.elements_p()]
        for a in elems[:12]:
            assert c.sigma(c.sigma(a)) == a
        for a in elems[:8]:
            for b in elems[:8]:
                assert c.sigma(a * b) == c.sigma(a) * c.sigma(b)
                assert c.sigma(a + b) == c.sigma(a) + c.sigma(b)
        assert c.sigma(c.one) == c.one


def test_norm_is_multiplicative_everywhere():
    for name, c in presets.etale_family():
        elems = list(c.elements_p())
        if len(elems) > 30:
            elems = elems[:30]
        for a in elems:
            for b in elems:
                lhs = c.norm_p(c.mul_p(a, b))
                rhs = c.base.mul_p(c.norm_p(a), c.norm_p(b))
                assert lhs == rhs, name


def test_norm_one_circle_sizes_and_membership():
    for name, c in presets.etale_family():
        circle = c.unitary_scalars()
        assert len(circle) == CIRCLE_SIZES[name]
        one = c.base.one_p()
        for lam in circle:
            assert c.norm_p(lam.payload) == one
        # exhaustive converse
        count = sum(1 for p in c.elements_p() if c.norm_p(p) == one)
        assert count == len(circle)
        assert c.one in circle and -c.one in circle


def test_circle_is_the_twisted_unit_image():
    # {u * sigma(u)^{-1}} over all units equals the norm-one circle
    for name, c in presets.etale_family():
        twisted = set()
        for p in c.elements_p():
            if not c.is_unit_p(p):
                continue
            twisted.add(c.mul_p(p, c.inv_p(c.sigma_p(p))))
        circle = {lam.payload for lam in c.unitary_scalars()}
        assert twisted == circle, name


def test_scalar_factorization_exhaustive():
    for name, c in presets.etale_family():
        for lam in c.unitary_scalars():
            w = c.hilbert90_scalar(lam)
            assert c.is_unit_p(w.payload), name
            assert w * c.sigma(w).inverse() == lam, name


def test_scalar_factorization_frozen_branches():
    for name, c in presets.etale_family():
        assert c.hilbert90_scalar(c.one) == c.from_int(2), name
        assert c.hilbert90_scalar(-c.one) == c.sqrt_gen, name


def test_gauss_generator_factorization():
    c = presets.etale_preset("f3i")
    i = c.sqrt_gen
    got = c.hilbert90_scalar(i)
    assert got == c.one + i
    assert got * c.sigma(got).inverse() == i


def test_split_circle_is_graph_of_inversion():
    c = presets.etale_preset("f3split")
    # after the basis change e = (1 + sqrt(s))/2, members are (x, x^{-1});
    # in coordinates that reads: both x+y and x-y are units, N = 1
    for lam in c.unitary_scalars():
        x, y = lam.payload
        plus = c.base.add_p(x, y)
        minus = c.base.sub_p(x, y)
        assert c.base.mul_p(plus, minus) == c.base.one_p()


def test_non_circle_scalar_rejected():
    c = presets.etale_preset("f3i")
    bad = c.one + c.sqrt_gen  # norm 2, not 1
    with pytest.raises(ShapeError):
        c.hilbert90_scalar(bad)


# -- the circle from the fibres of squaring, against the norm sweep --------------

def _extended_center(name):
    """The preset tensored up along its own etale extension (f9gen: 6,561 elements)."""
    c = presets.etale_preset(name)
    ext = etale_extension(c)
    return c.extend_scalars(ext.total, ext.embed_p)[0]


ETALE_RINGS = ([(n, lambda n=n: presets.etale_preset(n)) for n in presets.ETALE_NAMES]
                + [(f"{n}-extended", lambda n=n: _extended_center(n))
                   for n in presets.ETALE_NAMES])


@pytest.mark.parametrize("name,build", ETALE_RINGS, ids=[n for n, _ in ETALE_RINGS])
def test_circle_equals_the_norm_sweep(name, build):
    c = build()
    one = c.base.one_p()
    swept = [p for p in c.elements_p() if c.norm_p(p) == one]
    assert [u.payload for u in c.unitary_scalars()] == swept


def test_circle_members_are_checked_by_the_norm(monkeypatch):
    c = QuadraticEtale(PrimeField(5), 2)
    monkeypatch.setattr(c, "norm_p", lambda p: c.base.zero_p())
    with pytest.raises(ExactAlgebraError):
        c.unitary_scalars()


def test_circle_is_built_once_and_handed_out_fresh(monkeypatch):
    c = QuadraticEtale(PrimeField(7), 3)
    first = c.unitary_scalars()
    first.clear()

    def no_arithmetic(*args):
        raise AssertionError("circle built twice")
    monkeypatch.setattr(c.base, "mul_p", no_arithmetic)
    assert len(c.unitary_scalars()) == CIRCLE_SIZES["f7sqrt3"]


# -- ring laws ---------------------------------------------------------------------

@pytest.mark.parametrize("name,build", ETALE_RINGS, ids=[n for n, _ in ETALE_RINGS])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_ring_laws(name, build, data):
    c = build()
    check_laws(c, *(data.draw(elements(c)) for _ in range(3)))


@pytest.mark.parametrize("name,build", ETALE_RINGS, ids=[n for n, _ in ETALE_RINGS])
def test_enumeration_order_and_codes(name, build):
    check_enumeration(build())
