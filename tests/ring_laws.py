"""Ring laws for the property tests of the ring and etale modules.

check_laws takes three elements drawn by code; check_enumeration sweeps
the ring once.  Together they are the oracle a faster representation of
ring arithmetic has to keep.  dense_apply is the row-by-column product the
sparse RingMatrix.apply is checked against, and dense_product the
row-by-column matrix product that rings.matmul_cells is checked against.
"""

import pytest
from hypothesis import strategies as st

from azunorm.rings import NonUnitError


def elements(ring):
    """Elements of a finite ring, drawn by their encode code."""
    return st.integers(0, ring.size - 1).map(ring.decode)


def check_laws(ring, a, b, c):
    add, mul, neg = ring.add_p, ring.mul_p, ring.neg_p
    zero, one = ring.zero_p(), ring.one_p()
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert add(a, b) == add(b, a)
    assert mul(a, b) == mul(b, a)
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, zero) == a and mul(a, one) == a
    assert add(a, neg(a)) == zero
    # results are canonical payloads, so they survive the code round trip
    for x in (add(a, b), mul(a, b), neg(a)):
        assert ring.decode(ring.encode(x)) == x
    if ring.is_unit_p(a):
        assert mul(a, ring.inv_p(a)) == one
    else:
        with pytest.raises(NonUnitError):
            ring.inv_p(a)


def check_enumeration(ring):
    """elements_p runs in increasing encode order and decode inverts encode."""
    elems = list(ring.elements_p())
    assert [ring.encode(p) for p in elems] == list(range(ring.size))
    assert all(ring.decode(ring.encode(p)) == p for p in elems)


def dense_apply(m, vec):
    """m times vec over every cell, zeros included."""
    r = m.ring
    out = []
    for i in range(m.nrows):
        acc = r.zero_p()
        for k in range(m.ncols):
            acc = r.add_p(acc, r.mul_p(m.at(i, k), vec[k]))
        out.append(acc)
    return out


def dense_product(a, b):
    """Row-major cells of a times b, each a sum over every k, zeros included."""
    r = a.ring
    out = []
    for i in range(a.nrows):
        for j in range(b.ncols):
            acc = r.zero_p()
            for k in range(a.ncols):
                acc = r.add_p(acc, r.mul_p(a.at(i, k), b.at(k, j)))
            out.append(acc)
    return out
