"""Ring laws for the property tests of the ring and etale modules.

check_laws takes three elements drawn by code; check_enumeration sweeps
the ring once.  Together they are the oracle a faster representation of
ring arithmetic has to keep.
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
