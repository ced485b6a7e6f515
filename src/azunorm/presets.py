"""Shipped example objects.

One place that builds the etale extensions, algebras with involution,
ring extensions and polynomial-ring extensions exercised by the test
suite and by the command line survey.  Each call builds a fresh object;
the caches live on the objects themselves (unit lists, circles, centers).
"""

from __future__ import annotations

from .algebras import (AlgebraWithInvolution, MatrixAlgebra, TableAlgebra,
                       hermitian_involution, quaternion_conjugation,
                       quaternion_table)
from .etale import QuadraticEtale
from .rings import Poly, PolyQuotient, PrimeField, RingMatrix, Zmod
from .transfers import FiniteFreeExtension, PolyExtension, etale_extension


def base_field(p: int):
    return PrimeField(p)


def f9():
    """The nine-element field, presented as F_3 with a square root of -1."""
    f3 = base_field(3)
    return PolyQuotient(f3, Poly.from_ints(f3, [1, 0, 1]))


# -- quadratic etale extensions ------------------------------------------------

# name -> (base builder, defining scalar); s = 1 is the split case
ETALE_NAMES = ("f3i", "f3split", "f5sqrt2", "f5split", "f7sqrt3",
               "z9sqrt2", "f9gen")


def etale_preset(name: str) -> QuadraticEtale:
    if name == "f3i":
        return QuadraticEtale(base_field(3), -1)
    if name == "f3split":
        return QuadraticEtale(base_field(3), 1)
    if name == "f5sqrt2":
        return QuadraticEtale(base_field(5), 2)
    if name == "f5split":
        return QuadraticEtale(base_field(5), 1)
    if name == "f7sqrt3":
        return QuadraticEtale(base_field(7), 3)
    if name == "z9sqrt2":
        return QuadraticEtale(Zmod(9), 2)
    if name == "f9gen":
        nine = f9()
        return QuadraticEtale(nine, nine.elem((1, 1)))
    raise KeyError(f"unknown etale preset {name!r}")


def etale_family():
    """All shipped etale extensions, in a fixed order."""
    return [(n, etale_preset(n)) for n in ETALE_NAMES]


# -- algebras with involution --------------------------------------------------

H_NAMES = ("identity", "diag", "hyperbolic")


def _hermitian_matrix(c: QuadraticEtale, n: int, h_name: str) -> RingMatrix:
    if h_name == "identity":
        return RingMatrix.identity(c, n)
    if h_name == "diag":
        rows = [[c.one if i == j else c.zero for j in range(n)] for i in range(n)]
        rows[n - 1][n - 1] = -c.one
        return RingMatrix.from_rows(c, rows)
    if h_name == "hyperbolic":
        if n != 2:
            raise KeyError("hyperbolic form shipped only in size 2")
        return RingMatrix.from_rows(c, [[c.zero, c.one], [c.one, c.zero]])
    raise KeyError(f"unknown hermitian form name {h_name!r}")


def unitary_m2_f3i(h_name: str = "identity") -> AlgebraWithInvolution:
    """2x2 matrices over F_3 with adjoined i, conjugate-adjoint involution."""
    c = etale_preset("f3i")
    a = MatrixAlgebra(c, 2)
    return AlgebraWithInvolution(a, hermitian_involution(a, _hermitian_matrix(c, 2, h_name)))


def unitary_m2_f5split() -> AlgebraWithInvolution:
    """2x2 matrices over the split rank-2 extension of F_5."""
    c = etale_preset("f5split")
    a = MatrixAlgebra(c, 2)
    return AlgebraWithInvolution(a, hermitian_involution(a, RingMatrix.identity(c, 2)))


def degree_one_unitary(name: str) -> AlgebraWithInvolution:
    """The etale extension itself, viewed as a 1x1 matrix algebra."""
    c = etale_preset(name)
    a = MatrixAlgebra(c, 1)
    return AlgebraWithInvolution(a, hermitian_involution(a, RingMatrix.identity(c, 1)))


def matrix_preset(p: int, n: int) -> MatrixAlgebra:
    return MatrixAlgebra(base_field(p), n)


def quaternion_preset(p: int):
    """(-1, -1) quaternions over F_p with conjugation; returns (table, awi)."""
    t = quaternion_table(base_field(p), -1, -1)
    return t, AlgebraWithInvolution(t, quaternion_conjugation(t))


def dual_numbers(p: int = 3) -> TableAlgebra:
    """F_p[x]/(x^2): commutative with nilpotents, so not Azumaya."""
    f = base_field(p)
    z, o = f.zero_p(), f.one_p()
    gamma = (((o, z), (z, o)), ((z, o), (z, z)))
    return TableAlgebra(f, gamma, unit_index=0)


# -- ring extensions and norm-inclusion pairs ----------------------------------

NORM_PAIR_NAMES = ("m2f3-f9", "m2f3-split", "m2f5-f25", "quatf3-f9")


def quaternion_f3():
    return quaternion_table(base_field(3), -1, -1)


def norm_pair(name: str):
    """A shipped (algebra, extension) pair for the norm-inclusion check."""
    if name == "m2f3-f9":
        return matrix_preset(3, 2), etale_extension(etale_preset("f3i"))
    if name == "m2f3-split":
        return matrix_preset(3, 2), etale_extension(etale_preset("f3split"))
    if name == "m2f5-f25":
        return matrix_preset(5, 2), etale_extension(etale_preset("f5sqrt2"))
    if name == "quatf3-f9":
        return quaternion_f3(), etale_extension(etale_preset("f3i"))
    raise KeyError(f"unknown norm pair {name!r}")


def norm_pairs():
    return [(n,) + norm_pair(n) for n in NORM_PAIR_NAMES]


ADDITIVITY_NAMES = ("powers-f3", "powers-f5", "m2-f3", "m2-f5")


def additivity_case(name: str):
    """(algebra or None, left extension, right extension, d)."""
    if name == "powers-f3":
        return (None, FiniteFreeExtension.identity(base_field(3)),
                etale_extension(etale_preset("f3i")), 2)
    if name == "powers-f5":
        return (None, FiniteFreeExtension.identity(base_field(5)),
                etale_extension(etale_preset("f5sqrt2")), 2)
    if name == "m2-f3":
        return (matrix_preset(3, 2), FiniteFreeExtension.identity(base_field(3)),
                etale_extension(etale_preset("f3i")), 1)
    if name == "m2-f5":
        return (matrix_preset(5, 2), FiniteFreeExtension.identity(base_field(5)),
                etale_extension(etale_preset("f5sqrt2")), 1)
    raise KeyError(f"unknown additivity case {name!r}")


POLY_EXTENSION_NAMES = ("x2-1", "x2-tx-1")


def poly_extension_preset(name: str) -> PolyExtension:
    """Rank-2 extensions of F_5[t], one with a t-dependent modulus."""
    f5 = base_field(5)
    if name == "x2-1":
        return PolyExtension(f5, [[-1], [], [1]])
    if name == "x2-tx-1":
        return PolyExtension(f5, [[-1], [0, -1], [1]])
    raise KeyError(f"unknown polynomial extension {name!r}")
