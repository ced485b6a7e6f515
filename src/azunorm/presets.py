"""Shipped example objects.

One place that builds the etale extensions, algebras with involution,
ring extensions and polynomial-ring extensions exercised by the test
suite and by the command line survey.  Each call builds a fresh object;
the caches live on the objects themselves (tables, circles, centers).
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


# The etale, norm-pair, additivity and polynomial-extension families are each
# one table from name to what differs, named by tuple(table) in table order.
# Builders in the tables call this module's functions by name, so a rebound
# function is the one that runs.

# -- quadratic etale extensions ------------------------------------------------

# name -> (base builder, defining scalar s); s = 1 is the split case, and
# f9gen's s is the payload 1 + i of F9
_ETALE = {"f3i": (lambda: base_field(3), -1),
          "f3split": (lambda: base_field(3), 1),
          "f5sqrt2": (lambda: base_field(5), 2),
          "f5split": (lambda: base_field(5), 1),
          "f7sqrt3": (lambda: base_field(7), 3),
          "z9sqrt2": (lambda: Zmod(9), 2),
          "f9gen": (lambda: f9(), (1, 1))}
ETALE_NAMES = tuple(_ETALE)


def etale_preset(name: str) -> QuadraticEtale:
    build, s = _ETALE[name]
    return QuadraticEtale(build(), s)


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

def quaternion_f3():
    return quaternion_table(base_field(3), -1, -1)


# name -> (algebra builder, etale preset of the extension)
_NORM_PAIRS = {"m2f3-f9": (lambda: matrix_preset(3, 2), "f3i"),
               "m2f3-split": (lambda: matrix_preset(3, 2), "f3split"),
               "m2f5-f25": (lambda: matrix_preset(5, 2), "f5sqrt2"),
               "quatf3-f9": (lambda: quaternion_f3(), "f3i")}
NORM_PAIR_NAMES = tuple(_NORM_PAIRS)


def norm_pair(name: str):
    """A shipped (algebra, extension) pair for the norm-inclusion check."""
    build, etale = _NORM_PAIRS[name]
    return build(), etale_extension(etale_preset(etale))


def norm_pairs():
    return [(n,) + norm_pair(n) for n in NORM_PAIR_NAMES]


# name -> (p, whether the algebra is M2(F_p), etale preset of the right
# extension, d); the left extension is the identity of F_p
_ADDITIVITY = {"powers-f3": (3, False, "f3i", 2),
               "powers-f5": (5, False, "f5sqrt2", 2),
               "m2-f3": (3, True, "f3i", 1),
               "m2-f5": (5, True, "f5sqrt2", 1)}
ADDITIVITY_NAMES = tuple(_ADDITIVITY)


def additivity_case(name: str):
    """(algebra or None, left extension, right extension, d)."""
    p, m2, etale, d = _ADDITIVITY[name]
    return (matrix_preset(p, 2) if m2 else None,
            FiniteFreeExtension.identity(base_field(p)),
            etale_extension(etale_preset(etale)), d)


# name -> ascending x-coefficients, each a tuple of t-coefficients
_POLY_EXTENSIONS = {"x2-1": ((-1,), (), (1,)),
                    "x2-tx-1": ((-1,), (0, -1), (1,))}
POLY_EXTENSION_NAMES = tuple(_POLY_EXTENSIONS)


def poly_extension_preset(name: str) -> PolyExtension:
    """Rank-2 extensions of F_5[t], one with a t-dependent modulus."""
    return PolyExtension(base_field(5), _POLY_EXTENSIONS[name])
