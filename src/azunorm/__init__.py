"""Exact arithmetic for algebras with involution over small finite rings.

The package computes reduced norms and reduced characteristic polynomials
of matrix and structure-constant algebras, classifies involutions, builds
explicit norm-one factorization witnesses, and verifies norm-map axioms
for finite free ring extensions.  All arithmetic is exact; every reported
identity is replayed by direct multiplication.
"""

from .rings import (ClassificationError, ConfigError, ExactAlgebraError,
                    NonUnitError, NoRootError, Poly, PolyQuotient, PolyRing,
                    PrimeField, ProductRing, Ring, RingElem, RingMatrix,
                    SearchExhausted, ShapeError, Zmod, enumerate_units,
                    nth_root_monic, nullspace, row_reduce, solve_field)
from .etale import QuadraticEtale
from .algebras import (Algebra, AlgebraElem, AlgebraWithInvolution,
                       AzumayaReport, CenterData, Involution, MatrixAlgebra,
                       TableAlgebra, adjoint_involution, azumaya_verify,
                       center_basis, center_data, extend_awi,
                       hermitian_involution, nrd, nrd_data,
                       quaternion_conjugation, quaternion_table, rebase_table,
                       reduced_char_poly, reduced_char_poly_data,
                       scalar_extension, to_table, transpose_involution)
from .groups import (FiniteAbelianPresentation, enumerate_special,
                     enumerate_unitary, functor_linear, functor_unitary,
                     nrd_image, nrd_unit_image)
from .hilbert90 import H90Witness, InclusionReport, find_lambda, h90_witness, inclusion_check
from .norm_principle import (NPBruteReport, NPWitness, PlusMinusSplit,
                             PreconditionError, direct_np_witness,
                             np_bruteforce_check, np_witness, open_set_member,
                             pm_split)
from .transfers import (AdditivityReport, BaseChangeReport,
                        FiniteFreeExtension, NormInclusionReport,
                        PolyExtension, TransferReport, additivity_check,
                        base_change_check, etale_extension,
                        norm_inclusion_check, transfer_on_functor)

__version__ = "1.0.0"

__all__ = [
    "Algebra", "AlgebraElem", "AlgebraWithInvolution", "AdditivityReport",
    "AzumayaReport", "BaseChangeReport", "CenterData", "ClassificationError",
    "ConfigError", "ExactAlgebraError", "FiniteAbelianPresentation",
    "FiniteFreeExtension", "H90Witness", "InclusionReport", "Involution",
    "MatrixAlgebra", "NPBruteReport", "NPWitness", "NoRootError",
    "NonUnitError", "NormInclusionReport", "PlusMinusSplit", "Poly",
    "PolyExtension", "PolyQuotient", "PolyRing", "PreconditionError",
    "PrimeField", "ProductRing", "QuadraticEtale", "Ring", "RingElem",
    "RingMatrix", "SearchExhausted", "ShapeError", "TableAlgebra",
    "TransferReport", "Zmod", "additivity_check", "adjoint_involution",
    "azumaya_verify", "base_change_check", "center_basis", "center_data",
    "direct_np_witness", "enumerate_special", "enumerate_unitary",
    "enumerate_units", "etale_extension", "extend_awi", "find_lambda",
    "functor_linear", "functor_unitary", "h90_witness",
    "hermitian_involution", "inclusion_check", "norm_inclusion_check",
    "np_bruteforce_check", "np_witness", "nrd",
    "nrd_data", "nrd_image", "nrd_unit_image", "nth_root_monic", "nullspace",
    "open_set_member", "pm_split", "quaternion_conjugation",
    "quaternion_table", "rebase_table", "reduced_char_poly",
    "reduced_char_poly_data", "row_reduce", "scalar_extension",
    "solve_field", "to_table", "transfer_on_functor",
    "transpose_involution",
]
