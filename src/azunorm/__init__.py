"""Exact arithmetic for algebras with involution over small finite rings.

The package computes reduced norms and reduced characteristic polynomials
of matrix and structure-constant algebras, classifies involutions, builds
explicit norm-one factorization witnesses, and verifies norm-map axioms
for finite free ring extensions.  All arithmetic is exact; every reported
identity is replayed by direct multiplication.
"""
