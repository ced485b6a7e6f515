"""Constructive norm-one descent for unitary involutions.

Every norm-one element a is exhibited as b * sigma(b)^-1 for an explicit
unit b = c + sigma(c) * a, where c solves the scalar descent problem for a
suitable circle element lambda.  Every witness is re-verified by
multiplication, without an inverse: b is a unit and a * sigma(b) = b, which
says b * sigma(b)^-1 = a; nothing is trusted from the construction itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebras import AlgebraElem, AlgebraWithInvolution
from .groups import enumerate_unitary
from .rings import ClassificationError, RingElem, SearchExhausted


@dataclass
class H90Witness:
    input: AlgebraElem
    lam: RingElem
    c: RingElem
    b: AlgebraElem
    verified: bool


def _require_unitary(awi: AlgebraWithInvolution, a: AlgebraElem = None):
    if awi.kind != "unitary":
        raise ClassificationError("a unitary involution is required")
    if a is not None:
        if a.ring != awi.algebra:
            raise ClassificationError("element from a different algebra")
        if not awi.is_unitary_p(a.payload):
            raise ClassificationError("element is not norm-one unitary")


def find_lambda(awi: AlgebraWithInvolution, a: AlgebraElem) -> RingElem:
    """First circle scalar whose negative misses the spectrum of a.

    Scans the norm-one scalars in canonical order for one where the reduced
    characteristic polynomial of a takes a unit value at -lambda; on a
    finite ring every scalar can fail, which is reported with the full
    failure list.
    """
    _require_unitary(awi, a)
    return _find_lambda(awi, a)


def _find_lambda(awi: AlgebraWithInvolution, a: AlgebraElem) -> RingElem:
    C = awi.center_ring
    p = awi.reduced_char_poly(a)
    failures = []
    for lam in C.unitary_scalars():
        val = p.evaluate(-lam)
        if val.is_unit:
            return lam
        failures.append(lam)
    raise SearchExhausted(
        "no circle scalar gives a unit characteristic value", failures=failures)


def h90_witness(awi: AlgebraWithInvolution, a: AlgebraElem) -> H90Witness:
    """Unit b with b * sigma(b)^-1 = a, built from a circle scalar descent.

    find_lambda first checks that awi is unitary and a is norm-one in it.
    """
    return _descend(awi, a, find_lambda(awi, a))


def _descend(awi: AlgebraWithInvolution, a: AlgebraElem, lam: RingElem) -> H90Witness:
    """The witness of a from its circle scalar lam."""
    C = awi.center_ring
    c = C.hilbert90_scalar(lam)
    b = awi.embed_center(c) + awi.embed_center(C.sigma(c)) * a
    ok = C.mul_p(lam.payload, C.sigma_p(lam.payload)) == C.one_p()
    ok = ok and c.payload == C.mul_p(lam.payload, C.sigma_p(c.payload))
    # b is a unit, so sigma(b) is one too and a * sigma(b) = b says b * sigma(b)^-1 = a
    ok = ok and b.is_unit and (a * awi.sigma(b)).payload == b.payload
    return H90Witness(input=a, lam=lam, c=c, b=b, verified=ok)


@dataclass
class InclusionReport:
    total: int
    verified: int
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.verified == self.total and not self.failures


def inclusion_check(awi: AlgebraWithInvolution) -> InclusionReport:
    """Build and re-verify a descent witness for every norm-one element.

    enumerate_unitary has tested each element, so the witnesses are built
    by the unchecked helpers, which do not test it again.
    """
    _require_unitary(awi)
    total = 0
    verified = 0
    failures = []
    for a in enumerate_unitary(awi):
        total += 1
        try:
            w = _descend(awi, a, _find_lambda(awi, a))
        except SearchExhausted as e:
            failures.append((a, f"search exhausted: {e}"))
            continue
        if w.verified:
            verified += 1
        else:
            failures.append((a, "witness failed re-verification"))
    return InclusionReport(total=total, verified=verified, failures=failures)
