"""Norm-compatibility witnesses for unitary involutions.

The symmetric/antisymmetric splitting of the algebra gives a fixed basis
(antisymmetric block first, then symmetric with 1 leading).  Inside it,
units whose regular representation has an invertible corner admit a direct
witness w = -(r+u)(r-u)^-1 with w norm-one and nrd(w) = nrd(a)*sigma(nrd(a))^-1;
everything else is factored through two such units.  A brute-force oracle
computes both sides of the norm identity as explicit sets.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .algebras import AlgebraElem, AlgebraWithInvolution
from .rings import (ClassificationError, ExactAlgebraError, NonUnitError,
                    RingElem, RingMatrix, SearchExhausted, extend_basis,
                    nullspace)


class PreconditionError(ExactAlgebraError):
    """An operation was called outside its verified domain."""


class PlusMinusSplit:
    """Fixed-basis splitting A = A_minus + A_plus for a unitary involution.

    basis_plus starts with 1; basis_minus is basis_plus scaled by the
    embedded square root of the center unit.  The fixed basis orders the
    minus block first.  minus_map stacks, for each b in basis_minus, the map
    from base coordinates of a to the fixed coordinates of a*b.
    """

    def __init__(self, awi: AlgebraWithInvolution):
        if awi.kind != "unitary":
            raise ClassificationError("plus/minus splitting needs a unitary involution")
        alg = awi.algebra
        base = alg.base
        self.awi = awi
        self.algebra = alg
        r = alg.rank
        if r % 2:
            raise ClassificationError("odd rank cannot split in halves")
        m = r // 2
        self.m = m
        ident = RingMatrix.identity(base, r)
        sig = awi.involution.matrix
        fixed = nullspace(sig - ident)
        anti = nullspace(sig + ident)
        if len(fixed) != m or len(anti) != m:
            raise ClassificationError(
                f"symmetric/antisymmetric ranks {len(fixed)}/{len(anti)}, want {m}/{m}")
        one_coords = list(alg.coords_p(alg.one_p()))
        plus = self._plus_basis_with_one_first(base, m, one_coords, fixed)
        sqrt_b = awi.sqrt_center.payload
        minus = [alg.mul_p(sqrt_b, alg.from_coords_p(p)) for p in plus]
        for mp in minus:
            if awi.sigma_p(mp) != alg.neg_p(mp):
                raise ClassificationError("minus basis vector is not antisymmetric")
        self.sqrt_b = sqrt_b
        self.basis_plus = [alg.from_coords_p(p) for p in plus]
        self.basis_minus = minus
        self.basis_matrix = RingMatrix.from_columns(
            base, [alg.coords_p(p) for p in minus] + plus)
        try:
            self.basis_inverse = self.basis_matrix.inverse()
        except NonUnitError:
            raise ClassificationError("plus and minus blocks do not span freely")
        self.minus_map = RingMatrix(base, m * r, r, [
            x for b in minus for x in (self.basis_inverse * alg.right_mult_matrix(b)).cells])
        self._pad = [base.zero_p()] * m
        self._anchored = None

    @staticmethod
    def _plus_basis_with_one_first(base, m, one_coords, fixed):
        if base.is_field:
            picked = extend_basis(base, [one_coords], ([v] for v in fixed), m)
            if 1 + len(picked) != m:
                raise ClassificationError("could not lead the symmetric basis with 1")
            return [tuple(one_coords)] + [tuple(fixed[i]) for i in picked]
        if m != 1:
            raise ClassificationError(
                "non-field base supports only rank-1 symmetric blocks")
        # 1 must span the one-dimensional symmetric block
        k = fixed[0]
        for r_p in base.elements_p():
            if tuple(base.mul_p(r_p, c) for c in one_coords) == tuple(k):
                return [tuple(one_coords)]
        raise ClassificationError("1 does not span the symmetric block")

    # -- coordinates in the fixed basis ---------------------------------------
    def to_fixed(self, payload):
        return self.basis_inverse.apply(self.algebra.coords_p(payload))

    # sum c_k * basis_minus[k] (or basis_plus[k]): basis_matrix on the fixed
    # coordinates, zero-padded in the other block
    def from_minus_coords(self, coords):
        return self.algebra.from_coords_p(self.basis_matrix.apply(list(coords) + self._pad))

    def from_plus_coords(self, coords):
        return self.algebra.from_coords_p(self.basis_matrix.apply(self._pad + list(coords)))

    def anchored_candidates(self):
        """Verified members of the witness domain of the form sqrt * symmetric,
        as (v, v^-1) pairs."""
        return [(v, vinv) for v, vinv, _ in self._anchored_records()]

    def _anchored_records(self):
        """(v, v^-1, direct witness of v) per anchored candidate, in canonical
        order; built on first use into the plain attribute _anchored."""
        if self._anchored is not None:
            return self._anchored
        alg = self.algebra
        out = []
        for combo in itertools.product(list(alg.base.elements_p()), repeat=self.m):
            # sqrt_b * (plus combination), since basis_minus is sqrt_b * basis_plus
            v2 = self.from_minus_coords(combo)
            rec = _omega(self, v2)
            if rec is not None:
                out.append((v2, alg.inv_p(v2),
                            _direct_witness(self, AlgebraElem(alg, v2), rec)))
        self._anchored = out
        return out


def pm_split(awi: AlgebraWithInvolution) -> PlusMinusSplit:
    return PlusMinusSplit(awi)


def _omega(split: PlusMinusSplit, payload):
    """(v, av, r, u): the companion unit v and a*v = r + u, or None when the
    corner test puts the element outside the witness domain."""
    alg = split.algebra
    base = alg.base
    if not alg.is_unit_p(payload):
        return None
    m = split.m
    # block j holds the fixed coordinates of a * basis_minus[j]; the corner
    # is empty when m = 1, and then v_coords = [1]
    r = alg.rank
    cols = split.minus_map.apply(alg.coords_p(payload))
    n_mat = RingMatrix.from_columns(
        base, [cols[j * r + m + 1:(j + 1) * r] for j in range(1, m)])
    try:
        n_inv = n_mat.inverse()
    except NonUnitError:
        return None
    cbar = [base.neg_p(x) for x in cols[m + 1:r]]
    v_coords = [base.one_p()] + n_inv.apply(cbar)
    v = split.from_minus_coords(v_coords)
    av = alg.mul_p(payload, v)
    if not alg.is_unit_p(av):
        return None
    fixed = split.to_fixed(av)
    zero = base.zero_p()
    if any(c != zero for c in fixed[m + 1:]):
        raise ExactAlgebraError("corner solve left a nonzero symmetric tail")
    r = fixed[m]
    u = split.from_minus_coords(fixed[:m])
    return v, av, r, u


def open_set_member(split: PlusMinusSplit, a: AlgebraElem) -> bool:
    """Unit with invertible corner whose companion product is a unit."""
    if a.ring != split.algebra:
        raise ClassificationError("element from a different algebra")
    return _omega(split, a.payload) is not None


@dataclass
class NPWitness:
    input: AlgebraElem
    route: str                      # "direct" or "factored"
    w: AlgebraElem
    verified: bool
    r: RingElem = None
    u: AlgebraElem = None
    v: AlgebraElem = None
    parts: tuple = None             # (witness for a*v2^-1, witness for v2)
    seed: int = None


def _verify_witness(awi: AlgebraWithInvolution, a_payload, w_payload) -> bool:
    C = awi.center_ring
    if not awi.is_unitary_p(w_payload):
        return False
    na = awi.nrd_p(a_payload)
    want = C.mul_p(na, C.inv_p(C.sigma_p(na)))
    return awi.nrd_p(w_payload) == want


def direct_np_witness(split: PlusMinusSplit, a: AlgebraElem) -> NPWitness:
    """w = -(r+u)(r-u)^-1 from the companion decomposition a*v = r + u."""
    rec = _omega(split, a.payload)
    if rec is None:
        raise PreconditionError("element is outside the witness domain")
    return _direct_witness(split, a, rec)


def _direct_witness(split: PlusMinusSplit, a: AlgebraElem, rec) -> NPWitness:
    """The direct witness of a from its _omega record."""
    awi = split.awi
    alg = split.algebra
    v, av, r, u = rec
    # replay the decomposition and the symmetry facts it relies on
    rp = alg.scale_base_p(alg.one_p(), r)
    if alg.add_p(rp, u) != av:
        raise ExactAlgebraError("decomposition replay failed")
    if awi.sigma_p(u) != alg.neg_p(u) or awi.sigma_p(v) != alg.neg_p(v):
        raise ExactAlgebraError("antisymmetric part failed its symmetry check")
    sav = alg.sub_p(rp, u)
    if awi.sigma_p(av) != sav:
        raise ExactAlgebraError("sigma(a*v) is not r - u")
    if alg.mul_p(av, sav) != alg.mul_p(sav, av):
        raise ExactAlgebraError("r+u and r-u do not commute")
    w = alg.neg_p(alg.mul_p(av, alg.inv_p(sav)))
    ok = _verify_witness(awi, a.payload, w)
    return NPWitness(input=a, route="direct", w=AlgebraElem(alg, w), verified=ok,
                     r=RingElem(alg.base, r), u=AlgebraElem(alg, u),
                     v=AlgebraElem(alg, v))


def _cofactor_witness(split: PlusMinusSplit, a: AlgebraElem, v2inv):
    """Direct witness of v1 = a * v2^-1, or None when v1 is outside the
    witness domain."""
    alg = split.algebra
    v1 = alg.mul_p(a.payload, v2inv)
    rec1 = _omega(split, v1)
    if rec1 is None:
        return None
    return _direct_witness(split, AlgebraElem(alg, v1), rec1)


def _factored_np_witness(split: PlusMinusSplit, a: AlgebraElem, w1: NPWitness,
                         w2: NPWitness, seed):
    """Witness of a = v1 * v2 from the direct witnesses of both factors."""
    w = w1.w * w2.w
    ok = w1.verified and w2.verified \
        and _verify_witness(split.awi, a.payload, w.payload)
    return NPWitness(input=a, route="factored", w=w, verified=ok,
                     parts=(w1, w2), seed=seed)


def np_witness(split: PlusMinusSplit, a: AlgebraElem, seed: int = 0) -> NPWitness:
    """Direct witness when possible, else a two-factor witness.

    The factor search first walks the precomputed anchored candidates in
    canonical order, then draws up to 4*|A| seeded random elements; the
    seed is recorded in the witness for replay.
    """
    alg = split.algebra
    if not alg.is_unit_p(a.payload):
        raise PreconditionError("witness construction needs a unit")
    rec = _omega(split, a.payload)
    if rec is not None:
        return _direct_witness(split, a, rec)
    for _, v2inv, w2 in split._anchored_records():
        w1 = _cofactor_witness(split, a, v2inv)
        if w1 is not None:
            return _factored_np_witness(split, a, w1, w2, None)
    rng = random.Random(seed)
    size = alg.size
    for _ in range(4 * size):
        v2 = alg.decode(rng.randrange(size))
        rec2 = _omega(split, v2)
        if rec2 is None:
            continue
        w1 = _cofactor_witness(split, a, alg.inv_p(v2))
        if w1 is not None:
            w2 = _direct_witness(split, AlgebraElem(alg, v2), rec2)
            return _factored_np_witness(split, a, w1, w2, seed)
    raise SearchExhausted("no two-factor decomposition found")


@dataclass
class NPBruteReport:
    equal: bool
    lhs_size: int                   # norms of norm-one elements
    rhs_size: int                   # twisted norms of all unit norms
    unit_count: int
    unitary_count: int
    lhs: set = field(repr=False, default=None)
    rhs: set = field(repr=False, default=None)

    @property
    def ok(self) -> bool:
        return self.equal


def np_bruteforce_check(awi: AlgebraWithInvolution) -> NPBruteReport:
    """Both sides of the norm identity as explicit sets, by full sweep.

    Every element is decoded and its reduced norm nv computed.  Since
    nrd(sigma(x)) = sigma(nrd(x)), a unitary x has nv*sigma(nv) = 1, so
    nrd(U) lies in the norm-one circle of the center; the sweep takes that
    inclusion as given (the tests check it on U listed by frames) and runs
    the unitarity test only on units whose nv lies on the circle.  The
    sweep decides the circle once per distinct nv.
    """
    if awi.kind != "unitary":
        raise ClassificationError("the norm identity is about unitary involutions")
    alg = awi.algebra
    C = awi.center_ring
    one = C.one_p()
    on_circle = {}                  # unit norm -> whether it is norm-one
    lhs = set()
    unit_count = 0
    unitary_count = 0
    for p in alg.elements_p():
        nv = awi.nrd_p(p)
        if not C.is_unit_p(nv):
            continue
        unit_count += 1
        circle = on_circle.get(nv)
        if circle is None:
            circle = on_circle[nv] = C.mul_p(nv, C.sigma_p(nv)) == one
        if circle and awi.is_unitary_p(p):
            unitary_count += 1
            lhs.add(nv)
    rhs = {C.mul_p(z, C.inv_p(C.sigma_p(z))) for z in on_circle}
    return NPBruteReport(equal=lhs == rhs, lhs_size=len(lhs), rhs_size=len(rhs),
                         unit_count=unit_count, unitary_count=unitary_count,
                         lhs=lhs, rhs=rhs)
