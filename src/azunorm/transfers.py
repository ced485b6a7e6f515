"""Norm maps of finite free ring extensions and the transfer machinery.

A finite free extension carries an explicit basis; its norm is the honest
determinant of multiplication in that basis.  On top of that sit the
norm-inclusion check for extended algebras, transfers between functor
values (with well-definedness re-checked element by element), additivity
over product extensions, and the polynomial-ring base-change check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .algebras import Algebra, AlgebraWithInvolution, scalar_extension
from .etale import QuadraticEtale
from .groups import FiniteAbelianPresentation, functor_linear, functor_unitary, \
    nrd_unit_image
from .rings import (ClassificationError, ExactAlgebraError, NonUnitError, Poly,
                    PolyQuotient, PolyRing, Ring, RingElem, RingMatrix,
                    ShapeError)

_COORD_GUARD = 200000


class FiniteFreeExtension:
    """total is free as a base module with the given basis; norms are dets."""

    def __init__(self, base: Ring, total: Ring, basis, embed_p, coords_p=None,
                 name: str = ""):
        self.base = base
        self.total = total
        self.basis = [b.payload if isinstance(b, RingElem) else b for b in basis]
        self.embed_p = embed_p
        self.rank = len(self.basis)
        self.name = name or f"rank-{self.rank} extension"
        if total.size is None or base.size is None:
            raise ExactAlgebraError("extensions must be finite")
        if base.size ** self.rank != total.size:
            raise ExactAlgebraError("basis length does not match the module size")
        if embed_p(base.one_p()) != total.one_p():
            raise ExactAlgebraError("embedding is not unital")
        self._check_embedding_hom()
        if coords_p is None:
            self._table = self._build_coord_table()
            coords_p = self._table.__getitem__
        self.coords_p = coords_p

    def _check_embedding_hom(self):
        """Raise unless embed_p is a ring homomorphism base -> total.

        S is a greedy set of additive generators of the base: an element
        joins S only if the span of the earlier ones misses it.  Checking
        f(a + g) = f(a) + f(g) for every a and every g in S gives
        f(a + b) = f(a) + f(b) for all a, b, by induction on the length of
        b as a sum of generators.  Checking f(g h) = f(g) f(h) on S x S then
        gives multiplicativity everywhere, since both sides are additive in
        each argument.  Unitality is checked by the caller.
        """
        base, tot, f = self.base, self.total, self.embed_p
        gens = []
        span = {base.zero_p()}
        for a in base.elements_p():
            if a in span:
                continue
            gens.append(a)
            fresh = span
            while fresh:
                fresh = {base.add_p(x, a) for x in fresh} - span
                span |= fresh
        for a in base.elements_p():
            fa = f(a)
            for g in gens:
                if f(base.add_p(a, g)) != tot.add_p(fa, f(g)):
                    raise ExactAlgebraError("embedding is not additive")
        for g in gens:
            for h in gens:
                if f(base.mul_p(g, h)) != tot.mul_p(f(g), f(h)):
                    raise ExactAlgebraError("embedding is not multiplicative")

    def _build_coord_table(self):
        base, tot = self.base, self.total
        if base.size ** self.rank > _COORD_GUARD:
            raise ExactAlgebraError("extension too large for coordinate table")
        elems = list(base.elements_p())
        # one column per basis element: (c, embed(c) * b) for every c
        cols = [[(c, tot.mul_p(self.embed_p(c), b)) for c in elems]
                for b in self.basis]
        # combos with the last coordinate varying fastest; each sum is one
        # addition away from the sum of its prefix
        layer = [((), tot.zero_p())]
        for col in cols:
            layer = [(combo + (c,), tot.add_p(acc, v))
                     for combo, acc in layer for c, v in col]
        table = {}
        for combo, acc in layer:
            if acc in table:
                raise ExactAlgebraError("basis is not free: coordinate collision")
            table[acc] = combo
        if len(table) != tot.size:
            raise ExactAlgebraError("basis does not span the extension")
        return table

    # -- the norm ---------------------------------------------------------
    def mult_matrix(self, t_payload) -> RingMatrix:
        return RingMatrix.from_columns(
            self.base, [self.coords_p(self.total.mul_p(t_payload, b)) for b in self.basis])

    def norm_p(self, t_payload):
        return self.mult_matrix(t_payload).det().payload

    def norm(self, t: RingElem) -> RingElem:
        if t.ring != self.total:
            raise ShapeError("element is not in the extension ring")
        return RingElem(self.base, self.norm_p(t.payload))

    # -- constructors -------------------------------------------------------
    @classmethod
    def identity(cls, ring: Ring) -> "FiniteFreeExtension":
        return cls(ring, ring, [ring.one_p()], lambda p: p,
                   coords_p=lambda p: (p,), name=f"{ring!r}/{ring!r}")

    @classmethod
    def from_quotient(cls, pq: PolyQuotient) -> "FiniteFreeExtension":
        base = pq.base
        deg = pq.modulus.degree
        zero, one = base.zero_p(), base.one_p()
        basis = [tuple(one if i == j else zero for i in range(deg))
                 for j in range(deg)]
        return cls(base, pq, basis, pq.embed_p, coords_p=lambda p: p,
                   name=f"{pq!r}/{base!r}")

    @classmethod
    def product(cls, e1: "FiniteFreeExtension",
                e2: "FiniteFreeExtension") -> "FiniteFreeExtension":
        if e1.base != e2.base:
            raise ShapeError("product factors must share the base")
        from .rings import ProductRing
        tot = ProductRing([e1.total, e2.total])
        z1, z2 = e1.total.zero_p(), e2.total.zero_p()
        basis = [(b, z2) for b in e1.basis] + [(z1, b) for b in e2.basis]

        def embed(p):
            return (e1.embed_p(p), e2.embed_p(p))

        def coords(p):
            return tuple(e1.coords_p(p[0])) + tuple(e2.coords_p(p[1]))

        return cls(e1.base, tot, basis, embed, coords_p=coords,
                   name=f"({e1.name}) x ({e2.name})")

    def __repr__(self):
        return f"FiniteFreeExtension({self.name})"


def etale_extension(c: QuadraticEtale) -> FiniteFreeExtension:
    return FiniteFreeExtension.from_quotient(c)


def center_extension(C: QuadraticEtale, ext: FiniteFreeExtension) -> tuple:
    """The extended etale center CT = C tensor total, free over C.

    Returns (CT, extension CT over C), with the basis of ext in the first
    coordinate, so its norm carries values in CT down to C.
    """
    CT, embed_c = C.extend_scalars(ext.total, ext.embed_p)
    zt = ext.total.zero_p()
    basis_c = [(b, zt) for b in ext.basis]
    return CT, FiniteFreeExtension(C, CT, basis_c, embed_c,
                                   name=f"center of {ext.name}")


# -- norm inclusion -------------------------------------------------------

@dataclass
class NormInclusionReport:
    included: bool
    equal: bool
    extended_norms: int
    mapped_size: int
    base_norms: int
    counterexamples: list = field(default_factory=list)


def norm_inclusion_check(algebra: Algebra, ext: FiniteFreeExtension,
                         extended_nrd_set=None) -> NormInclusionReport:
    """Push reduced norms of the extended algebra down and test containment.

    The extended unit-norm set may be precomputed and passed in (it is the
    expensive side for big tables); by default both sides are enumerated
    honestly here.
    """
    if ext.base != algebra.base:
        raise ShapeError("extension base does not match the algebra")
    alg_t, _ = scalar_extension(algebra, ext)
    if extended_nrd_set is None:
        extended_nrd_set = nrd_unit_image(alg_t)
    base_set = nrd_unit_image(algebra)
    C = algebra.cdata.ring
    norm_p = ext.norm_p
    if isinstance(C, QuadraticEtale):
        # reduced norms live in the centers: push down along CT over C
        CT, ext_c = center_extension(C, ext)
        if alg_t.cdata.ring != CT:
            raise ClassificationError("extended center is not the extended etale center")
        norm_p = ext_c.norm_p
    mapped = {norm_p(z) for z in extended_nrd_set}
    bad = sorted(mapped - base_set, key=C.encode)
    return NormInclusionReport(included=not bad, equal=mapped == base_set,
                               extended_norms=len(extended_nrd_set),
                               mapped_size=len(mapped),
                               base_norms=len(base_set),
                               counterexamples=bad[:5])


# -- transfer on functor values ----------------------------------------------

@dataclass
class TransferReport:
    kind: str
    well_defined: bool
    hom_ok: bool
    sigma_compat: bool
    source_order: int
    target_order: int
    mapping: dict  # source coset rep -> target coset rep
    bad_pairs: list = field(default_factory=list)


def _coset_map_checks(source: FiniteAbelianPresentation,
                      target: FiniteAbelianPresentation, push):
    mapping = {}
    well = True
    bad = []
    for rep, members in source.cosets:
        images = {target.rep(push(m)) for m in members}
        if len(images) != 1:
            well = False
            bad.append(rep)
            continue
        mapping[rep] = images.pop()
    hom_ok = True
    if well:
        for r1, _ in source.cosets:
            for r2, _ in source.cosets:
                lhs = mapping[source.op(r1, r2)]
                rhs = target.op(mapping[r1], mapping[r2])
                if lhs != rhs:
                    hom_ok = False
                    bad.append((r1, r2))
    return mapping, well, hom_ok, bad


def transfer_on_functor(kind: str, a, ext: FiniteFreeExtension, d: int,
                        precondition_report: NormInclusionReport = None
                        ) -> TransferReport:
    """The norm-induced map F(total) -> F(base), with every check replayed.

    kind 'linear': units modulo norms and d-th powers, pushed by the norm.
    kind 'unitary': norm-one center units, pushed by the norm of the extended
    etale center over the original one; sigma-compatibility N(sigma(x)) =
    sigma(N(x)) is verified on every source element.
    """
    if kind == "linear":
        if a is not None:
            alg = a.algebra if isinstance(a, AlgebraWithInvolution) else a
            pre = precondition_report or norm_inclusion_check(alg, ext)
            if not pre.included:
                raise ExactAlgebraError("norm inclusion precondition failed")
        source = functor_linear(a, ext, d)
        target = functor_linear(a, FiniteFreeExtension.identity(ext.base), d)
        mapping, well, hom_ok, bad = _coset_map_checks(source, target, ext.norm_p)
        return TransferReport(kind=kind, well_defined=well, hom_ok=hom_ok,
                              sigma_compat=True, source_order=source.order,
                              target_order=target.order, mapping=mapping,
                              bad_pairs=bad)
    if kind != "unitary":
        raise ClassificationError(f"unknown functor kind {kind!r}")
    if isinstance(a, QuadraticEtale):
        C = a
    else:
        if a.kind != "unitary":
            raise ClassificationError("unitary transfer needs a unitary involution")
        C = a.center_ring
    CT, ext_c = center_extension(C, ext)
    source = functor_unitary(a, ext, d)
    target = functor_unitary(a, FiniteFreeExtension.identity(ext.base), d)
    sigma_ok = True
    for rep, members in source.cosets:
        for m in members:
            if ext_c.norm_p(CT.sigma_p(m)) != C.sigma_p(ext_c.norm_p(m)):
                sigma_ok = False
    mapping, well, hom_ok, bad = _coset_map_checks(source, target, ext_c.norm_p)
    return TransferReport(kind=kind, well_defined=well, hom_ok=hom_ok,
                          sigma_compat=sigma_ok, source_order=source.order,
                          target_order=target.order, mapping=mapping,
                          bad_pairs=bad)


# -- additivity over product extensions ---------------------------------------

@dataclass
class AdditivityReport:
    ok: bool
    checked: int
    failures: list = field(default_factory=list)


def additivity_check(algebra, e1: FiniteFreeExtension, e2: FiniteFreeExtension,
                     d: int = 1) -> AdditivityReport:
    """Transfer over a product extension must factor through the components.

    Verified on every unit of the product ring: the product norm equals the
    product of component norms, and the induced coset map agrees with the
    composition of the component transfers in the target quotient.
    """
    prod = FiniteFreeExtension.product(e1, e2)
    base = prod.base
    target = functor_linear(algebra, FiniteFreeExtension.identity(base), d)
    checked = 0
    failures = []
    for u in prod.total.units():
        p1, p2 = u.payload
        n_prod = prod.norm_p(u.payload)
        n_split = base.mul_p(e1.norm_p(p1), e2.norm_p(p2))
        if n_prod != n_split:
            failures.append(("norm", u.payload))
        elif target.rep(n_prod) != target.op(e1.norm_p(p1), e2.norm_p(p2)):
            failures.append(("coset", u.payload))
        checked += 1
    return AdditivityReport(ok=not failures, checked=checked, failures=failures[:5])


# -- polynomial base change -------------------------------------------------

class PolyExtension:
    """A monic-in-x quotient of base[t][x], free over base[t].

    Norms are determinants over the polynomial ring (division-free), so the
    t-variable stays symbolic; evaluation maps compare them against honest
    norms over the base.
    """

    def __init__(self, base: Ring, xcoeffs):
        self.base = base
        self.rt = PolyRing(base)
        coeffs = []
        for c in xcoeffs:
            if isinstance(c, Poly):
                if c.ring != base:
                    raise ShapeError("coefficient polynomial over the wrong ring")
                coeffs.append(c.coeffs)
            else:
                coeffs.append(Poly.from_ints(base, list(c)).coeffs)
        modulus = Poly(self.rt, coeffs)
        if not modulus.is_monic or modulus.degree < 1:
            raise ExactAlgebraError("modulus must be monic of positive degree in x")
        self.modulus = modulus
        self.degree = modulus.degree
        self.total = PolyQuotient(self.rt, modulus)

    def element(self, xcoeff_ints):
        """Element from ascending x-coefficients, each a t-coefficient list."""
        vec = [Poly.from_ints(self.base, list(c)).coeffs for c in xcoeff_ints]
        while len(vec) < self.degree:
            vec.append(())
        if len(vec) != self.degree:
            raise ShapeError("too many x-coefficients")
        return tuple(vec)

    def norm_p(self, payload):
        """Norm down to base[t], as a polynomial payload."""
        return self.total.mult_matrix(payload).det().payload

    def reduced_ring(self, at: int) -> PolyQuotient:
        c = self.base.int_p(at)
        mod = Poly(self.base, [self.rt.eval_p(cc, c) for cc in self.modulus.coeffs])
        return PolyQuotient(self.base, mod)

    def reduce_p(self, payload, at: int):
        c = self.base.int_p(at)
        return tuple(self.rt.eval_p(cc, c) for cc in payload)

    def sample(self, rng: random.Random, t_degree: int = 2):
        vec = []
        for _ in range(self.degree):
            ints = [rng.randrange(self.base.size) for _ in range(t_degree + 1)]
            vec.append(Poly(self.base,
                            [self.base.decode(i) for i in ints]).coeffs)
        return tuple(vec)

    def __repr__(self):
        return f"PolyExtension({self.base!r}[t][x]/({self.modulus!r}))"


@dataclass
class BaseChangeReport:
    ok: bool
    samples: int
    eval_matches: int
    unit_samples: int
    nonunit_samples: int
    failures: list = field(default_factory=list)


def base_change_check(ext: PolyExtension, samples: int, seed: int
                      ) -> BaseChangeReport:
    """Evaluation compatibility and unit t-constancy of the symbolic norm.

    For each sampled element: the norm over base[t] evaluated at t = 0 and
    t = 1 must equal the norms of the element's reductions; when the norm is
    a t-constant unit the element's inverse is constructed and re-multiplied
    to 1, and when it is not a unit the inverse construction must fail.
    """
    if samples < 1:
        raise ExactAlgebraError(f"samples must be at least 1, got {samples}")
    base = ext.base
    if not base.is_reduced():
        raise ClassificationError("base must be reduced")
    rng = random.Random(seed)
    ring0 = ext.reduced_ring(0)
    ring1 = ext.reduced_ring(1)
    rt = ext.rt
    failures = []
    eval_matches = 0
    unit_samples = 0
    nonunit_samples = 0
    zero_t = base.int_p(0)
    one_t = base.int_p(1)
    for k in range(samples):
        s = ext.sample(rng)
        n = ext.norm_p(s)
        at0 = rt.eval_p(n, zero_t)
        at1 = rt.eval_p(n, one_t)
        n0 = ring0.mult_matrix(ext.reduce_p(s, 0)).det().payload
        n1 = ring1.mult_matrix(ext.reduce_p(s, 1)).det().payload
        if at0 == n0 and at1 == n1:
            eval_matches += 1
        else:
            failures.append(("evaluation", k))
            continue
        if rt.is_unit_p(n):
            unit_samples += 1
            if rt.t_degree(n) != 0:
                failures.append(("t-degree", k))
                continue
            inv = ext.total.inv_p(s)
            if ext.total.mul_p(s, inv) != ext.total.one_p():
                failures.append(("inverse", k))
        else:
            nonunit_samples += 1
            try:
                ext.total.inv_p(s)
            except NonUnitError:
                pass
            else:
                failures.append(("unexpected-inverse", k))
    return BaseChangeReport(ok=not failures, samples=samples,
                            eval_matches=eval_matches,
                            unit_samples=unit_samples,
                            nonunit_samples=nonunit_samples,
                            failures=failures[:5])
