"""Quadratic etale extensions R[x]/(x^2 - s) with their standard involution.

Every rank-2 etale extension here is presented by a unit s of the base;
the split case is s = 1.  Elements are pairs (x, y) standing for
x + y*sqrt(s), the involution negates y, and the norm to the base is
x^2 - s*y^2.
"""

from __future__ import annotations

from .rings import (ExactAlgebraError, NonUnitError, Poly, PolyQuotient, RingElem,
                    SearchExhausted, ShapeError)


class QuadraticEtale(PolyQuotient):
    """R[x]/(x^2 - s) for a unit s; carries sigma, norm and the unitary circle."""

    def __init__(self, base, s):
        if isinstance(s, int):
            s = base.from_int(s)
        if isinstance(s, RingElem):
            if s.ring != base:
                raise ShapeError("s must be a base element")
            s = s.payload
        if not base.is_unit_p(base.mul_p(base.int_p(4), s)):
            raise NonUnitError(
                f"4*s must be a unit (s = {base.show(s)}); both 2 and s "
                "have to be invertible in the base")
        self.s = s
        modulus = Poly(base, [base.neg_p(s), base.zero_p(), base.one_p()])
        super().__init__(base, modulus)

    @property
    def sqrt_gen(self) -> RingElem:
        """The class of x, a square root of s."""
        return self.elem((self.base.zero_p(), self.base.one_p()))

    # -- involution and norm ---------------------------------------------
    def sigma_p(self, c):
        return (c[0], self.base.neg_p(c[1]))

    def sigma(self, c: RingElem) -> RingElem:
        if c.ring != self:
            raise ShapeError("not an element of this extension")
        return RingElem(self, self.sigma_p(c.payload))

    def norm_p(self, c):
        base = self.base
        x, y = c
        return base.sub_p(base.mul_p(x, x), base.mul_p(self.s, base.mul_p(y, y)))

    def norm(self, c: RingElem) -> RingElem:
        """Norm to the base: c * sigma(c) = x^2 - s*y^2."""
        if c.ring != self:
            raise ShapeError("not an element of this extension")
        return RingElem(self.base, self.norm_p(c.payload))

    def decide_unit_p(self, a) -> bool:
        """The norm criterion: a is a unit iff norm(a) is a unit in the base."""
        return self.base.is_unit_p(self.norm_p(a))

    def invert_p(self, a):
        base = self.base
        n = self.norm_p(a)
        if not base.is_unit_p(n):
            raise NonUnitError(f"{self.show(a)} is not a unit (norm {base.show(n)})")
        ninv = base.inv_p(n)
        # a^{-1} = sigma(a) / norm(a)
        return (base.mul_p(a[0], ninv), base.mul_p(base.neg_p(a[1]), ninv))

    def extend_scalars(self, total, embed_p) -> tuple:
        """(total[x]/(x^2 - embed_p(s)), c |-> c tensor 1) along embed_p: base -> total."""
        def embed_c(c):
            return (embed_p(c[0]), embed_p(c[1]))

        return QuadraticEtale(total, total.elem(embed_p(self.s))), embed_c

    # -- unitary scalars and the constructive Hilbert 90 ------------------
    def unitary_scalars(self):
        """All c with c*sigma(c) = 1, in canonical order, built once per ring.

        Each x goes under x*x, then each y reads the fibre over 1 + s*y*y.  Both
        run in elements_p (encode) order and y is the high digit, so no sort.
        """
        got = getattr(self, "_unitary_payloads", None)
        if got is None:
            base = self.base
            roots = {}
            for x in base.elements_p():
                roots.setdefault(base.mul_p(x, x), []).append(x)
            one = base.one_p()
            got = []
            for y in base.elements_p():
                want = base.add_p(one, base.mul_p(self.s, base.mul_p(y, y)))
                got.extend((x, y) for x in roots.get(want, ()))
            if any(self.norm_p(p) != one for p in got):
                raise ExactAlgebraError("circle member does not have norm 1")
            self._unitary_payloads = got
        return [RingElem(self, p) for p in got]

    def hilbert90_scalar(self, lam: RingElem) -> RingElem:
        """A unit c with c * sigma(c)^{-1} = lam, for norm-one lam.

        Tries c = 1 + lam first (valid whenever it is a unit, since
        lam*sigma(1+lam) = lam + lam*sigma(lam) = 1 + lam); otherwise scans
        the units in canonical order for c = lam*sigma(c).  Raises
        SearchExhausted if no unit works, which would disprove surjectivity
        of c |-> c*sigma(c)^{-1} onto the norm-one circle for this extension.
        """
        if lam.ring != self:
            raise ShapeError("lambda must live in this extension")
        if self.norm_p(lam.payload) != self.base.one_p():
            raise ShapeError("lambda must have norm 1")
        cand = self.one + lam
        if cand.is_unit:
            return cand
        lam_p = lam.payload
        for c in self.units_p():
            if c == self.mul_p(lam_p, self.sigma_p(c)):
                return self.elem(c)
        raise SearchExhausted(
            f"no unit c with c*sigma(c)^{{-1}} = {self.show(lam_p)} in {self!r}")

    def __repr__(self):
        return f"{self.base!r}[sqrt({self.base.show(self.s)})]"
