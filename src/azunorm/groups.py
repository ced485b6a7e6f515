"""Unit, unitary and special groups; reduced-norm images; functor values.

Quotients of finite abelian unit groups are represented by an explicit coset
decomposition plus an elementary-divisor list.  No generic group-theory
engine: everything here is enumeration over small finite rings.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .algebras import (Algebra, AlgebraElem, AlgebraWithInvolution,
                       MatrixAlgebra, extend_awi, nrd as algebra_nrd,
                       nrd_data, scalar_extension)
from .etale import QuadraticEtale
from .rings import ClassificationError, ExactAlgebraError, Ring, RingElem


def enumerate_unitary(awi: AlgebraWithInvolution):
    """All a with a*sigma(a) = 1, in canonical element order.

    An involution adjoint to a recorded form (from hermitian_involution or
    adjoint_involution, also after extend_awi) is enumerated by orthonormal
    frames; table involutions, which carry no form, are swept.
    """
    alg = awi.algebra
    one = alg.one_p()
    sig = awi.sigma_p
    form = awi.involution.form
    cands = alg.elements_p() if form is None else _frames_p(alg, *form)
    out = []
    for p in cands:
        if alg.mul_p(p, sig(p)) == one:
            out.append(AlgebraElem(alg, p))
        elif form is not None:
            raise ExactAlgebraError("frame is not unitary under the involution matrix")
    if form is not None:
        out.sort(key=lambda e: alg.encode(e.payload))
    return out


def _frames_p(alg: MatrixAlgebra, gram, conj):
    """Payloads of all a with conj(a)^T * gram * a = gram, column by column.

    Column j runs over every vector v of C^n with form(v, v) = gram_jj and
    form(a_i, v) = gram_ij for the earlier columns a_i, where
    form(v, w) = conj(v)^T * gram * w.  The involution constructors only
    record gram with conj(gram)^T = +-gram, so form(v, a_i) = gram_ji
    follows.  No field assumption is used.
    """
    C = alg.center
    n = alg.n
    h = gram.cells
    add, mul = C.add_p, C.mul_p
    zero = C.zero_p()
    conj = conj or (lambda x: x)

    def dot(r, v):
        acc = zero
        for x, y in zip(r, v):
            acc = add(acc, mul(x, y))
        return acc

    # row[v] = conj(v)^T * gram, so that form(v, w) = dot(row[v], w)
    row = {}
    for v in itertools.product(list(C.elements_p()), repeat=n):
        cv = [conj(x) for x in v]
        row[v] = tuple(dot(cv, h[k::n]) for k in range(n))
    frames = [()]
    for j in range(n):
        diag = [v for v, r in row.items() if dot(r, v) == h[j * n + j]]
        frames = [cols + (v,) for cols in frames for v in diag
                  if all(dot(row[c], v) == h[i * n + j] for i, c in enumerate(cols))]
    for cols in frames:
        yield tuple(cols[j][i] for i in range(n) for j in range(n))


def enumerate_special(a, which: str):
    """Norm-one subgroups: 'SL' (nrd = 1), 'SU'/'SO' (unitary and nrd = 1).

    'SL' accepts a bare algebra and sweeps it; the unitary flavours need an
    involution and filter enumerate_unitary.
    """
    if which not in ("SL", "SU", "SO"):
        raise ClassificationError(f"unknown special group {which!r}")
    if which != "SL":
        if not isinstance(a, AlgebraWithInvolution):
            raise ClassificationError(f"{which} needs an involution")
        one_c = a.center_ring.one_p()
        return [u for u in enumerate_unitary(a) if a.nrd_p(u.payload) == one_c]
    if isinstance(a, AlgebraWithInvolution):
        alg = a.algebra
        C = a.center_ring
        nrd_p = a.nrd_p
    else:
        alg = a
        cd = alg.cdata
        C = cd.ring

        def nrd_p(p):
            return nrd_data(alg, p, cd).payload
    one_c = C.one_p()
    out = []
    for p in alg.elements_p():
        if alg.is_unit_p(p) and nrd_p(p) == one_c:
            out.append(AlgebraElem(alg, p))
    return out


def nrd_image(s, awi: AlgebraWithInvolution = None):
    """{nrd(x) : x in s} as center elements, verified to be a subgroup.

    s must be multiplicatively closed; a value set that is not a subgroup
    (checked by _check_subgroup) is reported as an error rather than
    silently accepted.
    """
    s = list(s)
    if not s:
        raise ExactAlgebraError("empty element set")
    alg = s[0].ring
    if awi is not None:
        if awi.algebra != alg:
            raise ExactAlgebraError("elements do not belong to the given algebra")
        C = awi.center_ring
        vals = {awi.nrd_p(x.payload) for x in s}
    else:
        C = algebra_nrd(alg, s[0]).ring
        vals = {algebra_nrd(alg, x).payload for x in s}
    _check_subgroup(C, vals)
    return {RingElem(C, v) for v in vals}


def nrd_unit_image(algebra: Algebra):
    """{nrd(x) : x a unit} as a set of center payloads.

    Split presentations use the diagonal argument: every center unit is the
    determinant of diag(u, 1, ..., 1) and every determinant of a unit is a
    center unit, so the image is exactly the center's unit set.  Tables are
    swept in canonical order until the image saturates: the reduced norm of
    a unit is a center unit, so once every center unit has appeared no new
    value can.  A proper-subgroup image is swept to the end.
    """
    if isinstance(algebra, MatrixAlgebra):
        return {u.payload for u in algebra.center.units()}
    C = algebra.cdata.ring
    center_units = {u.payload for u in C.units()}
    out = set()
    for p in algebra.elements_p():
        # over an Azumaya algebra x is a unit exactly when nrd(x) is
        nv = algebra_nrd(algebra, AlgebraElem(algebra, p)).payload
        if C.is_unit_p(nv):
            out.add(nv)
            if out == center_units:
                break
    return out


def _check_subgroup(ring: Ring, members) -> None:
    """Raise unless the payloads in members form a subgroup of ring's units.

    1 must be a member and every member a unit.  The submonoid generated by
    the members is then built from 1; a member becomes a generator only if
    the closure has not reached it yet, so each generator at least doubles
    the closure, and every product x*g of a closure element and a generator
    must be a member.  The ring is commutative, so x*g for an x reached
    before g is g*x, reached from g.  The closure then equals the member
    set, and a finite submonoid of a finite unit group is a subgroup, so
    the verdict is exact at about |M| * log2|M| products instead of |M|^2.
    """
    mem = set(members)
    one = ring.one_p()
    if one not in mem:
        raise ExactAlgebraError("not a subgroup: 1 is not a member")
    if not all(ring.is_unit_p(a) for a in mem):
        raise ExactAlgebraError("not a subgroup: non-unit member")
    reached = {one}
    gens = []
    for g in sorted(mem, key=ring.encode):
        if g in reached:
            continue
        gens.append(g)
        reached.add(g)
        todo = [g]
        while todo:
            x = todo.pop()
            for h in gens:
                y = ring.mul_p(x, h)
                if y not in mem:
                    raise ExactAlgebraError("not a subgroup: not closed under product")
                if y not in reached:
                    reached.add(y)
                    todo.append(y)


class FiniteAbelianPresentation:
    """A finite abelian group of ring units modulo a designated subgroup.

    Elements and the subgroup are payload sets over one ring; the quotient
    is materialized as cosets keyed by their minimal representative.  Both
    sets are verified to be groups by _check_subgroup, which closes each
    from 1 under a few generators drawn from the set itself.
    """

    def __init__(self, ring: Ring, members, subgroup=None):
        self.ring = ring
        self.members = sorted(set(members), key=ring.encode)
        if subgroup is None:
            subgroup = [ring.one_p()]
        self.subgroup = sorted(set(subgroup), key=ring.encode)
        _check_subgroup(ring, self.members)
        if not set(self.subgroup) <= set(self.members):
            raise ExactAlgebraError("subgroup member outside the group")
        _check_subgroup(ring, self.subgroup)
        self._coset_of = {}
        self.cosets = []
        for g in self.members:
            if g in self._coset_of:
                continue
            coset = sorted((ring.mul_p(g, h) for h in self.subgroup),
                           key=ring.encode)
            rep = coset[0]
            for m in coset:
                self._coset_of[m] = rep
            self.cosets.append((rep, tuple(coset)))
        self.order = len(self.cosets)
        self.identity = self._coset_of[ring.one_p()]

    # -- quotient-group operations -------------------------------------------
    def rep(self, payload):
        got = self._coset_of.get(payload)
        if got is None:
            raise ExactAlgebraError("payload is not a group member")
        return got

    def op(self, a, b):
        return self.rep(self.ring.mul_p(a, b))

    def pow(self, a, k: int):
        out = self.identity
        cur = self.rep(a)
        while k:
            if k & 1:
                out = self.op(out, cur)
            cur = self.op(cur, cur)
            k >>= 1
        return out

    def inverse_rep(self, a):
        return self.rep(self.ring.inv_p(self.rep(a)))

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    @property
    def elementary_divisors(self):
        """Invariant factors d_1 | d_2 | ... with product equal to the order."""
        return self._divisors

    @cached_property
    def _divisors(self):
        n = self.order
        if n == 1:
            return []
        primes = []
        m = n
        p = 2
        while p * p <= m:
            if m % p == 0:
                primes.append(p)
                while m % p == 0:
                    m //= p
            p += 1
        if m > 1:
            primes.append(m)
        reps = [c[0] for c in self.cosets]
        by_prime = {}
        for p in primes:
            # s_k = log_p #(elements killed by p^k); differences count factors
            szs = [0]
            k = 1
            while True:
                cnt = 0
                q = p ** k
                for g in reps:
                    if self.pow(g, q) == self.identity:
                        cnt += 1
                s = 0
                while p ** s < cnt:
                    s += 1
                if p ** s != cnt:
                    raise ExactAlgebraError("p-torsion count is not a p-power")
                szs.append(s)
                if k > 1 and szs[k] == szs[k - 1]:
                    break
                k += 1
            expos = []
            for j in range(1, len(szs) - 1):
                exactly = (szs[j] - szs[j - 1]) - (szs[j + 1] - szs[j])
                expos.extend([j] * exactly)
            if expos:
                by_prime[p] = sorted(expos, reverse=True)
        factors = []
        while any(by_prime.values()):
            d = 1
            for p, expos in by_prime.items():
                if expos:
                    d *= p ** expos.pop(0)
            factors.append(d)
        factors.reverse()
        prod = 1
        for d in factors:
            prod *= d
        if prod != n:
            raise ExactAlgebraError("invariant factors do not multiply to the order")
        return factors

    def __repr__(self):
        return (f"FiniteAbelianPresentation(order {self.order}, "
                f"divisors {self.elementary_divisors})")


def _unit_payloads(ring: Ring):
    return [u.payload for u in ring.units()]


def functor_linear(algebra, ext, d: int) -> FiniteAbelianPresentation:
    """Units of the extended ring modulo reduced norms times d-th powers.

    algebra may be a plain presentation, an AlgebraWithInvolution, or None;
    None drops the norm subgroup entirely and yields the pure power quotient.
    When the extended algebra's center is a quadratic etale extension of the
    extended ring, its reduced norms are pushed down by the etale norm.
    """
    if d < 0:
        raise ExactAlgebraError("d must be nonnegative")
    T = ext.total
    units = _unit_payloads(T)
    powd = {T.pow_p(u, d) for u in units}
    if algebra is None:
        sub = powd
    else:
        alg = algebra.algebra if isinstance(algebra, AlgebraWithInvolution) else algebra
        alg_t, _ = scalar_extension(alg, ext)
        nrdset = nrd_unit_image(alg_t)
        C = alg_t.cdata.ring
        if isinstance(C, QuadraticEtale) and C.base == T:
            nrdset = {C.norm_p(n) for n in nrdset}
        sub = {T.mul_p(n, p) for n in nrdset for p in powd}
    return FiniteAbelianPresentation(T, units, sub)


def functor_unitary(a, ext, d: int) -> FiniteAbelianPresentation:
    """Norm-one units of the extended etale center modulo norms and powers.

    a is a unitary AlgebraWithInvolution (honest norm subgroup) or a
    QuadraticEtale (no algebra: the pure power quotient of the norm-one
    circle).
    """
    if d < 0:
        raise ExactAlgebraError("d must be nonnegative")
    if isinstance(a, QuadraticEtale):
        CT, _ = a.extend_scalars(ext.total, ext.embed_p)
        nrdset = {CT.one_p()}
    else:
        if a.kind != "unitary":
            raise ClassificationError("unitary functor needs a unitary involution")
        awi_t, _ = extend_awi(a, ext)
        CT = awi_t.center_ring
        nrdset = {awi_t.nrd_p(u.payload) for u in enumerate_unitary(awi_t)}
    members = [c.payload for c in CT.unitary_scalars()]
    powd = {CT.pow_p(g, d) for g in members}
    sub = {CT.mul_p(n, p) for n in nrdset for p in powd}
    return FiniteAbelianPresentation(CT, members, sub)
