"""Unit, unitary and special groups; reduced-norm images; functor values.

A unitary group is one checked stream of frames, walked depth first, and
read only as far as each consumer needs, one solution of a column at a
time.  Quotients of finite abelian unit groups take their order by
Lagrange from two verified groups, and are explicit coset decompositions
built on first use, split one cyclic factor at a time, each quotient
presented again.  Each ring records the groups it has verified, so a group
met again is not closed again.  A reduced-norm image, a subgroup, is read
only until the values read generate the bound it lies in.  No generic
group-theory engine: it is all enumeration over small finite rings.
"""

from __future__ import annotations

import itertools

from .algebras import (Algebra, AlgebraElem, AlgebraWithInvolution,
                       MatrixAlgebra, extend_awi, nrd_payload,
                       scalar_extension)
from .etale import QuadraticEtale
from .rings import ClassificationError, ExactAlgebraError, Ring, RingElem, generated


def enumerate_unitary(awi: AlgebraWithInvolution):
    """All a with a*sigma(a) = 1, in canonical element order, read from
    _unitary_p once per involution: the sorted payloads stay in
    awi._unitary, and every call returns fresh wrappers."""
    alg = awi.algebra
    if awi._unitary is None:
        awi._unitary = sorted(_unitary_p(awi), key=alg.encode)
    return [AlgebraElem(alg, p) for p in awi._unitary]


def _unitary_p(awi: AlgebraWithInvolution):
    """Each unitary payload once, as awi.is_unitary_p accepts it.  An
    involution adjoint to a recorded form (hermitian_involution or
    adjoint_involution, also after extend_awi) is walked by frames, and a
    frame it rejects raises; table involutions carry no form and are swept."""
    alg, form = awi.algebra, awi.involution.form
    for p in alg.elements_p() if form is None else _frames_p(alg, *form):
        if awi.is_unitary_p(p):
            yield p
        elif form is not None:
            raise ExactAlgebraError("frame is not unitary under the involution matrix")


def _frames_p(alg: MatrixAlgebra, gram, conj):
    """Payloads of all a with conj(a)^T * gram * a = gram, depth first.

    With form(v, w) = conj(v)^T * gram * w, column j must satisfy
    form(a_i, v) = gram_ij for each earlier column a_i, a linear condition
    with row conj(a_i)^T * gram, and form(v, v) = gram_jj.  A partial frame
    of j columns carries the columns of an invertible Q with
    rows * Q = [I_j | 0], so the linear conditions hold exactly for
    v = Q * (gram_0j, ..., gram_(j-1)j, w), w in C^(n-j), read one at a
    time; row and form(v, v) are filled when v first appears.  For a
    unitary a, conj(a)^T * gram is invertible, so a partial frame whose rows
    do not complete to an invertible matrix has no extension and is dropped
    by _extend.  The involution constructors only record gram with
    conj(gram)^T = +-gram, so form(v, a_i) = gram_ji follows.  No field
    assumption is used.
    """
    C, n, h = alg.center, alg.n, gram.cells
    zero, one = C.zero_p(), C.one_p()
    conj = conj or (lambda x: x)
    elems = list(C.elements_p())
    # row[v] = conj(v)^T * gram, so that form(v, w) = row[v] . w
    row, norm = {}, {}

    def frames(cols, q):
        j = len(cols)
        if j == n:
            yield tuple(cols[c][i] for i in range(n) for c in range(n))
            return
        qrows = list(zip(*q))
        fixed = [_lin(C, zero, h[j:j * n:n], qr[:j]) for qr in qrows]
        for w in itertools.product(elems, repeat=n - j):
            v = tuple(_lin(C, x, w, qr[j:]) for x, qr in zip(fixed, qrows))
            if v not in norm:
                r = row[v] = tuple(_lin(C, zero, [conj(x) for x in v], h[k::n])
                                   for k in range(n))
                norm[v] = _lin(C, zero, r, v)
            if norm[v] == h[j * n + j]:
                # the last column sets no condition on a later one
                nq = q if j + 1 == n else _extend(C, elems, row[v], q, j)
                if nq is not None:
                    yield from frames(cols + (v,), nq)

    yield from frames((), [tuple(one if i == c else zero for i in range(n))
                           for c in range(n)])


def _extend(C: Ring, elems, r, q, j: int):
    """Columns of Q * E, E invertible, with rows * Q * E = [I_(j+1) | 0]
    once row r joins the j rows; None when they do not complete to an
    invertible matrix.

    A column from j on where s = r * Q is a unit becomes column j; if there
    is none, a combination of the later columns, found by search over elems,
    is added to column j.  A finite ring is a product of local rings, and a
    row that completes to an invertible matrix has a unit entry in each
    factor, so the search fails exactly when the rows do not complete.
    Column j is scaled to s_j = 1 and clears s from every other column; the
    j earlier rows are 0 from column j on, so they keep [I_j | 0].
    """
    zero, unit = C.zero_p(), C.is_unit_p
    q = list(q)
    s = [_lin(C, zero, r, c) for c in q]
    piv = next((c for c in range(j, len(q)) if unit(s[c])), None)
    if piv is None:
        xs = next((xs for xs in itertools.product(elems, repeat=len(q) - j - 1)
                   if unit(_lin(C, s[j], xs, s[j + 1:]))), None)
        if xs is None:
            return None
        s[j] = _lin(C, s[j], xs, s[j + 1:])
        q[j] = tuple(_lin(C, x, xs, ys) for x, ys in zip(q[j], zip(*q[j + 1:])))
    else:
        s[j], s[piv], q[j], q[piv] = s[piv], s[j], q[piv], q[j]
    inv = C.inv_p(s[j])
    qj = q[j] = tuple(C.mul_p(inv, x) for x in q[j])
    return [c if k == j or s[k] == zero else
            tuple(C.sub_p(x, C.mul_p(s[k], y)) for x, y in zip(c, qj))
            for k, c in enumerate(q)]


def _lin(C: Ring, u, xs, ys):
    """u + sum x * y over C, skipping the zero x."""
    zero = C.zero_p()
    for x, y in zip(xs, ys):
        if x != zero:
            u = C.add_p(u, C.mul_p(x, y))
    return u


def enumerate_special(a, which: str):
    """Norm-one subgroups: 'SL' (nrd = 1), 'SU'/'SO' (unitary and nrd = 1).

    'SL' takes a bare algebra and sweeps it (over an Azumaya algebra nrd = 1
    makes x a unit).  'SU' needs a unitary involution and 'SO' one of the
    first kind, where on a symplectic one it is all of U; both filter the
    unitary group, which enumerate_unitary lists once per involution.
    """
    if which not in ("SL", "SU", "SO"):
        raise ClassificationError(f"unknown special group {which!r}")
    if which != "SL":
        if not isinstance(a, AlgebraWithInvolution):
            raise ClassificationError(f"{which} needs an involution")
        if (which == "SU") != (a.kind == "unitary"):
            kind = "a unitary" if which == "SU" else "a first-kind"
            raise ClassificationError(f"{which} needs {kind} involution")
        one_c = a.center_ring.one_p()
        return [u for u in enumerate_unitary(a) if a.nrd_p(u.payload) == one_c]
    one_c = a.cdata.ring.one_p()
    return [AlgebraElem(a, p) for p in a.elements_p()
            if nrd_payload(a, p) == one_c]


def nrd_image(s):
    """{nrd(x) : x in s} as center elements, verified to be a subgroup.

    s must be multiplicatively closed; a value set that is not a subgroup
    (checked by _check_subgroup) is reported as an error rather than
    silently accepted.
    """
    s = list(s)
    if not s:
        raise ExactAlgebraError("empty element set")
    alg = s[0].ring
    C = alg.cdata.ring
    vals = {nrd_payload(alg, x.payload) for x in s}
    _check_subgroup(C, vals)
    return {RingElem(C, v) for v in vals}


def nrd_unit_image(algebra: Algebra):
    """{nrd(x) : x a unit} as a set of center payloads.

    Split presentations use the diagonal argument: every center unit is the
    determinant of diag(u, 1, ..., 1) and every determinant of a unit is a
    center unit, so the image is exactly the center's unit set.  Tables are
    swept in canonical order until the norms read generate the center's
    units: nrd is multiplicative, so the image is a subgroup, then all of
    them.  A proper-subgroup image is swept to the end.
    """
    if isinstance(algebra, MatrixAlgebra):
        return set(algebra.center.units_p())
    C = algebra.cdata.ring
    # over an Azumaya algebra x is a unit exactly when nrd(x) is
    norms = (nrd_payload(algebra, p) for p in algebra.elements_p())
    return _saturate(C, (v for v in norms if C.is_unit_p(v)), set(C.units_p()))


def _saturate(ring: Ring, values, bound):
    """bound once the values read generate it, else the values read.

    The values come from a subgroup of bound, such as nrd(U), which is all
    of bound once the values read generate it.  span, their subgroup, grows
    by each v through rings.generated.  A value outside bound turns the
    stop off: all are read and returned."""
    read, span, inside = set(), {ring.one_p()}, True
    for v in values:
        read.add(v)
        inside = inside and v in bound
        if inside:
            span = generated(ring.mul_p, span, v)
            if span == bound:
                return span
    return read


def _check_subgroup(ring: Ring, members) -> None:
    """Raise unless the payloads in members form a subgroup of ring's units.

    1 must be a member and every member a unit.  The members are then
    walked in counting order from reached = {1}, and a member not reached
    yet joins through rings.generated, so reached is always the subgroup of
    the units generated by the members walked.  If it leaves the members
    they are not closed; otherwise it ends equal to them, so the verdict is
    exact.  A join of index k costs (k - 1) * (|reached| + 1) products and
    adds (k - 1) * |reached| >= k - 1 new elements, so the walk takes at
    most 2|M| - 2 products instead of the |M|^2 of an all-pairs check.

    An accepted set is recorded in the plain attribute ring._subgroups and
    is not closed again on that ring.  A rejected set is never recorded, so
    it raises on every call; the record holds only subgroups of the ring's
    units and is freed with the ring.
    """
    mem = frozenset(members)
    verified = getattr(ring, "_subgroups", None)
    if verified is None:
        verified = ring._subgroups = set()
    if mem in verified:
        return
    one = ring.one_p()
    if one not in mem:
        raise ExactAlgebraError("not a subgroup: 1 is not a member")
    if not all(ring.is_unit_p(a) for a in mem):
        raise ExactAlgebraError("not a subgroup: non-unit member")
    reached = {one}
    for g in sorted(mem, key=ring.encode):
        if g not in reached:
            reached = generated(ring.mul_p, reached, g)
            if not reached <= mem:
                raise ExactAlgebraError("not a subgroup: not closed under product")
    verified.add(mem)


class FiniteAbelianPresentation:
    """A finite abelian group of ring units modulo a designated subgroup.

    Elements and the subgroup are payload sets over one ring.  Both are
    verified to be groups by _check_subgroup, which closes each from 1
    under a few generators drawn from the set itself and records on the
    ring the sets it accepts, so a group met again is not closed again.
    The subgroup lies in the group, so the order of the quotient is
    |members| / |subgroup| by Lagrange.  The cosets, keyed by their minimal
    representative, are built the first time cosets, rep or op is read,
    and that build checks their number against the order.  The invariant
    factors come from a chain of quotients by cyclic subgroups of largest
    order, each presented again.
    """

    def __init__(self, ring: Ring, members, subgroup=None):
        self.ring = ring
        self.members = frozenset(members)
        self.subgroup = frozenset([ring.one_p()] if subgroup is None else subgroup)
        _check_subgroup(ring, self.members)
        if not self.subgroup <= self.members:
            raise ExactAlgebraError("subgroup member outside the group")
        _check_subgroup(ring, self.subgroup)
        self.order = len(self.members) // len(self.subgroup)
        self._coset_of = None

    def _table(self):
        """member -> coset representative, building the cosets on first use."""
        if self._coset_of is None:
            ring = self.ring
            coset_of, cosets = {}, []
            for g in sorted(self.members, key=ring.encode):
                if g in coset_of:
                    continue
                coset = sorted((ring.mul_p(g, h) for h in self.subgroup),
                               key=ring.encode)
                rep = coset[0]
                for m in coset:
                    coset_of[m] = rep
                cosets.append((rep, tuple(coset)))
            if len(cosets) != self.order:
                raise ExactAlgebraError("coset count differs from the order")
            self._cosets = cosets
            self._coset_of = coset_of
        return self._coset_of

    @property
    def cosets(self):
        """(representative, sorted members) per coset, by representative."""
        self._table()
        return self._cosets

    # -- quotient-group operations -------------------------------------------
    def rep(self, payload):
        got = self._table().get(payload)
        if got is None:
            raise ExactAlgebraError("payload is not a group member")
        return got

    def op(self, a, b):
        return self.rep(self.ring.mul_p(a, b))

    @property
    def elementary_divisors(self):
        """Invariant factors d_1 | d_2 | ... with product equal to the order.

        In a finite abelian group a cyclic subgroup <g> of largest order e is
        a direct summand, so the factors are those of the quotient by <g>,
        followed by e; g is the first coset representative of largest order.
        Each quotient is presented again, modulo the union K of the cosets
        in <g>: that presentation checks K by _check_subgroup and its coset
        count by Lagrange, and its representatives are again least members.
        The order falls by e > 1 each round, so the loop ends.
        """
        pres, factors = self, []
        while pres.order > 1:
            identity = pres.rep(pres.ring.one_p())
            cycle, seen = set(), set()
            for g, _ in pres.cosets:
                # a power of an earlier representative has no larger order
                if g not in seen:
                    powers = generated(pres.op, {identity}, g)
                    seen |= powers
                    cycle = max(cycle, powers, key=len)
            K = [m for r, coset in pres.cosets if r in cycle for m in coset]
            pres = FiniteAbelianPresentation(pres.ring, pres.members, K)
            factors.append(len(cycle))
        return factors[::-1]

    def __repr__(self):
        return (f"FiniteAbelianPresentation(order {self.order}, "
                f"divisors {self.elementary_divisors})")


def functor_linear(algebra, ext, d: int) -> FiniteAbelianPresentation:
    """Units of the extended ring modulo reduced norms times d-th powers.

    algebra is a plain presentation or None; None drops the norm subgroup
    entirely and yields the pure power quotient.
    When the extended algebra's center is a quadratic etale extension of the
    extended ring, its reduced norms are pushed down by the etale norm.
    """
    if d < 0:
        raise ExactAlgebraError("d must be nonnegative")
    T = ext.total
    nrdset = {T.one_p()}
    if algebra is not None:
        alg_t, _ = scalar_extension(algebra, ext)
        nrdset = nrd_unit_image(alg_t)
        C = alg_t.cdata.ring
        if isinstance(C, QuadraticEtale) and C.base == T:
            nrdset = {C.norm_p(n) for n in nrdset}
    return _quotient(T, T.units_p(), nrdset, d)


def functor_unitary(a, ext, d: int) -> FiniteAbelianPresentation:
    """Norm-one units of the extended etale center modulo norms and powers.

    a is a unitary AlgebraWithInvolution (honest norm subgroup) or a
    QuadraticEtale (no algebra: the pure power quotient of the norm-one
    circle).  nrd(U) is a subgroup of the circle, as nrd is multiplicative
    and nrd(sigma(x)) = conj(nrd(x)): U is walked until its norms generate
    the circle; a value off it is read and rejected.
    """
    if d < 0:
        raise ExactAlgebraError("d must be nonnegative")
    if isinstance(a, QuadraticEtale):
        CT, _ = ext.extended_center(a)
        nrds = [CT.one_p()]
    else:
        if a.kind != "unitary":
            raise ClassificationError("unitary functor needs a unitary involution")
        awi_t, _ = extend_awi(a, ext)
        CT = awi_t.center_ring
        nrds = (awi_t.nrd_p(p) for p in _unitary_p(awi_t))
    members = [c.payload for c in CT.unitary_scalars()]
    return _quotient(CT, members, _saturate(CT, nrds, set(members)), d)


def _quotient(ring: Ring, members, norms, d: int) -> FiniteAbelianPresentation:
    """members modulo the products of norms with d-th powers of members."""
    powd = {ring.pow_p(g, d) for g in members}
    sub = {ring.mul_p(n, p) for n in norms for p in powd}
    return FiniteAbelianPresentation(ring, members, sub)
