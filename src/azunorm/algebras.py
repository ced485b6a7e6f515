"""Algebra presentations with involution, and their reduced norms.

Two presentations of a finite free algebra over a base ring are supported:
full matrix algebras over the center (the center may be the base itself or
a quadratic etale extension of it), and structure-constant tables.  Both
expose the same payload-level interface, so the involution, center,
reduced-characteristic-polynomial and witness machinery runs on either.

The reduced characteristic polynomial of a table element is obtained by
taking the n-th root of the characteristic polynomial of the left regular
representation over the center, which is exact and division-free.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import isqrt

from .etale import QuadraticEtale
from .rings import (ClassificationError, ExactAlgebraError, NonUnitError, Poly,
                    Ring, RingElem, RingMatrix, ShapeError, det2_p,
                    extend_basis, matmul_cells, nth_root_monic, nullspace,
                    solve_field)


# An algebra is a Ring, so its elements are RingElem; the name stays for callers.
AlgebraElem = RingElem


class Algebra(Ring):
    """A finite free algebra over the base: a ring that need not commute.

    Its payloads are tuples over the slot rings in _digits (the center
    entries of a matrix algebra, the base coordinates of a table), which
    give it the digit code and counting order of every Ring.
    """

    base: Ring
    rank: int  # free rank over the base
    form: str

    def int_p(self, k: int):
        return self.scale_base_p(self.one_p(), self.base.int_p(k))

    @property
    def size(self):
        return None if self.base.size is None else self.base.size ** self.rank

    def _slot_basis(self):
        """Payloads with a single 1 slot: a basis over the slot ring."""
        ring, slots = self._digits[0], len(self._digits)
        zero, one = ring.zero_p(), ring.one_p()
        return [tuple(one if k == i else zero for k in range(slots))
                for i in range(slots)]

    def basis_p(self):
        """Standard base-module basis, as payloads."""
        out = []
        zero = self.base.zero_p()
        one = self.base.one_p()
        for i in range(self.rank):
            vec = [zero] * self.rank
            vec[i] = one
            out.append(self.from_coords_p(tuple(vec)))
        return out

    def matrix_of(self, fn) -> RingMatrix:
        """Matrix over the base of a base-linear payload map, in the standard basis."""
        return RingMatrix.from_columns(
            self.base, [self.coords_p(fn(b)) for b in self.basis_p()])

    def left_mult_matrix(self, payload) -> RingMatrix:
        """Matrix over the base of y |-> payload*y in the standard basis."""
        return self.matrix_of(lambda b: self.mul_p(payload, b))

    def right_mult_matrix(self, payload) -> RingMatrix:
        return self.matrix_of(lambda b: self.mul_p(b, payload))

    def mul_is_one_p(self, a, b) -> bool:
        """Whether a*b = 1."""
        return self.mul_p(a, b) == self.one_p()

    @property
    def cdata(self) -> "CenterData":
        """The algebra's center and center-module structure, built once."""
        got = getattr(self, "_cdata", None)
        if got is None:
            got = self._cdata = center_data(self)
        return got


class MatrixAlgebra(Algebra):
    """M_n(C), C the base ring itself or a quadratic etale extension of it.

    Payloads are row-major tuples of n*n center payloads.
    """

    form = "split"

    def __init__(self, center: Ring, n: int):
        if n < 1:
            raise ShapeError("degree must be at least 1")
        self.center = center
        self.n = n
        if isinstance(center, QuadraticEtale):
            self.base = center.base
            self.center_rank = 2
        else:
            self.base = center
            self.center_rank = 1
        self.rank = n * n * self.center_rank
        self.degree = n
        self._digits = (center,) * (n * n)

    # -- payload arithmetic ------------------------------------------------
    def zero_p(self):
        return (self.center.zero_p(),) * (self.n * self.n)

    def one_p(self):
        z, o = self.center.zero_p(), self.center.one_p()
        n = self.n
        return tuple(o if i == j else z for i in range(n) for j in range(n))

    def mul_p(self, a, b):
        n = self.n
        return tuple(matmul_cells(self.center, a, b, n, n, n))

    def mul_is_one_p(self, a, b) -> bool:
        """Whether a*b = 1, computing the entries of a*b in row-major order
        and stopping at the first one that differs from the identity's.

        A separate loop, not a view of matmul_cells: most units fail at
        entry (0, 0), so the other entries of a*b are never formed.
        """
        c = self.center
        add, mul = c.add_p, c.mul_p
        n = self.n
        zero, one = c.zero_p(), c.one_p()
        for i in range(n):
            row = i * n
            for j in range(n):
                acc = zero
                for k in range(n):
                    x = a[row + k]
                    if x == zero:
                        continue
                    y = b[k * n + j]
                    if y == zero:
                        continue
                    acc = add(acc, mul(x, y))
                if acc != (one if i == j else zero):
                    return False
        return True

    def scale_base_p(self, a, r):
        if self.center_rank == 2:
            r = self.center.embed_p(r)
        mul = self.center.mul_p
        return tuple(mul(r, x) for x in a)

    def det_p(self, a):
        """Determinant over the center (the reduced norm of a split element)."""
        c = self.center
        n = self.n
        if n == 1:
            return a[0]
        if n == 2:
            return det2_p(c, *a)
        return self.as_matrix_p(a).det().payload

    def is_unit_p(self, a):
        return self.center.is_unit_p(self.det_p(a))

    def inv_p(self, a):
        return tuple(self.as_matrix_p(a).inverse().cells)

    # -- coordinates --------------------------------------------------------
    def coords_p(self, a):
        if self.center_rank == 1:
            return a
        out = []
        for x in a:
            out.extend(x)
        return tuple(out)

    def from_coords_p(self, vec):
        if self.center_rank == 1:
            return tuple(vec)
        return tuple(tuple(vec[2 * k:2 * k + 2]) for k in range(self.n * self.n))

    # -- matrix views ---------------------------------------------------------
    def as_matrix_p(self, a) -> RingMatrix:
        return RingMatrix(self.center, self.n, self.n, a)

    def embed_center_p(self, c):
        z = self.center.zero_p()
        n = self.n
        return tuple(c if i == j else z for i in range(n) for j in range(n))

    def _signature(self):
        return ("split", self.center._signature(), self.n)

    def show(self, a):
        c = self.center
        n = self.n
        rows = []
        for i in range(n):
            rows.append("[" + ", ".join(c.show(a[i * n + j]) for j in range(n)) + "]")
        return "[" + "; ".join(rows) + "]"

    def __repr__(self):
        return f"M_{self.n}({self.center!r})"


class TableAlgebra(Algebra):
    """Free algebra given by structure constants gamma[i][j][k] over the base.

    e_i * e_j = sum_k gamma[i][j][k] e_k, with basis element unit_index
    acting as 1.  Payloads are coordinate tuples over the base.
    """

    form = "table"

    def __init__(self, base: Ring, gamma, unit_index: int, validate=True):
        self.base = base
        self.gamma = tuple(tuple(tuple(v) for v in row) for row in gamma)
        self.rank = len(self.gamma)
        self._digits = (base,) * self.rank
        self.unit_index = unit_index
        if not (0 <= unit_index < self.rank):
            raise ShapeError("unit index out of range")
        for row in self.gamma:
            if len(row) != self.rank or any(len(v) != self.rank for v in row):
                raise ShapeError("structure table must be rank x rank x rank")
        if validate:
            self._validate()

    def _validate(self):
        mul = self.mul_p
        one = self.one_p()
        basis = self.basis_p()
        if any(mul(one, b) != b or mul(b, one) != b for b in basis):
            raise ExactAlgebraError("designated unit element is not a two-sided 1")
        # associativity on all basis triples
        for (i, bi), (j, bj), (k, bk) in itertools.product(enumerate(basis), repeat=3):
            if mul(mul(bi, bj), bk) != mul(bi, mul(bj, bk)):
                raise ExactAlgebraError(
                    f"structure table not associative at ({i},{j},{k})")

    # -- payload arithmetic -----------------------------------------------
    def zero_p(self):
        return (self.base.zero_p(),) * self.rank

    def one_p(self):
        return tuple(self.base.one_p() if i == self.unit_index else self.base.zero_p()
                     for i in range(self.rank))

    def mul_p(self, a, b):
        base = self.base
        zero = base.zero_p()
        out = [zero] * self.rank
        g = self.gamma
        for i, xi in enumerate(a):
            if xi == zero:
                continue
            gi = g[i]
            for j, yj in enumerate(b):
                if yj == zero:
                    continue
                c = base.mul_p(xi, yj)
                for k, gk in enumerate(gi[j]):
                    if gk != zero:
                        out[k] = base.add_p(out[k], base.mul_p(c, gk))
        return tuple(out)

    def scale_base_p(self, a, r):
        mul = self.base.mul_p
        return tuple(mul(r, x) for x in a)

    def is_unit_p(self, a):
        return self.left_mult_matrix(a).det().is_unit

    def inv_p(self, a):
        try:
            inv = self.left_mult_matrix(a).inverse()
        except NonUnitError:
            raise NonUnitError("element is not a unit (regular norm not a unit)")
        return tuple(inv.apply(list(self.one_p())))

    # -- coordinates --------------------------------------------------------
    def coords_p(self, a):
        return a

    def from_coords_p(self, vec):
        return tuple(vec)

    def _signature(self):
        return ("table", self.base._signature(), self.gamma, self.unit_index)

    def show(self, a):
        bits = []
        for i, c in enumerate(a):
            if c == self.base.zero_p():
                continue
            cs = self.base.show(c)
            bits.append(f"{cs}*e{i}" if cs != "1" else f"e{i}")
        return "<" + (" + ".join(bits) if bits else "0") + ">"

    def __repr__(self):
        return f"TableAlgebra(rank {self.rank} over {self.base!r})"


class Involution:
    """A base-linear anti-automorphism of order 2, held as its matrix.

    The matrix acts on base coordinates in the standard basis and is the
    only way the involution is applied.  An involution adjoint to a form
    records it as form = (gram, conj): hermitian_involution sets the
    hermitian h with the center's conjugation, adjoint_involution sets g
    with conj None; extend_awi keeps it.  Table involutions carry no form.
    """

    form = None

    def __init__(self, algebra: Algebra, matrix: RingMatrix):
        if matrix.ring != algebra.base or matrix.nrows != algebra.rank \
                or matrix.ncols != algebra.rank:
            raise ShapeError("involution matrix must be rank x rank over the base")
        self.algebra = algebra
        self.matrix = matrix
        self._validate()

    def _validate(self):
        alg = self.algebra
        ident = RingMatrix.identity(alg.base, alg.rank)
        if self.matrix * self.matrix != ident:
            raise ClassificationError("involution does not square to the identity")
        basis = alg.basis_p()
        for bi in basis:
            sbi = self.apply_p(bi)
            for bj in basis:
                lhs = self.apply_p(alg.mul_p(bi, bj))
                rhs = alg.mul_p(self.apply_p(bj), sbi)
                if lhs != rhs:
                    raise ClassificationError("involution is not anti-multiplicative")
        if self.apply_p(alg.one_p()) != alg.one_p():
            raise ClassificationError("involution does not fix 1")

    def apply_p(self, payload):
        alg = self.algebra
        return alg.from_coords_p(self.matrix.apply(alg.coords_p(payload)))

    def apply(self, e: AlgebraElem) -> AlgebraElem:
        if e.ring != self.algebra:
            raise ShapeError("element of a different algebra")
        return AlgebraElem(self.algebra, self.apply_p(e.payload))


def hermitian_involution(algebra: MatrixAlgebra, h: RingMatrix) -> Involution:
    """X |-> h^{-1} * sigma(X)^T * h for an invertible hermitian h over the center."""
    C = algebra.center
    if not isinstance(C, QuadraticEtale):
        raise ClassificationError("hermitian involutions need an etale center")
    if h.ring != C or h.nrows != algebra.n or h.ncols != algebra.n:
        raise ShapeError("h must be n x n over the center")
    h_conj_t = h.transpose().map_entries(C.sigma_p)
    if h_conj_t != h:
        raise ClassificationError("h is not hermitian")
    if not h.det().is_unit:
        raise NonUnitError("h must be invertible")
    hinv = h.inverse()

    def formula(payload):
        m = algebra.as_matrix_p(payload).transpose().map_entries(C.sigma_p)
        return (hinv * m * h).cells

    inv = Involution(algebra, algebra.matrix_of(formula))
    inv.form = (h, C.sigma_p)
    return inv


def adjoint_involution(algebra: MatrixAlgebra, g: RingMatrix) -> Involution:
    """X |-> g^{-1} X^T g; orthogonal for symmetric g, symplectic for skew g."""
    C = algebra.center
    if g.ring != C or g.nrows != algebra.n or g.ncols != algebra.n:
        raise ShapeError("g must be n x n over the center")
    gt = g.transpose()
    if gt != g and gt != -g:
        raise ClassificationError("g must be symmetric or alternating")
    if not g.det().is_unit:
        raise NonUnitError("g must be invertible")
    ginv = g.inverse()
    inv = Involution(algebra, algebra.matrix_of(
        lambda payload: (ginv * algebra.as_matrix_p(payload).transpose() * g).cells))
    inv.form = (g, None)
    return inv


def transpose_involution(algebra: MatrixAlgebra) -> Involution:
    return adjoint_involution(algebra, RingMatrix.identity(algebra.center, algebra.n))


def center_basis(algebra: Algebra):
    """Free base-module basis of the center, as payloads.

    Solves the commutation system [x, e_i] = 0 against every basis element.
    """
    r = algebra.rank
    base = algebra.base
    rows = []
    for b in algebra.basis_p():
        k = algebra.left_mult_matrix(b) - algebra.right_mult_matrix(b)
        for i in range(r):
            rows.append(k.row(i))
    stack = RingMatrix(base, len(rows), r, [x for row in rows for x in row])
    return [algebra.from_coords_p(v) for v in nullspace(stack)]


@dataclass
class CenterData:
    """The center as a ring, with an explicit module structure of A over it."""

    ring: Ring                # base ring or QuadraticEtale over it
    rank: int                 # 1 or 2
    degree: int               # n, with n^2 the rank of A over the center
    embed_p: object           # center payload -> algebra payload
    cbasis: list              # algebra payloads forming a center-module basis
    ccoords_p: object         # algebra payload -> tuple of center payloads


def _scalar_part(algebra, payload):
    """r with payload == r*1, or None."""
    one_coords = algebra.coords_p(algebra.one_p())
    coords = algebra.coords_p(payload)
    base = algebra.base
    # 1 has a unit coordinate in both presentations (a 1 at a known slot)
    slot = None
    for i, c in enumerate(one_coords):
        if base.is_unit_p(c):
            slot = i
            break
    if slot is None:
        return None
    r = base.mul_p(coords[slot], base.inv_p(one_coords[slot]))
    if tuple(base.mul_p(r, c) for c in one_coords) != tuple(coords):
        return None
    return r


def center_data(algebra: Algebra) -> CenterData:
    """The algebra's own center as a ring, with a center-module structure.

    A table's center solves the commutation system.  A rank-2 center needs
    a field base: completing the square on its first non-scalar basis
    element gives u with u^2 = s, and the center is QuadraticEtale(base, s).
    """
    if isinstance(algebra, MatrixAlgebra):
        return CenterData(ring=algebra.center, rank=algebra.center_rank,
                          degree=algebra.n, embed_p=algebra.embed_center_p,
                          cbasis=algebra._slot_basis(), ccoords_p=lambda p: p)

    zb = center_basis(algebra)
    base = algebra.base
    if len(zb) == 1:
        if _scalar_part(algebra, zb[0]) is None:
            raise ClassificationError("rank-1 center is not spanned by 1")
        n = isqrt(algebra.rank)
        if n * n != algebra.rank:
            raise ClassificationError("rank over the center is not a square")
        return CenterData(ring=base, rank=1, degree=n,
                          embed_p=lambda rp: algebra.scale_base_p(algebra.one_p(), rp),
                          cbasis=algebra.basis_p(), ccoords_p=algebra.coords_p)

    if len(zb) != 2:
        raise ClassificationError(f"unsupported center rank {len(zb)}")

    two_inv = base.inv_p(base.int_p(2))
    z = next((cand for cand in zb if _scalar_part(algebra, cand) is None), None)
    if z is None:
        raise ClassificationError("rank-2 center spanned by scalars only")
    if not base.is_field:
        raise ClassificationError(
            "etale center extraction without an involution needs a field base")
    zsq = algebra.coords_p(algebra.mul_p(z, z))
    cols = RingMatrix(base, algebra.rank, 2,
                      [c for pair in zip(algebra.coords_p(z),
                                         algebra.coords_p(algebra.one_p()))
                       for c in pair])
    sol = solve_field(cols, list(zsq))
    if sol is None:
        raise ClassificationError("center element has no quadratic relation")
    u = algebra.sub_p(z, algebra.scale_base_p(
        algebra.one_p(), base.mul_p(sol[0], two_inv)))
    s = _scalar_part(algebra, algebra.mul_p(u, u))
    if s is None:
        raise ClassificationError("center generator squared is not a scalar")
    if not base.is_unit_p(s):
        raise ClassificationError("center is not etale: generator squares to a non-unit")
    C = QuadraticEtale(base, base.elem(s))

    def embed(cp):
        x, y = cp
        return algebra.add_p(algebra.scale_base_p(algebra.one_p(), x),
                             algebra.scale_base_p(u, y))

    # center-module basis by greedy extension over the base field
    r = algebra.rank
    umat = algebra.left_mult_matrix(u)
    basis = algebra.basis_p()
    pairs = [(v, umat.apply(v)) for v in map(algebra.coords_p, basis)]
    picked = extend_basis(base, [], pairs, r)
    if 2 * len(picked) != r:
        raise ClassificationError("could not extract a free center-module basis")
    chosen = [basis[i] for i in picked]
    nsq = len(chosen)
    n = isqrt(nsq)
    if n * n != nsq:
        raise ClassificationError("rank over the center is not a square")
    binv = RingMatrix.from_columns(base, [v for i in picked for v in pairs[i]]).inverse()

    def ccoords(payload):
        mixed = binv.apply(list(algebra.coords_p(payload)))
        return tuple((mixed[2 * k], mixed[2 * k + 1]) for k in range(nsq))

    return CenterData(ring=C, rank=2, degree=n, embed_p=embed, cbasis=chosen,
                      ccoords_p=ccoords)


def reduced_char_poly_data(algebra: Algebra, payload) -> Poly:
    if isinstance(algebra, MatrixAlgebra):
        return algebra.as_matrix_p(payload).char_poly()
    cdata = algebra.cdata
    mat = RingMatrix.from_columns(
        cdata.ring, [cdata.ccoords_p(algebra.mul_p(payload, b)) for b in cdata.cbasis])
    return nth_root_monic(mat.char_poly(), cdata.degree)


def reduced_char_poly(algebra: Algebra, x: AlgebraElem) -> Poly:
    """Monic degree-n polynomial over the center whose constant term encodes nrd."""
    return reduced_char_poly_data(algebra, x.payload)


def nrd(algebra: Algebra, x: AlgebraElem) -> RingElem:
    """Reduced norm: (-1)^n times the constant reduced-char-poly coefficient."""
    return nrd_data(algebra, x.payload)


def nrd_payload(algebra: Algebra, payload):
    """Payload of the reduced norm in the algebra's own center (algebra.cdata)."""
    if isinstance(algebra, MatrixAlgebra):
        return algebra.det_p(payload)
    cdata = algebra.cdata
    c0 = reduced_char_poly_data(algebra, payload).coeff(0)
    return cdata.ring.neg_p(c0) if cdata.degree % 2 else c0


def nrd_data(algebra: Algebra, payload) -> RingElem:
    """Reduced norm of a payload, wrapped in the algebra's own center."""
    return RingElem(algebra.cdata.ring, nrd_payload(algebra, payload))


class AlgebraWithInvolution:
    """An algebra presentation bound to an involution.

    The center and the reduced norm are the algebra's own (cdata is
    algebra.cdata); the involution only acts on them, so one algebra is
    classified the same way in its matrix and table presentations.
    """

    def __init__(self, algebra: Algebra, involution: Involution):
        if involution.algebra != algebra:
            raise ShapeError("involution belongs to a different algebra")
        self.algebra = algebra
        self.involution = involution
        self.base = algebra.base
        self.cdata = algebra.cdata
        self.center_ring = self.cdata.ring
        self.degree = self.cdata.degree
        self.kind = self._classify()
        self._unitary = None  # sorted unitary payloads, filled by groups.enumerate_unitary

    # -- involution action -------------------------------------------------
    def sigma_p(self, payload):
        return self.involution.apply_p(payload)

    def sigma(self, e: AlgebraElem) -> AlgebraElem:
        return self.involution.apply(e)

    def is_unitary_p(self, payload) -> bool:
        """Whether payload * sigma(payload) = 1."""
        return self.algebra.mul_is_one_p(payload, self.sigma_p(payload))

    def is_unitary_elem(self, e: AlgebraElem) -> bool:
        return self.is_unitary_p(e.payload)

    # -- center --------------------------------------------------------------
    def embed_center(self, c: RingElem) -> AlgebraElem:
        if c.ring != self.center_ring:
            raise ShapeError("not a center element")
        return AlgebraElem(self.algebra, self.cdata.embed_p(c.payload))

    @property
    def sqrt_center(self) -> AlgebraElem:
        """The embedded square root of the center's defining unit (unitary only)."""
        if self.kind != "unitary":
            raise ClassificationError("only unitary involutions carry sqrt(s)")
        return self.embed_center(self.center_ring.sqrt_gen)

    # -- norms -----------------------------------------------------------------
    def nrd(self, e: AlgebraElem) -> RingElem:
        return nrd_data(self.algebra, e.payload)

    def nrd_p(self, payload):
        return nrd_payload(self.algebra, payload)

    def reduced_char_poly(self, e: AlgebraElem) -> Poly:
        return reduced_char_poly_data(self.algebra, e.payload)

    # -- classification -----------------------------------------------------
    def _classify(self):
        """'unitary' when sigma moves sqrt(s), which it must then negate;
        otherwise 'orthogonal' or 'symplectic' by the fixed-module rank.

        sigma fixes 1, so sqrt(s) alone decides how it acts on the center.
        """
        if self.cdata.rank == 2:
            C, embed = self.center_ring, self.cdata.embed_p
            root = C.sqrt_gen.payload
            moved = self.involution.apply_p(embed(root))
            if moved != embed(root):
                if moved != embed(C.sigma_p(root)):
                    raise ClassificationError(
                        "involution does not restrict to the etale conjugation")
                return "unitary"
        sym = self.symmetric_rank
        n = self.degree
        if sym == n * (n + 1) // 2:
            return "orthogonal"
        if sym == n * (n - 1) // 2:
            return "symplectic"
        raise ClassificationError(
            f"symmetric rank {sym} fits neither orthogonal nor symplectic in degree {n}")

    @property
    def symmetric_rank(self) -> int:
        """Rank over the center of the sigma-fixed module."""
        alg = self.algebra
        fixed = nullspace(self.involution.matrix - RingMatrix.identity(alg.base, alg.rank))
        if len(fixed) % self.cdata.rank:
            raise ClassificationError("symmetric module rank is not integral "
                                      "over the center")
        return len(fixed) // self.cdata.rank


@dataclass
class AzumayaReport:
    ok: bool
    det: RingElem
    dimension: int  # size of the endomorphism matrix checked


def azumaya_verify(algebra: Algebra) -> AzumayaReport:
    """Decide whether the presentation is Azumaya over its slot ring.

    Materializes the bilinear map (x, y) |-> (z |-> x z y) on basis pairs as
    a square matrix over the ring of the payload slots (the center of a
    matrix algebra, the base of a table); the presentation is Azumaya
    exactly when that determinant is a unit.
    """
    S = algebra._digits[0]
    basis = algebra._slot_basis()
    mul = algebra.mul_p
    # column (i, j): the matrix of z |-> b_i z b_j, flattened row-major
    big = RingMatrix.from_columns(S, [
        RingMatrix.from_columns(S, [mul(mul(bi, bl), bj) for bl in basis]).cells
        for bi in basis for bj in basis])
    det = big.det()
    return AzumayaReport(ok=det.is_unit, det=det, dimension=big.nrows)


# -- converters ---------------------------------------------------------------

def to_table(algebra: MatrixAlgebra) -> tuple:
    """Re-encode a matrix algebra as a structure table over its base.

    The new basis starts with 1 so the table has a designated unit index;
    returns (table, to_table_payload, from_table_payload).
    """
    base = algebra.base
    if not base.is_field:
        raise ClassificationError("table conversion implemented over field bases")
    cand = [algebra.one_p()] + algebra.basis_p()
    picked = extend_basis(base, [], ([algebra.coords_p(p)] for p in cand), algebra.rank)
    if len(picked) != algebra.rank:
        raise ClassificationError("could not build a unit-first basis")
    return _table_in_basis(algebra, [cand[i] for i in picked])


def rebase_table(table: TableAlgebra, new_basis_payloads) -> tuple:
    """Structure table in a new basis whose first element must be 1.

    Returns (table', fwd payload map, back payload map).
    """
    if len(new_basis_payloads) != table.rank:
        raise ShapeError("need a full basis")
    if new_basis_payloads[0] != table.one_p():
        raise ShapeError("first basis vector must be 1")
    return _table_in_basis(table, new_basis_payloads)


def _table_in_basis(algebra: Algebra, basis) -> tuple:
    """Structure table of algebra in a basis of payloads that starts with 1.

    Returns (table, to_table_payload, from_table_payload); raises
    NonUnitError when the payloads are not a basis.
    """
    bmat = RingMatrix.from_columns(algebra.base, [algebra.coords_p(p) for p in basis])
    binv = bmat.inverse()

    def fwd(payload):
        return tuple(binv.apply(algebra.coords_p(payload)))

    def back(vec):
        return algebra.from_coords_p(bmat.apply(list(vec)))

    gamma = [[fwd(algebra.mul_p(x, y)) for y in basis] for x in basis]
    return TableAlgebra(algebra.base, gamma, unit_index=0, validate=False), fwd, back


def scalar_extension(algebra: Algebra, ext) -> tuple:
    """Extend scalars along ext (base -> total); returns (algebra_T, payload map)."""
    if ext.base != algebra.base:
        raise ShapeError("extension base does not match the algebra")
    T = ext.total
    emb = ext.embed_p
    # slot maps one payload slot: a base coordinate, or a center entry
    if isinstance(algebra, TableAlgebra):
        gamma = tuple(tuple(tuple(emb(c) for c in vec) for vec in row)
                      for row in algebra.gamma)
        out, slot = TableAlgebra(T, gamma, algebra.unit_index, validate=False), emb
    elif isinstance(algebra.center, QuadraticEtale):
        CT, slot = algebra.center.extend_scalars(T, emb)
        out = MatrixAlgebra(CT, algebra.n)
    else:
        out, slot = MatrixAlgebra(T, algebra.n), emb

    def mp(payload):
        return tuple(slot(c) for c in payload)

    return out, mp


def extend_awi(awi: AlgebraWithInvolution, ext) -> tuple:
    """Scalar-extend an algebra with involution; returns (awi_T, payload map).

    A recorded form extends entrywise and its constructor rebuilds the involution.
    Otherwise it is sigma tensor id_T: entrywise over T, and on the x- and y-parts
    apart for M_n(R) along an etale T = R[sqrt(s)], which keeps the base R.
    """
    alg_t, mp = scalar_extension(awi.algebra, ext)
    form = awi.involution.form
    if form is None:
        if alg_t.base == ext.total:
            mat = awi.involution.matrix.map_entries(ext.embed_p, ext.total)
        else:
            # sigma on the x-parts and on the y-parts of the entries, zipped back
            mat = alg_t.matrix_of(lambda p: tuple(zip(*map(awi.sigma_p, zip(*p)))))
        inv_t = Involution(alg_t, matrix=mat)
    else:
        build = adjoint_involution if form[1] is None else hermitian_involution
        inv_t = build(alg_t, RingMatrix(alg_t.center, alg_t.n, alg_t.n, mp(form[0].cells)))
    return AlgebraWithInvolution(alg_t, inv_t), mp


# -- quaternions ---------------------------------------------------------------

def quaternion_table(base: Ring, a: int, b: int) -> TableAlgebra:
    """The quaternion algebra (a, b) over the base as a structure table.

    Basis 1, i, j, k with i^2 = a, j^2 = b, ij = k = -ji.
    """
    a, b = base.int_p(a), base.int_p(b)
    if not (base.is_unit_p(a) and base.is_unit_p(b)):
        raise NonUnitError("quaternion parameters must be units")
    z, o = base.zero_p(), base.one_p()
    na, nb = base.neg_p(a), base.neg_p(b)
    nab = base.neg_p(base.mul_p(a, b))

    def vec(c0=z, c1=z, c2=z, c3=z):
        return (c0, c1, c2, c3)

    e1, ei, ej, ek = vec(o), vec(c1=o), vec(c2=o), vec(c3=o)
    gamma = [
        [e1, ei, ej, ek],
        [ei, vec(a), ek, vec(c2=a)],
        [ej, vec(c3=base.neg_p(o)), vec(b), vec(c1=nb)],
        [ek, vec(c2=na), vec(c1=b), vec(nab)],
    ]
    return TableAlgebra(base, gamma, unit_index=0, validate=True)


def quaternion_conjugation(table: TableAlgebra) -> Involution:
    """The standard symplectic involution 1, i, j, k |-> 1, -i, -j, -k."""
    base = table.base
    if table.rank != 4:
        raise ShapeError("expected a quaternion table")
    z, o = base.zero_p(), base.one_p()
    no = base.neg_p(o)
    cells = []
    for i in range(4):
        for j in range(4):
            if i != j:
                cells.append(z)
            else:
                cells.append(o if i == 0 else no)
    return Involution(table, matrix=RingMatrix(base, 4, 4, cells))
