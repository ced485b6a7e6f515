"""Exact arithmetic over small finite rings with identity.

Rings are described structurally (integers mod n, prime fields, monic
polynomial quotients, finite products) and every element is carried in a
canonical reduced payload, so equality is coordinate equality and every
operation is exact.  2 must be a unit in every constructed ring.

Finite rings enumerate their elements in one fixed counting order: the
little-endian integer encoding in which the constant coordinate is the
least significant digit.  Every deterministic search in the package keys
off this order, so do not reorder it.  Ring.encode, Ring.decode and
Ring.elements_p are the one place that order lives: quotients, products and
algebras code their payload tuples slot by slot over a tuple of slot rings,
and only the leaf Zmod codes an int directly.
"""

from __future__ import annotations

import itertools
import os
from math import gcd, isqrt


class ExactAlgebraError(Exception):
    """Base class for arithmetic failures in this package."""


class NonUnitError(ExactAlgebraError):
    """Something that had to be invertible is not."""


class NoRootError(ExactAlgebraError):
    """Coefficient lifting found no exact polynomial root."""


class ShapeError(ExactAlgebraError):
    """Dimensions or owners do not match."""


class SearchExhausted(ExactAlgebraError):
    """A deterministic search ran out of candidates."""

    def __init__(self, message, failures=None):
        super().__init__(message)
        self.failures = failures or []


class ClassificationError(ExactAlgebraError):
    """An involution or module did not fit any supported shape."""


class ConfigError(ExactAlgebraError):
    """Bad experiment configuration."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


# A PolyQuotient over a base that is not a Zmod (a tower) with at most
# TABLE_MAX elements fills add, mul and neg tables entry by entry from the
# generic arithmetic, so a table holds at most 6,561 entries.  Rings over a
# Zmod keep the generic arithmetic for now (ROADMAP direction 2).
TABLE_MAX = 81
# Per-element unit and inverse caches are kept only up to this ring size.
CACHE_MAX = 20000
# Ring.map_code_parts forks a worker per extra part only when every part
# holds at least PART_MIN codes: a fork costs about 1.5 ms, a part of this
# size tens of milliseconds or more.
PART_MIN = 2048


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class Ring:
    """Abstract finite (or polynomial) ring with identity; commutative unless
    it is an Algebra.

    Concrete subclasses provide payload-level arithmetic.  A payload is a
    hashable canonical value (an int for Z/n, a tuple of slot payloads for
    quotients, products and algebras).  A finite ring with tuple payloads
    sets _digits, the ring of each slot, which gives it its digit code and
    counting order.  Public callers normally use RingElem wrappers.
    """

    kind: str = "?"
    size = None  # None means infinite
    is_field: bool = False

    # -- payload arithmetic, provided by subclasses ---------------------
    def zero_p(self):
        raise NotImplementedError

    def one_p(self):
        raise NotImplementedError

    def add_p(self, a, b):
        raise NotImplementedError

    def neg_p(self, a):
        raise NotImplementedError

    def mul_p(self, a, b):
        raise NotImplementedError

    def sub_p(self, a, b):
        return self.add_p(a, self.neg_p(b))

    def is_unit_p(self, a) -> bool:
        raise NotImplementedError

    def inv_p(self, a):
        raise NotImplementedError

    def int_p(self, k: int):
        """Payload of k * 1."""
        raise NotImplementedError

    def encode(self, a) -> int:
        """Little-endian integer code, slot 0 the least significant digit;
        the canonical sort key, inverted by decode."""
        out = 0
        for ring, x in zip(reversed(self._digits), reversed(a)):
            out = out * ring.size + ring.encode(x)
        return out

    def decode(self, code: int):
        out = []
        for ring in self._digits:
            code, digit = divmod(code, ring.size)
            out.append(ring.decode(digit))
        return tuple(out)

    def elements_p(self):
        """Every payload in counting order: decode(0), decode(1), ..."""
        if self.size is None:
            raise ExactAlgebraError(f"{self!r} is not enumerable")
        slots = [list(ring.elements_p()) for ring in reversed(self._digits)]
        for combo in itertools.product(*slots):
            yield combo[::-1]

    def map_code_parts(self, part):
        """[part(lo, hi), ...] over contiguous code ranges that cover
        [0, size), in code order.

        The ranges split across the CPUs this process may run on when each
        holds at least PART_MIN codes, no other thread is alive and fork is
        the platform's default start method.  The first range then runs
        here and every other one in a forked worker, which sends its result
        back over a pipe, so results must pickle.  A worker's exception is
        raised again here.  Otherwise part(0, size) runs here alone.
        """
        parts = _part_count(self.size)
        if parts == 1:
            return [part(0, self.size)]
        bounds = [self.size * k // parts for k in range(parts + 1)]
        return _run_parts(part, list(zip(bounds, bounds[1:])))

    def _signature(self) -> tuple:
        raise NotImplementedError

    # -- generic layer ---------------------------------------------------
    def elem(self, payload) -> "RingElem":
        return RingElem(self, payload)

    @property
    def zero(self) -> "RingElem":
        return RingElem(self, self.zero_p())

    @property
    def one(self) -> "RingElem":
        return RingElem(self, self.one_p())

    def from_int(self, k: int) -> "RingElem":
        return RingElem(self, self.int_p(k))

    def units(self):
        """All units, in canonical order (cached)."""
        got = getattr(self, "_unit_list", None)
        if got is None:
            got = [RingElem(self, p) for p in self.elements_p() if self.is_unit_p(p)]
            self._unit_list = got
        return list(got)

    def pow_p(self, a, k: int):
        if k < 0:
            a = self.inv_p(a)
            k = -k
        out = self.one_p()
        while k:
            if k & 1:
                out = self.mul_p(out, a)
            k >>= 1
            if k:
                a = self.mul_p(a, a)
        return out

    def is_reduced(self) -> bool:
        """No nonzero nilpotents; decided by scanning (finite rings only)."""
        if self.size is None:
            raise ExactAlgebraError("reducedness scan needs a finite ring")
        zero = self.zero_p()
        steps = max(1, self.size.bit_length())
        for p in self.elements_p():
            if p == zero:
                continue
            y = p
            for _ in range(steps):
                y = self.mul_p(y, y)
                if y == zero:
                    return False
        return True

    def _check_two_unit(self):
        if not self.is_unit_p(self.int_p(2)):
            raise ExactAlgebraError(f"2 is not a unit in {self!r}")

    def __eq__(self, other):
        return isinstance(other, Ring) and self._signature() == other._signature()

    def __hash__(self):
        h = getattr(self, "_sig_hash", None)
        if h is None:
            h = hash(self._signature())
            self._sig_hash = h
        return h


def _part_count(size: int) -> int:
    """How many parts Ring.map_code_parts cuts [0, size) into."""
    parts = size // PART_MIN
    if parts < 2 or not hasattr(os, "sched_getaffinity"):
        return 1
    parts = min(parts, len(os.sched_getaffinity(0)))
    if parts < 2:
        return 1
    import threading
    # a fork copies only the calling thread, with any lock another held
    if threading.active_count() != 1:
        return 1
    import multiprocessing
    if multiprocessing.get_all_start_methods()[0] != "fork":
        return 1
    return parts


def _run_parts(part, ranges):
    """part over each (lo, hi): the first here, the others in forked workers."""
    import multiprocessing
    ctx = multiprocessing.get_context("fork")
    procs, conns = [], []
    finished = False
    try:
        for lo, hi in ranges[1:]:
            recv_end, send_end = ctx.Pipe(duplex=False)
            conns.append(recv_end)
            proc = ctx.Process(target=_part_worker, args=(part, lo, hi, send_end),
                               daemon=True)
            try:
                proc.start()
            finally:
                send_end.close()
            procs.append(proc)
        results = [part(*ranges[0])]
        for proc, conn in zip(procs, conns):
            try:
                ok, value = conn.recv()
            except EOFError:
                proc.join()
                raise ExactAlgebraError(
                    f"sweep worker exited with code {proc.exitcode} "
                    f"before it sent its part")
            if not ok:
                raise value
            results.append(value)
        finished = True
        return results
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            if not finished:
                proc.terminate()
            proc.join()
            proc.close()


def _part_worker(part, lo, hi, send_end):
    """Body of a forked worker: send (True, result) or (False, exception)."""
    import signal
    # an interrupt reaches the whole process group; the parent handles it
    # and terminates the workers
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    with send_end:
        try:
            out = (True, part(lo, hi))
        except Exception as e:
            out = (False, e)
        send_end.send(out)


class RingElem:
    """An element of a Ring; thin immutable wrapper around a payload."""

    __slots__ = ("ring", "payload", "_hash")

    def __init__(self, ring: Ring, payload):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("RingElem is immutable")

    def _coerce(self, other):
        if isinstance(other, RingElem):
            if other.ring != self.ring:
                raise ShapeError("elements of different rings")
            return other.payload
        if isinstance(other, int):
            return self.ring.int_p(other)
        return NotImplemented

    def __add__(self, other):
        p = self._coerce(other)
        if p is NotImplemented:
            return NotImplemented
        return RingElem(self.ring, self.ring.add_p(self.payload, p))

    __radd__ = __add__

    def __sub__(self, other):
        p = self._coerce(other)
        if p is NotImplemented:
            return NotImplemented
        return RingElem(self.ring, self.ring.sub_p(self.payload, p))

    def __rsub__(self, other):
        p = self._coerce(other)
        if p is NotImplemented:
            return NotImplemented
        return RingElem(self.ring, self.ring.sub_p(p, self.payload))

    def __mul__(self, other):
        p = self._coerce(other)
        if p is NotImplemented:
            return NotImplemented
        return RingElem(self.ring, self.ring.mul_p(self.payload, p))

    __rmul__ = __mul__

    def __neg__(self):
        return RingElem(self.ring, self.ring.neg_p(self.payload))

    def __pow__(self, k: int):
        return RingElem(self.ring, self.ring.pow_p(self.payload, k))

    @property
    def is_unit(self) -> bool:
        return self.ring.is_unit_p(self.payload)

    def inverse(self) -> "RingElem":
        return RingElem(self.ring, self.ring.inv_p(self.payload))

    @property
    def is_zero(self) -> bool:
        return self.payload == self.ring.zero_p()

    def __eq__(self, other):
        if not isinstance(other, RingElem):
            return NotImplemented
        return self.payload == other.payload and self.ring == other.ring

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((hash(self.ring), self.payload))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return f"{self.ring.show(self.payload)}"


class Zmod(Ring):
    """Integers modulo an odd n >= 3."""

    kind = "integers-mod-n"

    def __init__(self, n: int):
        if n < 3:
            raise ExactAlgebraError("modulus must be at least 3")
        if n % 2 == 0:
            raise ExactAlgebraError("even modulus: 2 would not be a unit")
        self.n = n
        self.size = n

    def zero_p(self):
        return 0

    def one_p(self):
        return 1

    def add_p(self, a, b):
        return (a + b) % self.n

    def neg_p(self, a):
        return (-a) % self.n

    def mul_p(self, a, b):
        return (a * b) % self.n

    def is_unit_p(self, a):
        return gcd(a, self.n) == 1

    def inv_p(self, a):
        if gcd(a, self.n) != 1:
            raise NonUnitError(f"{a} is not a unit mod {self.n}")
        return pow(a, -1, self.n)

    def int_p(self, k):
        return k % self.n

    def encode(self, a):
        return a

    def decode(self, code):
        return code

    def elements_p(self):
        return iter(range(self.n))

    def _signature(self):
        return ("zmod", self.n)

    def show(self, a):
        return str(a)

    def __repr__(self):
        return f"Z/{self.n}"


class PrimeField(Zmod):
    """The field with p elements, p an odd prime; equal to Z/p as a ring."""

    kind = "prime-field"
    is_field = True

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ExactAlgebraError(f"{p} is not prime")
        super().__init__(p)

    def __repr__(self):
        return f"F{self.n}"


def _strip(coeffs, zero):
    i = len(coeffs)
    while i > 0 and coeffs[i - 1] == zero:
        i -= 1
    return tuple(coeffs[:i])


# Coefficient tuples over a ring r, ascending degree: the arithmetic shared
# by Poly and PolyRing.

def _coeffs_zip(op, zero, a, b):
    """op coefficientwise on zero-padded a and b, trailing zeros stripped."""
    return _strip([op(x, y) for x, y in itertools.zip_longest(a, b, fillvalue=zero)],
                  zero)


def _coeffs_mul(r: "Ring", a, b):
    if not a or not b:
        return ()
    zero = r.zero_p()
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == zero:
            continue
        for j, y in enumerate(b):
            out[i + j] = r.add_p(out[i + j], r.mul_p(x, y))
    return _strip(out, zero)


def _horner(r: "Ring", a, point):
    acc = r.zero_p()
    for c in reversed(a):
        acc = r.add_p(r.mul_p(acc, point), c)
    return acc


class Poly:
    """Dense polynomial over a Ring; coefficient payloads, ascending degree.

    Trailing zero coefficients are stripped, and the zero polynomial has
    degree -1.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: Ring, coeffs):
        self.ring = ring
        self.coeffs = _strip(tuple(coeffs), ring.zero_p())

    @classmethod
    def from_ints(cls, ring, ints):
        return cls(ring, [ring.int_p(k) for k in ints])

    @classmethod
    def x(cls, ring):
        return cls(ring, [ring.zero_p(), ring.one_p()])

    @classmethod
    def constant(cls, elem: RingElem):
        return cls(elem.ring, [elem.payload])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.ring.zero_p()

    def coeff_elem(self, i) -> RingElem:
        return RingElem(self.ring, self.coeff(i))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.ring.one_p()

    def __add__(self, other):
        self._same(other)
        r = self.ring
        return Poly(r, _coeffs_zip(r.add_p, r.zero_p(), self.coeffs, other.coeffs))

    def __sub__(self, other):
        self._same(other)
        r = self.ring
        return Poly(r, _coeffs_zip(r.sub_p, r.zero_p(), self.coeffs, other.coeffs))

    def __neg__(self):
        return Poly(self.ring, [self.ring.neg_p(c) for c in self.coeffs])

    def __mul__(self, other):
        self._same(other)
        return Poly(self.ring, _coeffs_mul(self.ring, self.coeffs, other.coeffs))

    def __pow__(self, k: int):
        if k < 0:
            raise ShapeError("negative polynomial power")
        out = Poly(self.ring, [self.ring.one_p()])
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def scale(self, c: RingElem) -> "Poly":
        r = self.ring
        return Poly(r, [r.mul_p(c.payload, a) for a in self.coeffs])

    def evaluate(self, x: RingElem) -> RingElem:
        if x.ring != self.ring:
            raise ShapeError("evaluation point from a different ring")
        return RingElem(self.ring, _horner(self.ring, self.coeffs, x.payload))

    def divmod_monic(self, m: "Poly"):
        """Quotient and remainder by a monic divisor (division-free)."""
        self._same(m)
        if not m.is_monic:
            raise ShapeError("divisor must be monic")
        r = self.ring
        rem = list(self.coeffs)
        d = m.degree
        q = [r.zero_p()] * max(0, len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c == r.zero_p():
                continue
            q[i - d] = c
            for j in range(d + 1):
                rem[i - d + j] = r.sub_p(rem[i - d + j], r.mul_p(c, m.coeff(j)))
        return Poly(r, q), Poly(r, rem)

    def _same(self, other):
        if not isinstance(other, Poly) or other.ring != self.ring:
            raise ShapeError("polynomials over different rings")

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring == other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((hash(self.ring), self.coeffs))

    def __repr__(self):
        if self.is_zero:
            return "0"
        bits = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if c == self.ring.zero_p():
                continue
            cs = self.ring.show(c)
            if i == 0:
                bits.append(cs)
            elif i == 1:
                bits.append(f"{cs}*t" if cs != "1" else "t")
            else:
                bits.append(f"{cs}*t^{i}" if cs != "1" else f"t^{i}")
        return " + ".join(bits)


class PolyQuotient(Ring):
    """base[x]/(m(x)) for a monic modulus m of degree >= 1.

    Payloads are fixed-length tuples of base payloads (coefficients of
    1, x, ..., x^(deg-1)).
    """

    kind = "polynomial-quotient"

    def __init__(self, base: Ring, modulus: Poly):
        if modulus.ring != base:
            raise ShapeError("modulus must live over the base ring")
        if not modulus.is_monic or modulus.degree < 1:
            raise ExactAlgebraError("modulus must be monic of degree >= 1")
        self.base = base
        self.modulus = modulus
        self.deg = modulus.degree
        self.size = None if base.size is None else base.size ** self.deg
        self._zero = base.zero_p()
        # x^deg reduced: -(low-order coefficients of the modulus)
        self._top = tuple(base.neg_p(modulus.coeff(j)) for j in range(self.deg))
        self._digits = (base,) * self.deg
        self._unit_cache = {}
        self._inv_cache = {}
        self._caching = self.size is not None and self.size <= CACHE_MAX
        tabled = (self.size is not None and self.size <= TABLE_MAX
                  and not isinstance(base, Zmod))
        self._add_t = {} if tabled else None
        self._mul_t = {} if tabled else None
        self._neg_t = {} if tabled else None
        if base.size is not None:
            self._check_two_unit()

    @property
    def is_field(self):
        got = getattr(self, "_is_field", None)
        if got is None:
            got = self._decide_field()
            self._is_field = got
        return got

    def _decide_field(self):
        if not self.base.is_field or self.base.size is None:
            return False
        d = self.deg
        if d == 1:
            return True
        if d <= 3:
            # reducible iff it has a root
            for p in self.base.elements_p():
                if self.modulus.evaluate(RingElem(self.base, p)).is_zero:
                    return False
            return True
        # trial monic factors of low degree
        if self.base.size ** (d // 2) > 20000:
            return False  # give up: treated as non-field (correctness unaffected)
        for k in range(1, d // 2 + 1):
            for tail in itertools.product(self.base.elements_p(), repeat=k):
                f = Poly(self.base, list(tail) + [self.base.one_p()])
                _, rem = self.modulus.divmod_monic(f)
                if rem.is_zero:
                    return False
        return True

    def zero_p(self):
        return (self._zero,) * self.deg

    def one_p(self):
        return (self.base.one_p(),) + (self._zero,) * (self.deg - 1)

    def add_p(self, a, b):
        table = self._add_t
        if table is None:
            return self.generic_add_p(a, b)
        try:
            return table[a][b]
        except KeyError:
            out = table.setdefault(a, {})[b] = self.generic_add_p(a, b)
            return out

    def neg_p(self, a):
        table = self._neg_t
        if table is None:
            return self.generic_neg_p(a)
        try:
            return table[a]
        except KeyError:
            out = table[a] = self.generic_neg_p(a)
            return out

    def mul_p(self, a, b):
        table = self._mul_t
        if table is None:
            return self.generic_mul_p(a, b)
        try:
            return table[a][b]
        except KeyError:
            out = table.setdefault(a, {})[b] = self.generic_mul_p(a, b)
            return out

    # -- the generic tuple arithmetic: table filler and test oracle ---------
    def generic_add_p(self, a, b):
        add = self.base.add_p
        return tuple(add(x, y) for x, y in zip(a, b))

    def generic_neg_p(self, a):
        neg = self.base.neg_p
        return tuple(neg(x) for x in a)

    def generic_mul_p(self, a, b):
        base = self.base
        d = self.deg
        zero = self._zero
        out = [zero] * (2 * d - 1)
        for i, x in enumerate(a):
            if x == zero:
                continue
            for j, y in enumerate(b):
                if y == zero:
                    continue
                out[i + j] = base.add_p(out[i + j], base.mul_p(x, y))
        return self._reduce(out)

    def _reduce(self, coeffs):
        base = self.base
        d = self.deg
        zero = self._zero
        for i in range(len(coeffs) - 1, d - 1, -1):
            c = coeffs[i]
            if c == zero:
                continue
            coeffs[i] = zero
            # x^i = x^(i-d) * x^d, and x^d = self._top
            for j, t in enumerate(self._top):
                if t != zero:
                    coeffs[i - d + j] = base.add_p(coeffs[i - d + j], base.mul_p(c, t))
        return tuple(coeffs[:d])

    def shift_p(self, a):
        """Multiply a payload by x."""
        return self._reduce([self._zero] + list(a))

    def mult_matrix(self, a) -> "RingMatrix":
        """Matrix of y |-> a*y over the base, in the power basis."""
        cols = [a]
        for _ in range(self.deg - 1):
            cols.append(self.shift_p(cols[-1]))
        return RingMatrix.from_columns(self.base, cols)

    def is_unit_p(self, a):
        cached = self._unit_cache.get(a)
        if cached is None:
            cached = self.decide_unit_p(a)
            if self._caching:
                self._unit_cache[a] = cached
        return cached

    def inv_p(self, a):
        cached = self._inv_cache.get(a)
        if cached is None:
            cached = self.invert_p(a)
            if self._caching:
                self._inv_cache[a] = cached
        return cached

    def decide_unit_p(self, a) -> bool:
        """The uncached unit test: multiplication by a has a unit determinant."""
        return self.mult_matrix(a).det().is_unit

    def invert_p(self, a):
        """The uncached inverse, read off the inverse multiplication matrix."""
        try:
            minv = self.mult_matrix(a).inverse()
        except NonUnitError:
            raise NonUnitError(f"{self.show(a)} is not a unit in {self!r}")
        return tuple(minv.cells[i * self.deg] for i in range(self.deg))

    def int_p(self, k):
        return (self.base.int_p(k),) + (self._zero,) * (self.deg - 1)

    def embed_p(self, b):
        """Payload of a base element as a constant."""
        return (b,) + (self._zero,) * (self.deg - 1)

    def embed(self, e: RingElem) -> RingElem:
        if e.ring != self.base:
            raise ShapeError("not a base element")
        return RingElem(self, self.embed_p(e.payload))

    def _signature(self):
        return ("poly-quot", self.base._signature(), self.modulus.coeffs)

    def show(self, a):
        names = ["1", "x"] + [f"x^{i}" for i in range(2, self.deg)]
        bits = []
        for i, c in enumerate(a):
            if c == self._zero:
                continue
            cs = self.base.show(c)
            if i == 0:
                bits.append(cs)
            else:
                bits.append(names[i] if cs == "1" else f"{cs}*{names[i]}")
        return "[" + (" + ".join(bits) if bits else "0") + "]"

    def __repr__(self):
        return f"{self.base!r}[x]/({self.modulus!r})"


class ProductRing(Ring):
    """Finite product of rings; payloads are tuples of factor payloads."""

    kind = "product"

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise ExactAlgebraError("need at least one factor")
        self.factors = self._digits = factors
        self.size = 1
        for f in factors:
            if f.size is None:
                raise ExactAlgebraError("product factors must be finite")
            self.size *= f.size

    @property
    def is_field(self):
        return len(self.factors) == 1 and self.factors[0].is_field

    def zero_p(self):
        return tuple(f.zero_p() for f in self.factors)

    def one_p(self):
        return tuple(f.one_p() for f in self.factors)

    def add_p(self, a, b):
        return tuple(f.add_p(x, y) for f, x, y in zip(self.factors, a, b))

    def neg_p(self, a):
        return tuple(f.neg_p(x) for f, x in zip(self.factors, a))

    def mul_p(self, a, b):
        return tuple(f.mul_p(x, y) for f, x, y in zip(self.factors, a, b))

    def is_unit_p(self, a):
        return all(f.is_unit_p(x) for f, x in zip(self.factors, a))

    def inv_p(self, a):
        return tuple(f.inv_p(x) for f, x in zip(self.factors, a))

    def int_p(self, k):
        return tuple(f.int_p(k) for f in self.factors)

    def _signature(self):
        return ("product", tuple(f._signature() for f in self.factors))

    def show(self, a):
        return "(" + ", ".join(f.show(x) for f, x in zip(self.factors, a)) + ")"

    def __repr__(self):
        return " x ".join(repr(f) for f in self.factors)


class PolyRing(Ring):
    """base[t] for a finite reduced base; used for norm computations only.

    Payloads are variable-length tuples of base payloads with trailing
    zeros stripped.  The ring is infinite, so it cannot be enumerated; its
    units are exactly the constant units because the base is reduced (the
    constructor checks this).
    """

    kind = "polynomial-ring"
    size = None

    def __init__(self, base: Ring):
        if base.size is None:
            raise ExactAlgebraError("polynomial base must be finite")
        if not base.is_reduced():
            raise ExactAlgebraError(f"{base!r} has nilpotents; units of {base!r}[t] "
                                    "would not be constant")
        self.base = base

    def zero_p(self):
        return ()

    def one_p(self):
        return (self.base.one_p(),)

    def add_p(self, a, b):
        return _coeffs_zip(self.base.add_p, self.base.zero_p(), a, b)

    def neg_p(self, a):
        return tuple(self.base.neg_p(x) for x in a)

    def mul_p(self, a, b):
        return _coeffs_mul(self.base, a, b)

    def is_unit_p(self, a):
        return len(a) == 1 and self.base.is_unit_p(a[0])

    def inv_p(self, a):
        if not self.is_unit_p(a):
            raise NonUnitError("only constant units are invertible in a polynomial ring")
        return (self.base.inv_p(a[0]),)

    def int_p(self, k):
        c = self.base.int_p(k)
        return () if c == self.base.zero_p() else (c,)

    def eval_p(self, a, point):
        """Evaluate a payload at a base payload, Horner style."""
        return _horner(self.base, a, point)

    def t_degree(self, a):
        return len(a) - 1

    def _signature(self):
        return ("poly-ring", self.base._signature())

    def show(self, a):
        return repr(Poly(self.base, a))

    def __repr__(self):
        return f"{self.base!r}[t]"


def enumerate_units(ring: Ring):
    """All units of a finite ring in canonical order."""
    return ring.units()


def nth_root_monic(p: Poly, n: int) -> Poly:
    """Monic q with q**n == p, by descending coefficient lifting.

    Needs n invertible in the coefficient ring; raises NoRootError when no
    exact root exists and NonUnitError when n is not invertible.

    Write a_i for the coefficient of t^(m-i) in q (a_0 = 1) and [q^k]_j for
    the coefficient of t^(km-j) in q^k.  From q^k = q * q^(k-1),
    [q^k]_j = k*a_j + r_k with r_k = r_(k-1) + sum_(0<i<j) a_i [q^(k-1)]_(j-i)
    and r_0 = 0, so step j reads a_j off [q^n]_j = p's coefficient and
    needs only the j-th coefficient of each power below n.
    """
    ring = p.ring
    if n < 1:
        raise ShapeError("root index must be positive")
    if not p.is_monic:
        raise NoRootError("only monic polynomials have monic roots here")
    if n == 1:
        return p
    if p.degree % n != 0:
        raise NoRootError(f"degree {p.degree} is not divisible by {n}")
    n_p = ring.int_p(n)
    if not ring.is_unit_p(n_p):
        raise NonUnitError(f"{n} is not invertible in {ring!r}")
    n_inv = ring.inv_p(n_p)
    m = p.degree // n
    zero = ring.zero_p()
    a = [ring.one_p()]
    # powers[k][j] = [q^k]_j, filled one j at a time
    powers = [[ring.one_p()] + [zero] * m] + [[ring.one_p()] for _ in range(n - 1)]
    for j in range(1, m + 1):
        r = [zero]
        for k in range(1, n + 1):
            acc = r[-1]
            for i in range(1, j):
                acc = ring.add_p(acc, ring.mul_p(a[i], powers[k - 1][j - i]))
            r.append(acc)
        a_j = ring.mul_p(ring.sub_p(p.coeff(n * m - j), r[n]), n_inv)
        a.append(a_j)
        for k in range(1, n):
            powers[k].append(ring.add_p(r[k], ring.mul_p(ring.int_p(k), a_j)))
    q = Poly(ring, a[::-1])
    if (q ** n) != p:
        raise NoRootError(f"no exact {n}-th root")
    return q


class RingMatrix:
    """Rectangular matrix over a Ring; payload cells, row-major."""

    __slots__ = ("ring", "nrows", "ncols", "cells")

    def __init__(self, ring: Ring, nrows: int, ncols: int, cells):
        cells = tuple(cells)
        if len(cells) != nrows * ncols:
            raise ShapeError(f"{nrows}x{ncols} matrix needs {nrows * ncols} cells")
        self.ring = ring
        self.nrows = nrows
        self.ncols = ncols
        self.cells = cells

    @classmethod
    def from_rows(cls, ring: Ring, rows):
        rows = [list(row) for row in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        cells = []
        for row in rows:
            if len(row) != ncols:
                raise ShapeError("ragged rows")
            for e in row:
                if isinstance(e, RingElem):
                    if e.ring != ring:
                        raise ShapeError("entry from a different ring")
                    cells.append(e.payload)
                elif isinstance(e, int):
                    cells.append(ring.int_p(e))
                else:
                    cells.append(e)
        return cls(ring, nrows, ncols, cells)

    @classmethod
    def from_columns(cls, ring: Ring, cols):
        """Matrix whose j-th column is the payload vector cols[j]."""
        cols = [tuple(c) for c in cols]
        nrows = len(cols[0]) if cols else 0
        if any(len(c) != nrows for c in cols):
            raise ShapeError("ragged columns")
        return cls(ring, nrows, len(cols), [c[i] for i in range(nrows) for c in cols])

    @classmethod
    def identity(cls, ring: Ring, n: int):
        z, o = ring.zero_p(), ring.one_p()
        return cls(ring, n, n, [o if i == j else z for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, ring: Ring, nrows: int, ncols: int):
        return cls(ring, nrows, ncols, [ring.zero_p()] * (nrows * ncols))

    def at(self, i, j):
        return self.cells[i * self.ncols + j]

    def row(self, i):
        return list(self.cells[i * self.ncols:(i + 1) * self.ncols])

    def col(self, j):
        return [self.cells[i * self.ncols + j] for i in range(self.nrows)]

    def __add__(self, other):
        self._compat(other, same_shape=True)
        add = self.ring.add_p
        return RingMatrix(self.ring, self.nrows, self.ncols,
                          [add(a, b) for a, b in zip(self.cells, other.cells)])

    def __sub__(self, other):
        self._compat(other, same_shape=True)
        sub = self.ring.sub_p
        return RingMatrix(self.ring, self.nrows, self.ncols,
                          [sub(a, b) for a, b in zip(self.cells, other.cells)])

    def __neg__(self):
        neg = self.ring.neg_p
        return RingMatrix(self.ring, self.nrows, self.ncols,
                          [neg(a) for a in self.cells])

    def __mul__(self, other):
        self._compat(other)
        if self.ncols != other.nrows:
            raise ShapeError("inner dimensions differ")
        r = self.ring
        zero = r.zero_p()
        out = []
        ocells = other.cells
        on = other.ncols
        for i in range(self.nrows):
            base = i * self.ncols
            for j in range(on):
                acc = zero
                for k in range(self.ncols):
                    a = self.cells[base + k]
                    if a == zero:
                        continue
                    acc = r.add_p(acc, r.mul_p(a, ocells[k * on + j]))
                out.append(acc)
        return RingMatrix(r, self.nrows, on, out)

    def scale(self, c) -> "RingMatrix":
        p = c.payload if isinstance(c, RingElem) else c
        mul = self.ring.mul_p
        return RingMatrix(self.ring, self.nrows, self.ncols,
                          [mul(p, a) for a in self.cells])

    def transpose(self) -> "RingMatrix":
        return RingMatrix(self.ring, self.ncols, self.nrows,
                          [self.at(i, j) for j in range(self.ncols)
                           for i in range(self.nrows)])

    def map_entries(self, fn, ring=None) -> "RingMatrix":
        return RingMatrix(ring or self.ring, self.nrows, self.ncols,
                          [fn(a) for a in self.cells])

    def apply(self, vec):
        """Matrix times a payload column vector."""
        if len(vec) != self.ncols:
            raise ShapeError("vector length mismatch")
        r = self.ring
        zero = r.zero_p()
        out = []
        for i in range(self.nrows):
            acc = zero
            base = i * self.ncols
            for k, v in enumerate(vec):
                a = self.cells[base + k]
                if a == zero or v == zero:
                    continue
                acc = r.add_p(acc, r.mul_p(a, v))
            out.append(acc)
        return out

    def _compat(self, other, same_shape=False):
        if not isinstance(other, RingMatrix) or other.ring != self.ring:
            raise ShapeError("matrices over different rings")
        if same_shape and (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeError("shape mismatch")

    def _square(self):
        if self.nrows != self.ncols:
            raise ShapeError("square matrix required")
        return self.nrows

    def det(self) -> RingElem:
        """Determinant: closed forms for n <= 2, else Gauss-Jordan (field) or Berkowitz."""
        n = self._square()
        r = self.ring
        if n == 0:
            return r.one
        if n <= 2:
            return RingElem(r, self.cells[0] if n == 1 else det2_p(r, *self.cells))
        if r.is_field:
            return RingElem(r, _gauss_jordan(r, [self.row(i) for i in range(n)], n)[1])
        v = _berkowitz_vector(r, self, n)
        det = v[n]  # (-1)^n * charpoly(0) with charpoly = det(tI - M)
        if n % 2 == 1:
            det = r.neg_p(det)
        return RingElem(r, det)

    def char_poly(self) -> Poly:
        """Monic characteristic polynomial det(t*I - M), division-free."""
        n = self._square()
        r = self.ring
        v = _berkowitz_vector(r, self, n)
        return Poly(r, list(reversed(v)))

    def inverse(self) -> "RingMatrix":
        """Inverse when det is a unit; raises NonUnitError otherwise."""
        n = self._square()
        r = self.ring
        if n == 0:
            return self
        if r.is_field:
            zero, one = r.zero_p(), r.one_p()
            rows = [self.row(i) + [one if i == j else zero for j in range(n)]
                    for i in range(n)]
            if len(_gauss_jordan(r, rows, n)[0]) < n:
                raise NonUnitError("determinant is not a unit")
            return RingMatrix(r, n, n, [x for row in rows for x in row[n:]])
        v = _berkowitz_vector(r, self, n)  # charpoly coeffs, leading first
        c0 = v[n]
        if not r.is_unit_p(c0):
            raise NonUnitError("determinant is not a unit")
        # q(M) with q(t) = (charpoly(t) - c0)/t satisfies M*q(M) = -c0*I
        acc = RingMatrix.zeros(r, n, n)
        ident = RingMatrix.identity(r, n)
        power = ident
        for i in range(1, n + 1):
            acc = acc + power.scale(v[n - i])
            if i < n:
                power = power * self
        scale = r.neg_p(r.inv_p(c0))
        return acc.scale(scale)

    def __eq__(self, other):
        return (isinstance(other, RingMatrix) and self.ring == other.ring
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.cells == other.cells)

    def __hash__(self):
        return hash((hash(self.ring), self.nrows, self.ncols, self.cells))

    def __repr__(self):
        rows = []
        for i in range(self.nrows):
            rows.append("[" + ", ".join(self.ring.show(self.at(i, j))
                                        for j in range(self.ncols)) + "]")
        return "[" + "; ".join(rows) + "]"


def det2_p(r: Ring, a, b, c, d):
    """det [[a, b], [c, d]] = a*d - b*c: Berkowitz's division-free polynomial for n = 2."""
    return r.sub_p(r.mul_p(a, d), r.mul_p(b, c))


def _berkowitz_vector(r: Ring, m: RingMatrix, n: int):
    """Characteristic polynomial coefficients of det(tI - M), leading first.

    Samuelson-Berkowitz iteration on trailing principal submatrices; uses
    only ring operations, so it is valid over any commutative ring.
    """
    zero = r.zero_p()
    one = r.one_p()
    a = [[m.at(i, j) for j in range(n)] for i in range(n)]
    v = [one, r.neg_p(a[n - 1][n - 1])]
    for j in range(n - 2, -1, -1):
        s = n - j - 1  # size of the trailing submatrix below/right of row j
        row = a[j][j + 1:]
        col = [a[i][j] for i in range(j + 1, n)]
        # items = [1, -a, -R C, -R A' C, ..., -R A'^(s-1) C], length s + 2
        items = [one, r.neg_p(a[j][j])]
        w = col
        for step in range(s):
            dot = zero
            for x, y in zip(row, w):
                if x != zero and y != zero:
                    dot = r.add_p(dot, r.mul_p(x, y))
            items.append(r.neg_p(dot))
            if step == s - 1:
                break
            nxt = []
            for i in range(s):
                acc = zero
                arow = a[j + 1 + i]
                for k in range(s):
                    x = arow[j + 1 + k]
                    y = w[k]
                    if x != zero and y != zero:
                        acc = r.add_p(acc, r.mul_p(x, y))
                nxt.append(acc)
            w = nxt
        # v <- T v, with T the (s+2) x (s+1) lower-triangular Toeplitz matrix
        # whose first column is items
        out = []
        for i in range(s + 2):
            acc = zero
            for k in range(min(i, s) + 1):
                it = items[i - k]
                if it != zero and v[k] != zero:
                    acc = r.add_p(acc, r.mul_p(it, v[k]))
            out.append(acc)
        v = out
    return v


def _gauss_jordan(r: Ring, rows, ncols: int):
    """Reduced row echelon form over the field r, in place: the one elimination loop.

    rows is a list of payload lists.  Pivots are taken in the first ncols
    columns only; any later columns are an augmented block carried along.
    Returns (pivot columns, det), det the signed product of the pivots when
    each of the ncols columns has one and zero otherwise, so for a square
    block it is that block's determinant.
    """
    zero = r.zero_p()
    det = r.one_p()
    pivots = []
    for c in range(ncols):
        lead = len(pivots)
        if lead == len(rows):
            break
        piv = next((i for i in range(lead, len(rows)) if rows[i][c] != zero), None)
        if piv is None:
            continue
        if piv != lead:
            rows[lead], rows[piv] = rows[piv], rows[lead]
            det = r.neg_p(det)
        p = rows[lead][c]
        det = r.mul_p(det, p)
        pinv = r.inv_p(p)
        rl = rows[lead] = [r.mul_p(pinv, x) for x in rows[lead]]
        for i, ri in enumerate(rows):
            f = ri[c]
            if i == lead or f == zero:
                continue
            for j in range(c, len(ri)):
                ri[j] = r.sub_p(ri[j], r.mul_p(f, rl[j]))
        pivots.append(c)
    return pivots, det if len(pivots) == ncols else zero


def row_reduce(r: Ring, rows):
    """Reduced row echelon form over a field; returns (rows, pivot columns)."""
    if not r.is_field:
        raise ShapeError("row reduction needs a field")
    rows = [list(row) for row in rows]
    return rows, (_gauss_jordan(r, rows, len(rows[0]))[0] if rows else [])


def extend_basis(r: Ring, rows, blocks, want: int):
    """Greedy rank extension over a field.

    Walks blocks (each a list of row vectors) in order and keeps a block
    when adding it to rows raises the rank by its full size, until the rank
    reaches want.  Returns the indices of the kept blocks.
    """
    rows = [list(row) for row in rows]
    rank = len(row_reduce(r, rows)[1])
    chosen = []
    for i, block in enumerate(blocks):
        if rank >= want:
            break
        trial = rows + [list(v) for v in block]
        got = len(row_reduce(r, trial)[1])
        if got == rank + len(block):
            chosen.append(i)
            rows, rank = trial, got
    return chosen


def nullspace(m: RingMatrix):
    """Free basis of the right kernel, as payload column vectors.

    Over a field this is the usual echelon computation.  Over a small
    non-field ring the kernel is enumerated and a free basis extracted; a
    ClassificationError is raised if the kernel is not a free module.
    """
    r = m.ring
    if r.is_field:
        rows, pivots = row_reduce(r, [m.row(i) for i in range(m.nrows)])
        zero, one = r.zero_p(), r.one_p()
        free = [c for c in range(m.ncols) if c not in pivots]
        basis = []
        for fc in free:
            vec = [zero] * m.ncols
            vec[fc] = one
            for i, pc in enumerate(pivots):
                vec[pc] = r.neg_p(rows[i][fc])
            basis.append(tuple(vec))
        return basis
    if r.size is None or r.size ** m.ncols > 400000:
        raise ClassificationError("kernel enumeration out of range for this ring")
    zero_col = tuple([r.zero_p()] * m.nrows)
    kernel = []
    for vec in itertools.product(r.elements_p(), repeat=m.ncols):
        if tuple(m.apply(list(vec))) == zero_col:
            kernel.append(vec)
    kernel_set = set(kernel)
    basis = []
    span = {tuple([r.zero_p()] * m.ncols)}
    for vec in kernel:
        if vec in span:
            continue
        basis.append(vec)
        scaled = []
        for c in r.elements_p():
            scaled.append(tuple(r.mul_p(c, x) for x in vec))
        span = {tuple(r.add_p(a, b) for a, b in zip(s, sv))
                for s in span for sv in scaled}
    if len(span) != len(kernel_set):
        raise ClassificationError("kernel is not generated by the extracted basis")
    if len(span) != r.size ** len(basis):
        raise ClassificationError("kernel is not a free module")
    return basis


def solve_field(m: RingMatrix, rhs):
    """One solution of M x = rhs over a field, or None if inconsistent."""
    r = m.ring
    if not r.is_field:
        raise ShapeError("solver needs a field")
    zero = r.zero_p()
    rows = [m.row(i) + [rhs[i]] for i in range(m.nrows)]
    pivots = _gauss_jordan(r, rows, m.ncols)[0]
    # rows past the rank are zero on the left of the bar
    if any(row[-1] != zero for row in rows[len(pivots):]):
        return None
    sol = [zero] * m.ncols
    for row, pc in zip(rows, pivots):
        sol[pc] = row[-1]
    return sol
