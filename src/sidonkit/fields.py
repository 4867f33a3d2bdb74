"""Finite field arithmetic: GF(p^d) in polynomial representation.

An element of GF(p^d) is the integer code sum(c_i * p**i) for the
polynomial c_0 + c_1*t + ... + c_{d-1}*t^(d-1), reduced modulo a monic
irreducible modulus of degree d over GF(p).  Prime-subfield elements keep
their natural codes 0..p-1.

When no modulus is supplied the canonical one is used: the first monic
irreducible polynomial of degree d in increasing code order (coefficients
read as base-p digits, leading coefficient most significant).  All derived
data -- the verified multiplicative generator, discrete logs, traces --
is therefore reproducible across runs and machines.
"""

from __future__ import annotations

import functools
import math

from .ntheory import factorint, isprime

TABLE_LIMIT = 1 << 16       # exp/log tables up to this field size
ADD_TABLE_LIMIT = 1 << 10   # full addition and negation tables for very small fields
DEFAULT_ORDER_CAP = 1 << 20


class FieldError(ValueError):
    """Invalid field parameters or an undefined field operation."""


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p); coefficient lists, lowest degree first

def _trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def poly_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def poly_rem(a, m, p):
    """Remainder of a modulo a monic polynomial m."""
    a = list(a)
    dm = len(m) - 1
    while len(a) > dm:
        c = a[-1]
        if c:
            k = len(a) - 1 - dm
            for i in range(dm):
                a[k + i] = (a[k + i] - c * m[i]) % p
        a.pop()
    return _trim(a)


def poly_powmod(a, n, m, p):
    out = [1]
    base = poly_rem(list(a), m, p)
    while n:
        if n & 1:
            out = poly_rem(poly_mul(out, base, p), m, p)
        n >>= 1
        base = poly_rem(poly_mul(base, base, p), m, p)
    return out


def poly_gcd(a, b, p):
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        inv = pow(b[-1], p - 2, p)
        bm = [(c * inv) % p for c in b]
        a, b = bm, poly_rem(a, bm, p)
    return a


def poly_is_irreducible(f, p):
    """Rabin's irreducibility test for a monic polynomial over GF(p)."""
    f = _trim(list(f))
    d = len(f) - 1
    if d < 1 or f[-1] != 1:
        return False
    x = [0, 1]

    def minus_x(g):
        g = list(g) + [0] * (2 - len(g))
        g[1] = (g[1] - 1) % p
        return _trim(g)

    for r in factorint(d):
        g = minus_x(poly_powmod(x, p ** (d // r), f, p))
        if len(poly_gcd(g, f, p)) != 1:
            return False
    # reduce once more: for d = 1 the subtracted x is not below deg f
    return poly_rem(minus_x(poly_powmod(x, p ** d, f, p)), f, p) == []


# ---------------------------------------------------------------------------

class FieldElement:
    """Element of a FiniteField.  Supports +, -, *, /, ** and unary minus;
    integers coerce to prime-subfield constants."""

    __slots__ = ("field", "code")

    def __init__(self, field, code):
        self.field = field
        self.code = code

    @property
    def coeffs(self):
        return self.field.coeffs(self.code)

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldError("elements of different fields")
            return other.code
        if isinstance(other, int):
            return other % self.field.p
        return NotImplemented

    def __add__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.add(self.code, c))

    __radd__ = __add__

    def __sub__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.sub(self.code, c))

    def __rsub__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.sub(c, self.code))

    def __mul__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.mul(self.code, c))

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.mul(self.code, self.field.inv(c)))

    def __rtruediv__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.mul(c, self.field.inv(self.code)))

    def __pow__(self, n):
        return FieldElement(self.field, self.field.pow(self.code, n))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.code))

    def __eq__(self, other):
        if isinstance(other, int):
            return self.code == other % self.field.p and self.code < self.field.p
        return (isinstance(other, FieldElement)
                and self.field == other.field and self.code == other.code)

    def __hash__(self):
        return hash((self.field.p, self.field.d, self.field.modulus, self.code))

    def __bool__(self):
        return self.code != 0

    def trace(self, e=1):
        return FieldElement(self.field, self.field.trace(self.code, e))

    def norm(self, e=1):
        return FieldElement(self.field, self.field.norm(self.code, e))

    def dlog(self):
        return self.field.dlog(self.code)

    def __repr__(self):
        if self.field.d == 1:
            return str(self.code)
        names = {1: "t"}
        parts = []
        for i in reversed(range(self.field.d)):
            c = self.coeffs[i]
            if not c:
                continue
            var = "" if i == 0 else ("t" if i == 1 else f"t^{i}")
            if i == 0:
                parts.append(str(c))
            else:
                parts.append(var if c == 1 else f"{c}{var}")
        return "+".join(parts) if parts else "0"


class FiniteField:
    """GF(p^d) with a verified multiplicative generator.

    Multiplication runs through exp/log tables for fields up to
    TABLE_LIMIT; larger fields fall back to polynomial arithmetic and
    baby-step giant-step discrete logs.
    """

    def __init__(self, p, d=1, modulus=None, order_cap=DEFAULT_ORDER_CAP):
        p, d = int(p), int(d)
        if p < 2 or not isprime(p):
            raise FieldError(f"characteristic {p} is not prime")
        if d < 1:
            raise FieldError("extension degree must be >= 1")
        q = p ** d
        if q > order_cap:
            raise FieldError(f"field size {q} exceeds cap {order_cap}")
        self.p, self.d, self.q = p, d, q
        if modulus is None:
            self.modulus = self._canonical_modulus()
        else:
            m = tuple(int(c) % p for c in modulus)
            if len(m) != d + 1 or m[-1] != 1:
                raise FieldError("modulus must be monic of degree d")
            if not poly_is_irreducible(list(m), p):
                raise FieldError(f"modulus {list(m)} is reducible over GF({p})")
            self.modulus = m
        # xred[j] = t^(d+j) mod modulus, j = 0 .. d-2, as digit tuples
        self._xred = []
        cur = [(-c) % p for c in self.modulus[:d]]
        cur += [0] * (d - len(cur))
        for _ in range(max(d - 1, 0)):
            self._xred.append(tuple(cur))
            top = cur[-1]
            cur = [0] + cur[:-1]
            if top:
                for i in range(d):
                    cur[i] = (cur[i] - top * self.modulus[i]) % p
        self._digits = None
        if q <= TABLE_LIMIT:
            self._digits = [self._decode(c) for c in range(q)]
        self._factors_qm1 = list(factorint(q - 1)) if q > 2 else []
        self._exp = self._log = None
        self.generator = self._find_generator()
        if q <= TABLE_LIMIT:
            exp = [1] * (q - 1)
            log = [0] * q
            acc = 1
            for k in range(1, q - 1):
                acc = self._mul_poly(acc, self.generator)
                exp[k] = acc
                log[acc] = k
            self._exp, self._log = exp, log
        self._add_table = self._neg_table = None
        if q <= ADD_TABLE_LIMIT:
            dig = self._digits
            tbl = []
            for a in range(q):
                da = dig[a]
                row = []
                for b in range(q):
                    db = dig[b]
                    row.append(self._encode([(x + y) % p for x, y in zip(da, db)]))
                tbl.append(row)
            self._add_table = tbl
            self._neg_table = [self._encode([(-x) % p for x in dig[a]]) for a in range(q)]

    # -- encoding ----------------------------------------------------------

    def _decode(self, code):
        p, out = self.p, []
        for _ in range(self.d):
            code, r = divmod(code, p)
            out.append(r)
        return tuple(out)

    def _encode(self, digits):
        code = 0
        for c in reversed(digits):
            code = code * self.p + c
        return code

    def coeffs(self, code):
        if self._digits is not None:
            return self._digits[code]
        return self._decode(code)

    def encode(self, coeffs):
        coeffs = [int(c) % self.p for c in coeffs]
        if len(coeffs) > self.d:
            raise FieldError("coefficient vector longer than the degree")
        coeffs += [0] * (self.d - len(coeffs))
        return self._encode(coeffs)

    # -- arithmetic on codes -----------------------------------------------

    def add(self, a, b):
        if self._add_table is not None:
            return self._add_table[a][b]
        da, db, p = self.coeffs(a), self.coeffs(b), self.p
        return self._encode([(x + y) % p for x, y in zip(da, db)])

    def neg(self, a):
        if self._neg_table is not None:
            return self._neg_table[a]
        p = self.p
        return self._encode([(-x) % p for x in self.coeffs(a)])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def _mul_poly(self, a, b):
        p, d = self.p, self.d
        da, db = self.coeffs(a), self.coeffs(b)
        out = [0] * (2 * d - 1)
        for i, ai in enumerate(da):
            if ai:
                for j, bj in enumerate(db):
                    out[i + j] = (out[i + j] + ai * bj) % p
        res = out[:d]
        for j in range(d - 1):
            c = out[d + j]
            if c:
                red = self._xred[j]
                for i in range(d):
                    res[i] = (res[i] + c * red[i]) % p
        return self._encode(res)

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]
        return self._mul_poly(a, b)

    def pow(self, a, n):
        n = int(n)
        if a == 0:
            if n < 0:
                raise FieldError("inverse of zero")
            return 0 if n else 1
        if self._exp is not None:
            return self._exp[(self._log[a] * n) % (self.q - 1)]
        if n < 0:
            a, n = self.inv(a), -n
        out, base = 1, a
        while n:
            if n & 1:
                out = self._mul_poly(out, base)
            n >>= 1
            base = self._mul_poly(base, base)
        return out

    def inv(self, a):
        if a == 0:
            raise FieldError("inverse of zero")
        if self._exp is not None:
            return self._exp[(-self._log[a]) % (self.q - 1)]
        return self.pow(a, self.q - 2)

    # -- generator, discrete log ---------------------------------------------

    def _find_generator(self):
        n = self.q - 1
        for cand in range(1, self.q):
            if all(self.pow(cand, n // r) != 1 for r in self._factors_qm1):
                # order divides n and misses every maximal proper divisor
                return cand
        raise FieldError("no generator found")  # pragma: no cover

    def exp(self, k):
        k %= (self.q - 1) if self.q > 2 else 1
        if self._exp is not None:
            return self._exp[k]
        return self.pow(self.generator, k)

    def dlog(self, a):
        """Discrete log base the canonical generator."""
        if a == 0:
            raise FieldError("discrete log of zero")
        if self._log is not None:
            return self._log[a]
        n = self.q - 1
        m = math.isqrt(n - 1) + 1
        baby = {}
        t = 1
        for j in range(m):
            baby.setdefault(t, j)
            t = self.mul(t, self.generator)
        step = self.inv(t)  # generator^(-m)
        y = a
        for i in range(m + 1):
            if y in baby:
                return (i * m + baby[y]) % n
            y = self.mul(y, step)
        raise FieldError("discrete log failed")  # pragma: no cover

    # -- trace and norm to a declared subfield -------------------------------

    def trace(self, a, e=1):
        """Trace onto the subfield GF(p^e); e must divide d."""
        if self.d % e:
            raise FieldError(f"no subfield of degree {e} in GF({self.p}^{self.d})")
        qs = self.p ** e
        acc, term = a, a
        for _ in range(self.d // e - 1):
            term = self.pow(term, qs)
            acc = self.add(acc, term)
        return acc

    def norm(self, a, e=1):
        if self.d % e:
            raise FieldError(f"no subfield of degree {e} in GF({self.p}^{self.d})")
        qs = self.p ** e
        acc, term = a, a
        for _ in range(self.d // e - 1):
            term = self.pow(term, qs)
            acc = self.mul(acc, term)
        return acc

    # -- misc ----------------------------------------------------------------

    def _canonical_modulus(self):
        p, d = self.p, self.d
        for code in range(p ** d):
            digits = []
            c = code
            for _ in range(d):
                c, r = divmod(c, p)
                digits.append(r)
            f = list(digits) + [1]  # digits[i] multiplies t^i
            if poly_is_irreducible(f, p):
                return tuple(f)
        raise FieldError("no irreducible modulus found")  # pragma: no cover

    def __call__(self, x):
        if isinstance(x, FieldElement):
            if x.field != self:
                raise FieldError("element of a different field")
            return x
        if isinstance(x, int):
            if not 0 <= x < self.q:
                raise FieldError(f"code {x} out of range for GF({self.q})")
            return FieldElement(self, x)
        return FieldElement(self, self.encode(list(x)))

    def elements(self):
        return (FieldElement(self, c) for c in range(self.q))

    def __eq__(self, other):
        return (isinstance(other, FiniteField) and self.p == other.p
                and self.d == other.d and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.d, self.modulus))

    def __repr__(self):
        return f"GF({self.q})" if self.d > 1 else f"GF({self.p})"

    def to_json(self):
        return {"p": self.p, "d": self.d, "modulus": list(self.modulus)}


@functools.lru_cache(maxsize=None)
def _field_cached(p, d, modulus, order_cap):
    return FiniteField(p, d, modulus, order_cap)

def field_create(p, d=1, modulus=None, order_cap=DEFAULT_ORDER_CAP):
    """GF(p^d) with the canonical (or supplied) modulus.  Instances cached."""
    m = tuple(int(c) for c in modulus) if modulus is not None else None
    return _field_cached(int(p), int(d), m, order_cap)


# ---------------------------------------------------------------------------

class FieldExtension:
    """GF(q^e) built directly over a FiniteField K for e in {2, 3}.

    Elements are coded as integers sum(c_i * q**i) with c_i element codes
    of the base field, i.e. coordinates in the K-basis {1, t, t^2}.  The
    modulus is the first monic degree-e polynomial over K (in code order)
    without a root in K; for degree at most 3 that is irreducibility.
    Multiplication-by-x matrices over K come straight out of this basis,
    which is what the plane machinery needs.

    The trace down to K is K-linear, so it is the dot product of an
    element's coordinates with the basis traces Tr(1), Tr(t), Tr(t^2);
    those are computed once, as Frobenius sums x + x^q (+ x^(q^2)).
    """

    def __init__(self, base, degree):
        if degree not in (2, 3):
            raise FieldError("only quadratic and cubic extensions supported")
        self.base = base
        self.degree = degree
        self.order = base.q ** degree
        if self.order > DEFAULT_ORDER_CAP:
            raise FieldError(f"extension size {self.order} exceeds cap")
        self.modulus = self._canonical_modulus()
        self._factors = list(factorint(self.order - 1))
        self.generator = self._find_generator()
        self._log = None
        self._basis_traces = tuple(self._frobenius_trace(self.encode([0] * i + [1]))
                                   for i in range(degree))

    def _canonical_modulus(self):
        K, e = self.base, self.degree
        q = K.q
        for code in range(q ** e):
            digits = []
            c = code
            for _ in range(e):
                c, r = divmod(c, q)
                digits.append(r)
            f = tuple(digits) + (1,)
            # degree 2 or 3: irreducible over K iff no root in K
            if all(self._eval(f, x) != 0 for x in range(q)):
                return f
        raise FieldError("no irreducible extension modulus found")  # pragma: no cover

    def _eval(self, f, x):
        K = self.base
        acc = 0
        for c in reversed(f):
            acc = K.add(K.mul(acc, x), c)
        return acc

    # -- encoding ------------------------------------------------------------

    def coeffs(self, code):
        q, out = self.base.q, []
        for _ in range(self.degree):
            code, r = divmod(code, q)
            out.append(r)
        return tuple(out)

    def encode(self, coeffs):
        code = 0
        for c in reversed(list(coeffs)):
            code = code * self.base.q + c
        return code

    # -- arithmetic ------------------------------------------------------------

    def add(self, a, b):
        K = self.base
        da, db = self.coeffs(a), self.coeffs(b)
        return self.encode(K.add(x, y) for x, y in zip(da, db))

    def neg(self, a):
        K = self.base
        return self.encode(K.neg(x) for x in self.coeffs(a))

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        K, e = self.base, self.degree
        da, db = self.coeffs(a), self.coeffs(b)
        out = [0] * (2 * e - 1)
        for i, ai in enumerate(da):
            if ai:
                for j, bj in enumerate(db):
                    out[i + j] = K.add(out[i + j], K.mul(ai, bj))
        # reduce degree e..2e-2 using the monic modulus
        for k in range(2 * e - 2, e - 1, -1):
            c = out[k]
            if c:
                out[k] = 0
                for i in range(e):
                    out[k - e + i] = K.sub(out[k - e + i], K.mul(c, self.modulus[i]))
        return self.encode(out[:e])

    def pow(self, a, n):
        n = int(n)
        if a == 0:
            if n < 0:
                raise FieldError("inverse of zero")
            return 0 if n else 1
        if n < 0:
            return self.pow(self.inv(a), -n)
        out, base = 1, a
        while n:
            if n & 1:
                out = self.mul(out, base)
            n >>= 1
            base = self.mul(base, base)
        return out

    def inv(self, a):
        if a == 0:
            raise FieldError("inverse of zero")
        return self.pow(a, self.order - 2)

    def _find_generator(self):
        n = self.order - 1
        for cand in range(1, self.order):
            if all(self.pow(cand, n // r) != 1 for r in self._factors):
                return cand
        raise FieldError("no generator found")  # pragma: no cover

    def dlog(self, a):
        if a == 0:
            raise FieldError("discrete log of zero")
        if self._log is None:
            log = {}
            acc = 1
            for k in range(self.order - 1):
                log[acc] = k
                acc = self.mul(acc, self.generator)
            self._log = log
        return self._log[a]

    def _frobenius_trace(self, a):
        """x + x^q + ... down to the base field; returns a base code."""
        q = self.base.q
        acc, term = a, a
        for _ in range(self.degree - 1):
            term = self.pow(term, q)
            acc = self.add(acc, term)
        co = self.coeffs(acc)
        if any(co[1:]):
            raise FieldError("trace landed outside the base field")  # pragma: no cover
        return co[0]

    def trace_to_base(self, a):
        """The trace down to the base field, as the dot product of the
        coordinates of a with the basis traces; returns a base code."""
        K = self.base
        acc = 0
        for c, tr in zip(self.coeffs(a), self._basis_traces):
            acc = K.add(acc, K.mul(c, tr))
        return acc

    # -- K-linear maps in the basis {1, t, t^2} ------------------------------

    def mult_matrix(self, x):
        """Rows of the K-matrix of y -> x*y acting on column coordinate vectors."""
        e = self.degree
        cols = []
        for j in range(e):
            cols.append(self.coeffs(self.mul(x, self.encode([0] * j + [1]))))
        return tuple(tuple(cols[j][i] for j in range(e)) for i in range(e))

    def frobenius_matrix(self):
        """K-matrix of y -> y^q in the same basis."""
        e, q = self.degree, self.base.q
        cols = [self.coeffs(self.pow(self.encode([0] * j + [1]), q)) for j in range(e)]
        return tuple(tuple(cols[j][i] for j in range(e)) for i in range(e))

    def __repr__(self):
        return f"GF({self.order})/GF({self.base.q})"


@functools.cache
def field_extension(base, degree):
    """FieldExtension(base, degree), built once per field and degree, so
    every caller shares its lazily built log table."""
    return FieldExtension(base, degree)
