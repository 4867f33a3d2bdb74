"""Finite field arithmetic: one field type whose codes are coordinates over its base.

FiniteField(p, d) is GF(p^d) over the prime field: an element is the
integer code sum(c_i * p**i) of the polynomial c_0 + c_1*t + ... +
c_{d-1}*t^(d-1) over GF(p), reduced modulo a monic irreducible modulus of
degree d.  FiniteField(K, e), for a field K and e in {2, 3}, is GF(|K|^e)
over K, built the same way with K in place of GF(p): the code is
sum(c_i * |K|**i) with c_i codes of K, so K's elements keep their own
codes and an element's coordinates in the K-basis {1, t, t^2} are its
base-|K| digits.  Prime-subfield elements keep their natural codes 0..p-1.

When no modulus is supplied the canonical one is used: the first monic
irreducible polynomial of the degree in increasing code order
(coefficients read as base-|K| digits, leading coefficient most
significant).  All derived data -- the verified multiplicative generator,
the first code of full order; discrete logs; traces -- is therefore
reproducible across runs and machines.
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
    integers coerce to prime-subfield constants, and a prime-subfield
    element equals (and hashes like) its code."""

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
            # only the code itself, so that equal objects hash alike
            return self.code < self.field.p and self.code == other
        return (isinstance(other, FieldElement)
                and self.field == other.field and self.code == other.code)

    def __hash__(self):
        if self.code < self.field.p:
            return hash(self.code)
        return hash((self.field, self.code))

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
        parts = []
        for i, c in reversed(list(enumerate(self.coeffs))):
            if not c:
                continue
            var = "t" if i == 1 else f"t^{i}"
            if i == 0:
                parts.append(str(c))
            else:
                parts.append(var if c == 1 else f"{c}{var}")
        return "+".join(parts) if parts else "0"


class FiniteField:
    """GF(q) with a verified multiplicative generator, as a vector space of
    dimension `degree` over its base: the prime field when built from a
    prime p (`base` is then None), the field K when built from K.

    A field over a prime with q <= TABLE_LIMIT fills exp/log tables at
    construction and multiplies through them.  A field over K fills none
    up front, since its callers take a few products, matrices and traces;
    its first discrete log fills them when q <= TABLE_LIMIT.  Without
    tables, multiplication is polynomial arithmetic in the base's
    operations and discrete logs are baby-step giant-step.
    """

    def __init__(self, base, degree=1, modulus=None, order_cap=DEFAULT_ORDER_CAP):
        degree = int(degree)
        if isinstance(base, FiniteField):
            if degree not in (2, 3):
                raise FieldError("only quadratic and cubic extensions of a field")
            p, kq, d = base.p, base.q, base.d * degree
            self._cadd, self._cneg, self._cmul = base.add, base.neg, base.mul
            self.base, base_key = base, (base._key if base.d > 1 else p)
        else:
            p = kq = int(base)
            d = degree
            if p < 2 or not isprime(p):
                raise FieldError(f"characteristic {p} is not prime")
            if degree < 1:
                raise FieldError("extension degree must be >= 1")
            self._cadd = lambda x, y: (x + y) % p
            self._cneg = lambda x: -x % p
            self._cmul = lambda x, y: x * y % p
            self.base, base_key = None, p
        q = kq ** degree
        if q > order_cap:
            raise FieldError(f"field size {q} exceeds cap {order_cap}")
        self.p, self.d, self.q, self.degree, self._kq = p, d, q, degree, kq
        self._digits = None
        if modulus is None:
            modulus = self._canonical_modulus()
        else:
            modulus = tuple(int(c) % kq for c in modulus)
            if len(modulus) != degree + 1 or modulus[-1] != 1:
                raise FieldError("modulus must be monic of degree d")
            if not self._irreducible(modulus):
                raise FieldError(f"modulus {list(modulus)} is reducible over GF({kq})")
        self.modulus = modulus
        self._key = (base_key, modulus)
        # t^degree = -(m_0 + m_1 t + ...), its nonzero terms as (i, -m_i):
        # the reduction rule of _mul_poly
        self._tn = [(i, self._cneg(c)) for i, c in enumerate(modulus[:degree]) if c]
        eager = self.base is None and q <= TABLE_LIMIT
        if eager:
            self._digits = [self._decode(c) for c in range(q)]
        self._factors_qm1 = list(factorint(q - 1)) if q > 2 else []
        self._exp = self._log = self._baby = None
        self._add_table = self._neg_table = None
        self.generator = self._find_generator()
        if eager:
            self._fill_tables()
        if eager and q <= ADD_TABLE_LIMIT:
            # with u the unit of a's lowest nonzero base-p digit, a + b is
            # u + ((a - u) + b): each row composes two earlier rows
            rows = [list(range(q))]
            for a in range(1, q):
                u = 1
                while a % (u * p) == 0:
                    u *= p
                rows.append([self.add(a, b) for b in range(q)] if a == u
                            else [rows[u][x] for x in rows[a - u]])
            self._add_table = rows
            self._neg_table = [row.index(0) for row in rows]

    # -- encoding: base-|K| digits, the coordinates over the base ---------------

    def _decode(self, code):
        kq, out = self._kq, []
        for _ in range(self.degree):
            code, r = divmod(code, kq)
            out.append(r)
        return tuple(out)

    def _encode(self, digits):
        code = 0
        for c in reversed(digits):
            code = code * self._kq + c
        return code

    def coeffs(self, code):
        if self._digits is not None:
            return self._digits[code]
        return self._decode(code)

    def prime_coeffs(self, code):
        """The d base-p digits of a code, lowest first: its coordinates over
        GF(p), since |K| is a power of p.  Over a prime this is coeffs."""
        if self.base is None:
            return self.coeffs(code)
        p, out = self.p, []
        for _ in range(self.d):
            code, r = divmod(code, p)
            out.append(r)
        return tuple(out)

    def encode(self, coeffs):
        coeffs = [int(c) % self._kq for c in coeffs]
        if len(coeffs) > self.degree:
            raise FieldError("coefficient vector longer than the degree")
        return self._encode(coeffs)

    # -- arithmetic on codes -----------------------------------------------

    def add(self, a, b):
        if self._add_table is not None:
            return self._add_table[a][b]
        return self._encode(list(map(self._cadd, self.coeffs(a), self.coeffs(b))))

    def neg(self, a):
        if self._neg_table is not None:
            return self._neg_table[a]
        return self._encode(list(map(self._cneg, self.coeffs(a))))

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def _mul_poly(self, a, b):
        add, mul, n = self._cadd, self._cmul, self.degree
        terms = [(j, y) for j, y in enumerate(self.coeffs(b)) if y]
        out = [0] * (2 * n - 1)
        for i, x in enumerate(self.coeffs(a)):
            if x:
                for j, y in terms:
                    out[i + j] = add(out[i + j], mul(x, y))
        # fold t^k, k = 2n-2 .. n, into lower terms by t^n = sum -m_i t^i
        for k in range(2 * n - 2, n - 1, -1):
            c = out[k]
            if c:
                for i, r in self._tn:
                    out[k - n + i] = add(out[k - n + i], mul(c, r))
        return self._encode(out[:n])

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

    # -- modulus, generator, discrete log ------------------------------------

    def _irreducible(self, f):
        if self.base is None:
            return poly_is_irreducible(list(f), self.p)
        # degree 2 or 3 over K: irreducible iff f has no root in K
        return all(self._eval(f, x) for x in range(self._kq))

    def _eval(self, f, x):
        acc = 0
        for c in reversed(f):
            acc = self._cadd(self._cmul(acc, x), c)
        return acc

    def _canonical_modulus(self):
        for code in range(self.q):
            f = self._decode(code) + (1,)  # digit i multiplies t^i
            if self._irreducible(f):
                return f
        raise FieldError("no irreducible modulus found")  # pragma: no cover

    def _find_generator(self):
        n = self.q - 1
        for cand in range(1, self.q):
            if all(self.pow(cand, n // r) != 1 for r in self._factors_qm1):
                # order divides n and misses every maximal proper divisor
                return cand
        raise FieldError("no generator found")  # pragma: no cover

    def _fill_tables(self):
        exp, log = [1] * (self.q - 1), [0] * self.q
        acc = 1
        for k in range(1, self.q - 1):
            acc = self._mul_poly(acc, self.generator)
            exp[k] = acc
            log[acc] = k
        self._exp, self._log = exp, log

    def exp(self, k):
        k %= (self.q - 1) if self.q > 2 else 1
        if self._exp is not None:
            return self._exp[k]
        return self.pow(self.generator, k)

    def dlog(self, a):
        """Discrete log base the canonical generator."""
        if a == 0:
            raise FieldError("discrete log of zero")
        if self._log is None and self.q <= TABLE_LIMIT:
            self._fill_tables()
        if self._log is not None:
            return self._log[a]
        n = self.q - 1
        if self._baby is None:
            # generator^j -> j for j < m, built once per field
            m = math.isqrt(n - 1) + 1
            baby = {}
            t = 1
            for j in range(m):
                baby.setdefault(t, j)
                t = self.mul(t, self.generator)
            self._baby = (m, baby, self.inv(t))  # inv(t) = generator^(-m)
        m, baby, step = self._baby
        y = a
        for i in range(m + 1):
            if y in baby:
                return (i * m + baby[y]) % n
            y = self.mul(y, step)
        raise FieldError("discrete log failed")  # pragma: no cover

    # -- trace and norm to a subfield, base-field matrices -------------------

    def _frobenius_fold(self, a, e, op):
        if self.d % e:
            raise FieldError(f"no subfield of degree {e} in GF({self.p}^{self.d})")
        acc = term = a
        for _ in range(self.d // e - 1):
            term = self.pow(term, self.p ** e)
            acc = op(acc, term)
        return acc

    def trace(self, a, e=1):
        """Trace onto the subfield GF(p^e); e must divide d."""
        return self._frobenius_fold(a, e, self.add)

    def norm(self, a, e=1):
        return self._frobenius_fold(a, e, self.mul)

    def trace_to_base(self, a):
        """The trace down to the base field, whose codes are those of the base."""
        return self.trace(a, self.d // self.degree)

    def _matrix(self, f):
        cols = [self.coeffs(f(self._kq ** j)) for j in range(self.degree)]
        return tuple(zip(*cols))

    def mult_matrix(self, x):
        """Rows of the base-field matrix of y -> x*y acting on column
        coordinate vectors in the basis {1, t, t^2, ...}."""
        return self._matrix(lambda y: self.mul(x, y))

    def frobenius_matrix(self):
        """Base-field matrix of y -> y^|K| in the same basis."""
        return self._matrix(lambda y: self.pow(y, self._kq))

    # -- misc ----------------------------------------------------------------

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
        return isinstance(other, FiniteField) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"GF({self.q})/GF({self._kq})" if self.base else f"GF({self.q})"

    def to_json(self):
        return {"p": self.p, "d": self.d, "modulus": list(self.modulus)}


@functools.lru_cache(maxsize=None)
def _field_cached(p, d, modulus, order_cap):
    return FiniteField(p, d, modulus, order_cap)

def field_create(p, d=1, modulus=None, order_cap=DEFAULT_ORDER_CAP):
    """GF(p^d) with the canonical (or supplied) modulus.  Instances cached."""
    m = tuple(int(c) for c in modulus) if modulus is not None else None
    return _field_cached(int(p), int(d), m, order_cap)


@functools.cache
def field_extension(base, degree):
    """FiniteField(base, degree), built once per field and degree, so every
    caller shares the tables its first discrete log fills."""
    return FiniteField(base, degree)


# perfbench/tracing.py wraps dlog and trace_to_base on the class by this name
FieldExtension = FiniteField
