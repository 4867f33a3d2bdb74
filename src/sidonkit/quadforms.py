"""Binary quadratic forms of negative discriminant and their class group.

Composition is done on the ideal side: the form (a, b, c) corresponds to
the lattice a*Z + ((b + sqrt(disc))/2)*Z, products of two such lattices
are spanned by four explicit elements, and a two-step Hermite reduction
recovers the (a, b) of the product.  This one code path handles every
case uniformly, including squaring two-torsion classes such as
(2, 0, 3)^2 = (1, 0, 6) where shortcut formulas need special casing.
"""

from __future__ import annotations

import logging
import math
import operator
import time
from functools import total_ordering

from .groups import GroupPresentation
from .ntheory import primerange, sqrt_mod

log = logging.getLogger(__name__)


class FormError(ValueError):
    pass


@total_ordering
class BinaryQF:
    """Primitive positive definite form a x^2 + b x y + c y^2."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        if a <= 0 or b * b - 4 * a * c >= 0:
            raise FormError(f"({a},{b},{c}) is not positive definite")
        if math.gcd(a, b, c) != 1:
            raise FormError(f"({a},{b},{c}) is imprimitive")
        self.a, self.b, self.c = a, b, c

    @property
    def disc(self):
        return self.b * self.b - 4 * self.a * self.c

    def __call__(self, x, y):
        return self.a * x * x + self.b * x * y + self.c * y * y

    def __eq__(self, other):
        return (self.a, self.b, self.c) == (other.a, other.b, other.c)

    def __lt__(self, other):
        return (self.a, self.b, self.c) < (other.a, other.b, other.c)

    def __hash__(self):
        return hash((self.a, self.b, self.c))

    def __repr__(self):
        return f"BinaryQF({self.a}, {self.b}, {self.c})"

    def is_reduced(self):
        return (-self.a < self.b <= self.a < self.c) or (
            0 <= self.b <= self.a == self.c
        )

    def reduced(self):
        a, b, c = self.a, self.b, self.c
        while True:
            if a > c:
                a, b, c = c, -b, a
                continue
            if b > a or b <= -a:
                # translate b into (-a, a]
                r = b % (2 * a)
                if r > a:
                    r -= 2 * a
                c += (r * r - b * b) // (4 * a)
                b = r
                continue
            break
        if a == c and b < 0:
            b = -b
        return BinaryQF(a, b, c)

    def inverse(self):
        return BinaryQF(self.a, -self.b, self.c).reduced()

    def __mul__(self, other):
        if self.disc != other.disc:
            raise FormError("discriminant mismatch")
        disc = self.disc
        a1, b1 = self.a, self.b
        a2, b2 = other.a, other.b
        # spanning set of the product lattice, elements (x + y sqrt(disc))/2
        rows = [
            (2 * a1 * a2, 0),
            (a1 * b2, a1),
            (a2 * b1, a2),
            ((b1 * b2 + disc) // 2, (b1 + b2) // 2),
        ]
        cx, cy = rows[0]
        tail = []
        for x, y in rows[1:]:
            if cy == 0:
                tail.append(cx)
                cx, cy = x, y
                continue
            g, u, v = _xgcd(cy, y)
            tail.append((cy // g) * x - (y // g) * cx)
            cx, cy = u * cx + v * x, g
        m0 = 0
        for x in tail:
            m0 = math.gcd(m0, x)
        # the ideal is closed under multiplication by sqrt(disc), which
        # forces cy | cx and keeps a, b integral
        if m0 % (2 * cy) or cx % cy:
            raise FormError("product lattice is not an ideal")  # pragma: no cover
        a = m0 // (2 * cy)
        b = (cx // cy) % (2 * a)
        num = b * b - disc
        if num % (4 * a):
            raise FormError("product lattice is not an ideal")  # pragma: no cover
        return BinaryQF(a, b, num // (4 * a)).reduced()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = principal_form(self.disc)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def to_json(self):
        return [self.a, self.b, self.c]


def _xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _check_disc(disc):
    if disc >= 0 or disc % 4 not in (0, 1):
        raise FormError(f"{disc} is not a negative discriminant")


def principal_form(disc):
    _check_disc(disc)
    b = disc % 2
    return BinaryQF(1, b, (b * b - disc) // 4)


def reduced_forms(disc):
    """All primitive reduced forms of the given discriminant, sorted.

    Loops over |b| rather than a (Cohen, Algorithm 5.3.5): b^2 = disc
    (mod 4) forces b = disc (mod 2), 3a^2 <= -disc bounds |b| <= a <= A =
    isqrt(-disc/3), and for each b the admissible a are the divisors of
    n_b = ac = (b^2 - disc)/4 in [|b|, sqrt(n_b)], so a <= c holds by
    construction.  The prime factors of such an a are at most A, so one
    sieve over b finds them: the odd p <= A that divide n_b are those
    with b = +-sqrt(disc) (mod p), and the power of 2 is read from the low
    bits of n_b.
    """
    _check_disc(disc)
    top = math.isqrt(-disc // 3)
    b0 = disc % 2
    bs = range(b0, top + 1, 2)
    ns = [(b * b - disc) >> 2 for b in bs]
    # (p, e) for each prime p <= top with p^e exactly dividing n_b
    parts = [[(2, (n & -n).bit_length() - 1)] if not n & 1 else [] for n in ns]
    for p in primerange(3, top + 1):
        r = sqrt_mod(disc, p)
        if r is None:
            continue
        # b = b0 + 2i = +-r (mod p), with (p + 1)/2 the inverse of 2
        for root in {r, -r % p}:
            for i in range((root - b0) * (p + 1) // 2 % p, len(ns), p):
                n, e = ns[i] // p, 1
                while not n % p:
                    n //= p
                    e += 1
                parts[i].append((p, e))
    forms = []
    for b, n, part in zip(bs, ns, parts):
        hi = math.isqrt(n)
        divisors = [1]
        for p, e in part:
            grown = []
            for d in divisors:
                for _ in range(e + 1):
                    if d > hi:
                        break
                    grown.append(d)
                    d *= p
            divisors = grown
        for a in divisors:
            if a < b:
                continue
            c = n // a
            if math.gcd(a, b, c) != 1:
                continue
            forms.append(BinaryQF(a, b, c))
            if 0 < b < a < c:
                forms.append(BinaryQF(a, -b, c))
    return sorted(forms)


def fundamental_discriminant(D):
    """Discriminant of the quadratic field Q(sqrt(-D)) for squarefree D >= 1."""
    if D < 1:
        raise FormError(f"need D >= 1, got {D}")
    r = D % 4
    if r == 3:
        return -D
    return -4 * D


def kronecker(disc, p):
    """Kronecker symbol (disc / p) for prime p: 1 split, -1 inert, 0 ramified."""
    if p == 2:
        if disc % 2 == 0:
            return 0
        return 1 if disc % 8 == 1 else -1
    r = pow(disc % p, (p - 1) // 2, p)
    if r == 0:
        return 0
    return 1 if r == 1 else -1


def splits(disc, p):
    return kronecker(disc, p) == 1


def prime_form(disc, p):
    """The class of a prime ideal above p: the form (p, b, .) with the
    smaller of the two valid b in [0, 2p)."""
    _check_disc(disc)
    if kronecker(disc, p) != 1:
        raise FormError(f"{p} does not split in discriminant {disc}")
    for b in range(2 * p):
        if (b * b - disc) % (4 * p) == 0:
            return BinaryQF(p, b, (b * b - disc) // (4 * p))
    raise FormError(f"no form of shape ({p}, b, .)")  # pragma: no cover


class ClassGroup:
    """Form class group of a negative discriminant.

    forms: sorted reduced representatives.  group: the same group in
    invariant factor form, with element(form) / form(element) moving
    between the two descriptions.
    """

    def __init__(self, disc):
        _check_disc(disc)
        verbose = log.isEnabledFor(logging.INFO)
        t0 = time.perf_counter() if verbose else 0.0
        self.disc = disc
        self.forms = tuple(reduced_forms(disc))
        t_forms = time.perf_counter() - t0 if verbose else 0.0
        self.h = len(self.forms)
        op = operator.mul
        if verbose:
            ops = [0]

            def op(f, g):
                ops[0] += 1
                return f * g
        self._pres = GroupPresentation(self.forms, op, principal_form(disc))
        self.group = self._pres.group
        if verbose:
            log.info("class group of discriminant %d: h = %d, invariants %s, "
                     "%d compositions, forms %.3fs, %.3fs", disc, self.h,
                     list(self.group.factors), ops[0], t_forms,
                     time.perf_counter() - t0)

    def element(self, form):
        return self._pres.to_group[form.reduced()]

    def form(self, element):
        return self._pres.from_group[element]

    def to_json(self):
        return {
            "discriminant": self.disc,
            "class_number": self.h,
            "invariants": list(self.group.factors),
            "forms": [f.to_json() for f in self.forms],
        }
