"""Exact integer number theory: factoring, primality, primes, primitive
roots, square roots modulo a prime and discrete logs.

These are the only integer routines the package needs.  Every answer is
exact: factorint always terminates with the full factorisation, isprime
decides n < 1009^2 by trial division and larger n by Baillie-PSW (a
strong base-2 probable-prime test plus a strong Lucas test with
Selfridge's parameters), which has no counterexample and is proven
exact below 2^64 (Feitsma-Galway tables of base-2 pseudoprimes).
"""

from __future__ import annotations

import functools
import itertools
import math


def primerange(a, b):
    """The primes p with a <= p < b, ascending, from a bytearray sieve."""
    if b <= 2:
        return []
    sieve = bytearray([1]) * b
    sieve[0:2] = b"\0\0"
    for p in range(2, math.isqrt(b - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, b, p)))
    a = max(a, 2)
    return list(itertools.compress(range(a, b), sieve[a:b]))


_SMALL = tuple(primerange(2, 1000))
_SMALL_SET = frozenset(_SMALL)
_PRIMORIAL = math.prod(_SMALL)
# 1009 is the least prime above 997: every composite below 1009^2 has a
# prime factor below 1000
_TRIAL_LIMIT = 1009 * 1009


def isprime(n):
    """Whether the integer n is prime."""
    if n < 1000:
        return n in _SMALL_SET
    # trial division by every prime below 1000: the first three, which
    # settle most composites, one by one, then the rest at once
    if not (n & 1 and n % 3 and n % 5) or math.gcd(n, _PRIMORIAL) != 1:
        return False
    if n < _TRIAL_LIMIT:
        return True
    return _strong_prp2(n) and _strong_lucas_prp(n)


def _strong_prp2(n):
    """Strong (Miller-Rabin) probable-prime test to base 2, n odd."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    x = pow(2, d >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a, n):
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                result = -result
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_prp(n):
    """Strong Lucas probable-prime test, Selfridge's method A (P = 1).

    n is odd with no prime factor below 1000.
    """
    r = math.isqrt(n)
    if r * r == n:
        return False  # no D with (D/n) = -1 exists
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) < n:
            return False  # D shares a factor with n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s
    # U_k, V_k, Q^k for k = 1, then walk the bits of d below the top one
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U = U * V % n
        V = (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            # k -> k + 1: U' = (U + V)/2, V' = (D U + V)/2 (mod n, n odd)
            U, V = (U + V) % n, (D * U + V) % n
            if U & 1:
                U += n
            if V & 1:
                V += n
            U >>= 1
            V >>= 1
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        if V == 0:
            return True
        Qk = Qk * Qk % n
    return False


def factorint(n):
    """Prime factorisation {p: e} of the integer n >= 1, primes ascending."""
    if n < 1:
        raise ValueError(f"factorint needs n >= 1, got {n}")
    out = {}
    g = math.gcd(n, _PRIMORIAL)  # the product of n's prime factors below 1000
    if g > 1:
        for p in _SMALL:
            if g % p == 0:
                n //= p
                e = 1
                while n % p == 0:
                    n //= p
                    e += 1
                out[p] = e
                g //= p
                if g == 1:
                    break
    if n == 1:
        return out
    if n < _TRIAL_LIMIT:
        out[n] = 1
        return out
    large = {}
    stack = [n]
    while stack:
        m = stack.pop()
        if isprime(m):
            large[m] = large.get(m, 0) + 1
        else:
            d = _split(m)
            stack += [d, m // d]
    out.update(sorted(large.items()))
    return out


def _split(n):
    """A proper divisor of the odd composite n, which has no prime factor
    below 1000: Pollard-Brent rho, then trial division if rho keeps failing."""
    r = math.isqrt(n)
    if r * r == n:
        return r
    for c in range(1, 21):
        g = _brent(n, c)
        if g != n:
            return g
    # not reached in practice; trial division always finds a factor
    for p in range(1001, r + 1, 2):  # pragma: no cover
        if n % p == 0:
            return p


def _brent(n, c):
    """Brent's variant of Pollard's rho on x -> x^2 + c mod n: a divisor
    of n other than 1 (n itself when this c fails)."""
    y, r, q, g = 2, 1, 1, 1
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(128, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += 128
        r <<= 1
    if g == n:
        # the batched product hit 0 mod n: retrace the batch one step at a time
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
    return g


def _iroot(n, k):
    """floor(n ** (1/k)) for integers n >= 0, k >= 1."""
    if k == 1 or n < 2:
        return n
    if k == 2:
        return math.isqrt(n)
    x = 1 << -(-n.bit_length() // k)  # above the root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def prime_power(q):
    """(p, d) with q = p^d and p prime, or None when q is no prime power."""
    if q < 2:
        return None
    for d in range(1, q.bit_length()):
        r = _iroot(q, d)
        if r < 2:
            break
        if r**d == q and isprime(r):
            return r, d
    return None


def primitive_root(pe):
    """The smallest primitive root modulo the odd prime power pe."""
    [(p, e)] = factorint(pe).items()
    cofactors = [(p - 1) // r for r in factorint(p - 1)]
    p2 = p * p
    for g in itertools.count(2):
        if g % p and all(pow(g, c, p) != 1 for c in cofactors) and (
            e == 1 or pow(g, p - 1, p2) != 1
        ):
            return g


def sqrt_mod(a, p):
    """A square root of a modulo the prime p (Tonelli-Shanks), or None
    when a is no square mod p."""
    a %= p
    if a < 2 or p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q = p - 1
    s = (q & -q).bit_length() - 1
    q >>= s
    z = 2
    while pow(z, (p - 1) // 2, p) == 1:
        z += 1
    # invariant: r^2 = a t, with t of order 2^i for some i < m
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, u = 0, t
        while u != 1:
            u = u * u % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def discrete_log(n, a, b, order, factors):
    """x in [0, order) with b^x = a (mod n).

    b has multiplicative order `order` modulo n and factors is
    factorint(order): Pohlig-Hellman, one baby-step giant-step per prime
    of the order and digit of its exponent.  Raises ValueError when a is
    not a power of b.
    """
    x, mod = 0, 1
    for q, e in factors.items():
        qe = q**e
        g = pow(b, order // qe, n)  # order q^e
        h = pow(a, order // qe, n)
        gamma = pow(g, qe // q, n)  # order q
        xq = 0
        for j in range(e):
            t = pow(h * pow(g, -xq, n) % n, q ** (e - 1 - j), n)
            xq += _log_prime_order(n, t, gamma, q) * q**j
        x += mod * ((xq - x) * pow(mod, -1, qe) % qe)
        mod *= qe
    if pow(b, x, n) != a % n:
        raise ValueError(f"{a} is not a power of {b} mod {n}")
    return x


def _log_prime_order(n, t, gamma, q):
    """d in [0, q) with gamma^d = t (mod n), gamma of prime order q."""
    if q < 64:
        y = 1
        for d in range(q):
            if y == t:
                return d
            y = y * gamma % n
        raise ValueError(f"{t} is not a power of {gamma} mod {n}")
    m, baby, giant = _baby_steps(n, gamma, q)
    y = t
    for i in range(m):
        j = baby.get(y)
        if j is not None:
            return i * m + j
        y = y * giant % n
    raise ValueError(f"{t} is not a power of {gamma} mod {n}")


@functools.lru_cache(maxsize=16)
def _baby_steps(n, gamma, q):
    """(m, {gamma^j mod n: j for j < m}, gamma^-m mod n), m = ceil(sqrt(q)):
    the baby-step table of gamma, of prime order q, kept across the
    discrete logs of one unit group.  Callers only read the dict."""
    m = math.isqrt(q - 1) + 1
    baby = {}  # distinct, as m <= q
    y = 1
    for j in range(m):
        baby[y] = j
        y = y * gamma % n
    return m, baby, pow(gamma, -m, n)
