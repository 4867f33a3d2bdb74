"""sidonkit.ntheory against sympy, which serves as the oracle here only:
the package itself never imports it."""

import math
import os
import pathlib
import random
import subprocess
import sys

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import table_unit_encoder
from sidonkit import ntheory
from sidonkit.sparse import UnitGroup

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

CARMICHAEL = [561, 41041, 825265]
# strong pseudoprimes to every prime base up to 23, and up to 37
STRONG_PSEUDOPRIMES = [3825123056546413051, 318665857834031151167461]
NEAR_2_31 = [(2**31 - 1) * 2147483629, 2147483629 * 2147483659, 2147483659**2,
             (2**31 - 1) * 2147483693 * 3]


def sympy_prime_power(n):
    fac = sympy.factorint(n) if n > 0 else {}
    return next(iter(fac.items())) if len(fac) == 1 else None


def assert_factorisation(n, fac):
    """fac is n's factorisation: ascending primes whose product is n."""
    assert list(fac) == sorted(fac)
    assert all(sympy.isprime(p) and e >= 1 for p, e in fac.items())
    assert math.prod(p**e for p, e in fac.items()) == n


def test_every_small_n_matches_sympy():
    for n in range(-10, 1):
        assert not ntheory.isprime(n)
        assert ntheory.prime_power(n) is None
    for n in range(1, 20_001):
        assert ntheory.isprime(n) == sympy.isprime(n), n
        assert ntheory.factorint(n) == sympy.factorint(n), n
        assert ntheory.prime_power(n) == sympy_prime_power(n), n


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=2**80 - 1))
def test_isprime_and_prime_power_drawn_below_2_80(n):
    assert ntheory.isprime(n) == sympy.isprime(n)
    assert ntheory.isprime(n) == (ntheory.factorint(n) == {n: 1})
    r = sympy.integer_nthroot
    pp = ntheory.prime_power(n)
    if pp is None:
        assert not any(r(n, d)[1] and sympy.isprime(r(n, d)[0])
                       for d in range(1, n.bit_length()))
    else:
        p, d = pp
        assert p**d == n and sympy.isprime(p)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=2**80 - 1))
def test_factorint_drawn_below_2_80(n):
    assert_factorisation(n, ntheory.factorint(n))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([2, 3, 5, 997, 1009, 65537, 2**31 - 1]),
                min_size=1, max_size=6))
def test_prime_power_and_factorint_of_products(primes):
    n = math.prod(primes)
    assert ntheory.factorint(n) == sympy.factorint(n)
    assert ntheory.prime_power(n) == sympy_prime_power(n)


def test_hard_cases():
    for n in CARMICHAEL + STRONG_PSEUDOPRIMES + NEAR_2_31:
        assert not ntheory.isprime(n), n
        assert ntheory.factorint(n) == sympy.factorint(n), n
        assert ntheory.prime_power(n) == sympy_prime_power(n), n
    for p in (2**31 - 1, 2147483629, 2147483659, 2**61 - 1, 2**89 - 1):
        assert ntheory.isprime(p)
        assert ntheory.factorint(p) == {p: 1}
        assert ntheory.prime_power(p**3) == (p, 3)


def test_primerange_matches_sympy():
    for a, b in [(0, 0), (0, 2), (2, 3), (0, 10_000), (5, 6), (100, 1000),
                 (997, 1010), (9_000, 20_011)]:
        assert ntheory.primerange(a, b) == list(sympy.primerange(a, b)), (a, b)


def test_primitive_root_and_discrete_log_on_odd_prime_powers():
    rng = random.Random(5000)
    for pe in range(3, 5001, 2):
        pp = ntheory.prime_power(pe)
        if pp is None:
            continue
        p = pp[0]
        g = ntheory.primitive_root(pe)
        assert g == sympy.primitive_root(pe), pe
        order = pe - pe // p
        fac = ntheory.factorint(order)
        units = [u for u in range(1, pe) if u % p]
        for a in units if pe < 100 else rng.sample(units, 8) + [pe - 1]:
            assert ntheory.discrete_log(pe, a, g, order, fac) == \
                sympy.discrete_log(pe, a, g), (pe, a)


def test_discrete_log_base_3_on_powers_of_two():
    rng = random.Random(20)
    for e in range(3, 21):
        pe = 2**e
        powers = [a for a in range(1, pe) if a % 8 in (1, 3)]  # <3> mod 2^e
        for a in powers if pe < 100 else rng.sample(powers, 12):
            assert ntheory.discrete_log(pe, a, 3, pe >> 2, {2: e - 2}) == \
                sympy.discrete_log(pe, a, 3), (e, a)


def test_discrete_log_rejects_non_powers():
    # 2 is a quadratic non-residue mod 11 and 4 = 2^2 generates the squares
    with pytest.raises(ValueError):
        ntheory.discrete_log(11, 2, 4, 5, {5: 1})


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=3, max_value=30_000), st.randoms(use_true_random=False))
def test_unit_group_encode_matches_table_oracle(m, rnd):
    units = UnitGroup(m)
    oracle = table_unit_encoder(m)
    for _ in range(5):
        u = rnd.randrange(1, m)
        while math.gcd(u, m) != 1:
            u = rnd.randrange(1, m)
        assert units.encode(u) == units._convert(oracle(u)), (m, u)


def test_unit_group_encode_keeps_baby_step_tables():
    """(Z/1000003)^* has order 2 * 3 * 166667: each encode takes one
    baby-step giant-step log, all on one table of 409 baby steps, and
    gives what it gives on a table built afresh."""
    units = UnitGroup(1000003)
    ntheory._baby_steps.cache_clear()
    warm = [units.encode(u) for u in (2, 3, 5)]
    info = ntheory._baby_steps.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    for u, want in zip((2, 3, 5), warm):
        ntheory._baby_steps.cache_clear()
        assert units.encode(u) == want, u


def test_package_never_imports_sympy():
    """Importing the package and running a sparse CLI query leaves sympy
    unimported: its import alone costs about 0.3 s."""
    code = (
        "import contextlib, io, sys\n"
        "import sidonkit, sidonkit.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    sidonkit.cli.main(['sparse', 'quotient_ring_primes', '--m', '150001'])\n"
        "assert 'sympy' not in sys.modules, 'sympy was imported'\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_sqrt_mod_matches_brute_force_below_2000():
    """Every residue mod every prime below 2000: a root when a is a
    square, None otherwise."""
    for p in ntheory.primerange(2, 2000):
        squares = {x * x % p for x in range(p)}
        for a in range(p):
            r = ntheory.sqrt_mod(a, p)
            if a in squares:
                assert 0 <= r < p and r * r % p == a, (a, p)
            else:
                assert r is None, (a, p)
