import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import frobenius_trace
from sidonkit.fields import (
    TABLE_LIMIT,
    FieldError,
    FieldExtension,
    FiniteField,
    field_create,
    field_extension,
    poly_is_irreducible,
)


def test_canonical_moduli():
    # lowest-code irreducible, coefficients low degree first
    assert field_create(3, 2).modulus == (1, 0, 1)       # t^2 + 1
    assert field_create(2, 2).modulus == (1, 1, 1)       # t^2 + t + 1
    assert field_create(2, 3).modulus == (1, 1, 0, 1)    # t^3 + t + 1
    assert field_create(3, 1).modulus == (0, 1)          # t itself


def test_generator_anchors():
    assert field_create(3, 1).generator == 2
    assert field_create(7, 1).generator == 3
    assert field_create(5, 1).generator == 2


@pytest.mark.parametrize("p,d", [(2, 1), (3, 1), (7, 1), (2, 2), (3, 2), (2, 4), (3, 4), (5, 2)])
def test_generator_order(p, d):
    F = field_create(p, d)
    seen = set()
    acc = 1
    for _ in range(F.q - 1):
        seen.add(acc)
        acc = F.mul(acc, F.generator)
    assert acc == 1
    assert len(seen) == F.q - 1


@pytest.mark.parametrize("p,d", [(3, 2), (2, 3), (5, 1), (3, 4), (2, 6)])
def test_dlog_exp_roundtrip(p, d):
    F = field_create(p, d)
    for a in range(1, F.q):
        k = F.dlog(a)
        assert F.pow(F.generator, k) == a


@pytest.mark.parametrize("p,d", [(5, 2), (3, 3)])
def test_field_axioms_sampled(p, d):
    F = field_create(p, d)
    rng = random.Random(7)
    codes = [rng.randrange(F.q) for _ in range(40)]
    for x in codes:
        assert F.pow(x, F.q) == x                       # Fermat
        if x:
            assert F.mul(x, F.inv(x)) == 1
    for x, y in zip(codes, reversed(codes)):
        assert F.add(x, y) == F.add(y, x)
        assert F.mul(x, y) == F.mul(y, x)
        # Frobenius is additive
        assert F.pow(F.add(x, y), p) == F.add(F.pow(x, p), F.pow(y, p))


PRIME_POWERS_TO_64 = [(p, d) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41,
                                        43, 47, 53, 59, 61)
                      for d in range(1, 7) if p ** d <= 64]


@pytest.mark.parametrize("p,d", PRIME_POWERS_TO_64)
def test_negation_table_matches_digit_formula(p, d):
    F = field_create(p, d)
    assert F._neg_table is not None
    for a in range(F.q):
        digits = [(a // p ** i) % p for i in range(d)]
        expected = sum(((-c) % p) * p ** i for i, c in enumerate(digits))
        assert F.neg(a) == expected
        assert F.add(a, F.neg(a)) == 0
        for b in range(0, F.q, 5):
            assert F.add(F.sub(a, b), b) == a


def test_distributivity_exhaustive_gf8():
    F = field_create(2, 3)
    for x in range(8):
        for y in range(8):
            for z in range(8):
                assert F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))


def test_trace_and_norm_land_in_prime_field():
    F = field_create(3, 2)
    traces = [F.trace(a) for a in range(9)]
    norms = [F.norm(a) for a in range(1, 9)]
    assert all(t in (0, 1, 2) for t in traces)
    assert set(traces) == {0, 1, 2}                     # trace is onto
    assert all(n in (1, 2) for n in norms)
    # norm is multiplicative
    for a in range(1, 9):
        for b in range(1, 9):
            assert F.norm(F.mul(a, b)) == F.mul(F.norm(a), F.norm(b)) % 3


def test_irreducibility():
    assert poly_is_irreducible([1, 0, 1], 3)            # t^2+1, -1 not a square mod 3
    assert not poly_is_irreducible([1, 0, 1], 5)        # 2^2 = -1 mod 5
    assert poly_is_irreducible([1, 1], 2)               # degree 1 always
    assert poly_is_irreducible([5, 1], 7)
    assert not poly_is_irreducible([0, 0, 1], 3)        # t^2 = t * t
    assert not poly_is_irreducible([1, 2, 1], 3)        # (t+1)^2


def test_bad_parameters():
    with pytest.raises(FieldError):
        field_create(6, 1)
    with pytest.raises(FieldError):
        field_create(4, 1)
    with pytest.raises(FieldError):
        FiniteField(3, 2, modulus=(1, 2, 1))            # reducible
    with pytest.raises(FieldError):
        field_create(2, 40)                             # over the size cap


def test_element_wrapper_arithmetic():
    F = field_create(3, 2)
    a, b = F(4), F(7)
    assert (a + b) - b == a
    assert a * b == b * a
    assert (a / b) * b == a
    assert (-a) + a == F(0)
    assert a ** 8 == F(1)
    with pytest.raises(FieldError):
        F(4) + field_create(3, 1)(1)


def test_extension_tower():
    K = field_create(3, 1)
    E = FieldExtension(K, 3)
    assert E.q == 27
    # the declared generator has full multiplicative order
    acc, seen = 1, set()
    for _ in range(26):
        seen.add(acc)
        acc = E.mul(acc, E.generator)
    assert acc == 1 and len(seen) == 26


def test_extension_trace_lands_in_base():
    K = field_create(2, 2)
    E = FieldExtension(K, 3)
    traces = [E.trace_to_base(x) for x in range(E.q)]
    assert all(0 <= t < K.q for t in traces)
    assert set(traces) == set(range(K.q))


# every base field with q <= 9
SMALL_BASES = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


@functools.lru_cache(maxsize=None)
def extension(p, d, degree):
    return FieldExtension(field_create(p, d), degree)


@pytest.mark.parametrize("degree", [2, 3])
@pytest.mark.parametrize("p,d", SMALL_BASES)
def test_linear_trace_matches_frobenius_sum(p, d, degree):
    E = extension(p, d, degree)
    for x in range(E.q):
        assert E.trace_to_base(x) == frobenius_trace(E, x)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([(11, 1), (2, 4), (3, 3), (31, 1)]),
       st.sampled_from([2, 3]), st.data())
def test_linear_trace_is_the_k_linear_frobenius_sum(pd, degree, data):
    # larger fields than the exhaustive check: Tr(c*x + y) = c Tr(x) + Tr(y)
    # for a base scalar c, and each trace equals the Frobenius sum
    E = extension(*pd, degree)
    K = E.base
    x, y = (data.draw(st.integers(0, E.q - 1)) for _ in range(2))
    c = data.draw(st.integers(0, K.q - 1))
    for a in (x, y):
        assert E.trace_to_base(a) == frobenius_trace(E, a)
    lhs = E.trace_to_base(E.add(E.mul(c, x), y))
    assert lhs == K.add(K.mul(c, E.trace_to_base(x)), E.trace_to_base(y))


def test_extension_mult_matrix_is_multiplicative():
    K = field_create(3, 1)
    E = FieldExtension(K, 2)

    def matmul(A, B):
        e = len(A)
        return tuple(
            tuple(
                _dotrow(K, A[i], tuple(B[k][j] for k in range(e)))
                for j in range(e)
            )
            for i in range(e)
        )

    def _dotrow(K, r, c):
        acc = 0
        for x, y in zip(r, c):
            acc = K.add(acc, K.mul(x, y))
        return acc

    for x in range(1, E.q):
        for y in range(1, E.q):
            assert matmul(E.mult_matrix(x), E.mult_matrix(y)) == E.mult_matrix(E.mul(x, y))


# (|K|, e): (modulus, generator, mult_matrix(generator), frobenius_matrix())
# of the degree-e extension of K, as built before extensions became
# ordinary FiniteFields: codes sum(c_i * |K|^i), the first rootless monic
# modulus in code order, the first code of full order
EXTENSION_PINS = {
    (2, 2): ((1, 1, 1), 2, ((0, 1), (1, 1)), ((1, 1), (0, 1))),
    (2, 3): ((1, 1, 0, 1), 2, ((0, 0, 1), (1, 0, 1), (0, 1, 0)),
             ((1, 0, 0), (0, 0, 1), (0, 1, 1))),
    (3, 2): ((1, 0, 1), 4, ((1, 2), (1, 1)), ((1, 0), (0, 2))),
    (3, 3): ((1, 2, 0, 1), 3, ((0, 0, 2), (1, 0, 1), (0, 1, 0)),
             ((1, 2, 1), (0, 1, 1), (0, 0, 1))),
    (4, 2): ((2, 1, 1), 4, ((0, 2), (1, 1)), ((1, 1), (0, 1))),
    (4, 3): ((2, 0, 0, 1), 5, ((1, 0, 2), (1, 1, 0), (0, 1, 1)),
             ((1, 0, 0), (0, 2, 0), (0, 0, 3))),
    (5, 2): ((2, 0, 1), 6, ((1, 3), (1, 1)), ((1, 0), (0, 4))),
    (5, 3): ((1, 1, 0, 1), 9, ((4, 0, 4), (1, 4, 4), (0, 1, 4)),
             ((1, 1, 3), (0, 1, 3), (0, 4, 3))),
    (7, 2): ((1, 0, 1), 9, ((2, 6), (1, 2)), ((1, 0), (0, 6))),
    (7, 3): ((2, 0, 0, 1), 22, ((1, 0, 1), (3, 1, 0), (0, 3, 1)),
             ((1, 0, 0), (0, 4, 0), (0, 0, 2))),
    (8, 2): ((1, 1, 1), 10, ((2, 1), (1, 3)), ((1, 1), (0, 1))),
    (8, 3): ((2, 1, 0, 1), 8, ((0, 0, 2), (1, 0, 1), (0, 1, 0)),
             ((1, 0, 0), (0, 2, 5), (0, 5, 3))),
    (9, 2): ((4, 0, 1), 10, ((1, 8), (1, 1)), ((1, 0), (0, 2))),
    (9, 3): ((3, 1, 0, 1), 10, ((1, 0, 6), (1, 1, 2), (0, 1, 1)),
             ((1, 6, 2), (0, 1, 3), (0, 0, 1))),
    (11, 2): ((1, 0, 1), 15, ((4, 10), (1, 4)), ((1, 0), (0, 10))),
    (11, 3): ((4, 1, 0, 1), 11, ((0, 0, 7), (1, 0, 10), (0, 1, 0)),
              ((1, 1, 5), (0, 7, 6), (0, 7, 3))),
    (13, 2): ((2, 0, 1), 15, ((2, 11), (1, 2)), ((1, 0), (0, 12))),
    (13, 3): ((2, 0, 0, 1), 15, ((2, 0, 11), (1, 2, 0), (0, 1, 2)),
              ((1, 0, 0), (0, 3, 0), (0, 0, 9))),
    (16, 2): ((8, 1, 1), 18, ((2, 8), (1, 3)), ((1, 1), (0, 1))),
    (16, 3): ((2, 0, 0, 1), 17, ((1, 0, 2), (1, 1, 0), (0, 1, 1)),
              ((1, 0, 0), (0, 6, 0), (0, 0, 7))),
    (31, 2): ((1, 0, 1), 35, ((4, 30), (1, 4)), ((1, 0), (0, 30))),
    (31, 3): ((3, 0, 0, 1), 34, ((3, 0, 28), (1, 3, 0), (0, 1, 3)),
              ((1, 0, 0), (0, 25, 0), (0, 0, 5))),
}

BASE_PD = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3),
           9: (3, 2), 11: (11, 1), 13: (13, 1), 16: (2, 4), 31: (31, 1)}


@pytest.mark.parametrize("kq,degree", sorted(EXTENSION_PINS))
def test_extension_data_is_pinned(kq, degree):
    L = field_extension(field_create(*BASE_PD[kq]), degree)
    assert (L.modulus, L.generator, L.mult_matrix(L.generator),
            L.frobenius_matrix()) == EXTENSION_PINS[kq, degree]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.sampled_from([2, 3]), st.data())
def test_extension_of_a_prime_field_is_the_prime_power_field(p, degree, data):
    L, F = field_extension(field_create(p, 1), degree), field_create(p, degree)
    assert (L.modulus, L.generator) == (F.modulus, F.generator)
    x, y = (data.draw(st.integers(0, F.q - 1)) for _ in range(2))
    assert L.mul(x, y) == F.mul(x, y)


def test_element_hash_agrees_with_equality():
    F = field_create(3, 1)
    assert F(1) == 1 and 1 in {F(1)} and F(1) in {1}
    assert F(1) != 4
    G = field_create(3, 2)
    assert all(hash(G(c)) == hash(c) and G(c) == c for c in range(3))
    assert {G(c) for c in range(9)} == set(G.elements())


def test_field_equality_includes_the_base():
    # GF(64) over GF(2), GF(4) and GF(8) read the same code differently
    towers = [field_create(2, 6), field_extension(field_create(2, 2), 3),
              field_extension(field_create(2, 3), 2)]
    assert len(set(towers)) == 3
    assert len({L(5) for L in towers}) == 3
    assert towers[1] == FiniteField(field_create(2, 2), 3)
    assert hash(towers[1]) == hash(FiniteField(field_create(2, 2), 3))


def test_tracer_wraps_extension_methods_on_the_class():
    # perfbench/tracing.py wraps these two methods from the class __dict__
    assert {"dlog", "trace_to_base"} <= set(FieldExtension.__dict__)


@pytest.mark.parametrize("make", [lambda: field_create(65537),
                                  lambda: field_extension(field_create(257), 2)])
def test_dlog_above_the_table_limit(make):
    # fields past TABLE_LIMIT keep no exp/log tables: baby-step giant-step
    F = make()
    assert F.q > TABLE_LIMIT
    rng = random.Random(3)
    for a in [1, F.generator, F.q - 1] + [rng.randrange(1, F.q) for _ in range(20)]:
        k = F.dlog(a)
        assert 0 <= k < F.q - 1 and F.pow(F.generator, k) == a
    assert F._exp is None
