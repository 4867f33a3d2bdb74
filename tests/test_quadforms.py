import itertools
import logging

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_reduced_forms

from sidonkit.quadforms import (
    BinaryQF,
    ClassGroup,
    FormError,
    fundamental_discriminant,
    kronecker,
    prime_form,
    principal_form,
    reduced_forms,
    splits,
)


def test_form_validation():
    f = BinaryQF(2, 1, 3)
    assert f.disc == -23
    with pytest.raises(FormError):
        BinaryQF(1, 0, -1)          # indefinite
    with pytest.raises(FormError):
        BinaryQF(-1, 0, -1)         # negative definite
    with pytest.raises(FormError):
        BinaryQF(2, 0, 2)           # imprimitive


def test_reduction():
    f = BinaryQF(15, 47, 37)        # disc = 2209-2220 = -11
    r = f.reduced()
    assert r.is_reduced()
    assert r.disc == f.disc
    assert r == BinaryQF(1, 1, 3)
    # reduced forms satisfy |b| <= a <= c with b >= 0 at the boundaries
    for g in reduced_forms(-47):
        assert -g.a < g.b <= g.a <= g.c
        if g.a in (g.b, g.c):
            assert g.b >= 0


@pytest.mark.parametrize("disc,h", [
    (-3, 1), (-4, 1), (-7, 1), (-8, 1), (-11, 1),
    (-15, 2), (-23, 3), (-47, 5), (-71, 7), (-163, 1), (-84, 4),
])
def test_class_numbers(disc, h):
    assert len(reduced_forms(disc)) == h


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=3, max_value=2 * 10**6).filter(lambda n: n % 4 in (0, 3)))
def test_reduced_forms_sieve_matches_trial_division(n):
    """The square-root sieve finds the same forms as trial division of
    every candidate a, on discriminants -n = 0 or 1 (mod 4), and every one
    is reduced (ClassGroup takes them as its representatives)."""
    forms = reduced_forms(-n)
    assert forms == naive_reduced_forms(-n)
    assert all(f.is_reduced() for f in forms)


def _squarefree(n):
    return all(e == 1 for e in sympy.factorint(n).values())


def _is_fundamental(d):
    if d % 4 == 1:
        return _squarefree(-d)
    return d % 4 == 0 and d // 4 % 4 in (2, 3) and _squarefree(-d // 4)


def test_two_rank_is_genus_count():
    """Genus theory: a fundamental discriminant d < 0 with omega(d) prime
    factors has a class group with omega(d) - 1 even invariant factors."""
    checked = 0
    for d in range(-3, -5000, -1):
        if not _is_fundamental(d):
            continue
        factors = ClassGroup(d).group.factors
        assert sum(1 for f in factors if f % 2 == 0) == len(sympy.primefactors(d)) - 1, d
        checked += 1
    assert checked == 1524


def test_reduced_forms_anchor_23():
    assert reduced_forms(-23) == [BinaryQF(1, 1, 6), BinaryQF(2, -1, 3), BinaryQF(2, 1, 3)]


def test_composition_anchor():
    f = BinaryQF(2, 0, 3)           # disc -24
    assert f * f == BinaryQF(1, 0, 6)
    g = BinaryQF(2, 1, 3)           # disc -23, order 3 in the class group
    assert g * g == g.inverse()
    assert (g * g) * g == principal_form(-23)


@pytest.mark.parametrize("disc", [-23, -47, -71, -84, -120])
def test_composition_group_laws(disc):
    forms = reduced_forms(disc)
    e = principal_form(disc)
    for f in forms:
        assert f * e == f
        assert f * f.inverse() == e
    for f, g in itertools.product(forms, repeat=2):
        assert f * g == g * f
        assert (f * g).disc == disc
    for f, g, h in itertools.product(forms, repeat=3):
        assert (f * g) * h == f * (g * h)


def test_pow_matches_repeated_multiplication():
    g = BinaryQF(2, 1, 3)
    acc = principal_form(-23)
    for k in range(7):
        assert g ** k == acc
        acc = acc * g
    assert g ** 3 == principal_form(-23)


def test_kronecker_matches_sympy_for_odd_p():
    for disc in (-23, -47, -84, -163, -4, -8):
        for p in sympy.primerange(3, 60):
            assert kronecker(disc, p) == sympy.jacobi_symbol(disc, p)


def test_kronecker_at_two():
    assert kronecker(-23, 2) == 1       # -23 = 1 mod 8
    assert kronecker(-7, 2) == 1
    assert kronecker(-3, 2) == -1       # -3 = 5 mod 8
    assert kronecker(-4, 2) == 0


def test_splits_and_prime_form():
    assert prime_form(-23, 2) == BinaryQF(2, 1, 3)
    for disc in (-23, -47, -84):
        for p in sympy.primerange(2, 50):
            if not splits(disc, p):
                continue
            f = prime_form(disc, p)
            assert f.a == p and f.disc == disc
            assert 0 <= f.b < 2 * p


def test_prime_form_needs_split_prime():
    with pytest.raises(FormError):
        prime_form(-23, 5)              # kronecker(-23, 5) = -1


def test_fundamental_discriminant():
    assert fundamental_discriminant(1) == -4
    assert fundamental_discriminant(2) == -8
    assert fundamental_discriminant(3) == -3
    assert fundamental_discriminant(5) == -20
    assert fundamental_discriminant(7) == -7
    assert fundamental_discriminant(10007) == -10007    # 10007 = 3 mod 4


def test_class_group_structure():
    cg = ClassGroup(-23)
    assert cg.h == 3
    assert cg.group.factors == (3,)
    cg2 = ClassGroup(-84)               # C2 x C2
    assert cg2.h == 4
    assert cg2.group.factors == (2, 2)
    cg3 = ClassGroup(-47)
    assert cg3.group.factors == (5,)


def test_class_group_encoding_is_homomorphism():
    cg = ClassGroup(-47)
    for f in cg.forms:
        for g in cg.forms:
            assert cg.element(f * g) == cg.element(f) + cg.element(g)
            assert cg.form(cg.element(f)) == f


def test_exact_division_guard_never_trips_on_valid_input():
    # composition stays integral across a discriminant with large h
    forms = reduced_forms(-479)         # h = 25
    assert len(forms) == 25
    acc = forms[1]
    for f in forms:
        acc = acc * f
        assert acc.disc == -479


def test_class_group_logs_one_line(caplog):
    with caplog.at_level(logging.INFO, logger="sidonkit"):
        ClassGroup(-84)
    lines = [r.getMessage() for r in caplog.records if r.name == "sidonkit.quadforms"]
    assert len(lines) == 1
    assert lines[0].startswith(
        "class group of discriminant -84: h = 4, invariants [2, 2], ")
    assert " compositions, forms " in lines[0] and lines[0].endswith("s")


def test_class_group_is_silent_without_info(caplog):
    with caplog.at_level(logging.WARNING, logger="sidonkit"):
        ClassGroup(-84)
    assert not [r for r in caplog.records if r.name == "sidonkit.quadforms"]
