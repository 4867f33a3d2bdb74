import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_span, naive_order, naive_presentation, small_group
from sidonkit.groups import (
    AbelianGroup,
    GroupError,
    GroupPresentation,
    abelian_basis,
    automorphism_perm,
    automorphisms,
    invariant_factor_form,
)
from sidonkit.quadforms import principal_form, reduced_forms


def test_constructor_and_basic_attributes():
    G = AbelianGroup((4, 8))
    assert G.order == 32 and G.rank == 2
    assert G.exponent == 8
    assert AbelianGroup.cyclic(1).factors == ()
    assert AbelianGroup.cyclic(6).factors == (6,)
    with pytest.raises(GroupError):
        AbelianGroup((0, 3))
    with pytest.raises(GroupError):
        AbelianGroup((3, 4))    # not a divisibility chain


def test_element_arithmetic():
    G = AbelianGroup((5,))
    a, b = G.element(2), G.element(4)
    assert (a + b).coords == (1,)
    assert (-a).coords == (3,)
    assert (a - b).coords == (3,)
    assert (3 * a).coords == (1,)
    assert a + G.zero == a
    H = AbelianGroup((3, 3))
    x = H.element((1, 2))
    assert (x + x).coords == (2, 1)
    with pytest.raises(TypeError):
        a + x                   # different groups never mix


def test_element_order():
    G = AbelianGroup((2, 8))
    assert G.element((1, 0)).order() == 2
    assert G.element((0, 1)).order() == 8
    assert G.element((1, 2)).order() == 4
    assert G.zero.order() == 1


def test_index_coords_roundtrip():
    G = AbelianGroup((3, 6))
    for i in range(G.order):
        assert G.index_of(G.coords_of(i)) == i


def test_elements_iterates_whole_group():
    G = AbelianGroup((2, 2, 4))
    everything = list(G.elements())
    assert len(everything) == 16
    assert len(set(everything)) == 16


def test_invariant_factor_form_is_isomorphism():
    rng = random.Random(1)
    for moduli in [(2, 3), (4, 6), (2, 2, 3), (12, 18), (5,), (1, 7)]:
        G, convert = invariant_factor_form(moduli)
        for a, b in zip(G.factors, G.factors[1:]):
            assert b % a == 0
        assert G.order == math.prod(moduli)

        def rand_coords():
            return tuple(rng.randrange(m) for m in moduli)

        def add(x, y):
            return tuple((a + b) % m for a, b, m in zip(x, y, moduli))

        for _ in range(30):
            x, y = rand_coords(), rand_coords()
            assert convert(add(x, y)) == convert(x) + convert(y)
        # injective on a sample (exhaustive for the small ones)
        if G.order <= 64:
            import itertools
            everything = {convert(c)
                          for c in itertools.product(*(range(m) for m in moduli))}
            assert len(everything) == G.order


def test_invariant_factor_anchor():
    G, convert = invariant_factor_form((2, 3))
    assert G.factors == (6,)
    assert convert((1, 2)).coords == (5,)


def _check_index_arithmetic(G, a, b, k):
    ca, cb = G.coords_of(a), G.coords_of(b)
    assert G.add(a, b) == G.index_of(G.add_coords(ca, cb))
    assert G.sub(a, b) == G.index_of(G.sub_coords(ca, cb))
    assert G.neg(a) == G.index_of(G.neg_coords(ca))
    assert G.smul(k, a) == G.index_of(G.smul_coords(k, ca))


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_index_arithmetic_matches_coordinates(data):
    G = data.draw(small_group())
    index = st.integers(0, G.order - 1)
    _check_index_arithmetic(G, data.draw(index), data.draw(index),
                            data.draw(st.integers(-3 * G.exponent, 3 * G.exponent)))


@pytest.mark.parametrize("factors", [(), (7,), (2, 2), (2, 4), (3, 6), (2, 2, 2), (2, 2, 4)])
def test_index_arithmetic_on_every_pair(factors):
    # every digit sum that reaches its modulus exactly is among these pairs
    G = AbelianGroup(factors)
    for a in range(G.order):
        for b in range(G.order):
            _check_index_arithmetic(G, a, b, b - a)


def test_subgroup_generated():
    G = AbelianGroup((8,))
    assert sorted(G.span([2])) == [0, 2, 4, 6]
    assert G.span([]) == G.span([0]) == {0}
    H = AbelianGroup((2, 4))
    assert len(H.span([H.index_of((1, 2))])) == 2
    assert H.span([H.index_of((0, 1)), H.index_of((1, 0))]) == set(range(8))
    assert AbelianGroup(()).span([0]) == {0}


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_span_matches_tuple_closure(data):
    G = data.draw(small_group(max_order=400))
    gens = data.draw(st.lists(st.integers(0, G.order - 1), max_size=4))
    assert G.span(gens) == brute_span(G, gens)


@pytest.mark.parametrize("factors,count", [
    ((5,), 4),          # units mod 5
    ((7,), 6),
    ((2, 2), 6),        # GL(2, 2)
    ((3, 3), 48),       # GL(2, 3)
    ((8,), 4),
    ((2, 4), 8),
    ((2, 2, 2), 168),   # GL(3, 2)
    ((5, 5), 480),      # GL(2, 5)
    ((3, 9), 108),
    ((7, 7), 2016),     # GL(2, 7)
])
def test_automorphism_counts(factors, count):
    assert sum(1 for _ in automorphisms(AbelianGroup(factors))) == count


def test_automorphism_perm_is_additive_bijection():
    G = AbelianGroup((3, 3))
    images = next(iter(automorphisms(G)))
    perm = automorphism_perm(G, images)
    assert sorted(perm) == list(range(9))
    assert perm[0] == 0
    for i in range(9):
        for j in range(9):
            k = G.index_of(G.add_coords(G.coords_of(i), G.coords_of(j)))
            assert perm[k] == G.index_of(
                G.add_coords(G.coords_of(perm[i]), G.coords_of(perm[j])))


def test_automorphism_perm_anchor():
    assert automorphism_perm(AbelianGroup((5,)), [(2,)]) == [0, 2, 4, 1, 3]


def test_abelian_basis_reconstructs_unit_group():
    # (Z/15)^* is C4 x C2
    units = [u for u in range(15) if math.gcd(u, 15) == 1]
    basis = abelian_basis(units, lambda a, b: a * b % 15, 1)
    assert [o for _, o in basis] == [4, 2]
    span = {1}
    for g, o in basis:
        span = {x * pow(g, k, 15) % 15 for x in span for k in range(o)}
    assert sorted(span) == units


def test_group_presentation_matches_multiplication():
    units = [u for u in range(21) if math.gcd(u, 21) == 1]
    pres = GroupPresentation(units, lambda a, b: a * b % 21, 1)
    G = pres.group
    assert G.order == 12
    assert len(pres.to_group) == 12
    for a in units:
        for b in units:
            assert pres.to_group[a * b % 21] == pres.to_group[a] + pres.to_group[b]
    for u, g in pres.to_group.items():
        assert pres.from_group[g] == u


# oracle checks: orders one multiplication at a time, presentation tables
# built product by product (conftest.naive_order / naive_presentation)

def _check_against_naive(elems, op, identity):
    pres = GroupPresentation(elems, op, identity)
    basis = pres.basis
    moduli = [o for _, o in basis]
    assert moduli == [naive_order(b, op, identity) for b, _ in basis]
    assert moduli == sorted(moduli, reverse=True)
    assert math.prod(moduli) == len(elems)
    if basis:
        # b_1 is the first element of largest order (the exponent m_1 of a
        # group the table below shows is Z/m_1 x ...)
        before = elems[:elems.index(basis[0][0])]
        assert all(naive_order(g, op, identity) < moduli[0] for g in before)
    _, convert = invariant_factor_form(moduli)
    want = {g: convert(ks) for ks, g in naive_presentation(basis, op, identity)}
    assert pres.to_group == want
    assert pres.from_group == {img: g for g, img in want.items()}


def test_unit_groups_match_naive_oracle():
    for m in range(2, 201):
        units = [u for u in range(1, m) if math.gcd(u, m) == 1]
        _check_against_naive(units, lambda a, b, m=m: a * b % m, 1)


@pytest.mark.parametrize("lo", range(0, 5000, 1000))
def test_class_groups_match_naive_oracle(lo):
    for disc in range(-lo - 3, -lo - 1001, -1):
        if disc % 4 in (0, 1):
            _check_against_naive(reduced_forms(disc), lambda f, g: f * g,
                                 principal_form(disc))
