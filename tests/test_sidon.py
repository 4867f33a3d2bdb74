import io
import itertools
import json
import pathlib
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    automorphism_list,
    block_edge_instance,
    brute_affine,
    brute_sidon,
    cyclic,
    els,
)
from sidonkit.groups import AbelianGroup, GroupError, endo_apply
from sidonkit.sidon import (
    affine_equivalent,
    counting_bound,
    is_perfect_difference_set,
    is_sidon,
    subgroup_union_cover,
)


def test_witness_anchor():
    G = cyclic(7)
    rep = is_sidon(G, els(G, 0, 1, 2))
    assert not rep.sidon
    assert tuple(g.coords[0] for g in rep.witness) == (0, 2, 1, 1)


def test_perfect_difference_set_13():
    G = cyclic(13)
    S = els(G, 0, 1, 3, 9)
    rep = is_sidon(G, S)
    assert rep.sidon
    assert rep.energy == 4 * 4 + 12
    assert [g.coords for g in rep.t_set] == [(0,)]
    assert is_perfect_difference_set(G, S)


def test_two_torsion_differences_break_sidon():
    G = cyclic(2)
    assert not is_sidon(G, els(G, 0, 1)).sidon       # 0+0 = 1+1
    H = cyclic(4)
    assert is_sidon(H, els(H, 0, 1)).sidon
    assert not is_sidon(H, els(H, 0, 2)).sidon


def test_t_set_size_identity():
    # for a Sidon set, |T| = n - k(k-1)
    G = cyclic(8)
    S = els(G, 0, 1, 3)
    rep = is_sidon(G, S)
    assert rep.sidon
    assert len(rep.t_set) == 8 - 3 * 2
    H = AbelianGroup((3, 3))
    S2 = [H.element((0, 0)), H.element((1, 1)), H.element((2, 1))]
    rep2 = is_sidon(H, S2)
    assert rep2.sidon
    assert len(rep2.t_set) == 9 - 6


def test_singletons_and_empty():
    G = cyclic(5)
    assert is_sidon(G, []).sidon
    assert is_sidon(G, els(G, 3)).sidon


def test_duplicate_input_coalesces():
    # the input is a set; repeating an element must not manufacture a collision
    G = cyclic(5)
    rep = is_sidon(G, els(G, 1, 1, 2))
    assert rep.size == 2
    assert rep.sidon


def test_counting_bound_small():
    assert counting_bound(7) == 3
    assert counting_bound(13) == 4
    assert counting_bound(16) == 4
    assert counting_bound(1) == 1
    for n in range(1, 200):
        s = counting_bound(n)
        assert s * (s - 1) <= n - 1 < (s + 1) * s


def test_matches_brute_force_on_random_sets():
    rng = random.Random(11)
    for factors in [(12,), (2, 8), (3, 9), (16,)]:
        G = AbelianGroup(factors)
        for _ in range(60):
            k = rng.randrange(2, 6)
            idxs = rng.sample(range(G.order), k)
            S = [G.element(G.coords_of(i)) for i in idxs]
            assert is_sidon(G, S).sidon == brute_sidon(G, idxs)


def test_energy_counts_all_pair_sums():
    # E = sum over values of (#ordered pairs summing there)^2, computed by brute force
    rng = random.Random(5)
    G = cyclic(11)
    idxs = rng.sample(range(11), 4)
    S = els(G, *idxs)
    rep = is_sidon(G, S)
    sums = {}
    for a in idxs:
        for b in idxs:
            v = (a + b) % 11
            sums[v] = sums.get(v, 0) + 1
    assert rep.energy == sum(c * c for c in sums.values())


# is_sidon against brute force: witness as the first repeated difference
# in (i, j) order over the sorted set, energy from pair sums, T-set from a
# scan of the whole group

def _oracle_report(G, S):
    elems = sorted({s.coords for s in S})
    pairs = [(a, b) for a in elems for b in elems if a != b]
    diffs = [G.sub_coords(a, b) for a, b in pairs]
    witness = None
    for t, (a, b) in enumerate(pairs):
        earlier = [pairs[u] for u in range(t) if diffs[u] == diffs[t]]
        if earlier:
            c, d = earlier[0]
            # c - d = a - b  =>  c + b = a + d
            witness = tuple(x for pr in sorted([sorted((c, b)), sorted((a, d))])
                            for x in pr)
            break
    sums = {}
    for a in elems:
        for b in elems:
            v = G.add_coords(a, b)
            sums[v] = sums.get(v, 0) + 1
    energy = sum(c * c for c in sums.values())
    zero = (0,) * G.rank
    t_set = [g.coords for g in G.elements() if g.coords == zero or g.coords not in diffs]
    return witness, energy, t_set


@st.composite
def sidon_instance(draw):
    if draw(st.booleans()):
        factors = (draw(st.integers(2, 80)),)
    else:
        a = draw(st.integers(2, 9))
        factors = (a, a * draw(st.integers(1, 9)))
    G = AbelianGroup(factors)
    idxs = draw(st.lists(st.integers(0, G.order - 1), max_size=min(8, G.order)))
    return G, [G.element(G.coords_of(i)) for i in idxs]


@settings(deadline=None)
@given(sidon_instance())
def test_is_sidon_matches_brute_force_oracle(gs):
    G, S = gs
    rep = is_sidon(G, S)
    witness, energy, t_set = _oracle_report(G, S)
    assert rep.sidon == (witness is None)
    assert (None if rep.witness is None else tuple(g.coords for g in rep.witness)) == witness
    assert rep.energy == energy
    assert [g.coords for g in rep.t_set] == t_set
    assert rep.t_set_size == len(rep.t_set)
    assert rep.to_json()["t_set"] == [g.to_json() for g in rep.t_set]


def test_is_sidon_counts_differences_past_255():
    # {0, ..., 299} in Z/1000: difference 1 occurs 299 times; every
    # difference d in +-[1, 299] is distinct mod 1000
    G = cyclic(1000)
    k = 300
    rep = is_sidon(G, els(G, *range(k)))
    assert not rep.sidon
    assert tuple(g.coords[0] for g in rep.witness) == (0, 2, 1, 1)
    assert rep.energy == (2 * k ** 3 + k) // 3 == sum(
        (k - abs(d)) ** 2 for d in range(-k + 1, k))
    assert rep.t_set_size == 1000 - 2 * (k - 1) == len(rep.t_set)
    assert [g.coords[0] for g in rep.t_set] == [0] + list(range(k, 1000 - k + 1))
    assert rep.to_json()["t_set"] == [g.to_json() for g in rep.t_set]
    assert rep.to_json(compact=True)["t_set_size"] == rep.t_set_size


@settings(deadline=None, max_examples=200)
@given(block_edge_instance())
def test_write_t_set_is_json_dumps_of_the_list(gs):
    G, S = gs
    rep = is_sidon(G, S)
    buf = io.StringIO()
    rep.write_t_set(buf)
    assert buf.getvalue() == json.dumps(rep.to_json()["t_set"])


@pytest.mark.parametrize("factors", [(999,), (1000,), (1001,), (1998,), (1999,),
                                     (2000,), (2001,), (2999,), (2, 1998), (2, 2000),
                                     (12, 240), (20, 400)])
@pytest.mark.parametrize("idxs", [(0,), (0, 1), (0, 999), (0, 1000), (0, 1, 3)])
def test_write_t_set_on_ragged_and_full_blocks(factors, idxs):
    G = AbelianGroup(factors)
    rep = is_sidon(G, els(G, *(G.coords_of(i) for i in idxs)))
    buf = io.StringIO()
    rep.write_t_set(buf)
    assert buf.getvalue() == json.dumps(rep.to_json()["t_set"])


def test_write_t_set_of_the_trivial_group():
    rep = is_sidon(AbelianGroup(()), [])
    buf = io.StringIO()
    rep.write_t_set(buf)
    assert buf.getvalue() == json.dumps(rep.to_json()["t_set"]) == "[[]]"


def test_subgroup_union_cover_positive():
    G = cyclic(6)
    T = els(G, 0, 2, 4)
    res = subgroup_union_cover(G, T, k_max=1)
    assert res and res.conclusive
    assert [g.coords for g in res.cover[0]] == [(0,), (2,), (4,)]


def test_subgroup_union_cover_needs_two():
    G = AbelianGroup((2, 2))
    T = [G.element(c) for c in [(0, 0), (1, 0), (0, 1)]]
    res = subgroup_union_cover(G, T, k_max=1)
    assert not res and res.conclusive
    res2 = subgroup_union_cover(G, T, k_max=2)
    assert res2 and res2.conclusive
    assert len(res2.cover) == 2


def test_subgroup_union_cover_conclusive_no():
    # 1 generates all of Z/4, so T = {0, 1} contains no covering subgroup
    G = cyclic(4)
    res = subgroup_union_cover(G, els(G, 0, 1), k_max=2)
    assert not res and res.conclusive


COVER_PINS = json.loads((pathlib.Path(__file__).parent / "cover_golden.json").read_text())


@pytest.mark.parametrize("factors", sorted({tuple(c["group"]) for c in COVER_PINS}))
def test_subgroup_union_cover_golden(factors):
    """A seeded sample of 1 400 covers: T a union of one to four random
    subgroups, in a quarter of the cases with one random element added
    and in a tenth with one nonzero element dropped, and k_max in 1-5.
    Counts and conclusive flags were recorded before the cover search
    ran on indices; the chosen subgroups pin its tie-break (largest
    first, then least sorted index list)."""
    G = AbelianGroup(factors)
    for case in (c for c in COVER_PINS if tuple(c["group"]) == factors):
        res = subgroup_union_cover(G, [G.element(G.coords_of(t)) for t in case["t"]],
                                   k_max=case["k_max"])
        assert res.conclusive == case["conclusive"], case
        assert (None if res.cover is None else len(res.cover)) == case["n"], case
        got = None if res.cover is None else [[h.index for h in H] for H in res.cover]
        assert got == case["cover"], case


def test_subgroup_union_cover_requires_zero():
    G = cyclic(4)
    with pytest.raises(GroupError):
        subgroup_union_cover(G, els(G, 1, 2), k_max=1)


def test_affine_equivalent_positive():
    G = cyclic(7)
    S1 = els(G, 0, 1, 3)
    S2 = els(G, 0, 2, 6)    # 2 * S1
    res = affine_equivalent(G, S1, S2)
    assert res and res.conclusive
    # verify the witness really maps S1 onto S2
    mapped = {G.element(endo_apply(G, res.images, s.coords)) + res.translation
              for s in S1}
    assert mapped == set(S2)


def test_affine_equivalent_negative_conclusive():
    # difference triples: {0,1,3} -> {1,2,3}, {0,1,4} -> {1,3,4}; the unit
    # orbit of {1,2,3} mod 13 misses {1,3,4}, so no affine map exists and
    # the 12 automorphisms are checked exhaustively
    G = cyclic(13)
    S1 = els(G, 0, 1, 3)
    S2 = els(G, 0, 1, 4)
    assert is_sidon(G, S1).sidon and is_sidon(G, S2).sidon
    res = affine_equivalent(G, S1, S2)
    assert not res
    assert res.conclusive


def test_affine_equivalent_scaled_is_caught():
    # {0,1,5} = 4 * {0,1,3} + 1 in Z/13
    G = cyclic(13)
    res = affine_equivalent(G, els(G, 0, 1, 3), els(G, 0, 1, 5))
    assert res and res.conclusive


def test_affine_equivalent_rejects_size_mismatch():
    G = cyclic(7)
    with pytest.raises(GroupError):
        affine_equivalent(G, els(G, 0, 1), els(G, 0, 1, 3))


def test_affine_equivalent_empty_sets_give_identity():
    G = AbelianGroup((2, 4))
    res = affine_equivalent(G, [], [])
    assert res and res.images == ((1, 0), (0, 1)) and res.translation == G.zero


# property tests against the brute-force oracle: every automorphism tried
# with every translation (brute_affine)

SMALL_GROUPS = [(7,), (12,), (2, 2), (2, 4), (3, 3), (2, 6), (4, 4),
                (2, 2, 2), (3, 9), (2, 2, 4), (6, 6)]    # |Aut| <= 288


def _check_against_oracle(G, S1, S2):
    res = affine_equivalent(G, S1, S2)
    set1 = {s.coords for s in S1}
    set2 = {s.coords for s in S2}
    assert res.conclusive
    assert bool(res) == (brute_affine(G, set1, set2) is not None)
    if res:
        assert res.images in automorphism_list(G.factors)
        mapped = {G.add_coords(endo_apply(G, res.images, s), res.translation.coords)
                  for s in set1}
        assert mapped == set2
    return res


@st.composite
def group_and_set(draw):
    G = AbelianGroup(draw(st.sampled_from(SMALL_GROUPS)))
    idxs = draw(st.sets(st.integers(0, G.order - 1), min_size=1,
                        max_size=min(7, G.order)))
    return G, [G.element(G.coords_of(i)) for i in sorted(idxs)]


def _planted_image(G, S1, data):
    a = data.draw(st.sampled_from(automorphism_list(G.factors)))
    c = G.element(G.coords_of(data.draw(st.integers(0, G.order - 1))))
    return [G.element(endo_apply(G, a, s.coords)) + c for s in S1]


@settings(deadline=None)
@given(group_and_set(), st.data())
def test_affine_equivalent_finds_planted_maps(gs, data):
    G, S1 = gs
    assert _check_against_oracle(G, S1, _planted_image(G, S1, data))


@settings(deadline=None)
@given(group_and_set(), st.data())
def test_affine_equivalent_matches_oracle_on_random_pairs(gs, data):
    G, S1 = gs
    idxs = data.draw(st.sets(st.integers(0, G.order - 1),
                             min_size=len(S1), max_size=len(S1)))
    _check_against_oracle(G, S1, [G.element(G.coords_of(i)) for i in idxs])


@settings(deadline=None)
@given(st.data())
def test_affine_equivalent_completes_basis_when_differences_miss_generators(data):
    # S1 inside a coset of the proper subgroup <h>, so S1 - S1 cannot
    # generate the group and the canonical generators complete the basis
    G = AbelianGroup(data.draw(st.sampled_from(SMALL_GROUPS)))
    h = G.element(G.coords_of(data.draw(st.integers(0, G.order - 1))))
    assume(h.order() < G.order)
    t = G.element(G.coords_of(data.draw(st.integers(0, G.order - 1))))
    ks = data.draw(st.sets(st.integers(0, h.order() - 1), min_size=1))
    S1 = [t + k * h for k in sorted(ks)]
    if data.draw(st.booleans()):
        S2 = _planted_image(G, S1, data)
    else:
        idxs = data.draw(st.sets(st.integers(0, G.order - 1),
                                 min_size=len(S1), max_size=len(S1)))
        S2 = [G.element(G.coords_of(i)) for i in idxs]
    _check_against_oracle(G, S1, S2)


def test_affine_equivalent_checks_candidates_in_full():
    # S1 - S1 generates Z/4 x Z/4 and the pruned search reaches a map on
    # the difference basis that extends to no automorphism with
    # phi(S1) + c = S2; only the final check rejects it
    G = AbelianGroup((4, 4))
    S1 = els(G, (0, 2), (1, 0), (1, 2), (2, 3))
    S2 = els(G, (1, 3), (2, 2), (3, 1), (3, 2))
    res = _check_against_oracle(G, S1, S2)
    assert not res and res.candidates > 0
