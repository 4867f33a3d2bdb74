import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_adjacency, brute_plane_check, cyclic, els, small_group
from sidonkit import incidence
from sidonkit.dense import construct_dense
from sidonkit.fields import field_create
from sidonkit.groups import AbelianGroup, GroupError
from sidonkit.incidence import (
    IncidenceStructure,
    deficiency,
    develop,
    dualize,
    is_partial_linear_space,
    is_projective_plane,
    negation_is_duality,
    self_dual_via_negation,
)


def fano():
    G = cyclic(7)
    return develop(G, els(G, 0, 1, 3))


def test_develop_fano():
    L = fano()
    assert L.n_points == 7 and L.n_lines == 7
    assert all(len(pts) == 3 for pts in L.line_points)
    check = is_projective_plane(L)
    assert check and check.order == 2
    assert bool(is_partial_linear_space(L))


def test_develop_order_three_plane():
    G = cyclic(13)
    L = develop(G, els(G, 0, 1, 3, 9))
    check = is_projective_plane(L)
    assert check and check.order == 3


def test_develop_below_plane_density():
    # a Sidon set short of the counting bound develops into a partial
    # linear space with positive deficiency, not a plane
    G = cyclic(8)
    L = develop(G, els(G, 0, 1, 3))
    assert bool(is_partial_linear_space(L))
    check = is_projective_plane(L)
    assert not check and check.order is None
    d = deficiency(L)
    assert d["unjoined_point_pairs"] > 0
    assert d["nonmeeting_line_pairs"] > 0


def test_develop_non_sidon_is_not_pls():
    G = cyclic(7)
    L = develop(G, els(G, 0, 1, 2))
    assert not is_partial_linear_space(L)


def test_deficiency_zero_on_plane():
    d = deficiency(fano())
    assert d == {"unjoined_point_pairs": 0, "nonmeeting_line_pairs": 0}


def test_zero_deficiency_with_a_c4_is_not_a_plane():
    # points 0 and 2 swapped between lines 0 and 1 of the Fano development:
    # line sizes and point degrees, hence both deficiencies, stay put, but
    # points 2 and 3 now lie on lines 0 and 2
    lines = list(fano().line_points)
    assert lines[:3] == [(0, 1, 3), (1, 2, 4), (2, 3, 5)]
    lines[0], lines[1] = (1, 2, 3), (0, 1, 4)
    L = IncidenceStructure(range(7), range(7), lines)
    assert deficiency(L) == {"unjoined_point_pairs": 0, "nonmeeting_line_pairs": 0}
    assert is_projective_plane(L).to_json() == {
        "projective_plane": False, "order": None,
        "failure": "two points on two common lines"}
    assert not is_partial_linear_space(L)


def test_dualize_involution_and_plane():
    L = fano()
    D = dualize(L)
    assert is_projective_plane(D).order == 2
    assert dualize(D) == L


def test_self_dual_via_negation():
    G = cyclic(13)
    assert self_dual_via_negation(G, els(G, 0, 1, 3, 9))
    H = AbelianGroup((3, 3))
    S = [H.element(c) for c in [(0, 0), (1, 1), (2, 1)]]
    assert self_dual_via_negation(H, S)


def test_develop_refuses_above_the_cap(monkeypatch):
    G = cyclic(7)
    monkeypatch.setattr(incidence, "DEVELOP_CAP", 14)
    assert develop(G, els(G, 0, 1, 1)).n_points == 7   # 7 x 2 incidences
    with pytest.raises(GroupError, match="cap of 14"):
        develop(G, els(G, 0, 1, 3))


def test_pls_violation_witness():
    # two lines sharing two points
    L = IncidenceStructure(
        points=["a", "b", "c"],
        lines=["l", "m"],
        line_points=[[0, 1], [0, 1, 2]],
    )
    res = is_partial_linear_space(L)
    assert not res
    assert res.witness is not None


def test_incidence_json_and_dot():
    L = fano()
    js = L.to_json()
    assert len(js["points"]) == 7 and len(js["incidences"]) == 21
    dot = L.to_dot()
    assert dot.startswith("graph") and "--" in dot


def test_plane_check_catches_truncation():
    # dropping a line from the Fano plane leaves pairs unjoined
    L = fano()
    keep = set(range(6))
    trunc = IncidenceStructure(
        L.points,
        [ln for j, ln in enumerate(L.lines) if j in keep],
        [pts for j, pts in enumerate(L.line_points) if j in keep],
    )
    assert not is_projective_plane(trunc)


@pytest.mark.parametrize("line_points", [[[0, 3]], [[-1, 0]], [], [[0], [1]]])
def test_constructor_rejects_bad_line_lists(line_points):
    # a point index out of range, or not one point list per line
    with pytest.raises(IndexError):
        IncidenceStructure(["a", "b", "c"], ["l"], line_points)


def test_constructor_normalises_lines():
    L = IncidenceStructure(["a", "b", "c"], ["l", "m"], [[2, 0, 2], []])
    assert L.line_points == ((0, 2), ())
    assert L.point_lines == ((0,), (), (0,))
    assert L.incidences == {(0, 0), (2, 0)}


def test_negation_can_fail_to_be_a_duality():
    # swapping the point lists of lines 1 and 2 of the Fano development
    # leaves a plane of order 2 that x -> -x no longer maps onto its dual
    G = cyclic(7)
    L = fano()
    assert negation_is_duality(G, L)
    lines = list(L.line_points)
    lines[1], lines[2] = lines[2], lines[1]
    swapped = IncidenceStructure(L.points, L.lines, lines)
    assert is_projective_plane(swapped).order == 2
    assert not negation_is_duality(G, swapped)


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_develop_adjacency_matches_pair_definition(data):
    G = data.draw(small_group(max_order=64).filter(lambda G: G.rank >= 1))
    S = data.draw(st.sets(st.integers(0, G.order - 1), max_size=8))
    L = develop(G, [G.element(G.coords_of(i)) for i in S])
    assert (L.line_points, L.point_lines) == brute_adjacency(G, S)


@functools.cache
def singer_lines(q):
    p, d = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1)}[q]
    group, S, _ = construct_dense("singer", field_create(p, d))
    return develop(group, S).line_points


@st.composite
def random_lines(draw):
    n = draw(st.integers(0, 16))
    lines = draw(st.lists(st.sets(st.integers(0, n - 1)) if n else st.just(set()),
                          max_size=16))
    return IncidenceStructure(range(n), range(len(lines)), lines)


@st.composite
def small_development(draw):
    G = draw(small_group(max_order=64).filter(lambda G: G.rank >= 1))
    S = draw(st.sets(st.integers(0, G.order - 1), max_size=8))
    return develop(G, [G.element(G.coords_of(i)) for i in S])


@st.composite
def switched_singer_plane(draw):
    """A Singer plane for q <= 5 after up to three switches: a point of
    one line traded for a point of another, which keeps every line size
    and point degree, so both deficiencies stay 0."""
    lines = [set(pts) for pts in singer_lines(draw(st.sampled_from([2, 3, 4, 5])))]
    for _ in range(draw(st.integers(0, 3))):
        # earlier switches can make two lines equal; only distinct lines trade
        j = draw(st.integers(0, len(lines) - 1))
        k = draw(st.sampled_from([k for k in range(len(lines)) if lines[k] != lines[j]]))
        a = draw(st.sampled_from(sorted(lines[j] - lines[k])))
        b = draw(st.sampled_from(sorted(lines[k] - lines[j])))
        lines[j] ^= {a, b}
        lines[k] ^= {a, b}
    n = len(lines)
    return IncidenceStructure(range(n), range(n), lines)


@settings(deadline=None, max_examples=300)
@given(st.one_of(random_lines(), small_development(), switched_singer_plane()))
def test_plane_check_matches_the_pair_walk(L):
    assert is_projective_plane(L).to_json() == brute_plane_check(L).to_json()
    # a C4 of points is a C4 of lines, so the dual pass never decided
    assert is_partial_linear_space(L).ok == is_partial_linear_space(dualize(L)).ok
