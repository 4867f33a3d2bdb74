import pytest

from conftest import cyclic, els
from sidonkit import incidence
from sidonkit.groups import AbelianGroup, GroupError
from sidonkit.incidence import (
    IncidenceStructure,
    deficiency,
    develop,
    dualize,
    is_partial_linear_space,
    is_projective_plane,
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
        incidences=[(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)],
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
        [(i, j) for i, j in L.incidences if j in keep],
    )
    assert not is_projective_plane(trunc)
