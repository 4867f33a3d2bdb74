import logging
import random

import pytest

from conftest import brute_singer, frobenius_trace
from sidonkit.dense import (
    DENSE_NAMES,
    ConstructionError,
    PlanarCandidate,
    construct_dense,
    is_nondegenerate,
    is_planar,
    planar_graph,
    polarization,
)
from sidonkit.fields import FieldExtension, field_create, field_extension
from sidonkit.groups import AbelianGroup
from sidonkit.sidon import (
    affine_equivalent,
    counting_bound,
    is_perfect_difference_set,
    is_sidon,
)

FIELDS = {q: field_create(p, d) for q, (p, d) in
          {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1),
           7: (7, 1), 8: (2, 3), 9: (3, 2), 11: (11, 1), 13: (13, 1),
           16: (2, 4), 17: (17, 1), 19: (19, 1), 23: (23, 1), 25: (5, 2),
           27: (3, 3), 29: (29, 1), 31: (31, 1)}.items()}

# (construction, expected group order as a function of q, expected size)
SHAPES = {
    "erdos_turan": (lambda q: q * q, lambda q: q),
    "singer": (lambda q: q * q + q + 1, lambda q: q + 1),
    "bose": (lambda q: q * q - 1, lambda q: q),
    "spence": (lambda q: q * (q - 1), lambda q: q - 1),
    "hughes": (lambda q: (q - 1) ** 2, lambda q: q - 2),
}


def test_catalog_is_complete():
    assert set(DENSE_NAMES) == set(SHAPES)


@pytest.mark.parametrize("name", sorted(SHAPES))
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 13])
def test_construction_shapes_and_sidon(name, q):
    order_of, size_of = SHAPES[name]
    if name == "erdos_turan" and q % 2 == 0:
        with pytest.raises(ConstructionError):
            construct_dense(name, FIELDS[q])
        return
    group, S, note = construct_dense(name, FIELDS[q])
    assert group.order == order_of(q)
    assert len(set(S)) == size_of(q)
    rep = is_sidon(group, S)
    assert rep.sidon
    assert isinstance(note, str) and note


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 31])
def test_singer_gives_perfect_difference_set(q):
    group, S, _ = construct_dense("singer", FIELDS[q])
    assert is_perfect_difference_set(group, S)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_singer_is_the_trace_zero_set_mod_scalars(q):
    # brute force over all of GF(q^3)^x: {dlog(x) mod n : Tr(x) = 0}
    E = FieldExtension(FIELDS[q], 3)
    group, S, _ = construct_dense("singer", FIELDS[q])
    n = group.order
    want = {E.dlog(x) % n for x in range(1, E.q) if frobenius_trace(E, x) == 0}
    assert {e.coords[0] for e in S} == want


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_singer_recurrence_matches_the_power_walk(q):
    group, S, _ = construct_dense("singer", FIELDS[q])
    assert {e.coords[0] for e in S} == brute_singer(FIELDS[q])


def test_construct_dense_logs_one_line_per_call(caplog):
    with caplog.at_level(logging.INFO, logger="sidonkit"):
        construct_dense("singer", FIELDS[5])
        construct_dense("bose", FIELDS[5])
    lines = [r.getMessage() for r in caplog.records if r.name == "sidonkit.dense"]
    assert len(lines) == 2
    assert lines[0].startswith(
        "singer over GF(5): |G| = 31, |S| = 6, 31 trace terms, ")
    assert lines[1].startswith("bose over GF(5): |G| = 24, |S| = 5, ")
    assert "trace terms" not in lines[1]


def test_construct_dense_is_silent_without_info(caplog):
    with caplog.at_level(logging.WARNING, logger="sidonkit"):
        construct_dense("singer", FIELDS[5])
    assert not [r for r in caplog.records if r.name == "sidonkit.dense"]


@pytest.mark.parametrize("name", ["erdos_turan", "singer", "bose", "spence"])
def test_size_meets_counting_bound(name, q=5):
    # all catalog entries except hughes hit the bound exactly; hughes
    # lands one below it
    group, S, _ = construct_dense(name, FIELDS[q])
    assert len(S) == counting_bound(group.order)


def test_hughes_is_one_below_bound():
    group, S, _ = construct_dense("hughes", FIELDS[5])
    assert len(S) == counting_bound(group.order) - 1


def test_frozen_small_cases():
    g, S, _ = construct_dense("singer", FIELDS[2])
    assert sorted(e.coords[0] for e in S) == [1, 2, 4]

    g, S, _ = construct_dense("singer", FIELDS[3])
    assert sorted(e.coords[0] for e in S) == [0, 1, 3, 9]

    g, S, _ = construct_dense("hughes", FIELDS[5])
    assert g.factors == (4, 4)
    assert sorted(e.coords for e in S) == [(1, 2), (2, 1), (3, 3)]

    g, S, _ = construct_dense("erdos_turan", FIELDS[5])
    assert sorted(e.coords for e in S) == [(0, 0), (1, 1), (2, 4), (3, 4), (4, 1)]

    g, S, _ = construct_dense("bose", FIELDS[4])
    rep = is_sidon(g, S)
    assert sorted(t.coords[0] for t in rep.t_set) == [0, 5, 10]

    g, S, _ = construct_dense("spence", FIELDS[4])
    assert g.factors == (2, 6)


def test_hughes_t_set_size():
    group, S, _ = construct_dense("hughes", FIELDS[5])
    rep = is_sidon(group, S)
    assert len(rep.t_set) == 10


def test_unknown_name_rejected():
    with pytest.raises(ConstructionError):
        construct_dense("nope", FIELDS[3])


# ----------------------------------------------------------------- planar

def test_squaring_is_planar_in_odd_characteristic():
    for q in (3, 5, 7, 9):
        rep = is_planar(PlanarCandidate.monomial(FIELDS[q], 2))
        assert rep.planar and rep.witness is None


def test_cubing_is_not_planar():
    rep = is_planar(PlanarCandidate.monomial(FIELDS[3], 3))
    assert not rep.planar
    assert rep.witness is not None


def test_frobenius_twist_monomials():
    # x^(3^a + 1) over GF(3^e) is planar iff e / gcd(e, a) is odd
    F27 = field_create(3, 3)
    assert is_planar(PlanarCandidate.monomial(F27, 4)).planar       # e=3, a=1
    F9 = field_create(3, 2)
    assert not is_planar(PlanarCandidate.monomial(F9, 4)).planar    # e=2, a=1
    F243 = field_create(3, 5)
    assert is_planar(PlanarCandidate.monomial(F243, 4)).planar      # e=5, a=1
    assert is_planar(PlanarCandidate.monomial(F243, 10)).planar     # e=5, a=2


def test_coulter_matthews_candidate():
    F243 = field_create(3, 5)
    cand = PlanarCandidate.coulter_matthews(F243, 3)
    assert cand.exponent == 14
    assert is_planar(cand).planar
    with pytest.raises(ConstructionError):
        PlanarCandidate.coulter_matthews(field_create(3, 3), 3)     # gcd(3, 6) > 1
    with pytest.raises(ConstructionError):
        PlanarCandidate.coulter_matthews(field_create(5, 1), 1)     # wrong characteristic


def test_planar_graph_is_sidon():
    for q, e in [(7, 2), (9, 2), (27, 4)]:
        F = FIELDS[q] if q in FIELDS else field_create(3, 3)
        group, S, _ = planar_graph(PlanarCandidate.monomial(F, e))
        assert len(S) == F.q
        assert group.order == F.q ** 2
        assert is_sidon(group, S).sidon


def test_planar_graph_rejects_nonplanar():
    with pytest.raises(ConstructionError):
        planar_graph(PlanarCandidate.monomial(FIELDS[3], 3))


def test_planar_graph_t_set_is_vertical_axis():
    # differences of the graph cover everything except {0} x K
    F = FIELDS[7]
    group, S, _ = planar_graph(PlanarCandidate.monomial(F, 2))
    rep = is_sidon(group, S)
    assert sorted(t.coords for t in rep.t_set) == [(0, y) for y in range(7)]


def test_polarization_of_square_is_twice_product():
    F = FIELDS[7]
    cand = PlanarCandidate.quadratic_form(F, {(0, 0): 1})           # x^2
    beta = polarization(cand)
    assert beta.additive
    for x in range(7):
        for y in range(7):
            assert beta(x, y) == (2 * x * y) % 7


def test_polarization_table_route_agrees():
    F = FIELDS[9]
    cand_f = PlanarCandidate.quadratic_form(F, {(0, 0): 1})
    cand_t = PlanarCandidate.from_table(F, cand_f.values())
    bf, bt = polarization(cand_f), polarization(cand_t)
    assert not bt.additive
    for x in range(9):
        for y in range(9):
            assert bf(x, y) == bt(x, y)


def test_planarity_equals_nondegeneracy_for_forms():
    # for generalized quadratic forms the two notions coincide; check on
    # random forms over GF(9) and GF(27)
    rng = random.Random(17)
    for F in (field_create(3, 2), field_create(3, 3)):
        d = F.d
        for _ in range(25):
            coeffs = {(i, j): rng.randrange(F.q)
                      for i in range(d) for j in range(i + 1)}
            cand = PlanarCandidate.quadratic_form(F, coeffs)
            assert is_planar(cand).planar == is_nondegenerate(polarization(cand))


def test_from_table_requires_full_table():
    with pytest.raises(ConstructionError):
        PlanarCandidate.from_table(FIELDS[5], [0, 1, 2])


# a field built over K reads GF(p) coordinates as the base-p digits of its
# codes; each result is set against the same field built from its prime

GF81_OVER_GF9 = field_extension(field_create(3, 2), 2)


def test_nondegenerate_square_over_a_field_built_over_k():
    for F in (GF81_OVER_GF9, field_create(3, 4)):
        beta = polarization(PlanarCandidate.quadratic_form(F, {(0, 0): 1}))
        assert is_nondegenerate(beta)
        assert all(beta(x, y) for x in range(1, F.q) for y in range(1, F.q))


def test_planar_graph_over_a_field_built_over_k():
    # the field isomorphism is GF(p)-linear, so the two graphs of x^2 are
    # affinely equivalent in (Z/3)^8
    graphs = [planar_graph(PlanarCandidate.quadratic_form(F, {(0, 0): 1}))
              for F in (GF81_OVER_GF9, field_create(3, 4))]
    (group, S1, _), (group2, S2, _) = graphs
    assert group == group2 == AbelianGroup((3,) * 8)
    assert len(S1) == 81 and is_sidon(group, S1).sidon
    assert affine_equivalent(group, S1, S2)


@pytest.mark.parametrize("name,K,degree,p,d", [
    ("spence", field_create(2, 2), 2, 2, 4),
    ("erdos_turan", field_create(3, 2), 2, 3, 4),
])
def test_coefficient_coded_constructions_over_a_field_built_over_k(name, K, degree, p, d):
    group, S1, _ = construct_dense(name, field_extension(K, degree))
    group2, S2, _ = construct_dense(name, field_create(p, d))
    assert group == group2
    assert is_sidon(group, S1).sidon
    assert affine_equivalent(group, S1, S2)
