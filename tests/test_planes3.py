import functools
import itertools
import json
import logging
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_extract,
    brute_incidences,
    brute_line_image,
    brute_line_orbit,
    brute_line_witness,
    brute_matrices,
    brute_point_image,
    brute_point_orbit,
    brute_point_witness,
    naive_elements,
)
from sidonkit.cli import main
from sidonkit.fields import field_create, field_extension
from sidonkit.incidence import is_projective_plane
from sidonkit.planes3 import (
    FAMILY_TAGS,
    PlaneAction,
    PlaneError,
    Projectivity,
    extract_sidon,
    family_build,
    orbit_analysis,
    plane_build,
    recover_constructions,
)
from sidonkit.planes3 import _plane_data
from sidonkit.sidon import is_sidon

F3 = field_create(3, 1)
F4 = field_create(2, 2)
F5 = field_create(5, 1)
F7 = field_create(7, 1)


def test_tags():
    assert FAMILY_TAGS == ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix")


def test_plane_build_is_projective_plane():
    for F in (field_create(2, 1), F3, F4):
        L = plane_build(F)
        assert is_projective_plane(L).order == F.q
    with pytest.raises(PlaneError):
        plane_build(field_create(67, 1))


ORDERS = {
    "i": lambda q: q * q + q + 1,
    "ii": lambda q: q * q - 1,
    "iii": lambda q: (q - 1) ** 2,
    "iv": lambda q: q * (q - 1),
    "v": lambda q: q * q,
    "vi": lambda q: q * q,
    "vii": lambda q: q * q,
    "viii": lambda q: 9,
    "ix": lambda q: 9,
}


@pytest.mark.parametrize("field", [F3, F4, F5, F7], ids=lambda F: f"q{F.q}")
@pytest.mark.parametrize("tag", FAMILY_TAGS)
def test_family_group_orders(field, tag):
    if tag in ("viii", "ix") and (field.q - 1) % 3:
        with pytest.raises(PlaneError):
            family_build(field, tag)
        return
    action = family_build(field, tag)
    assert action.group.order == ORDERS[tag](field.q)


# number of point orbits for the regular-ish families is q-independent
ORBIT_T = {"i": 1, "ii": 3, "iii": 7, "iv": 5, "v": 3}


@pytest.mark.parametrize("field", [F3, F4, F5], ids=lambda F: f"q{F.q}")
@pytest.mark.parametrize("tag", sorted(ORBIT_T))
def test_orbit_counts(field, tag):
    orb = orbit_analysis(family_build(field, tag))
    assert orb.t == ORBIT_T[tag]
    sizes = sorted(len(o) for o in orb.point_orbits)
    assert sum(sizes) == field.q ** 2 + field.q + 1
    assert sizes == sorted(len(o) for o in orb.line_orbits)


@pytest.mark.parametrize("tag", ["iv", "v", "vi", "vii"])
def test_families_over_a_field_built_over_k(tag):
    # GF(16) over GF(4) against GF(16) over GF(2): the translations run over
    # the GF(2)-basis of codes 2^i, and the two actions are conjugate
    a, b = actions = [family_build(F, tag) for F in (field_extension(F4, 2), field_create(2, 4))]
    assert a.group == b.group and a.moduli == b.moduli
    orbits = [orbit_analysis(action).to_json() for action in actions]
    for key in ("t", "point_orbit_sizes", "line_orbit_sizes"):
        assert orbits[0][key] == orbits[1][key]
    outcomes = []
    for action in actions:
        try:
            ext = extract_sidon(action)
        except PlaneError as exc:
            outcomes.append(str(exc).split(" has ")[-1])
        else:
            assert is_sidon(action.group, ext.S).sidon
            outcomes.append((len(ext.S), ext.d))
    assert outcomes[0] == outcomes[1]


def test_orbit_line_point_symmetry_family_iii():
    orb = orbit_analysis(family_build(F4, "iii"))
    assert orb.to_json()["point_orbit_sizes"] == [1, 1, 1, 3, 3, 3, 9]
    assert len(orb.fixed_points) == 3 and len(orb.fixed_lines) == 3


EXTRACT_SIZE = {
    "i": lambda q: q + 1,
    "ii": lambda q: q,
    "iii": lambda q: q - 2,
    "iv": lambda q: q - 1,
    "v": lambda q: q,
}


@pytest.mark.parametrize("field", [F3, F4, F5, F7], ids=lambda F: f"q{F.q}")
@pytest.mark.parametrize("tag", sorted(EXTRACT_SIZE))
def test_extract_sizes_and_sidon(field, tag):
    action = family_build(field, tag)
    ext = extract_sidon(action)
    assert len(ext.S) == EXTRACT_SIZE[tag](field.q)
    assert ext.bound_ok
    assert is_sidon(action.group, ext.S).sidon


@pytest.mark.parametrize("field", [F3, F4, F5, F7], ids=lambda F: f"q{F.q}")
def test_stabilizer_obstructions(field):
    # translations fixing a full line pointwise (vi) or a full pencil
    # linewise (vii) never extract: the error names the offending side
    for tag, side in (("vi", "line"), ("vii", "point")):
        action = family_build(field, tag)
        with pytest.raises(PlaneError) as err:
            extract_sidon(action)
        assert err.value.side == side


def test_stabilizer_witness_on_explicit_flag():
    # point (0,0,1) moves freely under the translations of family vi, but
    # the line at infinity is fixed; asking for it names a fixing element
    action = family_build(F3, "vi")
    inf_line = (0, 0, 1)
    with pytest.raises(PlaneError) as err:
        extract_sidon(action, point=(0, 0, 1), line=inf_line)
    assert err.value.side == "line"
    assert err.value.witness is not None


def test_families_viii_ix_need_cube_roots():
    for tag in ("viii", "ix"):
        with pytest.raises(PlaneError):
            family_build(F3, tag)
        action = family_build(F4, tag)
        assert action.group.factors == (3, 3)
        ext = extract_sidon(action)
        assert is_sidon(action.group, ext.S).sidon


def test_action_is_homomorphism_into_projectivities():
    # every pair, on every family with at most 30 elements
    checked = 0
    for q, tag in itertools.product([2, 3, 4, 5, 7, 8, 9], FAMILY_TAGS):
        action = action_of(q, tag)
        if action is None or action.group.order > 30:
            continue
        M = brute_matrices(action)
        for a, b in itertools.product(M, M):
            assert M[a] * M[b] == M[a + b]
        checked += 1
    assert checked == 31


def _closed_form(F, tag, nat):
    """The matrix of the element with natural coordinates nat, in closed
    form: the group law of each family written out."""
    d = F.d
    if tag == "iii":
        j, k = nat
        return (F.pow(F.generator, j), 0, 0), (0, F.pow(F.generator, k), 0), (0, 0, 1)
    if tag == "iv":
        r = F.pow(F.generator, nat[0])
        a = F.mul(F.encode(nat[1:]), r)
        return (r, a, 0), (0, r, 0), (0, 0, 1)
    if tag == "v" and F.p != 2:
        x, y = F.encode(nat[:d]), F.encode(nat[d:])
        corr = F.mul(F.inv(2), F.mul(x, F.sub(x, 1)))
        return (1, x, F.add(y, corr)), (0, 1, x), (0, 0, 1)
    if tag == "v":
        # C4^d: u(a)^k = [[1,ka,C(k,2)a^2],[0,1,ka],[0,0,1]], and in
        # characteristic 2 the corner of a product picks up x_i x_j once
        # for each pair i < j
        basis = [F.encode([0] * i + [1]) for i in range(d)]
        xs = [F.mul(k % 2, a) for k, a in zip(nat, basis)]
        x = functools.reduce(F.add, xs, 0)
        z = functools.reduce(F.add, [F.mul(k // 2, F.mul(a, a)) for k, a in zip(nat, basis)]
                             + [F.mul(u, v) for u, v in itertools.combinations(xs, 2)], 0)
        return (1, x, z), (0, 1, x), (0, 0, 1)
    a, b = F.encode(nat[:d]), F.encode(nat[d:])
    if tag == "vi":
        return (1, 0, b), (0, 1, a), (0, 0, 1)
    return (1, a, b), (0, 1, 0), (0, 0, 1)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
@pytest.mark.parametrize("tag", ["iii", "iv", "v", "vi", "vii"])
def test_matrix_matches_closed_form(tag, q):
    action = action_of(q, tag)
    F = action.field
    for g, nat in action.elements.items():
        assert action.matrix(g) == Projectivity(F, _closed_form(F, tag, nat)), (g, nat)


@pytest.mark.parametrize("moduli, gens, message", [
    ((4, 4), [((2, 0, 0), (0, 1, 0), (0, 0, 1))] * 2, "not faithful"),
    ((2, 4), [((2, 0, 0), (0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 2, 0), (0, 0, 1))],
     "generator 0 has order not dividing 2"),
    # diag(2, 1, 1) has order 4, which does not divide 6
    ((6,), [((2, 0, 0), (0, 1, 0), (0, 0, 1))], "generator 0 has order not dividing 6"),
    ((4, 3), [((2, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 0, 1), (1, 0, 0), (0, 1, 0))],
     "generators 0 and 1 do not commute"),
    ((4, 4), [((2, 0, 0), (0, 1, 0), (0, 0, 1))], "one generator per modulus"),
], ids=["unfaithful", "wrong-order", "order-4-modulus-6", "noncommuting", "generator-count"])
def test_plane_action_rejects_bad_generators(moduli, gens, message):
    assert F5.generator == 2
    with pytest.raises(PlaneError, match=message):
        PlaneAction(F5, "planted", moduli, gens, "")


def test_plane_action_check_catches_broken_incidence():
    # genuine matrices always preserve incidence, so the line permutation,
    # then the point permutation, of a built action is corrupted by
    # swapping two images
    for gens in ("_line_gens", "_point_gens"):
        action = family_build(F3, "i")
        perm = getattr(action, gens)[0]
        perm[0], perm[1] = perm[1], perm[0]
        with pytest.raises(PlaneError, match="generator 0 breaks incidence"):
            action._check()


@pytest.mark.parametrize("side", ["point", "line"])
@pytest.mark.parametrize("index", [-1, 13])
def test_extract_rejects_flag_index_out_of_range(side, index):
    action = family_build(F3, "i")
    with pytest.raises(PlaneError, match="outside range") as err:
        extract_sidon(action, **{side: index})
    assert err.value.side == side


def test_family_build_makes_one_matrix_per_generator(monkeypatch):
    # elements are composed from generators on demand, never stored as
    # matrices: building the 256-element family vi over GF(16) constructs
    # one Projectivity per natural generator
    made = []
    init = Projectivity.__init__

    def counting(self, field, rows):
        made.append(rows)
        init(self, field, rows)

    monkeypatch.setattr(Projectivity, "__init__", counting)
    action = family_build(field_create(2, 4), "vi")
    assert action.group.order == 256
    assert 0 < len(made) <= len(action.moduli)


def test_point_perm_matches_lazy_orbits():
    action = family_build(F4, "ii")
    G = action.group
    g = G.element(1)
    perm = action.point_perm(g)
    assert sorted(perm) == list(range(21))
    orbit0 = action.point_orbit(0)
    assert len(orbit0) in (1, 3, 5, 15, 21)


def test_extract_with_incident_flag_still_sidon():
    # when the chosen point lies on the chosen line, the identity lands in
    # S; the set stays Sidon and keeps its size
    action = family_build(F3, "i")
    structure, _, _ = _plane_data(F3)
    i, j = next(iter(structure.incidences))
    ext = extract_sidon(action, point=i, line=j)
    assert action.group.zero in ext.S
    assert len(ext.S) == 4
    assert is_sidon(action.group, ext.S).sidon


def test_recover_q3_and_q5_all_equivalent():
    for F in (F3, F5):
        rows = recover_constructions(F)
        seen = {}
        for row in rows:
            assert "skipped" not in row
            assert row["equivalent"] is True
            assert row["conclusive"] is True
            seen[row["family"]] = row["construction"]
        assert seen == {"i": "singer", "ii": "bose", "iii": "hughes",
                        "iv": "spence", "v": "erdos_turan"}


def test_recover_logs_candidates_per_family(caplog):
    # over GF(3) family iii extracts a single point, whose differences
    # generate nothing, so the canonical generators alone carry its search
    with caplog.at_level(logging.INFO, logger="sidonkit"):
        recover_constructions(F3)
    lines = [r.getMessage() for r in caplog.records if r.name == "sidonkit.planes3"]
    assert lines == [f"GF(3) family {tag} vs {name}: {n} candidates tried"
                     for tag, name, n in [("i", "singer", 1), ("ii", "bose", 1),
                                          ("iii", "hughes", 2), ("iv", "spence", 1),
                                          ("v", "erdos_turan", 1)]]


def test_recover_q4_skips_parabola():
    rows = recover_constructions(F4)
    by_family = {row["family"]: row for row in rows}
    assert "skipped" in by_family["v"]
    for tag in ("i", "ii", "iii", "iv"):
        assert by_family[tag]["equivalent"] is True


def test_recover_rejects_tiny_field():
    with pytest.raises(PlaneError):
        recover_constructions(field_create(2, 1))


# -- the permutation machinery against matrices applied point by point -----

FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3),
          9: (3, 2), 11: (11, 1), 13: (13, 1), 16: (2, 4)}


@functools.lru_cache(maxsize=None)
def action_of(q, tag):
    try:
        return family_build(field_create(*FIELDS[q]), tag)
    except PlaneError:
        return None


@st.composite
def action_point_line(draw):
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    tag = draw(st.sampled_from([t for t in FAMILY_TAGS if action_of(q, t)]))
    n = q * q + q + 1
    return action_of(q, tag), draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))


@settings(max_examples=150, deadline=None)
@given(action_point_line())
def test_orbits_and_witnesses_match_matrices(apl):
    action, i, j = apl
    assert action.point_orbit(i) == brute_point_orbit(action, i)
    assert action.line_orbit(j) == brute_line_orbit(action, j)
    assert action.point_stabilizer_witness(i) == brute_point_witness(action, i)
    assert action.line_stabilizer_witness(j) == brute_line_witness(action, j)


@settings(max_examples=150, deadline=None)
@given(action_point_line())
def test_extraction_matches_matrices(apl):
    action, i, j = apl
    expected = brute_extract(action, i, j)
    try:
        ext = extract_sidon(action, point=i, line=j)
    except PlaneError as exc:
        assert expected == ("refused", exc.side, exc.witness)
    else:
        assert expected == ("extracted", ext.S, ext.d)
        # S keeps the order of action.elements, as the matrix scan built it
        assert list(ext.S) == list(expected[1])


@settings(max_examples=60, deadline=None)
@given(action_point_line(), st.data())
def test_element_perms_and_orbit_analysis_match_matrices(apl, data):
    action, _, _ = apl
    g = data.draw(st.sampled_from(list(action.elements)))
    M = brute_matrices(action)[g]
    n = action.plane.n_points
    assert action.point_perm(g) == tuple(brute_point_image(action, M, i) for i in range(n))
    assert action.line_perm(g) == tuple(brute_line_image(action, M, j) for j in range(n))
    rep = orbit_analysis(action)
    for orbits, brute in ((rep.point_orbits, brute_point_orbit),
                          (rep.line_orbits, brute_line_orbit)):
        expected, seen = [], set()
        for i in range(n):
            if i not in seen:
                expected.append(sorted(brute(action, i)))
                seen.update(expected[-1])
        assert orbits == expected


@pytest.mark.parametrize("tag, q", [(tag, q) for q in sorted(FIELDS) for tag in FAMILY_TAGS
                                    if tag not in ("viii", "ix") or q % 3 == 1])
def test_elements_match_convert_oracle(tag, q):
    action = action_of(q, tag)
    assert list(action.elements.items()) == list(naive_elements(action).items())


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_constructed_incidences_match_dot_products(q):
    F = field_create(*FIELDS[q])
    structure, _, _ = _plane_data(F)
    assert structure.incidences == brute_incidences(F, structure.points, structure.lines)
    assert all(len(pts) == q + 1 for pts in structure.line_points)


# -- golden outputs, recorded before the permutation machinery -------------

GOLDEN = json.loads((pathlib.Path(__file__).parent / "planes_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN["cli"], ids=lambda c: " ".join(c["argv"][1:]))
def test_planes_cli_golden(capsys, case):
    """Byte-exact stdout and exit code of planes orbits, extract and
    recover, as recorded in planes_golden.json."""
    code = main(case["argv"])
    assert (code, capsys.readouterr().out) == (case["code"], case["stdout"])


def _json(g):
    return None if g is None else g.to_json()


@pytest.mark.parametrize("case", GOLDEN["api"], ids=lambda c: f"q{c['q']}-{c['family']}")
def test_planes_api_golden(case):
    """Stabilizer witnesses of every point and line, and extraction or its
    refusal (message, side, witness) on a grid of flags."""
    action = action_of(case["q"], case["family"])
    n = action.plane.n_points
    points = [_json(action.point_stabilizer_witness(i)) for i in range(n)]
    lines = [_json(action.line_stabilizer_witness(j)) for j in range(n)]
    assert (points, lines) == (case["point_witness"], case["line_witness"])
    for row in case["extract"]:
        try:
            ext = extract_sidon(action, point=row["point"], line=row["line"])
        except PlaneError as exc:
            got = {"error": str(exc), "side": exc.side, "witness": _json(exc.witness)}
        else:
            got = {"S": [g.to_json() for g in sorted(ext.S)], "d": ext.d,
                   "bound_ok": ext.bound_ok}
        assert {"point": row["point"], "line": row["line"], **got} == row
