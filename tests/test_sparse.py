import itertools
import math
import random

import pytest
import sympy

from conftest import table_unit_encoder
from sidonkit.fields import field_create, field_extension
from sidonkit.groups import AbelianGroup
from sidonkit.pell import CFData
from sidonkit.sidon import is_sidon
from sidonkit.sparse import (
    BudgetError,
    FrameworkSpec,
    SparseError,
    UnitGroup,
    angle_floor,
    class_group_primes,
    cubic_graph,
    framework_build,
    gaussian_angles,
    gaussian_direction,
    is_sidon_z,
    log_primes,
    perturb,
    quotient_ring_primes,
    real_quadratic,
    two_squares,
)


def test_is_sidon_z():
    assert is_sidon_z([0, 1, 3, 7]) == (True, None)
    ok, wit = is_sidon_z([0, 1, 2, 3])
    assert not ok and sorted(wit[:2]) != sorted(wit[2:])
    assert wit[0] + wit[1] == wit[2] + wit[3]


def test_log_primes_anchor():
    r = log_primes(10)
    assert r.values == [207, 329, 482, 583]
    assert r.group is None
    assert all(isinstance(v, int) for v in r.values)
    assert r.details["primes"] == [2, 3, 5, 7]
    assert r.details["scale"] == 300
    assert r.details["floor_margin"] > 0
    assert r.sidon
    with pytest.raises(SparseError):
        log_primes(1)


def test_log_primes_to_json():
    j = log_primes(10).to_json()
    assert j["construction"] == "log_primes"
    assert j["group"] is None
    assert j["values"] == [207, 329, 482, 583]
    assert j["sidon"] is True


def test_unit_group_anchor():
    units = UnitGroup(100)
    assert units.group.factors == (2, 20)
    assert units.encode(3).coords == (1, 7)
    assert units.encode(7).coords == (1, 5)
    with pytest.raises(SparseError):
        units.encode(10)
    with pytest.raises(SparseError):
        UnitGroup(2)


@pytest.mark.parametrize("m", [7, 8, 16, 25, 27, 100])
def test_unit_group_is_isomorphism(m):
    units = UnitGroup(m)
    us = [u for u in range(1, m) if math.gcd(u, m) == 1]
    assert units.order == len(us)
    images = {units.encode(u) for u in us}
    assert len(images) == len(us)
    for u, v in itertools.product(us, repeat=2):
        assert units.encode(u * v % m) == units.encode(u) + units.encode(v)


def test_unit_group_matches_table_oracle():
    """Discrete logs taken on demand agree with a table of every unit, on
    every modulus up to 2000: all units of a power of two or of a group of
    at most 12 units, else -1 and 11 drawn units."""
    rng = random.Random(2000)
    for m in range(3, 2001):
        units = UnitGroup(m)
        oracle = table_unit_encoder(m)
        us = [u for u in range(1, m) if math.gcd(u, m) == 1]
        if len(us) > 12 and m & (m - 1):
            us = [m - 1] + rng.sample(us, 11)
        for u in us:
            assert units.encode(u) == units._convert(oracle(u)), (m, u)


def test_quotient_ring_primes():
    r = quotient_ring_primes(100)
    assert r.details["primes"] == [3, 7]
    assert [v.coords for v in r.values] == [(1, 7), (1, 5)]
    assert r.sidon
    with pytest.raises(SparseError):
        quotient_ring_primes(3)


def test_two_squares():
    assert two_squares(5) == (2, 1)
    assert two_squares(13) == (3, 2)
    assert two_squares(17) == (4, 1)
    with pytest.raises(SparseError):
        two_squares(7)


def test_gaussian_direction_and_angle():
    assert gaussian_direction(5) == (-7, 24)
    assert gaussian_direction(13) == (-119, 120)
    v5, m5 = angle_floor(*gaussian_direction(5), 100)
    v13, m13 = angle_floor(*gaussian_direction(13), 100)
    assert (v5, v13) == (29, 37)
    assert m5 > 0 and m13 > 0


def test_gaussian_angles_anchor():
    r = gaussian_angles(10**4)
    assert r.details["primes"] == [5, 13, 17]
    assert r.values == [2951, 3743, 1559]
    assert r.details["sidon_mod_n"] is True
    assert r.sidon
    with pytest.raises(SparseError):
        gaussian_angles(15)


@pytest.fixture(scope="module")
def cgp_big():
    return class_group_primes(10000019)


def test_class_group_primes_anchor(cgp_big):
    r = cgp_big
    assert len(r.values) == 6
    assert r.details["skipped"] == {
        2: "inert or ramified",
        7: "inert or ramified",
        17: "inert or ramified",
    }
    assert r.details["invariants"] == [1275]
    assert r.report.sidon
    # chosen classes avoid x + y = 0 entirely
    for x, y in itertools.combinations_with_replacement(r.values, 2):
        assert x + y != r.group.zero


def test_class_group_primes_edge_cases():
    assert class_group_primes(101).values == []
    with pytest.raises(SparseError):
        class_group_primes(12)        # not squarefree
    with pytest.raises(SparseError):
        class_group_primes(0)


def test_real_quadratic_small():
    r = real_quadratic(46)
    assert r.values == []
    assert r.details["M"] == 11
    assert r.details["unit"] == [24335, 3588]
    assert r.details["unit_norm"] == 1
    assert sorted(r.details) == [
        "D", "M", "floor_margin", "primes", "regulator",
        "representations", "skipped", "unit", "unit_norm",
    ]


def test_real_quadratic_million():
    r = real_quadratic(1000003)
    assert [v.coords for v in r.values] == [(14,)]
    assert r.group.factors == (577,)
    assert r.details["M"] == 577
    assert r.details["primes"] == [3]
    assert r.details["skipped"] == {2: "inert or ramified"}
    # 3 splits here but its ideal class is not principal
    r2 = real_quadratic(1000015)
    assert r2.details["skipped"][3] == "not represented by the principal form"


def test_real_quadratic_scans_the_period_once(monkeypatch):
    """The unit and the norm table come from one continued-fraction scan."""
    import sidonkit.pell as pell_mod
    import sidonkit.sparse as sparse_mod

    scans = []

    class CountingCFData(CFData):
        def __init__(self, D):
            scans.append(D)
            super().__init__(D)

    for mod in (pell_mod, sparse_mod):
        monkeypatch.setattr(mod, "CFData", CountingCFData)
    r = real_quadratic(1000003)
    assert scans == [1000003]
    assert r.details["unit"] == list(CFData(1000003).unit)


def test_real_quadratic_representations_lie_below_the_unit():
    """The unit-power bound in _fw_real's exact_equal (|k| <= 5) rests on
    0 < a <= x0 and 0 < b <= y0 for every representation a + b sqrt(D)."""
    for D in range(2, 3000):
        if any(e > 1 for e in sympy.factorint(D).values()):
            continue
        cf = CFData(D)
        x0, y0 = cf.unit
        assert all(0 < a <= x0 and 0 < b <= y0 for a, b, _ in cf.norms.values()), D
    used = 0
    for D in range(10**6, 10**6 + 20000, 97):
        if any(e > 1 for e in sympy.factorint(D).values()):
            continue
        r = real_quadratic(D)
        x0, y0 = r.details["unit"]
        for a, b in r.details["representations"].values():
            assert 0 < a <= x0 and 0 < b <= y0, D
            used += 1
    assert used > 0


def test_cubic_graph_anchor():
    r = cubic_graph(7)
    assert r.group.factors == (7, 7)
    assert r.details["subset"] == [0, 1, 2, 3]
    assert {v.coords for v in r.values} == {(0, 0), (1, 1), (2, 1), (3, 6)}
    assert r.details["negation_pairs"] == [(0, 0)]
    assert r.report.sidon


def test_cubic_graph_prime_square():
    r = cubic_graph(25)
    assert r.group.factors == (5, 5, 5, 5)
    assert len(r.values) == 13
    assert r.report.sidon


def test_cubic_graph_over_a_field_built_over_k():
    # GF(625) over GF(25): coordinates over GF(5) are the base-5 digits
    r = cubic_graph(field_extension(field_create(5, 2), 2))
    r2 = cubic_graph(field_create(5, 4))
    assert r.group == r2.group == AbelianGroup((5,) * 8)
    assert len(r.values) == len(r2.values) == 313
    assert r.report.sidon and is_sidon(r.group, r.values).sidon


def test_cubic_graph_rejections():
    with pytest.raises(SparseError):
        cubic_graph(9)                # characteristic 3
    with pytest.raises(SparseError):
        cubic_graph(4)                # characteristic 2
    with pytest.raises(SparseError) as exc:
        cubic_graph(7, subset=[0, 1, 6])
    assert "2 pairs" in str(exc.value)
    with pytest.raises(SparseError):
        cubic_graph(7, subset=[1, 1, 2])


def test_cubic_graph_explicit_subset():
    r = cubic_graph(7, subset=[1, 2, 3])
    assert {v.coords for v in r.values} == {(1, 1), (2, 1), (3, 6)}
    assert r.details["negation_pairs"] == []


def test_perturb_anchor():
    r = perturb([1, 2, 5, 11])
    assert r.values == [6, 10, 26, 56]
    assert r.details["offsets"] == [1, 0, 1, 1]
    assert r.sidon


def test_perturb_custom_offsets():
    r = perturb([1, 2, 5, 11], eps={1: 0, 2: 2, 5: 1, 11: 0})
    assert r.values == [5, 12, 26, 55]
    assert is_sidon_z(r.values) == (True, None)
    r2 = perturb([1, 2, 5, 11], eps=lambda s: 2)
    assert r2.values == [7, 12, 27, 57]


def test_perturb_rejections():
    with pytest.raises(SparseError):
        perturb([1, 2, 3])            # 1 + 3 = 2 + 2
    with pytest.raises(SparseError):
        perturb([1, 2, 5], eps={1: 0, 2: 3, 5: 0})


# ------------------------------------------------------------- framework


def test_framework_reproduces_log_primes():
    fw = framework_build(FrameworkSpec("rationals", X=10))
    lp = log_primes(10)
    assert [v.coords[0] for v in fw.values] == lp.values
    assert fw.details["checks"]["rounding_faithful"]["ok"]
    assert fw.details["checks"]["phi_injective"]["ok"]
    assert fw.name == "framework:rationals"


def test_framework_reproduces_unit_residues():
    fw = framework_build(FrameworkSpec("rationals", X=100, mods=(10007,)))
    qr = quotient_ring_primes(10007)
    assert fw.group.factors == qr.group.factors
    assert fw.values == qr.values
    assert len(fw.values) == 25


def test_framework_hybrid_anchor():
    fw = framework_build(FrameworkSpec("rationals", X=7, scale=50, mods=(11,)))
    assert fw.group.factors == (1970,)
    assert [v.coords for v in fw.values] == [(231,), (448,), (474,), (97,)]
    assert fw.details["arch_values"] == {2: 34, 3: 54, 5: 80, 7: 97}
    assert fw.details["pairs_scanned"] == 10
    assert fw.details["discarded"] == {}
    assert fw.details["skipped"] == {}
    assert fw.report.sidon


def test_framework_reproduces_gaussian():
    fw = framework_build(FrameworkSpec("gaussian", n=10**4))
    ga = gaussian_angles(10**4)
    assert fw.group.factors == (10**4,)
    assert [v.coords[0] for v in fw.values] == ga.values


def test_framework_reproduces_class_groups():
    fw = framework_build(FrameworkSpec("imaginary_quadratic", D=100019))
    cg = class_group_primes(100019)
    assert fw.group.factors == cg.group.factors == (193,)
    assert fw.values == cg.values
    assert len(fw.values) == 3
    assert fw.details["skipped"] == cg.details["skipped"]


def test_framework_reproduces_real_quadratic():
    fw = framework_build(FrameworkSpec("real_quadratic", D=1000003))
    rr = real_quadratic(1000003)
    assert fw.group.factors == rr.group.factors == (577,)
    assert [v.coords for v in fw.values] == [(14,)] == [v.coords for v in rr.values]


def test_framework_nearest_rounding():
    fw = framework_build(FrameworkSpec("rationals", X=10, rounding="nearest"))
    assert [v.coords[0] for v in fw.values] == [208, 330, 483, 584]
    assert fw.details["checks"]["rounding_faithful"]["ok"]
    assert fw.report.sidon


def test_framework_budget():
    with pytest.raises(BudgetError):
        framework_build(FrameworkSpec("rationals", X=10, scan_cap=5))
    assert issubclass(BudgetError, SparseError)


def test_framework_spec_validation():
    with pytest.raises(SparseError):
        FrameworkSpec("padic", X=10)
    with pytest.raises(SparseError):
        FrameworkSpec("rationals")            # missing X
    with pytest.raises(SparseError):
        FrameworkSpec("gaussian", n=100, mods=(7,))
    with pytest.raises(SparseError):
        FrameworkSpec("rationals", X=10, rounding="ceil")
    j = FrameworkSpec("rationals", X=7, scale=50, mods=(11,)).to_json()
    assert j == {
        "field": "rationals", "rounding": "floor", "scan_cap": 3000,
        "X": 7, "scale": 50, "mods": [11],
    }


def test_sparse_result_verification_block():
    j = cubic_graph(7).to_json()
    v = j["verification"]
    assert v["size"] == 4 and v["energy"] == 28 and v["sidon"] is True
    assert v["t_set_size"] == 37
    assert "t_set" not in v
