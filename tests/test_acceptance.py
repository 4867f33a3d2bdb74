"""End-to-end acceptance checks, one test per numbered requirement.

`pytest -v tests/test_acceptance.py` prints exactly one pass/fail line
per check.  Each check asserts its own wall-clock budget, so a pass
means both the mathematics and the runtime contract hold.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager

import pytest
import sympy

from sidonkit.dense import (
    ConstructionError,
    PlanarCandidate,
    construct_dense,
    is_nondegenerate,
    is_planar,
    planar_graph,
    polarization,
)
from sidonkit.fields import field_create
from sidonkit.groups import AbelianGroup
from sidonkit.incidence import (
    develop,
    is_partial_linear_space,
    is_projective_plane,
    self_dual_via_negation,
)
from sidonkit.planes3 import (
    FAMILY_TAGS,
    PlaneError,
    extract_sidon,
    family_build,
    orbit_analysis,
    recover_constructions,
)
from sidonkit.search import admissible_orders, max_sidon
from sidonkit.search import test_T_subgroup as t_subgroup_census
from sidonkit.search import test_extendable as extendable_census
from sidonkit.sidon import affine_equivalent, counting_bound, is_sidon
from sidonkit.sparse import (
    FrameworkSpec,
    class_group_primes,
    cubic_graph,
    framework_build,
    gaussian_angles,
    log_primes,
    perturb,
    quotient_ring_primes,
    real_quadratic,
)

from conftest import brute_sidon, cyclic, els


@contextmanager
def budget(seconds, label):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    print(f"{label}: {elapsed:.2f}s (budget {seconds}s)")
    assert elapsed < seconds, f"{label} took {elapsed:.1f}s, budget {seconds}s"


def field(q):
    [(p, d)] = sympy.factorint(q).items()
    return field_create(p, d)


def abelian_groups(n):
    """All abelian groups of order n, as ascending invariant factors."""
    def desc(rem, cap):
        if rem == 1:
            return [()]
        out = []
        for d in sympy.divisors(rem):
            if d < 2 or cap % d:
                continue
            out.extend((d,) + rest for rest in desc(rem // d, d))
        return out

    return [AbelianGroup(tuple(reversed(c))) for c in desc(n, n)]


def test_01_construction_parameter_tables():
    """(|G|, |S|) for all five dense constructions across prime powers."""
    shapes = {
        "erdos_turan": (lambda q: q * q, lambda q: q),
        "singer": (lambda q: q * q + q + 1, lambda q: q + 1),
        "bose": (lambda q: q * q - 1, lambda q: q),
        "spence": (lambda q: q * (q - 1), lambda q: q - 1),
        "hughes": (lambda q: (q - 1) ** 2, lambda q: q - 2),
    }
    with budget(10, "check 1, parameter tables"):
        for name, (order_of, size_of) in shapes.items():
            for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
                F = field(q)
                if name == "erdos_turan" and q % 2 == 0:
                    with pytest.raises(ConstructionError):
                        construct_dense(name, F)
                    continue
                group, S, _ = construct_dense(name, F)
                assert group.order == order_of(q), (name, q)
                assert len(S) == size_of(q), (name, q)
                assert is_sidon(group, S).sidon, (name, q)
    with budget(1, "check 1, Singer over GF(31)"):
        group, S, _ = construct_dense("singer", field(31))
    assert (group.order, len(S)) == (993, 32)
    assert is_sidon(group, S).sidon


def test_02_sidon_iff_partial_linear_space():
    """dev(G, S) is a partial linear space exactly when S is Sidon, and
    is always self-dual under negation; exhaustive through |G| = 12,
    seeded samples through |G| = 24."""
    def check(group, idxs):
        S = [group.coords_of(i) for i in idxs]
        L = develop(group, S)
        assert is_partial_linear_space(L).ok == is_sidon(group, S).sidon
        assert self_dual_via_negation(group, S)

    with budget(60, "check 2, development correspondence"):
        for n in range(1, 13):
            for group in abelian_groups(n):
                for k in range(0, min(5, n) + 1):
                    for idxs in itertools.combinations(range(n), k):
                        check(group, idxs)
        rng = random.Random(2024)
        for n in range(13, 25):
            for group in abelian_groups(n):
                for k in range(6):
                    for _ in range(30):
                        check(group, rng.sample(range(n), k))


def test_03_singer_developments_are_planes():
    """Singer sets develop into projective planes; {1,2,4} mod 7 gives
    the Fano plane."""
    with budget(30, "check 3, plane recovery"):
        for q in (2, 3, 4, 5, 7, 8):
            group, S, _ = construct_dense("singer", field(q))
            chk = is_projective_plane(develop(group, S))
            assert chk.order == q
        g7 = cyclic(7)
        fano = develop(g7, els(g7, 1, 2, 4))
        assert is_projective_plane(fano).order == 2
        # {1,2,4} = {0,1,3} + 1, so this development is the classical one
        assert affine_equivalent(g7, els(g7, 1, 2, 4), els(g7, 0, 1, 3))


def test_04_group_actions_on_planes():
    """Orders of the nine point-regular abelian actions, recovery of the
    five constructions, and the stabilizer obstructions for (vi)/(vii)."""
    order_of = {
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
    recover_map = {
        "i": "singer", "ii": "bose", "iii": "hughes",
        "iv": "spence", "v": "erdos_turan",
    }
    with budget(300, "check 4, nine families"):
        for q in (2, 3, 4, 5, 7, 9, 13):
            F = field(q)
            for tag in FAMILY_TAGS:
                if tag in ("viii", "ix") and q % 3 != 1:
                    with pytest.raises(PlaneError):
                        family_build(F, tag)
                    continue
                action = family_build(F, tag)
                assert action.group.order == order_of[tag](q), (tag, q)
                if tag in ("vi", "vii"):
                    continue
                try:
                    ext = extract_sidon(action)
                except PlaneError:
                    continue            # no extraction at this size
                assert ext.bound_ok, (tag, q)
                assert is_sidon(action.group, ext.S).sidon, (tag, q)
        def recovered(q):
            seen = {}
            for row in recover_constructions(field(q)):
                if "skipped" in row:
                    assert row["family"] == "v" and q % 2 == 0, row
                    continue
                assert row["equivalent"] and row["conclusive"], row
                seen[row["family"]] = row["construction"]
            return seen

        for q in (3, 4, 5, 7, 8, 9):
            expected = {t: c for t, c in recover_map.items() if t != "v" or q % 2}
            assert recovered(q) == expected, q
        with budget(5, "check 4, recovery over GF(16)"):
            assert recovered(16) == {t: c for t, c in recover_map.items() if t != "v"}
        for q in (2, 3, 4, 5, 7):
            for tag, side in (("vi", "line"), ("vii", "point")):
                with pytest.raises(PlaneError) as exc:
                    extract_sidon(family_build(field(q), tag))
                assert exc.value.side == side, (tag, q)


def test_05_orbit_counts():
    """Point/line orbit counts t = 1, 3, 3, 5, 7 for families (i), (v),
    (ii), (iv), (iii)."""
    expected = {"i": 1, "v": 3, "ii": 3, "iv": 5, "iii": 7}
    with budget(60, "check 5, orbit counts"):
        for q in (3, 4, 5):
            for tag, t in expected.items():
                rep = orbit_analysis(family_build(field(q), tag))
                assert rep.t == t, (tag, q)
                assert len(rep.point_orbits) == t
                assert len(rep.line_orbits) == t


def test_06_planar_functions():
    """Monomial planarity rule, the x^14 example, two trinomial forms,
    planar iff nondegenerate on random forms, and planar-graph T-sets."""
    with budget(120, "check 6, planar functions"):
        triples = [(3, d, a) for d in range(1, 6) for a in range(1, d + 1)]
        triples += [(5, d, a) for d in range(1, 4) for a in range(1, d + 1)]
        assert len(triples) >= 20
        for p, d, a in triples:
            F = field_create(p, d)
            cand = PlanarCandidate.monomial(F, p**a + 1)
            expect = (d // math.gcd(a, d)) % 2 == 1
            assert is_planar(cand).planar == expect, (p, d, a)

        F243 = field_create(3, 5)
        cm = PlanarCandidate.coulter_matthews(F243, 3)
        assert is_planar(cm).planar

        for d in (3, 5):
            F = field_create(3, d)
            for c in (1, 2):            # x^10 + c x^6 - x^2 with c = +-1
                form = PlanarCandidate.quadratic_form(
                    F, {(2, 0): 1, (1, 1): c, (0, 0): 2}
                )
                assert is_planar(form).planar, (d, c)

        rng = random.Random(6)
        for F in (field_create(3, 2), field_create(3, 3)):
            pairs = [(i, j) for i in range(F.d) for j in range(i, F.d)]
            for _ in range(50):
                coeffs = {ij: rng.randrange(F.p) for ij in pairs}
                cand = PlanarCandidate.quadratic_form(F, coeffs)
                beta = polarization(cand)
                assert is_planar(cand).planar == is_nondegenerate(beta)

        for cand in (
            PlanarCandidate.monomial(field_create(7, 1), 2),
            PlanarCandidate.monomial(field_create(3, 2), 2),
            PlanarCandidate.monomial(field_create(3, 3), 4),
            cm,
        ):
            group, S, _ = planar_graph(cand)
            rep = is_sidon(group, S)
            assert rep.sidon
            F = cand.field
            axis = {
                group.element((0,) * F.d + tuple(F.coeffs(c)))
                for c in range(F.q)
            }
            assert set(rep.t_set) == axis


def test_07_sparse_constructions():
    """The seven prime-based constructions, plus the shared framework
    reproducing the first two and certifying the hybrid."""
    with budget(180, "check 7, sparse constructions"):
        A = log_primes(100)
        assert A.sidon and len(A.values) == 25

        for m in (101, 10007):
            B = quotient_ring_primes(m)
            assert B.report.sidon and B.values

        C = gaussian_angles(10**4)
        assert C.sidon and len(C.values) == 3

        for D in (2003, 20011, 100019):
            assert not D % 2 == 0 and sympy.factorint(D)  # squarefree primes
            r = class_group_primes(D)
            assert r.sidon

        for D in (2, 46, 1000003):
            assert real_quadratic(D).sidon
        assert len(real_quadratic(1000003).values) == 1

        for q in (7, 11):
            r = cubic_graph(q)
            assert r.report.sidon and len(r.values) == (q + 1) // 2

        H = perturb(log_primes(10).values)
        assert H.sidon and H.values == [1036, 1646, 2410, 2916]

        fwA = framework_build(FrameworkSpec("rationals", X=100))
        assert [v.coords[0] for v in fwA.values] == A.values

        for m in (101, 10007):
            fwB = framework_build(
                FrameworkSpec("rationals", X=math.isqrt(m), mods=(m,))
            )
            assert fwB.values == quotient_ring_primes(m).values

        hybrid = framework_build(FrameworkSpec("rationals", X=7, scale=50, mods=(11,)))
        checks = hybrid.details["checks"]
        assert checks["rounding_faithful"]["ok"] and checks["phi_injective"]["ok"]
        assert hybrid.report.sidon


def test_08_search_matches_brute_force():
    """max_sidon equals unpruned subset search for n <= 16; the sigma
    values at plane orders meet the counting bound via Singer sets."""
    with budget(120, "check 8, search oracle"):
        trivial = max_sidon(AbelianGroup(()))
        assert trivial.complete and trivial.size == 1
        for n in range(2, 17):
            g = cyclic(n)
            res = max_sidon(g)
            assert res.complete
            best = 0
            for k in range(1, n + 1):
                if any(
                    brute_sidon(g, combo)
                    for combo in itertools.combinations(range(n), k)
                ):
                    best = k
                else:
                    break
            assert res.size == best, n
        for q in (2, 3, 4, 5):
            n = q * q + q + 1
            res = max_sidon(cyclic(n))
            assert res.complete
            assert res.size == q + 1 == counting_bound(n)
            group, S, _ = construct_dense("singer", field(q))
            assert group.order == n and len(S) == q + 1
            assert is_sidon(group, S).sidon


def test_09_conjecture_testers():
    """Exhaustive T-subgroup and extendability censuses, deterministic
    across reruns."""
    with budget(600, "check 9, conjecture testers"):
        r3 = t_subgroup_census(3)
        r5 = t_subgroup_census(5)
        assert r3.ok and r5.ok
        assert r3.classes and r5.classes
        assert all(c["union_of_subgroups"] for c in r5.classes)
        e2 = extendable_census(2)
        e3 = extendable_census(3)
        assert e2.ok and e3.ok
        assert t_subgroup_census(3).to_json() == r3.to_json()
        assert t_subgroup_census(5).to_json() == r5.to_json()
        assert extendable_census(2).to_json() == e2.to_json()
        assert extendable_census(3).to_json() == e3.to_json()


def test_10_admissible_orders():
    """admissible_orders against a direct enumeration of all six order
    shapes for n <= 10^4."""
    limit = 10**4
    shapes = {
        "(q-1)^2": lambda q: (q - 1) ** 2,
        "q(q-1)": lambda q: q * (q - 1),
        "q^2": lambda q: q * q,
        "q^2-1": lambda q: q * q - 1,
        "q^2+q+1": lambda q: q * q + q + 1,
    }
    expected = {}
    for form, f in shapes.items():
        for q in itertools.count(2):
            v = f(q)
            if v > limit:
                break
            expected.setdefault(v, []).append((form, q))
    for r in itertools.count(2):
        v = r**4 - r
        if v > limit:
            break
        expected.setdefault(v, []).append(("q^2-sqrt(q)", r * r))

    with budget(1, "check 10, admissible orders"):
        for n in range(1, limit + 1):
            assert admissible_orders(n) == sorted(expected.get(n, [])), n
        for n in (7, 8, 12, 13, 16, 20, 21, 25):
            assert admissible_orders(n), n
        assert admissible_orders(22) == []
