import json
import math
import pathlib
import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sidonkit import search
from sidonkit.groups import AbelianGroup, endo_apply
from sidonkit.search import (
    BudgetExceeded,
    SearchError,
    _Indices,
    _automorphism_orbits,
    _census,
    _indices,
    admissible_orders,
    canonical_form,
    enumerate_sidon,
    extend_sidon,
    max_sidon,
    sigma_table,
)
from sidonkit.search import test_T_subgroup as t_subgroup_census
from sidonkit.search import test_extendable as extendable_census
from sidonkit.sidon import counting_bound

from conftest import (
    automorphism_list,
    brute_canonical,
    brute_extends,
    brute_lowers,
    brute_max,
    brute_sidon,
    brute_sidon_sets,
    cyclic,
    reference_dfs,
    small_group,
)


@pytest.mark.parametrize("n", range(2, 17))
def test_max_sidon_cyclic_matches_brute_force(n):
    g = cyclic(n)
    res = max_sidon(g)
    assert res.complete
    assert res.size == brute_max(g)
    assert brute_sidon(g, res.indices)
    assert res.size <= counting_bound(n)


@pytest.mark.parametrize("factors", [(2, 2), (2, 4), (4, 4), (2, 8), (3, 9), (2, 2, 2)])
def test_max_sidon_product_groups(factors):
    g = AbelianGroup(factors)
    res = max_sidon(g)
    assert res.complete
    assert res.size == brute_max(g)
    assert brute_sidon(g, res.indices)


def test_max_sidon_result_shape():
    res = max_sidon(cyclic(13))
    assert res.size == 4 and res.complete and res.best_possible == 4
    assert res.indices[0] == 0
    j = res.to_json()
    assert sorted(j) == ["complete", "group", "nodes", "set", "size"]
    assert j["size"] == 4


def test_sigma_anchors():
    assert sigma_table([7, 13, 21, 31]) == {7: 3, 13: 4, 21: 5, 31: 6}


def test_sigma_budget():
    with pytest.raises(BudgetExceeded):
        sigma_table([63], budget=50)


def test_enumerate_single_class():
    classes = enumerate_sidon(cyclic(7), size=3)
    assert classes == [(0, 1, 3)]


def test_enumerate_all_sizes():
    classes = enumerate_sidon(cyclic(7))
    by_size = {}
    for c in classes:
        by_size.setdefault(len(c), []).append(c)
    assert sorted(by_size) == [1, 2, 3]
    assert by_size[1] == [(0,)]
    # every translate/negation class appears exactly once
    assert all(canonical_form(cyclic(7), c) == c for c in classes)


def test_canonical_form_invariance():
    g = AbelianGroup((3, 9))
    rng = random.Random(23)
    elems = list(g.elements())
    for _ in range(40):
        S = rng.sample(elems, 4)
        base = canonical_form(g, S)
        t = rng.choice(elems)
        assert canonical_form(g, [s + t for s in S]) == base
        assert canonical_form(g, [-s for s in S]) == base
        assert canonical_form(g, [t - s for s in S]) == base


@settings(max_examples=60, deadline=None)
@given(small_group(max_order=200), st.data())
def test_canonical_form_matches_oracle(g, data):
    """The least of the sets S - t and t - S, t in S, is the least of all
    translates of S and -S, the empty set included."""
    idxs = data.draw(st.sets(st.integers(0, g.order - 1), max_size=6))
    assert canonical_form(g, [g.coords_of(i) for i in idxs]) == brute_canonical(g, idxs)


AFFINE_GROUPS = ([(n,) for n in range(2, 26)]
                 + [(a, b) for a in range(2, 6) for b in range(a, 26, a) if a * b <= 25]
                 + [(2, 2, 2), (2, 2, 4)])


@pytest.mark.parametrize("factors", AFFINE_GROUPS, ids=str)
def test_census_under_automorphisms_matches_oracle(factors):
    """The census under Aut(G) emits one set per class under the maps
    x -> a(x) + c, a in Aut(G): the least of brute_canonical over the
    images a(S) of a Sidon set S.  Each orbit is listed once."""
    g = AbelianGroup(factors)
    ix = _indices(factors)
    auts = automorphism_list(factors)
    leader_of = {}
    for S in brute_sidon_sets(g):
        if len(S) not in (3, 4):
            continue
        key = brute_canonical(g, S)
        if key not in leader_of:
            coords = [g.coords_of(i) for i in key]
            orbit = {brute_canonical(g, [g.index_of(endo_apply(g, a, c)) for c in coords])
                     for a in auts}
            leader_of.update(dict.fromkeys(orbit, min(orbit)))
    orbits = _automorphism_orbits(ix)
    for size in (3, 4):
        want = sorted({m for c, m in leader_of.items() if len(c) == size})
        assert _census(ix, orbits, size, 10**6) == want, size
    if factors == (13,):
        # the difference triples {1, 2, 3} and {1, 3, 4} up to units
        assert _census(ix, orbits, 3, 10**6) == [(0, 1, 3), (0, 1, 4)]


def test_extend_success():
    g = cyclic(7)
    res = extend_sidon(g, [0], target=3)
    assert res.complete and res.size == 3
    assert brute_sidon(g, res.indices)


def test_extend_impossible():
    res = extend_sidon(cyclic(11), [0, 1, 3], target=4)
    assert res.complete and res.size == 3


def test_extend_rejections():
    with pytest.raises(SearchError):
        extend_sidon(cyclic(8), [0, 1, 2], target=4)     # not Sidon
    with pytest.raises(SearchError):
        extend_sidon(cyclic(11), [0, 1, 3], target=2)    # already larger
    with pytest.raises(BudgetExceeded):
        extend_sidon(cyclic(101), [0], target=11, budget=30)


def test_max_sidon_budget_returns_lower_bound():
    res = max_sidon(cyclic(57), budget=40)
    assert not res.complete
    assert res.size >= 1
    assert brute_sidon(cyclic(57), res.indices)


def test_t_subgroup_census_p3():
    rep = t_subgroup_census(3)
    j = rep.to_json()
    assert j["ok"] is True
    assert j["tester"] == "T_subgroup"
    assert j["params"] == {"p": 3, "size": 3}
    assert j["n_classes"] == 1
    assert j["classes"] == [{
        "set": [0, 1, 3],
        "t_set": [0, 4, 8],
        "n_subgroups": 1,
        "union_of_subgroups": True,
    }]


def test_t_subgroup_census_p5():
    rep = t_subgroup_census(5)
    assert rep.ok
    assert all(c["union_of_subgroups"] for c in rep.classes)


def test_extendable_p2():
    rep = extendable_census(2)
    j = rep.to_json()
    assert j["ok"] is True
    assert j["params"] == {"n": 7, "p": 2, "target": 3}
    assert [c["set"] for c in rep.classes] == [[0], [0, 1], [0, 1, 3], [0, 2], [0, 3]]


def test_extendable_p3():
    rep = extendable_census(3)
    assert rep.ok
    assert rep.params["n"] == 13 and rep.params["target"] == 4


def test_admissible_orders_anchors():
    assert admissible_orders(4) == [("(q-1)^2", 3), ("q^2", 2)]
    assert admissible_orders(7) == [("q^2+q+1", 2)]
    assert admissible_orders(8) == [("q^2-1", 3)]
    assert admissible_orders(12) == [("q(q-1)", 4)]
    assert admissible_orders(13) == [("q^2+q+1", 3)]
    assert admissible_orders(16) == [("(q-1)^2", 5), ("q^2", 4)]
    assert admissible_orders(20) == [("q(q-1)", 5)]
    assert admissible_orders(21) == [("q^2+q+1", 4)]
    assert admissible_orders(25) == [("(q-1)^2", 6), ("q^2", 5)]
    assert admissible_orders(22) == []
    with pytest.raises(SearchError):
        admissible_orders(0)


def test_admissible_orders_against_direct_scan():
    shapes = {
        "(q-1)^2": lambda q: (q - 1) ** 2,
        "q(q-1)": lambda q: q * (q - 1),
        "q^2": lambda q: q * q,
        "q^2-1": lambda q: q * q - 1,
        "q^2+q+1": lambda q: q * q + q + 1,
    }
    limit = 3000
    expected = {}
    for form, f in shapes.items():
        for q in range(2, limit):
            v = f(q)
            if v > limit:
                break
            expected.setdefault(v, []).append((form, q))
    for r in range(2, limit):
        v = r**4 - r
        if v > limit:
            break
        expected.setdefault(v, []).append(("q^2-sqrt(q)", r * r))
    for n in range(1, limit + 1):
        assert admissible_orders(n) == sorted(expected.get(n, []))


PINS = json.loads((pathlib.Path(__file__).parent / "search_golden.json").read_text())


def _pin(res):
    return [list(res.indices), res.nodes, res.complete]


def test_max_sidon_node_counts_pinned():
    """(indices, nodes, complete) per order.  The budgeted orders fix the
    census benchmark's share of conclusive answers, so a walker change
    that moves node counts must re-derive these pins; the sets and the
    complete flags have held since the walker without the unit-orbit
    and look-ahead prunes, which took 653 837 nodes over the first 53.
    The lex-leader cut took the orders below 70 from 512 777 nodes to
    80 504 and left the budgeted orders as they were: those that finish
    stop on a dive to the counting bound, where nothing is tested."""
    for n, want in PINS["max_sidon"].items():
        assert _pin(max_sidon(cyclic(int(n)))) == want, n
    for n, want in PINS["max_sidon_budget_2000"].items():
        assert _pin(max_sidon(cyclic(int(n)), budget=2000)) == want, n


@pytest.mark.parametrize("case", PINS["extend_sidon"], ids=lambda c: str(c["n"]))
def test_extend_node_counts_pinned(case):
    """Starts without 0 may not use the negation halving: with it these
    impossible targets take fewer nodes but give the same (empty) answer.
    The walk prunes nodes that cannot reach the target (41, 77 and 5411
    nodes without that look-ahead)."""
    g = cyclic(case["n"])
    res = extend_sidon(g, case["start"], case["target"])
    assert _pin(res) == case["result"]


@pytest.mark.parametrize("case", PINS["enumerate_sidon"],
                         ids=lambda c: f"{c['group']}-{c['size']}")
def test_enumerate_node_counts_pinned(case):
    """Enumeration walks only canonical sets: a node that a map
    x -> +-(x - t), t in the node, makes lex-smaller is cut with its
    subtree, and no look-ahead applies.  Exactly case["nodes"] nodes;
    before the cut, which emits the same classes, the walks took 57,
    2226, 517, 20, 28, 803 and 1150."""
    g = AbelianGroup(case["group"])
    assert len(enumerate_sidon(g, case["size"], budget=case["nodes"])) == case["classes"]
    with pytest.raises(BudgetExceeded):
        enumerate_sidon(g, case["size"], budget=case["nodes"] - 1)


@pytest.mark.parametrize("p", sorted(PINS["test_T_subgroup"]))
def test_t_subgroup_classes_pinned(p):
    """The whole report for p = 5 and 7 (one class each), so that a
    search that lists fewer automorphisms must give the same classes."""
    rep = t_subgroup_census(int(p))
    assert json.loads(json.dumps(rep.to_json())) == PINS["test_T_subgroup"][p]


# ---------------------------------------------------------------------------
# the bitmask kernel against brute-force oracles

RANK2 = [(a, b) for a in range(2, 7) for b in range(a, 37, a) if a * b <= 36]


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 18))
def test_max_sidon_matches_oracle_cyclic(n):
    g = cyclic(n)
    res = max_sidon(g)
    assert res.complete and res.size == brute_max(g)
    assert brute_sidon(g, res.indices)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(RANK2))
def test_max_sidon_matches_oracle_rank2(factors):
    g = AbelianGroup(factors)
    res = max_sidon(g)
    assert res.complete and res.size == brute_max(g)
    assert brute_sidon(g, res.indices)


@settings(max_examples=25, deadline=None)
@given(st.one_of(st.integers(2, 14).map(lambda n: (n,)),
                 st.sampled_from([(3, 3), (2, 6), (4, 4), (3, 9)])),
       st.sampled_from([None, 1, 2, 3, 4, 5]))
def test_enumerate_matches_oracle(factors, size):
    g = AbelianGroup(factors)
    classes = {brute_canonical(g, S) for S in brute_sidon_sets(g)}
    want = sorted(c for c in classes if size is None or len(c) == size)
    assert enumerate_sidon(g, size) == want


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(3, 60).map(lambda n: (n,)), st.sampled_from(RANK2)),
       st.booleans(), st.data())
def test_lex_cut_matches_every_map(factors, signs, data):
    """The cheap lex-leader test agrees with trying every unit u and every
    t in P on x -> u(x - t)."""
    g = AbelianGroup(factors)
    ix = _Indices(g)
    P = _draw_prefix(g, data)
    e = g.exponent
    units = [1, e - 1] if signs else [u for u in range(1, e) if math.gcd(u, e) == 1]
    assert ix.lowers(P, ix.signs if signs else ix.units) == brute_lowers(g, P, units)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(n,) for n in range(3, 30)]
                       + [(2, 4), (3, 3), (2, 6), (4, 4), (3, 6), (5, 5), (3, 9), (2, 2, 4)]),
       st.data())
def test_lex_cut_matches_every_automorphism(factors, data):
    """The test on Aut(G) permutation tables agrees with trying every
    automorphism a and every t in P on x -> a(x - t), on coordinates."""
    g = AbelianGroup(factors)
    ix = _indices(factors)
    P = _draw_prefix(g, data)
    items = [g.coords_of(i) for i in P]
    want = any(
        sorted(g.index_of(endo_apply(g, a, g.sub_coords(c, t))) for c in items) < P
        for a in automorphism_list(factors) for t in items)
    assert ix.lowers(P, _automorphism_orbits(ix)) == want


def _draw_prefix(g, data):
    """A sorted Sidon list (0, p1, ...) of at least three indices.  Small
    elements are drawn often, so that second elements are orbit minima
    and the exact branch of the test is reached."""
    n = g.order
    P = [0]
    for c in data.draw(st.lists(st.one_of(st.integers(1, 4), st.integers(1, n - 1)),
                                min_size=2, max_size=9)):
        if c < n and c not in P and brute_sidon(g, P + [c]):
            P.append(c)
    P.sort()
    assume(len(P) >= 3)
    return P


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(7,), (11,), (12,), (13,), (16,), (3, 3), (2, 6), (4, 4)]),
       st.data())
def test_extend_matches_oracle(factors, data):
    g = AbelianGroup(factors)
    start = sorted(data.draw(st.sets(st.integers(0, g.order - 1), max_size=3)))
    assume(brute_sidon(g, start))
    target = data.draw(st.integers(len(start), len(start) + 3))
    res = extend_sidon(g, [g.coords_of(i) for i in start], target)
    assert res.complete
    assert (res.size == target) == brute_extends(g, start, target)
    assert set(start) <= set(res.indices) and brute_sidon(g, res.indices)


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.integers(2, 64).map(lambda n: (n,)),
                 st.sampled_from(RANK2 + [(3, 9), (5, 5), (7, 7)])),
       st.one_of(st.none(), st.integers(1, 3000)))
def test_max_sidon_walks_reference_tree(factors, budget):
    """Rejecting floor-pruned children in the parent, before their push,
    leaves the tree alone: same set, nodes and completeness as the
    reference walker that pushes every child and tests it afterwards."""
    g = AbelianGroup(factors)
    kwargs = {} if budget is None else {"budget": budget}
    got = _pin(max_sidon(g, **kwargs))
    with mock.patch.object(search, "_dfs", reference_dfs):
        want = _pin(max_sidon(g, **kwargs))
    assert got == want


@pytest.mark.parametrize("target, want", [(0, [[], 1, True]), (1, [[0], 2, True]),
                                          (3, [[0, 1, 3], 4, True])])
def test_extend_hook_sees_every_walked_node(target, want):
    """The hook is called at every node walked, the root included: a
    walker that skipped it at nodes no larger than the floor (0 here)
    walked 43 nodes for target 0 instead of stopping at the empty root."""
    assert _pin(extend_sidon(cyclic(7), [], target)) == want


@pytest.mark.parametrize("n", range(2, 61))
def test_second_elements_cyclic_are_divisors(n):
    got = _Indices(cyclic(n)).units.roots
    assert got == sum(1 << d for d in range(1, n) if n % d == 0)


@pytest.mark.parametrize("factors", [(3, 3), (2, 4), (3, 9)])
def test_second_elements_are_unit_orbit_minima(factors):
    g = AbelianGroup(factors)
    units = [u for u in range(1, g.exponent) if math.gcd(u, g.exponent) == 1]
    want = 0
    for c in range(1, g.order):
        orbit = [g.index_of(g.smul_coords(u, g.coords_of(c))) for u in units]
        if c == min(orbit):
            want |= 1 << c
    assert _Indices(g).units.roots == want
