"""The three workloads: seeded query generators, executors and checks.

A run issues the seed's pass of queries, each time in a fresh
interpreter.  Every pass of a workload has the same shape: the same
query kinds in the same order, the same number of each, and the same
expensive anchor queries.  The seed picks parameters whose cost barely
moves with them, so the reported rates and latencies do not depend on
which seed was drawn.  The order is fixed because first use fills the
package's field and plane caches, and a shuffled order would move that
cost between queries.

run_<workload>(api, query) makes the program calls and is the timed
part; check_<workload>(query, result) turns the result into plain data
and hands it to checker.py.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout

import checker

# ------------------------------------------------------------------ helpers

MEDIAN_BLOCK = 60

FAMILY_TAGS = ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix")


def _spread(qs, block, start=0):
    """qs with the block's queries at evenly spaced places after qs[:start].

    Each pass holds blocks of equal-cost queries at the median and tail
    ranks, so those percentiles do not jump between neighbours of
    different cost from run to run.  Spreading a block over the pass lets
    it sample the host's speed across the whole run instead of over one
    short stretch."""
    out = list(qs)
    n = len(qs) - start
    for j in reversed(range(len(block))):
        out.insert(start + j * n // len(block), block[j])
    return out


def _factor(n):
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _prime_power(q):
    [(p, d)] = _factor(q).items()
    return p, d


def _squarefree(rng, lo, hi):
    while True:
        D = rng.randrange(lo, hi)
        if all(e == 1 for e in _factor(D).values()):
            return D


def _prime(rng, lo, hi):
    while True:
        p = rng.randrange(lo, hi)
        if _factor(p) == {p: 1}:
            return p


class Refusal:
    """The program declined with a documented precondition error."""

    def __init__(self, exc):
        self.exc = exc


# ------------------------------------------------------------------ census
#
# Exhaustive search through the library API.  sigma(n) for 6 <= n <= 64
# except 59-62: n in 43-47 and 58 need full proofs, most others stop at
# the counting bound.  Every order 70-100 runs under a small node budget,
# so a stronger walker shows as fewer inconclusive answers.  The seed picks
# four censuses and four rank-2 groups, all cheaper than the median query,
# so the draw does not move the reported percentiles.  Orders 59-62 are left
# out: their proofs take 4-7 s each, and four of them would triple the pass.

PROOF_ORDERS = (43, 44, 45, 46, 47, 58)
MEDIAN_ORDER = 50
TAIL_ORDER = 43
TAIL_BLOCK = 9
HARD_ORDERS = set(range(43, 48)) | set(range(58, 63))
BUDGET_ORDERS = range(70, 101)
SEARCH_BUDGET = 2000


def census_pass(rng):
    # orders below 6 are answered at once and would only dilute the median
    cheap = [n for n in range(6, 65) if n not in HARD_ORDERS]
    census = [(n, k) for n in checker.CENSUS for k in (3, 4, 5)]
    qs = [("sigma", n, None) for n in PROOF_ORDERS + tuple(cheap)]
    qs += [("sigma", n, SEARCH_BUDGET) for n in BUDGET_ORDERS]
    qs += [("t_subgroup", 3), ("t_subgroup", 5),
           ("extendable", 2), ("extendable", 3), ("extendable", 5)]
    qs += [("census", n, k) for n, k in rng.sample(census, 4)]
    qs += [("rank2", a, b) for a, b in rng.sample(sorted(checker.SIGMA_RANK2), 4)]
    # blocks at the median and, with sigma(44) as costly, at the tail rank
    qs = _spread(qs, [("sigma", MEDIAN_ORDER, None)] * MEDIAN_BLOCK)
    return _spread(qs, [("sigma", TAIL_ORDER, None)] * TAIL_BLOCK)


def run_census(api, q):
    kind = q[0]
    if kind == "sigma":
        _, n, budget = q
        group = api.AbelianGroup((n,))
        return api.max_sidon(group) if budget is None else api.max_sidon(group, budget)
    if kind == "rank2":
        return api.max_sidon(api.AbelianGroup(q[1:]))
    if kind == "census":
        return api.enumerate_sidon(api.AbelianGroup((q[1],)), size=q[2])
    if kind == "t_subgroup":
        return api.test_T_subgroup(q[1]).to_json()
    return api.test_extendable(q[1]).to_json()


def check_census(q, res):
    kind = q[0]
    if kind in ("sigma", "rank2"):
        factors = res.group.factors
        return checker.check_max_sidon(
            factors, [checker.index_coords(factors, i) for i in res.indices], res.complete)
    if kind == "census":
        return checker.check_census(q[1], q[2], res)
    if kind == "t_subgroup":
        return checker.check_t_subgroup(q[1], res)
    return checker.check_extendable(q[1], res)


# ------------------------------------------------------------------ planes
#
# Plane machinery through the library API.  recover_constructions(GF(9))
# is in every pass: family v over (Z/3)^4 falls back to random restarts
# and stays inconclusive.  The Singer set over GF(16) is where the
# cubic-extension discrete logs and traces dominate.

PLANE_QS = (3, 4, 5, 7, 8, 9, 11, 13, 16)


def planes_pass(rng):
    """Every pass covers the same fields; the seed picks the translate of
    each dense set that is verified or developed."""
    qs = [("dense", q, name, rng.randrange(q ** 3))
          for q in PLANE_QS for name in checker.DENSE_PARAMS]
    qs += [("singer_plane", q, rng.randrange(q ** 3)) for q in PLANE_QS[:-1]]
    warm = len(qs)      # every Singer set and plane cache is filled by now
    # blocks of developments over GF(5) at the median, over GF(11) at the tail
    block = [("singer_plane", 5, rng.randrange(5 ** 3)) for _ in range(MEDIAN_BLOCK)]
    block += [("singer_plane", 11, rng.randrange(11 ** 3)) for _ in range(9)]
    qs += [("family", q, tag) for q in PLANE_QS for tag in FAMILY_TAGS]
    qs += [("recover", q) for q in (3, 4, 5, 7, 8, 9)]
    return _spread(qs, block, warm)


def _translate(group, S, t):
    shift = group.element(group.coords_of(t % group.order))
    return [s + shift for s in S]


def run_planes(api, q):
    kind = q[0]
    F = api.field_create(*_prime_power(q[1]))
    if kind == "dense":
        try:
            group, S, _ = api.construct_dense(q[2], F)
        except api.ConstructionError as exc:
            return Refusal(exc)
        S = _translate(group, S, q[3])
        return group, S, api.is_sidon(group, S)
    if kind == "singer_plane":
        group, S, _ = api.construct_dense("singer", F)
        L = api.develop(group, _translate(group, S, q[2]))
        return L, api.is_projective_plane(L)
    if kind == "family":
        try:
            action = api.family_build(F, q[2])
        except api.PlaneError as exc:
            return Refusal(exc)
        orbits = api.orbit_analysis(action)
        try:
            return action, orbits, api.extract_sidon(action)
        except api.PlaneError as exc:
            return action, orbits, Refusal(exc)
    return api.recover_constructions(F)


def check_planes(q, res):
    kind = q[0]
    if kind == "dense":
        if isinstance(res, Refusal):
            return checker.check_refusal(q[2], q[1])
        group, S, rep = res
        return checker.check_dense(q[2], q[1], group.factors, [s.coords for s in S],
                                   rep.sidon, len(rep.t_set))
    if kind == "singer_plane":
        L, plane = res
        return checker.check_plane(q[1], L.n_points, L.n_lines,
                                   [len(x) for x in L.line_points],
                                   [len(x) for x in L.point_lines], plane.order)
    if kind == "family":
        if isinstance(res, Refusal):
            return checker.check_family(q[1], q[2], {"kind": "build_refused"})
        action, orbits, ext = res
        out = {"group": action.group.factors,
               "point_orbits": [len(o) for o in orbits.point_orbits],
               "line_orbits": [len(o) for o in orbits.line_orbits]}
        if isinstance(ext, Refusal):
            out.update(kind="extract_refused", side=ext.exc.side)
        else:
            out.update(kind="extracted", S=[g.coords for g in ext.S], d=ext.d,
                       bound_ok=ext.bound_ok)
        return checker.check_family(q[1], q[2], out)
    return checker.check_recover(q[1], json.loads(json.dumps(res)))


# -------------------------------------------------------------- sparse_cli
#
# argv lists run in-process through sidonkit.cli.main.  Sets here are
# tiny next to their groups (|S|^2 << |G|), so the T-set scan in is_sidon
# and the JSON around it dominate.  One verify in Z/2^20 and one class
# group with D near 2*10^6 are in every pass, and the ten verifications in
# Z/2^16 at the tail rank are T-set scans too.  Group orders stay at or
# below 2^20 and parameters well below 10^6: gaussian_angles near 42000
# and quotient_ring_primes near 150000 already take 0.1 and 0.65 s, and
# the pass has to fit the run length.

ANCHOR_VERIFY_BITS = 20
TAIL_VERIFY_BITS = 16
ANCHOR_CLASS_D = 1999993
# (bits, lo, k): a set of k elements in Z/2^lo x Z/2^(bits-lo), or in
# Z/2^bits when lo is 0; the first three sets get a planted sum collision
VERIFY_SLOTS = ((8, 0, 6), (9, 4, 5), (10, 0, 8), (11, 5, 6), (12, 0, 10),
                (13, 6, 4), (14, 0, 7), (9, 0, 9), (10, 5, 5), (11, 0, 7),
                (12, 6, 8), (13, 0, 6))
CUBIC_QS = (29, 31, 37, 41, 43, 47)


def _verify_query(rng, bits, lo, k, planted):
    factors = (1 << bits,) if lo == 0 else (1 << lo, 1 << (bits - lo))
    S = set()
    while len(S) < k:
        S.add(tuple(rng.randrange(n) for n in factors))
    S = sorted(S)
    if planted:
        # replace the last element by x + y - z: a sum collision
        x, y, z = S[:3]
        w = tuple((a + b - c) % n for a, b, c, n in zip(x, y, z, factors))
        S = sorted(set(S[:-1]) | {w})
    return ("verify", factors, tuple(S))


def sparse_cli_pass(rng):
    """Every pass has the same kinds, counts and sizes; the seed picks the
    elements, and parameters from narrow bands where the cost barely moves
    (prime moduli in a narrow range, class groups from a pool of equal cost)."""
    qs = [_verify_query(rng, ANCHOR_VERIFY_BITS, 0, 8, False)]
    qs += [_verify_query(rng, *slot, i < 3) for i, slot in enumerate(VERIFY_SLOTS)]
    # blocks of verifications in Z/2^11 at the median, in Z/2^16 at the tail
    block = [_verify_query(rng, 11, 0, 6, False) for _ in range(MEDIAN_BLOCK)]
    block += [_verify_query(rng, TAIL_VERIFY_BITS, 0, 8, False) for _ in range(10)]
    pool = sorted(checker.CLASS_NUMBERS_POOL)
    sparse = [["class_group_primes", "--D", ANCHOR_CLASS_D]]
    sparse += [["class_group_primes", "--D", D] for D in rng.sample(pool, 6)]
    sparse += [["quotient_ring_primes", "--m", _prime(rng, 150000, 151000)]
               for _ in range(2)]
    sparse += [["gaussian_angles", "--n", rng.randrange(42000, 42500)]
               for _ in range(3)]
    sparse += [["real_quadratic", "--D", _squarefree(rng, 500000, 510000)]
               for _ in range(3)]
    sparse += [["log_primes", "--X", rng.randrange(100, 110)] for _ in range(6)]
    sparse += [["cubic_graph", "--q", q] for q in CUBIC_QS]
    sparse += [
        ["framework", "--X", rng.randrange(40, 45), "--mods", _prime(rng, 10000, 10100)],
        ["framework", "--framework-field", "gaussian", "--n", rng.randrange(9000, 9100)],
        ["framework", "--framework-field", "imaginary_quadratic", "--D", rng.choice(pool)],
        ["framework", "--framework-field", "real_quadratic",
         "--D", _squarefree(rng, 500000, 510000)],
    ]
    qs += [("sparse",) + tuple(str(a) for a in argv) for argv in sparse]
    for i in range(12):
        q = rng.randrange(2, 1000)
        n = (q * q + q + 1, q * (q - 1), q * q - 1, (q - 1) ** 2)[i % 4] if i < 8 \
            else rng.randrange(2, 10**6)
        qs.append(("orders", n))
    return _spread(qs, block)


def sparse_argv(q):
    kind = q[0]
    if kind == "verify":
        factors, S = q[1], q[2]
        return ["verify", "--group", ",".join(map(str, factors)),
                "--set", ",".join(":".join(map(str, s)) for s in S)]
    if kind == "orders":
        return ["orders", str(q[1])]
    return ["sparse"] + list(q[1:])


def run_sparse_cli(api, q):
    argv = sparse_argv(q)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = api.cli_main(argv)
    return code, buf.getvalue()


def check_sparse_cli(q, res):
    code, out = res
    kind = q[0]
    if kind == "verify":
        return checker.check_verify(q[1], q[2], code, out)
    if kind == "orders":
        return checker.check_orders(q[1], code, out)
    return checker.check_sparse(sparse_argv(q), code, out)


# ---------------------------------------------------------------- registry

class Api:
    """The program entry points a workload calls, resolved once at set-up."""


def make_api(workload):
    import sidonkit
    api = Api()
    if workload == "sparse_cli":
        import sidonkit.cli
        api.cli_main = sidonkit.cli.main
        return api
    for name in ("AbelianGroup", "max_sidon", "enumerate_sidon", "test_T_subgroup",
                 "test_extendable", "field_create", "construct_dense", "is_sidon",
                 "develop", "is_projective_plane", "family_build", "orbit_analysis",
                 "extract_sidon", "recover_constructions", "ConstructionError",
                 "PlaneError"):
        setattr(api, name, getattr(sidonkit, name))
    return api


WORKLOADS = {
    "census": (census_pass, run_census, check_census),
    "planes": (planes_pass, run_planes, check_planes),
    "sparse_cli": (sparse_cli_pass, run_sparse_cli, check_sparse_cli),
}

# queries at the end of a pass that only a run's first pass issues:
# recover_constructions over GF(9) takes 10-15 s, fifteen times anything
# else in the planes pass, and comes last, so leaving it out of the
# repeated passes changes no other query's cache state
MEASURED_ONCE = {"census": 0, "planes": 1, "sparse_cli": 0}

# what a fresh interpreter imports before its first query
SETUP_IMPORTS = {"census": ("sidonkit",), "planes": ("sidonkit",),
                 "sparse_cli": ("sidonkit", "sidonkit.cli")}


def query_json(q):
    return json.dumps(q, separators=(",", ":"))

