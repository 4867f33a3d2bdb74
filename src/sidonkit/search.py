"""Exhaustive Sidon-set search: maxima, census, conjecture testers.

All searches run over element indices with precomputed difference
tables.  Two symmetry reductions keep them exact: every set is slid so
that it contains 0, and the second element c may assume idx(c) <=
idx(-c).  Both are harmless: among all translated or negated images of
a set that contain 0, one with the smallest possible second element
satisfies the inequality (negating an offender produces an image whose
second element is smaller).

max_sidon, enumerate_sidon and extend_sidon all run one walker, _dfs,
which calls a visit(stack, start) hook at every node: True stops the
walk, False skips the node's children, None descends.
"""

from __future__ import annotations

import math

import sympy

from .groups import AbelianGroup, automorphism_perm, automorphisms
from .sidon import counting_bound, is_perfect_difference_set, is_sidon, subgroup_union_cover

TABLE_CAP = 512


class SearchError(ValueError):
    pass


class BudgetExceeded(SearchError):
    """The node budget ran out before the search finished."""


def _tables(group):
    """(sub, neg): index tables for e_i - e_j and -e_i."""
    n = group.order
    if n > TABLE_CAP:
        raise SearchError(f"group order {n} above search cap {TABLE_CAP}")
    coords = [group.coords_of(i) for i in range(n)]
    neg = [group.index_of(group.neg_coords(c)) for c in coords]
    sub = [
        [group.index_of(group.sub_coords(a, b)) for b in coords] for a in coords
    ]
    return sub, neg


class SearchResult:
    def __init__(self, group, indices, nodes, complete, best_possible=None):
        self.group = group
        self.indices = tuple(indices)
        self.size = len(self.indices)
        self.nodes = nodes
        self.complete = complete
        self.best_possible = best_possible

    @property
    def elements(self):
        return [self.group.element(self.group.coords_of(i)) for i in self.indices]

    def to_json(self):
        return {
            "group": list(self.group.factors),
            "set": [e.to_json() for e in self.elements],
            "size": self.size,
            "nodes": self.nodes,
            "complete": self.complete,
        }


def _dfs(sub, neg, stack, used, start, budget, label, visit, halve):
    """Depth-first walk over the Sidon sets that extend stack by indices >= start.

    used marks every difference of stack and its negative; visit follows
    the module docstring's hook contract.  halve applies the idx(c) <=
    idx(-c) reduction to the second element, which is sound only for the
    start stack [0].  Returns the number of nodes visited.
    """
    n = len(neg)
    nodes = 0

    def walk(start):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(f"{label} budget {budget} exhausted")
        verdict = visit(stack, start)
        if verdict is not None:
            return verdict
        halving = halve and len(stack) == 1
        for c in range(start, n):
            if halving and neg[c] < c:
                continue
            row = sub[c]
            fresh = []
            ok = True
            for s in stack:
                d = row[s]
                if used[d] or used[neg[d]] or d == neg[d]:
                    ok = False
                    break
                used[d] = 1
                used[neg[d]] = 1
                fresh.append(d)
            if ok:
                stack.append(c)
                done = walk(c + 1)
                stack.pop()
            else:
                done = False
            for d in fresh:
                used[d] = 0
                used[neg[d]] = 0
            if done:
                return True
        return False

    walk(start)
    return nodes


def max_sidon(group, budget=5_000_000):
    """A maximum Sidon set, found by depth-first search.

    complete=False means the budget ran out and the result is only a
    lower bound.  The counting bound stops the search early once it is
    attained.
    """
    n = group.order
    if n == 1:
        return SearchResult(group, (0,), 1, True, 1)
    sub, neg = _tables(group)
    bound = counting_bound(n)
    best = [()]

    def visit(stack, start):
        if len(stack) > len(best[0]):
            best[0] = tuple(stack)
            if len(stack) == bound:
                return True
        # even taking every remaining index cannot beat the best
        if len(stack) + (n - start) <= len(best[0]):
            return False
        return None

    try:
        nodes = _dfs(sub, neg, [0], bytearray(n), 1, budget, "search", visit, True)
    except BudgetExceeded:
        return SearchResult(group, best[0], budget + 1, False, bound)
    return SearchResult(group, best[0], nodes, True, bound)


def canonical_form(group, S, sub=None):
    """Lex-least index tuple among all translates of S and -S."""
    if sub is None:
        sub, _ = _tables(group)
    idxs = sorted({group.index_of(group.element(s).coords) for s in S})
    best = None
    for a in idxs:
        for row in (
            tuple(sorted(sub[s][a] for s in idxs)),
            tuple(sorted(sub[a][s] for s in idxs)),
        ):
            if best is None or row < best:
                best = row
    return best


def enumerate_sidon(group, size=None, budget=5_000_000):
    """All Sidon sets up to translation and negation, as canonical tuples.

    A set is emitted when it equals its own canonical form, so each
    equivalence class appears exactly once.  size filters to one
    cardinality; None returns every nonempty class, sorted.
    """
    n = group.order
    if n == 1:
        return [(0,)] if size in (None, 1) else []
    sub, neg = _tables(group)
    out = []

    def visit(stack, start):
        if size is None or len(stack) == size:
            cand = tuple(stack)
            if canonical_form(group, [group.coords_of(i) for i in cand], sub) == cand:
                out.append(cand)
            if size is not None:
                return False
        return None

    _dfs(sub, neg, [0], bytearray(n), 1, budget, "enumeration", visit, True)
    return sorted(out)


def affine_classes(group, canonicals):
    """Merge translation/negation classes into affine equivalence classes.

    Every automorphism maps a canonical tuple to some canonical tuple;
    the class leader is the least canonical form in the orbit.
    """
    sub, _ = _tables(group)
    perms = [automorphism_perm(group, a) for a in automorphisms(group)]
    leaders = {}
    for cand in canonicals:
        orbit = set()
        for perm in perms:
            image = [group.coords_of(perm[i]) for i in cand]
            orbit.add(canonical_form(group, image, sub))
        leaders.setdefault(min(orbit), []).append(cand)
    return leaders


def extend_sidon(group, S, target, budget=5_000_000):
    """Complete a Sidon set to the target size, or prove it impossible.

    Returns a SearchResult; size == target and complete=True on success,
    a smaller set with complete=True when no completion exists.
    """
    sub, neg = _tables(group)
    idxs = sorted({group.index_of(group.element(s).coords) for s in S})
    rep = is_sidon(group, [group.coords_of(i) for i in idxs])
    if not rep.sidon:
        raise SearchError(f"starting set is not Sidon: {rep.witness}")
    if len(idxs) > target:
        raise SearchError("starting set is already larger than the target")
    used = bytearray(group.order)
    for i, a in enumerate(idxs):
        for b in idxs[:i]:
            used[sub[a][b]] = 1
            used[sub[b][a]] = 1
    found = [tuple(idxs)]

    def visit(stack, start):
        if len(stack) == target:
            found[0] = tuple(stack)
            return True
        return None

    # S need not contain 0, so the negation halving does not apply
    nodes = _dfs(sub, neg, list(idxs), used, 0, budget, "extension", visit, False)
    return SearchResult(group, found[0], nodes, True)


class TesterReport:
    """Outcome of a conjecture tester: per-class records plus a verdict."""

    def __init__(self, name, params, classes, ok):
        self.name = name
        self.params = params
        self.classes = classes
        self.ok = ok

    def to_json(self):
        return {
            "tester": self.name,
            "params": self.params,
            "classes": self.classes,
            "n_classes": len(self.classes),
            "ok": self.ok,
        }


def test_T_subgroup(p, budget=5_000_000):
    """Dense Sidon sets in (Z/p)^2: is every T-set a union of subgroups?

    Census of size-p Sidon sets up to the full affine group (all group
    automorphisms and translations), then a cover search on each T-set.
    """
    if not sympy.isprime(p):
        raise SearchError(f"{p} is not prime")
    group = AbelianGroup((p, p))
    cands = enumerate_sidon(group, size=p, budget=budget)
    classes = []
    ok = True
    for leader in sorted(affine_classes(group, cands)):
        elems = [group.coords_of(i) for i in leader]
        rep = is_sidon(group, elems)
        t_idx = sorted(group.index_of(t.coords) for t in rep.t_set)
        cover = subgroup_union_cover(group, rep.t_set, k_max=max(1, len(rep.t_set)))
        holds = bool(cover)
        if not cover.conclusive:
            raise SearchError("cover search was inconclusive")  # pragma: no cover
        ok = ok and holds
        classes.append(
            {
                "set": list(leader),
                "t_set": t_idx,
                "union_of_subgroups": holds,
                "n_subgroups": None if cover.cover is None else len(cover.cover),
            }
        )
    return TesterReport("T_subgroup", {"p": p, "size": p}, classes, ok)


def test_extendable(p, budget=5_000_000):
    """In Z/(p^2+p+1): does every Sidon set grow to a perfect difference set?

    Every Sidon class is completed to size p+1; a completion of that size
    covers all p^2+p nonzero differences, so it is checked as a perfect
    difference set rather than merely a Sidon set.
    """
    if not sympy.isprime(p):
        raise SearchError(f"{p} is not prime")
    n = p * p + p + 1
    group = AbelianGroup.cyclic(n)
    target = p + 1
    classes = []
    ok = True
    for cand in enumerate_sidon(group, budget=budget):
        res = extend_sidon(group, [group.coords_of(i) for i in cand], target, budget)
        extends = res.size == target
        record = {"set": list(cand), "extends": extends}
        if extends:
            perfect = is_perfect_difference_set(
                group, [group.coords_of(i) for i in res.indices]
            )
            record["completion"] = list(res.indices)
            record["perfect"] = perfect
            extends = extends and perfect
        ok = ok and extends
        classes.append(record)
    return TesterReport("extendable", {"p": p, "n": n, "target": target}, classes, ok)


# ---------------------------------------------------------------------------
# which orders can carry a dense Sidon set

ORDER_FORMS = (
    ("(q-1)^2", lambda q: (q - 1) ** 2),
    ("q(q-1)", lambda q: q * (q - 1)),
    ("q^2", lambda q: q * q),
    ("q^2-1", lambda q: q * q - 1),
    ("q^2+q+1", lambda q: q * q + q + 1),
    ("q^2-sqrt(q)", None),  # square q only, handled separately
)


def admissible_orders(n):
    """All ways to write n in one of the dense-construction order shapes.

    Returns [(form, q), ...] with integer q > 1, sorted by (form, q).
    The shapes are (q-1)^2, q(q-1), q^2, q^2-1, q^2+q+1 for any integer
    q > 1, plus q^2 - sqrt(q) for square q.
    """
    if n < 1:
        raise SearchError(f"need n >= 1, got {n}")
    hits = []
    for form, value in ORDER_FORMS:
        if value is None:
            # q = r^2, n = r^4 - r
            for r in range(2, max(3, math.isqrt(math.isqrt(n)) + 2)):
                if r**4 - r == n:
                    hits.append((form, r * r))
                elif r**4 - r > n:
                    break
            continue
        lo, hi = 2, max(3, 2 * math.isqrt(n) + 3)
        while lo <= hi:
            mid = (lo + hi) // 2
            v = value(mid)
            if v == n:
                hits.append((form, mid))
                break
            if v < n:
                lo = mid + 1
            else:
                hi = mid - 1
    return sorted(hits)


def sigma_table(orders, budget=5_000_000):
    """{n: maximum Sidon size in Z/n} for the given orders."""
    out = {}
    for n in orders:
        res = max_sidon(AbelianGroup.cyclic(n), budget)
        if not res.complete:
            raise BudgetExceeded(f"sigma({n}) did not finish")
        out[n] = res.size
    return out
