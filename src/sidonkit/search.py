"""Exhaustive Sidon-set search: maxima, census, conjecture testers.

All searches run over element indices (mixed radix, as
AbelianGroup.index_of) and keep sets of indices as Python-int bitmasks:
bit c stands for the element of index c.  The negation and halving
tables and the unit orbits come from the group's index arithmetic
(AbelianGroup.neg, add and smul); only mask translates are computed here.

The walker, _dfs, extends a stack S of indices.  With D = S - S (0
included) and Sigma = S + S it keeps one mask F of forbidden indices,

    F = (S + D)  u  {c : 2c in Sigma},

and S u {c} is Sidon exactly when c is not in F: the new differences
+-(c - s) must avoid the old ones (c in S + D, which holds S itself) and
each other (c - s = s' - c, that is 2c = s + s').  Pushing x gives
S' = S u {x}, D' = D u +-(x - S'), Sigma' = Sigma u (x + S') and

    F' = F  u  (x + D')  u  (Sigma' - x)  u  {c : 2c in x + S'},

because S + (x - S') lies in x + D' and S + (S' - x) in Sigma' - x.  So
a push costs one pass over S (the new differences and sums) and two
translates of a mask.  A translate is a rotation for Z/n, and a masked
shift per coordinate for Z/a_1 x ... x Z/a_r.  A node's children are the
set bits of cand & ~F, its candidates above the last index pushed.

Reductions.  max_sidon and enumerate_sidon only walk sets that contain
0 (slide any set by one of its elements).  Their second element, the
least nonzero index, is restricted further:

- max_sidon keeps only second elements that are least in their orbit
  under x -> ux for u a unit mod the exponent; for Z/n these are the
  divisors of n below n.  Translations and the maps x -> ux are
  automorphisms of the Sidon property, so every image u(T - a), a in T,
  of a Sidon set T is a Sidon set of T's size that contains 0.  Take
  one whose second element y is least.  If a unit v had idx(vy) <
  idx(y), the image vu(T - a) would contain 0 and vy and so beat it;
  hence y is an orbit minimum and the walk reaches a set of T's size.
  Negation is the unit u = -1, so the rule contains the
  translate-and-negate halving idx(c) <= idx(-c).
- enumerate_sidon emits one set per class up to translation and
  negation only, so it keeps that halving: a class whose canonical form
  has a second element that some other unit lowers must still be
  walked.
- extend_sidon starts from a given set, which need not contain 0, and
  uses no reduction.

max_sidon also prunes by look-ahead: every set below a node uses only
the node's available indices, so a node with |S| + popcount(cand & ~F)
<= the best size so far has nothing better below it.  Most nodes of a
sigma(n) proof are leaves cut this way, so the test is first made in the
parent, before the child S' = S u {x} is pushed, on the partial mask

    P = (x + D)  u  (Sigma - x)

of the parent's D and Sigma: two translates, and no pass over S.  P
lies in F' (push formula above), so |S'| + popcount(cand' & ~P) <= the
floor implies the full test prunes S' too.  A child P rejects is counted
as a node but neither visited nor pushed; any other child is visited,
pushed and tested in full as before.  The walk thus goes through the
same tree, with the same node counts and budget exhaustion points, as
one that pushes every child first.  Enumeration must visit every set,
and extension walks its tree unpruned as well.

max_sidon, enumerate_sidon and extend_sidon all run _dfs, which calls a
visit(stack) hook at every node it walks, the root included, before
computing the node's masks: True stops the walk, False skips the
children, None descends.  A child rejected in its parent never reaches
the hook, so a hook used with a floor must do nothing at nodes of size
<= the floor.  max_sidon's hook acts only on sets larger than the best
so far, whose size is the floor.
"""

from __future__ import annotations

import math

from .groups import AbelianGroup, automorphisms, endo_apply
from .ntheory import isprime
from .sidon import counting_bound, is_perfect_difference_set, is_sidon, subgroup_union_cover

TABLE_CAP = 512


class SearchError(ValueError):
    pass


class BudgetExceeded(SearchError):
    """The node budget ran out before the search finished."""


class _Indices:
    """Index arithmetic of one group: negation, translates of masks, and
    the walker's push and reach (see _walk_ops)."""

    def __init__(self, group):
        n = group.order
        if n > TABLE_CAP:
            raise SearchError(f"group order {n} above search cap {TABLE_CAP}")
        self.group = group
        self.n = n
        self.full = (1 << n) - 1
        self.cyclic = group.rank == 1
        self.neg = list(map(group.neg, range(n)))
        # moves[t]: (keep, up, down) per coordinate where t's digit k is
        # nonzero; keep marks the indices whose digit stays below the
        # modulus m after adding k, which move up by k weights, the
        # others wrap down by m - k weights
        self.moves = []
        if not self.cyclic:
            axes = []
            w = n
            for m in group.factors:
                w //= m
                axes.append((w, m, [self.mask(lambda i: (i // w) % m < m - k, 0)
                                    for k in range(m)]))
            for t in range(n):
                digits = group.coords_of(t)
                self.moves.append([(keep[k], k * w, (m - k) * w)
                                   for (w, m, keep), k in zip(axes, digits) if k])
        # built here, not on first use: an attribute written later through
        # __dict__ (as by functools.cached_property) makes CPython read
        # every attribute of the object through its dict, which made
        # _canonical about 40 % slower
        self.push, self.reach, self.start = self._walk_ops()

    def mask(self, pred, lo=1):
        """The mask of the indices i >= lo with pred(i)."""
        return sum(1 << i for i in range(lo, self.n) if pred(i))

    def shift(self, M, t):
        """The mask M translated by the element of index t."""
        if self.cyclic:
            return (M << t | M >> (self.n - t)) & self.full
        for keep, up, down in self.moves[t]:
            lo = M & keep
            M = lo << up | (M ^ lo) >> down
        return M

    def unit_minima(self):
        """The mask of the nonzero indices that are least in their orbit
        under x -> ux, u a unit mod the exponent."""
        g = self.group
        units = [u for u in range(2, g.exponent) if math.gcd(u, g.exponent) == 1]
        seen = bytearray(self.n)
        out = 0
        for c in range(1, self.n):
            if not seen[c]:
                out |= 1 << c
                for u in units:
                    seen[g.smul(u, c)] = 1
        return out

    def _walk_ops(self):
        """(push, reach, start): push(state, stack) is the walk state of
        stack from that of stack[:-1], reach(D, Sigma, x) the mask
        (x + D) u (Sigma - x), and start the state of the empty stack.  A
        state is (F, D, Sigma) of the module docstring, for rank >= 2
        followed by the masks of S and -S.  For Z/n, D and Sigma are held
        doubled, M | M << n, so that each rotation in reach is one shift.
        F and reach's mask may carry bits at n and above."""
        n, g = self.n, self.group
        halves = [0] * n
        for c in range(n):
            halves[g.add(c, c)] |= 1 << c
        if self.cyclic:
            # indices x - s in (-n, n) and x + s in [0, 2n) read these
            # tables directly; pm and sums hold doubled masks, and F takes
            # the rotations' overflow unmasked
            double = 1 | 1 << n
            pm = [((1 << d) | (1 << (-d % n))) * double for d in range(n)]
            sums = [(1 << (t % n)) * double for t in range(2 * n)]
            halves += halves

            def reach(D, Sigma, x):
                # bits i < n: D's at i - x mod n, Sigma's at i + x mod n
                return D >> (n - x) | Sigma >> x

            def push(state, stack):
                F, D, Sigma = state
                x = stack[-1]
                for s in stack:
                    D |= pm[x - s]
                    t = x + s
                    Sigma |= sums[t]
                    F |= halves[t]
                return F | reach(D, Sigma, x), D, Sigma

            return push, reach, (0, 0, 0)

        shift, neg = self.shift, self.neg

        def reach(D, Sigma, x):
            return shift(D, x) | shift(Sigma, neg[x])

        def push(state, stack):
            F, D, Sigma, S, N = state
            x = stack[-1]
            S |= 1 << x
            N |= 1 << neg[x]
            # the new differences x - S and S - x, and the new sums x + S
            D |= shift(N, x) | shift(S, neg[x])
            sums = shift(S, x)
            Sigma |= sums
            while sums:
                low = sums & -sums
                sums ^= low
                F |= halves[low.bit_length() - 1]
            return F | reach(D, Sigma, x), D, Sigma, S, N

        return push, reach, (0, 0, 0, 0, 0)


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


def _dfs(ix, stack, roots, budget, label, visit, floor=(0,)):
    """Depth-first walk over the Sidon sets that extend stack, first by an
    index in the mask roots and then by increasing indices.

    stack must be Sidon.  visit(stack) is called at every node walked,
    the root included, before the node's masks are computed: True stops
    the walk, False skips the node's children, None descends.  A node is
    pruned when its stack and available indices together cannot exceed
    floor[0].  A child of size <= floor[0] that the partial mask of the
    module docstring already prunes is counted but never visited, so a
    hook used with a floor must do nothing at nodes of size <= floor[0].
    Returns the number of nodes counted.
    """
    push, reach, state = ix.push, ix.reach, ix.start
    for i in range(1, len(stack)):
        state = push(state, stack[:i])

    nodes = 1
    if nodes > budget:
        raise BudgetExceeded(f"{label} budget {budget} exhausted")
    if visit(stack) is not None:
        return nodes
    if stack:
        state = push(state, stack)
    avail = ix.full & ~state[0]
    if len(stack) + avail.bit_count() <= floor[0]:
        return nodes

    def walk(state, avail, kids):
        # stack is a walked node: state holds its masks, avail its
        # available indices, and kids the children to try
        nonlocal nodes
        k = len(stack) + 1
        D, Sigma = state[1], state[2]
        while kids:
            low = kids & -kids
            kids ^= low
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(f"{label} budget {budget} exhausted")
            x = low.bit_length() - 1
            # the child's candidates: this node's, above the child
            above = avail & -(low << 1)
            # pruned on the partial mask, it is a leaf the hook ignores
            if k <= floor[0] and k + (above & ~reach(D, Sigma, x)).bit_count() <= floor[0]:
                continue
            stack.append(x)
            verdict = visit(stack)
            if verdict is None:
                child = push(state, stack)
                sub = above & ~child[0]
                if k + sub.bit_count() > floor[0]:
                    verdict = walk(child, sub, sub)
            stack.pop()
            if verdict:
                return True
        return False

    walk(state, avail, avail & roots)
    return nodes


def max_sidon(group, budget=5_000_000):
    """A maximum Sidon set, found by depth-first search.

    complete=False means the budget ran out and the result is only a
    lower bound.  The counting bound stops the search early once it is
    attained.
    """
    ix = _Indices(group)
    bound = counting_bound(group.order)
    best = ()
    floor = [0]

    def visit(stack):
        nonlocal best
        if len(stack) > len(best):
            best = tuple(stack)
            floor[0] = len(best)
            if len(best) == bound:
                return True
        return None

    try:
        nodes = _dfs(ix, [0], ix.unit_minima(), budget, "search", visit, floor)
    except BudgetExceeded:
        return SearchResult(group, best, budget + 1, False, bound)
    return SearchResult(group, best, nodes, True, bound)


def _canonical(ix, idxs):
    """Lex-least index tuple among all translates of idxs and -idxs.

    Rows are compared as masks: of two sets of one size, the lex-smaller
    sorted tuple holds the least element of their symmetric difference.
    """
    S = N = 0
    for i in idxs:
        S |= 1 << i
        N |= 1 << ix.neg[i]
    best = 0
    for a in idxs:
        for row in (ix.shift(S, ix.neg[a]), ix.shift(N, a)):
            x = row ^ best
            if not best or row & x & -x:
                best = row
    out = []
    while best:
        low = best & -best
        best ^= low
        out.append(low.bit_length() - 1)
    return tuple(out)


def canonical_form(group, S):
    """Lex-least index tuple among all translates of S and -S."""
    return _canonical(_Indices(group), sorted({group.element(s).index for s in S}))


def enumerate_sidon(group, size=None, budget=5_000_000):
    """All Sidon sets up to translation and negation, as canonical tuples.

    A set is emitted when it equals its own canonical form, so each
    equivalence class appears exactly once.  size filters to one
    cardinality; None returns every nonempty class, sorted.
    """
    ix = _Indices(group)
    out = []

    def visit(stack):
        if size is None or len(stack) == size:
            cand = tuple(stack)
            if _canonical(ix, cand) == cand:
                out.append(cand)
            if size is not None:
                return False
        return None

    halving = ix.mask(lambda c: c <= ix.neg[c])
    _dfs(ix, [0], halving, budget, "enumeration", visit)
    return sorted(out)


def affine_classes(group, canonicals):
    """Merge translation/negation classes into affine equivalence classes.

    Every automorphism maps a canonical tuple to some canonical tuple;
    the class leader is the least canonical form in the orbit.  Each
    automorphism is applied to the tuple's elements only, and each orbit
    is computed once: its members share it.
    """
    ix = _Indices(group)
    auts = list(automorphisms(group))
    leader_of = {}
    leaders = {}
    for cand in canonicals:
        if cand not in leader_of:
            coords = [group.coords_of(i) for i in cand]
            orbit = {
                _canonical(ix, [group.index_of(endo_apply(group, a, c)) for c in coords])
                for a in auts
            }
            leader = min(orbit)
            leader_of.update(dict.fromkeys(orbit, leader))
        leaders.setdefault(leader_of[cand], []).append(cand)
    return leaders


def extend_sidon(group, S, target, budget=5_000_000):
    """Complete a Sidon set to the target size, or prove it impossible.

    Returns a SearchResult; size == target and complete=True on success,
    a smaller set with complete=True when no completion exists.
    """
    ix = _Indices(group)
    idxs = sorted({group.element(s).index for s in S})
    rep = is_sidon(group, [group.coords_of(i) for i in idxs])
    if not rep.sidon:
        raise SearchError(f"starting set is not Sidon: {rep.witness}")
    if len(idxs) > target:
        raise SearchError("starting set is already larger than the target")
    return SearchResult(group, *_extend(ix, idxs, target, budget), True)


def _extend(ix, idxs, target, budget):
    """(found, nodes): a Sidon set of target indices that contains the
    Sidon index tuple idxs, or idxs itself when there is none, and the
    nodes walked to decide it."""
    found = tuple(idxs)

    def visit(stack):
        nonlocal found
        if len(stack) == target:
            found = tuple(stack)
            return True
        return None

    # idxs need not contain 0, so no symmetry reduction applies
    nodes = _dfs(ix, list(idxs), ix.full, budget, "extension", visit)
    return found, nodes


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
    if not isprime(p):
        raise SearchError(f"{p} is not prime")
    group = AbelianGroup((p, p))
    cands = enumerate_sidon(group, size=p, budget=budget)
    classes = []
    ok = True
    for leader in sorted(affine_classes(group, cands)):
        elems = [group.coords_of(i) for i in leader]
        rep = is_sidon(group, elems)
        t_idx = sorted(t.index for t in rep.t_set)
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
    if not isprime(p):
        raise SearchError(f"{p} is not prime")
    n = p * p + p + 1
    group = AbelianGroup.cyclic(n)
    ix = _Indices(group)
    target = p + 1
    classes = []
    ok = True
    for cand in enumerate_sidon(group, budget=budget):
        found, _ = _extend(ix, cand, target, budget)
        extends = len(found) == target
        record = {"set": list(cand), "extends": extends}
        if extends:
            perfect = is_perfect_difference_set(group, [group.coords_of(i) for i in found])
            record["completion"] = list(found)
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
