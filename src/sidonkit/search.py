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

Reductions.  The searches walk only lex-leaders: sets of indices,
compared as sorted tuples, that no map x -> a(x - t) makes smaller, with
t in the set and a in a group of automorphisms: the units u mod the
exponent, as x -> ux, for max_sidon; u = +-1 for enumerate_sidon;
Aut(G), as index permutations, for test_T_subgroup.  Translations and
automorphisms keep sets Sidon, so the images a(T - t) of a Sidon set T
are Sidon sets of T's size that contain 0, and the least image L of T is
a lex-leader that contains 0.

- The cut.  Let P = (0, p1, ..., pm) be a node and g such a map, with t
  in P, and g(P) < P.  A set S walked below P is P followed by larger
  indices.  g(S) contains g(P), so the i-th least element of g(S) is at
  most the i-th least of g(P).  Let j be the first place where g(P)
  and P differ, so g(P)_j < p_j: either g(S) is already below S before
  place j, or it agrees with S there and g(S)_j <= g(P)_j < p_j = S_j.
  So g(S) < S, and no lex-leader lies below P: P is cut with its
  subtree.  A lex-leader L is never cut, as a prefix P of L with
  g(P) < P would give g(L) < L.
- Size 2.  The second element p1 of a lex-leader is least in its orbit
  under the group (a map v with idx(v p1) < p1 would give vL < L), so
  the walk starts from those: the divisors of n below n for Z/n under
  every unit, the c with c <= -c (as indices) under u = +-1, index 1
  alone for (Z/p)^2 under Aut(G).
- The test, _Indices.lowers, is exact and costs O(|P|^2) table lookups:
  an image a(P - t) holds 0 and beats P only if its second element, the
  least a(p - t), is at most p1.  So P is cut at once when a difference
  p - t has its orbit minimum below p1, and otherwise only the maps
  that send a difference onto p1 have their images built and compared.
- max_sidon keeps the sets it returned without the cut: at each size k,
  the first k-set the walk meets is the least k-set that contains 0
  with a root as second element, and that set is a lex-leader, since
  its least image is a k-set of the same kind.  So a complete walk
  still proves sigma and returns the same witness.  It tests a
  node of size k >= 3 only when 2k <= floor + 2, that is when P's
  nonzero elements are at most half of the floor, the size of a set
  that the walk still has to beat: the test's cost grows with k and
  the subtree it can remove shrinks with floor + 1 - k.  At a node that
  sets a new best, k is the floor and nothing is tested, so the dive to
  a first large set, most of a short search, pays nothing.  Measured
  on 2 vCPUs, sigma(40) to sigma(100) took 12-15 s in all with this
  rule, 17-21 s when testing sizes 3-4 and 11-13 s for sizes 3-5; but
  sizes 3-5 took sigma(50), whose 77 nodes are almost all that dive,
  from 0.15 ms to 0.3-0.5 ms, and this rule to 0.1 ms.
- _census (enumerate_sidon, test_T_subgroup) tests every node of size
  >= 3, and a survivor S is least among its images a(S) + c, whose least
  holds 0: it is its class's least member and is emitted as it is.  For
  (Z/7)^2 under Aut(G) that walk takes 216 nodes; under +-1, 22 523.
- extend_sidon starts from a given set, which need not contain 0, and
  uses no reduction.  It walks with floor target - 1: a node that
  cannot reach the target is pruned by the look-ahead below, and its
  hook acts only at the target, above the floor.

The tables behind these tests, and the walker's, are built once per
group: _indices keeps the _Indices of the last INDEX_CACHE groups.  A
census asks for sigma(50) sixty times, and the tables for Z/50 take
longer to build than its search; the cache is bounded because an entry
for order n holds O(n) masks of up to 2n bits, about 0.3 MB at n = 512.

max_sidon and extend_sidon also prune by look-ahead: every set below a
node uses only the node's available indices, so a node with |S| +
popcount(cand & ~F) <= the floor (for max_sidon the best size so far)
has nothing better below it.  Most nodes of a sigma(n) proof are leaves
cut this way, so the test is first made in the parent, before the child
S' = S u {x} is pushed, on the partial mask

    P = (x + D)  u  (Sigma - x)

of the parent's D and Sigma: two translates, and no pass over S.  P
lies in F' (push formula above), so |S'| + popcount(cand' & ~P) <= the
floor implies the full test prunes S' too.  A child P rejects is counted
as a node but neither visited nor pushed; any other child is visited,
pushed and tested in full as before.  The walk thus goes through the
same tree, with the same node counts and budget exhaustion points, as
one that pushes every child first.  Enumeration must visit every set,
so it walks without a floor.

max_sidon, enumerate_sidon and extend_sidon all run _dfs, which calls a
visit(stack) hook at every node it walks, the root included, before
computing the node's masks: True stops the walk, False skips the
children, None descends.  A child rejected in its parent never reaches
the hook, so a hook used with a floor must record nothing at nodes of
size <= the floor; it may cut them, as such a node is a leaf either
way.  max_sidon's hook records only sets larger than the best so far,
whose size is the floor, and cuts by the size rule above.
"""

from __future__ import annotations

import collections
import functools
import math

from .groups import AbelianGroup, automorphisms, linear_table
from .ntheory import isprime
from .sidon import counting_bound, is_perfect_difference_set, is_sidon, subgroup_union_cover

TABLE_CAP = 512
# groups whose index tables _indices keeps
INDEX_CACHE = 8


class SearchError(ValueError):
    pass


class BudgetExceeded(SearchError):
    """The node budget ran out before the search finished."""


_Orbits = collections.namedtuple("_Orbits", "orbit_min into fix roots perms")
_Orbits.__doc__ = """The orbits of the indices under a group of maps, units u
acting as x -> ux (perms None) or positions in the index permutations perms:
orbit_min[c] is the least index in c's orbit, into[c] a map that sends c onto
it, fix[m] the maps fixing the orbit minimum m, and roots the mask of the
nonzero orbit minima."""


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
        # every attribute of the object through its dict, which made a
        # canonical form built from mask translates about 40 % slower
        self.push, self.reach, self.start = self._walk_ops()
        e = group.exponent
        self.units = self._orbits([u for u in range(1, e + 1) if math.gcd(u, e) == 1])
        # signs is made on first use (max_sidon never reads it); None here
        self._signs = None

    @property
    def signs(self):
        """The _Orbits under u = +-1."""
        if self._signs is None:
            e = self.group.exponent
            self._signs = self._orbits([1, e - 1] if e > 2 else [1])
        return self._signs

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

    def _orbits(self, maps, perms=None):
        """The _Orbits of the indices under maps: a group of units mod the
        exponent, acting as x -> ux, or the positions of a group of index
        permutations perms."""
        g, n = self.group, self.n
        if perms is None:
            inverse = [pow(u, -1, g.exponent) for u in maps]
        else:
            # sorting the indices by their images lists the inverse
            position = {tuple(perm): a for a, perm in zip(maps, perms)}
            inverse = [position[tuple(sorted(range(n), key=perm.__getitem__))] for perm in perms]
        orbit_min, into, fix, roots = [0] * n, [0] * n, {}, 0
        seen = bytearray(n)
        for c in range(n):
            if seen[c]:
                continue
            if c:
                roots |= 1 << c
            if perms is not None:
                orbit = [perms[a][c] for a in maps]
            elif self.cyclic:
                orbit = [u * c % n for u in maps]
            else:
                orbit = [g.smul(u, c) for u in maps]
            fix[c] = [u for u, d in zip(maps, orbit) if d == c]
            for d, v in zip(orbit, inverse):
                if not seen[d]:
                    seen[d] = 1
                    orbit_min[d] = c
                    into[d] = v
        return _Orbits(orbit_min, into, fix, roots, perms)

    def lowers(self, stack, orbits):
        """Whether some map x -> a(x - t), t in stack and a in the map
        group of orbits, sends stack to a lex-smaller tuple.

        stack is a sorted list of indices (0, p1, ...), at least three of
        them.  An image a(stack - t) holds 0, and it is smaller only if
        its second element, the least a(p - t) with p != t, is at most p1.
        So stack is lowered at once when some difference p - t has its
        orbit minimum below p1, and otherwise only by the maps that send
        a difference onto p1 itself: those images are built and compared.
        Each pair is looked at once, as -1 is in every map group here:
        p - t and t - p share their orbit, and -r (for units) or into[t - p]
        sends t - p onto p1 when r sends p - t there.
        """
        orbit_min, into, fix, _, perms = orbits
        p1 = stack[1]
        e = self.group.exponent
        cyclic, n, sub, smul = self.cyclic, self.n, self.group.sub, self.group.smul
        onto = []
        # the pairs with the last index first: in the walk its parent has
        # passed, so a cut at once is most often found among them
        for j in range(len(stack) - 1, 0, -1):
            p = stack[j]
            for t in stack[:j]:
                d = p - t if cyclic else sub(p, t)
                m = orbit_min[d]
                if m < p1:
                    return True
                if m == p1:
                    r = into[d]
                    onto += ((r, t), (e - r if perms is None else into[self.neg[d]], p))
        if perms is not None:
            for r, t in onto:
                # the comprehensions read perm, not perms or stack: a name
                # read in one becomes a cell, slower in the pair loop above
                perm = perms[r]
                moved = [perm[sub(q, t)] for q in stack]
                for s in fix[p1]:
                    perm = perms[s]
                    if sorted([perm[x] for x in moved]) < stack:
                        return True
            return False
        for r, t in onto:
            for s in fix[p1]:
                u = s * r % e
                if u == 1 and not t:
                    continue
                if cyclic:
                    image = [u * (q - t) % n for q in stack]
                else:
                    image = [smul(u, sub(q, t)) for q in stack]
                if sorted(image) < stack:
                    return True
        return False

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


@functools.lru_cache(maxsize=INDEX_CACHE)
def _indices(factors):
    """The _Indices of the group with these invariant factors, from a
    bounded cache (see the module docstring)."""
    return _Indices(AbelianGroup(factors))


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
    ix = _indices(group.factors)
    bound = counting_bound(group.order)
    best = ()
    floor = [0]

    def visit(stack):
        nonlocal best
        k = len(stack)
        if k > len(best):
            best = tuple(stack)
            floor[0] = k
            if k == bound:
                return True
        if 3 <= k and 2 * k <= floor[0] + 2 and ix.lowers(stack, ix.units):
            return False
        return None

    try:
        nodes = _dfs(ix, [0], ix.units.roots, budget, "search", visit, floor)
    except BudgetExceeded:
        return SearchResult(group, best, budget + 1, False, bound)
    return SearchResult(group, best, nodes, True, bound)


def canonical_form(group, S):
    """Lex-least index tuple among all translates of S and -S: the least
    of them holds 0, so it is one of the sets S - t and t - S, t in S."""
    idxs = {group.element(s).index for s in S}
    sub = group.sub
    images = [sorted(sub(x, t) for x in idxs) for t in idxs]
    images += [sorted(sub(t, x) for x in idxs) for t in idxs]
    return tuple(min(images, default=()))


def _census(ix, orbits, size, budget):
    """The sorted Sidon lex-leaders under the map group of orbits, all or
    those of the given size: each class of Sidon sets under the maps
    x -> a(x) + c appears once, as its least member."""
    out = []

    def visit(stack):
        k = len(stack)
        if k >= 3 and ix.lowers(stack, orbits):
            return False
        if size is None or k == size:
            out.append(tuple(stack))
            if size is not None:
                return False
        return None

    _dfs(ix, [0], orbits.roots, budget, "enumeration", visit)
    return sorted(out)


def enumerate_sidon(group, size=None, budget=5_000_000):
    """All Sidon sets up to translation and negation, as canonical tuples:
    the census under u = +-1.  size filters to one cardinality; None
    returns every nonempty class, sorted."""
    ix = _indices(group.factors)
    return _census(ix, ix.signs, size, budget)


def _automorphism_orbits(ix):
    """The _Orbits of the indices under Aut(G), listed as permutations."""
    g = ix.group
    perms = [linear_table(g, [g.index_of(c) for c in images], g.factors)
             for images in automorphisms(g)]
    return ix._orbits(range(len(perms)), perms)


def extend_sidon(group, S, target, budget=5_000_000):
    """Complete a Sidon set to the target size, or prove it impossible.

    Returns a SearchResult; size == target and complete=True on success,
    a smaller set with complete=True when no completion exists.
    """
    ix = _indices(group.factors)
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

    # idxs need not contain 0, so no symmetry reduction applies; a node
    # that cannot reach target indices is pruned, and the hook acts only
    # at target, above that floor
    nodes = _dfs(ix, list(idxs), ix.full, budget, "extension", visit, (target - 1,))
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
    ix = _indices(group.factors)
    classes = []
    ok = True
    for leader in _census(ix, _automorphism_orbits(ix), p, budget):
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
    ix = _indices(group.factors)
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
