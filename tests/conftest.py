import functools
import itertools
import math

import sympy
from hypothesis import strategies as st

from sidonkit.fields import field_extension
from sidonkit.groups import AbelianGroup, automorphisms, endo_apply, invariant_factor_form
from sidonkit.incidence import (
    PlaneCheck,
    _general_quad,
    deficiency,
    dualize,
    is_partial_linear_space,
)
from sidonkit.quadforms import BinaryQF
from sidonkit.search import BudgetExceeded


def els(group, *codes):
    """Group elements from indices (rank 1) or coordinate tuples."""
    return [group.element(c) for c in codes]


def brute_sidon(group, idxs):
    """Reference Sidon predicate via all unordered pair sums."""
    items = [group.coords_of(i) for i in idxs]
    sums = [group.add_coords(a, b) for a, b in
            itertools.combinations_with_replacement(items, 2)]
    return len(sums) == len(set(sums))


def cyclic(n):
    return AbelianGroup((n,))


def brute_span(group, gens):
    """Reference subgroup closure on coordinate tuples: the generators and
    their negatives are added to every member found until nothing is new.
    Takes and returns indices."""
    zero = (0,) * group.rank
    seen = {zero}
    frontier = [zero]
    gcoords = [group.coords_of(g) for g in gens]
    gcoords += [group.neg_coords(c) for c in gcoords]
    while frontier:
        cur = frontier.pop()
        for g in gcoords:
            nxt = group.add_coords(cur, g)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(map(group.index_of, seen))


@st.composite
def small_group(draw, max_order=2000):
    """An invariant-factor group of rank 0-3 and order at most max_order,
    the trivial group included."""
    factors = []
    for _ in range(draw(st.integers(0, 3))):
        prev, lo = (factors[-1], 1) if factors else (1, 2)
        top = min(max_order // (math.prod(factors) * prev), 12 if factors else 30)
        if top < lo:
            break
        factors.append(prev * draw(st.integers(lo, top)))
    return AbelianGroup(factors)


def brute_sidon_sets(group):
    """Every Sidon set that contains 0, as a sorted index tuple: each is
    grown one larger index at a time and kept while all its pair sums
    (with repetition) stay distinct."""
    coords = [group.coords_of(i) for i in range(group.order)]
    out = []

    def grow(S, sums, start):
        out.append(tuple(S))
        for c in range(start, group.order):
            new = [group.add_coords(coords[c], coords[s]) for s in S + [c]]
            if len(set(new)) == len(new) and not sums.intersection(new):
                grow(S + [c], sums | set(new), c + 1)

    grow([0], {group.add_coords(coords[0], coords[0])}, 1)
    return out


@st.composite
def block_edge_instance(draw, max_order=5000):
    """A group of rank 1-3 and order at most max_order with up to eight
    elements, both placed on the edges of T-set text blocks: invariant
    factors are often near multiples of 10, 100 and 1000, so that last
    blocks come out ragged, and coordinates sit mostly at 0, 1, -1 and
    next to those multiples, so that differences fall on the first and
    last indices of blocks."""
    def near_edge(v):
        return any(v % 10**e in (0, 1, 10**e - 1) for e in (2, 3))

    rank = draw(st.integers(1, 3))
    factors = []
    for i in range(rank):
        prev, used, left = max(factors, default=1), math.prod(factors), rank - i
        top = 1
        while used * (prev * (top + 1)) ** left <= max_order:
            top += 1
        steps = range(2 if i == 0 else 1, top + 1)
        edged = [a for a in steps if near_edge(prev * a)]
        factors.append(prev * draw(st.one_of(st.sampled_from(edged), st.sampled_from(steps))
                                   if edged else st.sampled_from(steps)))
    edges = []
    for n in factors:
        near = {0, 1, n - 1} | {c * 10**e + d for e in (1, 2, 3) for c in range(1, 10)
                                for d in (-1, 0, 1)}
        edges.append(st.one_of(st.sampled_from(sorted(v for v in near if v < n)),
                               st.integers(0, n - 1)))
    group = AbelianGroup(factors)
    S = draw(st.lists(st.tuples(*edges), min_size=1, max_size=8))
    return group, [group.element(c) for c in S]


def reference_dfs(ix, stack, roots, budget, label, visit, floor=(0,)):
    """Reference walker, a drop-in for sidonkit.search._dfs: every child
    is counted, visited and pushed, and only then tested against the
    floor on its full mask of forbidden indices.  The fast walker must
    walk the same tree: same nodes, same budget exhaustion points."""
    push, state = ix.push, ix.start
    for i in range(1, len(stack)):
        state = push(state, stack[:i])
    nodes = 0

    def walk(state, cand, first=-1):
        # state belongs to stack[:-1]: a node the hook stops at costs no push
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(f"{label} budget {budget} exhausted")
        verdict = visit(stack)
        if verdict is not None:
            return verdict
        if stack:
            state = push(state, stack)
        avail = cand & ~state[0]
        if len(stack) + avail.bit_count() <= floor[0]:
            return False
        kids = avail & first
        while kids:
            low = kids & -kids
            kids ^= low
            stack.append(low.bit_length() - 1)
            # the child's candidates: this node's, above the child
            done = walk(state, avail & -(low << 1))
            stack.pop()
            if done:
                return True
        return False

    walk(state, ix.full, roots)
    return nodes


def brute_adjacency(group, idxs):
    """(line_points, point_lines) of dev(S) from its definition: point p
    lies on line l iff p - l is in S, tested pair by pair on coordinates."""
    n = group.order
    S = {group.coords_of(s) for s in idxs}
    coords = [group.coords_of(i) for i in range(n)]
    on = [[group.sub_coords(coords[p], coords[l]) in S for l in range(n)] for p in range(n)]
    return (tuple(tuple(p for p in range(n) if on[p][l]) for l in range(n)),
            tuple(tuple(l for l in range(n) if on[p][l]) for p in range(n)))


def span_automorphisms(group):
    """Reference automorphism listing: every tuple of generator images
    that respects the generators' orders, kept when the images span the
    whole group (a surjective endomorphism of a finite group is
    bijective), in itertools.product order."""
    per = [[g for g in range(group.order) if group.smul(n, g) == 0] for n in group.factors]
    return [tuple(map(group.coords_of, images)) for images in itertools.product(*per)
            if len(group.span(images)) == group.order]


def hillar_rhea_order(factors):
    """|Aut(G)| for G = Z/n_1 x ... x Z/n_r, the product over primes p of
    the count for the p-part Z/p^e_1 x ... x Z/p^e_n, e_1 <= ... <= e_n
    (Hillar and Rhea, Amer. Math. Monthly 114 (2007), Thm 4.1):
    prod_k (p^d_k - p^(k-1)) * prod_j p^(e_j (n - d_j))
    * prod_i p^((e_i - 1)(n - c_i + 1)), with d_k the last and c_k the
    first (1-based) position of the exponent e_k."""
    parts = {}
    for m in factors:
        for p, e in sympy.factorint(m).items():
            parts.setdefault(p, []).append(e)
    total = 1
    for p, es in parts.items():
        es.sort()
        n = len(es)
        d = [max(l for l in range(1, n + 1) if es[l - 1] == e) for e in es]
        c = [min(l for l in range(1, n + 1) if es[l - 1] == e) for e in es]
        for k in range(1, n + 1):
            e = es[k - 1]
            total *= (p ** d[k - 1] - p ** (k - 1)) * p ** (e * (n - d[k - 1]))
            total *= p ** ((e - 1) * (n - c[k - 1] + 1))
    return total


@functools.cache
def automorphism_list(factors):
    """automorphisms() of the group with these invariant factors, listed
    once."""
    return tuple(automorphisms(AbelianGroup(factors)))


def brute_affine(group, set1, set2):
    """Reference affine equivalence of two sets of coordinate tuples: every
    automorphism from automorphisms() (listed once per group) with every
    translation c that sends its image of one element of the nonempty set1
    onto an element of set2.  Returns the first (images, c) with phi(set1)
    + c = set2, or None."""
    set1, set2 = set(set1), set(set2)
    anchor = next(iter(set1))
    for images in automorphism_list(group.factors):
        img = {endo_apply(group, images, s) for s in set1}
        base = endo_apply(group, images, anchor)
        for s2 in set2:
            c = group.sub_coords(s2, base)
            if {group.add_coords(x, c) for x in img} == set2:
                return images, c
    return None


def brute_max(group):
    """Reference maximum Sidon size: every Sidon set has a translate
    containing 0."""
    return max(map(len, brute_sidon_sets(group)))


def brute_canonical(group, idxs):
    """Reference class key: the lex-least sorted index tuple among all
    translates of the set and of its negation."""
    items = [group.coords_of(i) for i in idxs]
    images = []
    for t in group.elements():
        for sign in (1, -1):
            images.append(tuple(sorted(
                group.index_of(group.add_coords(group.smul_coords(sign, c), t.coords))
                for c in items)))
    return min(images)


def brute_lowers(group, idxs, units):
    """Reference lex-leader test: whether some map x -> u(x - t), u in
    units and t in the sorted index tuple idxs, sends idxs to a
    lex-smaller sorted tuple.  Every image is built on coordinates."""
    items = [group.coords_of(i) for i in idxs]
    return any(
        tuple(sorted(group.index_of(group.smul_coords(u, group.sub_coords(c, t))) for c in items))
        < tuple(idxs)
        for u in units for t in items)


def brute_extends(group, idxs, target):
    """Reference verdict: does some Sidon set of size target contain idxs?"""
    rest = [i for i in range(group.order) if i not in idxs]
    return any(brute_sidon(group, list(idxs) + list(extra))
               for extra in itertools.combinations(rest, target - len(idxs)))


def frobenius_trace(ext, x):
    """Reference trace of x in a FieldExtension down to its base field:
    the Frobenius sum x + x^q (+ x^(q^2)), as an extension code (base
    field elements keep their own codes)."""
    acc, term = x, x
    for _ in range(ext.degree - 1):
        term = ext.pow(term, ext.base.q)
        acc = ext.add(acc, term)
    return acc


def naive_reduced_forms(disc):
    """Reference reduced forms: for each b, trial division of every
    candidate a of (b^2 - disc)/4 in [max(b, 1), sqrt((b^2 - disc)/4)]."""
    forms = []
    for b in range(disc % 2, math.isqrt(-disc // 3) + 1, 2):
        ac = (b * b - disc) // 4
        for a in [a for a in range(max(b, 1), math.isqrt(ac) + 1) if not ac % a]:
            c = ac // a
            if math.gcd(a, b, c) != 1:
                continue
            forms.append(BinaryQF(a, b, c))
            if 0 < b < a < c:
                forms.append(BinaryQF(a, -b, c))
    return sorted(forms)


def naive_order(g, op, identity):
    """Reference order of g under op: one multiplication per step."""
    k, x = 1, g
    while x != identity:
        x = op(x, g)
        k += 1
    return k


def naive_presentation(basis, op, identity):
    """Reference presentation table: (ks, b_1^k_1 * b_2^k_2 * ...) for every
    exponent tuple in itertools.product order, one product of powers each."""
    powers = []
    for b, o in basis:
        row = [identity]
        for _ in range(o - 1):
            row.append(op(row[-1], b))
        powers.append(row)
    table = []
    for ks in itertools.product(*(range(o) for _, o in basis)):
        g = identity
        for row, k in zip(powers, ks):
            g = op(g, row[k])
        table.append((ks, g))
    return table


# -- projective planes: matrices applied to one point or line at a time ----

def _normalized(F, t):
    inv = F.inv(next(c for c in reversed(t) if c))
    return tuple(F.mul(c, inv) for c in t)


def _dot(F, a, b):
    acc = 0
    for x, y in zip(a, b):
        acc = F.add(acc, F.mul(x, y))
    return acc


def brute_point_image(action, M, i):
    """Index of M p, p the point of index i."""
    t = action.plane.points[i].triple
    return action._pt_index[_normalized(action.field, [_dot(action.field, row, t)
                                                        for row in M.rows])]


def brute_line_image(action, M, j):
    """Index of n M^(-1), n the line of index j, computed as n adj(M)."""
    F, t = action.field, action.plane.lines[j].triple
    adj = M.adj
    return action._ln_index[_normalized(F, [_dot(F, t, [adj[0][k], adj[1][k], adj[2][k]])
                                            for k in range(3)])]


def naive_elements(action):
    """{GroupElement: natural coordinates} with one invariant_factor_form
    conversion per coordinate vector, in itertools.product order."""
    _, convert = invariant_factor_form(action.moduli)
    return {convert(nat): nat
            for nat in itertools.product(*(range(m) for m in action.moduli))}


@functools.lru_cache(maxsize=None)
def brute_matrices(action):
    """{g: action.matrix(g)} in the order of action.elements, built once
    per action."""
    return {g: action.matrix(g) for g in action.elements}


def brute_point_orbit(action, i):
    return frozenset(brute_point_image(action, M, i)
                     for M in brute_matrices(action).values())


def brute_line_orbit(action, j):
    return frozenset(brute_line_image(action, M, j)
                     for M in brute_matrices(action).values())


def brute_point_witness(action, i):
    """The first nonzero g, in the order of action.elements, fixing point i."""
    return next((g for g, M in brute_matrices(action).items()
                 if g and brute_point_image(action, M, i) == i), None)


def brute_line_witness(action, j):
    return next((g for g, M in brute_matrices(action).items()
                 if g and brute_line_image(action, M, j) == j), None)


def brute_extract(action, i, j):
    """("refused", side, witness) when point i or line j has a nontrivial
    stabilizer, else ("extracted", S, d): S = {g : g moves point i onto
    line j}, d = q + 1 - |S|."""
    for side, w in (("point", brute_point_witness(action, i)),
                    ("line", brute_line_witness(action, j))):
        if w is not None:
            return "refused", side, w
    on_line = set(action.plane.line_points[j])
    S = {g for g, M in brute_matrices(action).items()
         if brute_point_image(action, M, i) in on_line}
    return "extracted", S, action.field.q + 1 - len(S)


def brute_incidences(F, points, lines):
    """Every (point, line) index pair with a zero dot product."""
    return {(i, j) for j, l in enumerate(lines) for i, p in enumerate(points)
            if _dot(F, l.triple, p.triple) == 0}


# -- unit groups: every discrete log tabulated up front ---------------------

def table_unit_encoder(m):
    """Reference encoder for UnitGroup(m): a discrete-log table of every
    unit of each prime-power part, on the same generators, returning the
    coordinates before the invariant-factor conversion."""
    tables = []  # (p^e, [dlog table of each cyclic factor])
    for p, e in sorted(sympy.factorint(m).items()):
        pe = p**e
        if p == 2:
            if e == 1:
                continue
            if e == 2:
                tables.append((4, [{1: 0, 3: 1}]))
                continue
            t3, x = {}, 1
            for k in range(pe >> 2):
                t3[x] = k
                x = 3 * x % pe
            tables.append((pe, [{1: 0, pe - 1: 1}, t3]))
            continue
        g = sympy.primitive_root(pe)
        tbl, x = {}, 1
        for k in range(pe - pe // p):
            tbl[x] = k
            x = x * g % pe
        tables.append((pe, [tbl]))

    def encode(u):
        coords = []
        for pe, (tbl, *t3) in tables:
            r = u % pe
            if not t3:
                coords.append(tbl[r])
            elif r in t3[0]:
                coords.extend([0, t3[0][r]])
            else:
                coords.extend([1, t3[0][(pe - r) % pe]])
        return tuple(coords)

    return encode


def brute_singer(F):
    """Reference Singer set over F, as a set of logs: the k < q^2+q+1
    with Tr(g^k) = 0, walking the generator powers of the cubic
    extension one multiplication at a time."""
    L = field_extension(F, 3)
    out, x = set(), 1
    for k in range(F.q ** 2 + F.q + 1):
        if frobenius_trace(L, x) == 0:
            out.add(k)
        x = L.mul(x, L.generator)
    return out


def brute_plane_check(L):
    """Reference projective-plane verdict: the axioms in the fast check's
    order, with C4-freeness decided by the pair dictionary of
    is_partial_linear_space on the structure and again on its dual."""
    gaps = deficiency(L)
    unjoined, nonmeeting = gaps["unjoined_point_pairs"], gaps["nonmeeting_line_pairs"]
    if unjoined > 0:
        return PlaneCheck(None, "two points on no common line")
    if nonmeeting > 0:
        return PlaneCheck(None, "two lines with no common point")
    if not is_partial_linear_space(L):
        return PlaneCheck(None, "two points on two common lines")
    if not is_partial_linear_space(dualize(L)):
        return PlaneCheck(None, "two lines with two common points")
    if _general_quad(L) is None:
        return PlaneCheck(None, "degenerate: no quadrilateral in general position")
    q = len(L.line_points[0]) - 1 if L.line_points else 0
    if q < 2:
        return PlaneCheck(None, "degenerate: order below 2")
    if L.n_points != q * q + q + 1 or L.n_lines != L.n_points:
        return PlaneCheck(None, "point/line counts off q^2+q+1")
    if any(len(pts) != q + 1 for pts in L.line_points):
        return PlaneCheck(None, "line sizes unequal")
    if any(len(ls) != q + 1 for ls in L.point_lines):
        return PlaneCheck(None, "point degrees unequal")
    return PlaneCheck(q)
