"""The desarguesian plane P^2(K) and its maximal abelian collineation groups.

Points are column triples over K, lines are row triples, incidence is a
zero dot product; both are normalized so the last nonzero coordinate is 1.
A matrix M acts on points by p -> M p and on lines by n -> n M^(-1), so
incidence is preserved.

Nine families of abelian subgroups of PGL_3(K) are built here with
explicit generator matrices, presented as AbelianGroups in invariant-
factor form.  Scanning which group elements move a base point onto a base
line turns each family into a Sidon set; that extraction, with its size
deficit d and the integrality bound on d, is the heart of the module.

Only the generators' matrices are applied to points and lines; orbits,
stabilizers and extraction walk their permutations of point and line
indices, and field arithmetic runs on full tables of the (small) field.
Group elements are named by natural position (mixed radix over the
natural moduli) and mapped to the invariant-factor form through one
index table, so a walk over the group builds GroupElements only for
the elements it returns.
"""

from __future__ import annotations

import functools
import itertools
import logging
import operator

from .fields import ADD_TABLE_LIMIT, field_extension
from .groups import GroupElement, natural_index_table
from .incidence import IncidenceStructure

log = logging.getLogger(__name__)

PLANE_CAP = 64


class PlaneError(ValueError):
    """Unsupported parameters or a failed stabilizer precondition."""

    def __init__(self, message, side=None, witness=None):
        super().__init__(message)
        self.side = side
        self.witness = witness


# ---------------------------------------------------------------------------
# projective points, lines, matrices

class _Homogeneous:
    """A nonzero triple over K up to scalars, last nonzero coordinate 1."""

    __slots__ = ("field", "triple")

    def __init__(self, field, triple):
        t = tuple(triple)
        if len(t) != 3 or not any(t):
            raise PlaneError("homogeneous triple must be nonzero of length 3")
        inv = field.inv(next(c for c in reversed(t) if c))
        self.field = field
        self.triple = tuple(field.mul(c, inv) for c in t)

    def __eq__(self, other):
        return (type(other) is type(self) and self.field == other.field
                and self.triple == other.triple)

    def __hash__(self):
        return hash((self._kind, self.triple))

    def __repr__(self):
        return self._kind[0] + ":".join(map(str, self.triple)) + self._kind[1]


class ProjPoint(_Homogeneous):
    __slots__ = ()
    _kind = "()"


class ProjLine(_Homogeneous):
    __slots__ = ()
    _kind = "[]"


@functools.lru_cache(maxsize=16)
def _tables(F):
    """Addition, multiplication, negation and inverse tables of F."""
    if F.q > ADD_TABLE_LIMIT:
        raise PlaneError(f"no field tables above order {ADD_TABLE_LIMIT}")
    q = range(F.q)
    add = [[F.add(a, b) for b in q] for a in q]
    mul = [[F.mul(a, b) for b in q] for a in q]
    neg = [F.neg(a) for a in q]
    inv = [0] + [F.inv(a) for a in q[1:]]
    return add, mul, neg, inv


def _mat_mul(F, A, B):
    add, mul = _tables(F)[:2]
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = B
    out = []
    for a0, a1, a2 in A:
        m0, m1, m2 = mul[a0], mul[a1], mul[a2]
        out.append((add[add[m0[b00]][m1[b10]]][m2[b20]],
                    add[add[m0[b01]][m1[b11]]][m2[b21]],
                    add[add[m0[b02]][m1[b12]]][m2[b22]]))
    return out


def _projective_rows(F, rows):
    """rows scaled so the first nonzero entry in row-major order is 1."""
    flat = [c for row in rows for c in row]
    if len(flat) != 9:
        raise PlaneError("need a 3x3 matrix")
    lead = next((c for c in flat if c), 0)
    if lead == 0:
        raise PlaneError("zero matrix")
    _, mul, _, inv = _tables(F)
    flat = [mul[inv[lead]][c] for c in flat]
    return tuple(flat[0:3]), tuple(flat[3:6]), tuple(flat[6:9])


def _adjugate(F, A):
    add, mul, neg, _ = _tables(F)
    (a, b, c), (d, e, f), (g, h, i) = A

    def m(x, y, z, w):          # xy - zw
        return add[mul[x][y]][neg[mul[z][w]]]

    return ((m(e, i, f, h), m(c, h, b, i), m(b, f, c, e)),
            (m(f, g, d, i), m(a, i, c, g), m(c, d, a, f)),
            (m(d, h, e, g), m(b, g, a, h), m(a, e, b, d)))


class Projectivity:
    """An element of PGL_3(K): invertible 3x3 matrix over K, normalized so
    the first nonzero entry in row-major order is 1, with its adjugate."""

    __slots__ = ("field", "rows", "adj")

    def __init__(self, field, rows):
        self.field = field
        self.rows = _projective_rows(field, rows)
        self.adj = _adjugate(field, self.rows)
        # the determinant, expanded along the first row
        add, mul = _tables(field)[:2]
        (a, b, c), (c0, c1, c2) = self.rows[0], (r[0] for r in self.adj)
        if add[add[mul[a][c0]][mul[b][c1]]][mul[c][c2]] == 0:
            raise PlaneError("singular matrix")

    @classmethod
    def identity(cls, field):
        return cls(field, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    def __mul__(self, other):
        return Projectivity(self.field, _mat_mul(self.field, self.rows, other.rows))

    def __eq__(self, other):
        return (isinstance(other, Projectivity)
                and self.field == other.field and self.rows == other.rows)

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"PGL{self.rows}"


# ---------------------------------------------------------------------------
# the plane itself

@functools.lru_cache(maxsize=16)
def _plane_data(field):
    q = field.q
    add, mul, neg, inv = _tables(field)
    triples = ([(x, y, 1) for x in range(q) for y in range(q)]
               + [(x, 1, 0) for x in range(q)]
               + [(1, 0, 0)])
    points = [ProjPoint(field, t) for t in triples]
    lines = [ProjLine(field, t) for t in triples]
    # the q + 1 points of ax + by + cz = 0: point (x, y, 1) has index
    # qx + y, (x, 1, 0) has q^2 + x and (1, 0, 0) is last
    inf = q * q
    line_points = []
    for a, b, c in triples:
        if b:
            m = neg[inv[b]]         # y = -(ax + c)/b
            pts = [q * x + mul[add[mul[a][x]][c]][m] for x in range(q)]
            pts.append(inf + mul[neg[b]][inv[a]] if a else inf + q)
        elif a:
            x = mul[neg[c]][inv[a]]
            pts = [q * x + y for y in range(q)]
            pts.append(inf)
        else:                       # the line at infinity
            pts = range(inf, inf + q + 1)
        line_points.append(pts)
    structure = IncidenceStructure(points, lines, line_points)
    pt_index = {p.triple: i for i, p in enumerate(points)}
    ln_index = {l.triple: j for j, l in enumerate(lines)}
    return structure, pt_index, ln_index


@functools.lru_cache(maxsize=16)
def _line_getters(field):
    """One itemgetter per line of the plane, reading a point permutation
    at that line's points, and the lines' point lists as lists, the type
    sorted returns."""
    lines = _plane_data(field)[0].line_points
    return [operator.itemgetter(*pts) for pts in lines], list(map(list, lines))


def _index_map(F, A, triples):
    """The permutation of point indices induced by t -> A t."""
    add, mul, _, inv = _tables(F)
    q = F.q
    (r0, r1, r2), (s0, s1, s2), (t0, t1, t2) = [[mul[c] for c in row] for row in A]
    inf = q * q
    out = []
    for x, y, z in triples:
        w = add[add[t0[x]][t1[y]]][t2[z]]
        u = add[add[r0[x]][r1[y]]][r2[z]]
        if w:
            m = mul[inv[w]]
            out.append(q * m[u] + m[add[add[s0[x]][s1[y]]][s2[z]]])
        else:
            v = add[add[s0[x]][s1[y]]][s2[z]]
            out.append(inf + mul[u][inv[v]] if v else inf + q)
    return out


def _images(perms, moduli, i):
    """images[k] = i moved by the k-th coordinate vector c over the moduli
    in itertools.product order, acting as the product of perms[j]^c[j]:
    one mixed-radix walk, first coordinate most significant."""
    images = [i]
    for P, n in zip(reversed(perms), reversed(moduli)):
        block = images
        for _ in range(n - 1):
            block = [P[x] for x in block]
            images += block
    return images


def _times_power(out, x, c, mul):
    """out times x^c under mul, by repeated squaring in O(log c) products."""
    while c:
        if c & 1:
            out = mul(out, x)
        c >>= 1
        if c:
            x = mul(x, x)
    return out


def _compose(p, P):
    """The permutation p followed by P."""
    return [P[x] for x in p]


def _orbits(perms, n):
    """The orbits of range(n) under the group the perms generate, as sorted
    lists in order of least element, and each index's orbit."""
    orbit_of = [None] * n
    orbits = []
    for i in range(n):
        if orbit_of[i] is None:
            orb = [i]
            orbit_of[i] = orb
            for x in orb:
                for P in perms:
                    y = P[x]
                    if orbit_of[y] is None:
                        orbit_of[y] = orb
                        orb.append(y)
            orb.sort()
            orbits.append(orb)
    return orbits, orbit_of


def check_plane_cap(q):
    """Raise PlaneError when family_build refuses plane order q."""
    if q > PLANE_CAP:
        raise PlaneError(f"plane order {q} above cap {PLANE_CAP}")


def plane_build(field, cap=PLANE_CAP):
    """P^2(K) as an incidence structure: q^2+q+1 points and lines."""
    if field.q > cap:
        raise PlaneError(f"plane order {field.q} above cap {cap}")
    return _plane_data(field)[0]


# ---------------------------------------------------------------------------
# the nine families: (moduli, generators, note) per tag, one generator
# matrix per natural modulus

def _basis(F):
    """K's additive basis over GF(p): the codes p^i, whose coordinates
    over GF(p) (F.prime_coeffs) are the unit vectors."""
    return [F.p ** i for i in range(F.d)]


def _family_i(F):
    L = field_extension(F, 3)
    note = ("cyclic of order q^2+q+1: multiplication by a generator of the "
            "cubic extension, matrices in the basis {1,t,t^2}")
    return (F.q ** 2 + F.q + 1,), [L.mult_matrix(L.generator)], note


def _family_ii(F):
    L = field_extension(F, 2)
    A = L.mult_matrix(L.generator)
    gen = ((A[0][0], A[0][1], 0), (A[1][0], A[1][1], 0), (0, 0, 1))
    note = ("cyclic of order q^2-1: multiplication by a generator of the "
            "quadratic extension on the first two coordinates")
    return (F.q ** 2 - 1,), [gen], note


def _family_iii(F):
    g = F.generator
    gens = [((g, 0, 0), (0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, g, 0), (0, 0, 1))]
    return (F.q - 1, F.q - 1), gens, "diagonal torus (Z/(q-1))^2: diag(a, b, 1)"


def _family_iv(F):
    g = F.generator
    gens = [((g, 0, 0), (0, g, 0), (0, 0, 1))]
    gens += [((1, t, 0), (0, 1, 0), (0, 0, 1)) for t in _basis(F)]
    note = ("Z/(q-1) x K: matrices [[r,a,0],[0,r,0],[0,0,1]]; the K-part "
            "is read off as a/r so the parametrization is additive")
    return (F.q - 1,) + (F.p,) * F.d, gens, note


def _family_v(F):
    if F.p != 2:
        half = F.inv(2 % F.p)
        # x -> [[1,x,x(x-1)/2],[0,1,x],[0,0,1]] and y -> [[1,0,y],[0,1,0],
        # [0,0,1]]: the shift of the corner by x(x-1)/2 straightens the law
        gens = [((1, x, F.mul(half, F.mul(x, F.sub(x, 1)))), (0, 1, x), (0, 0, 1))
                for x in _basis(F)]
        gens += [((1, 0, y), (0, 1, 0), (0, 0, 1)) for y in _basis(F)]
        note = ("K^2 (q odd): unipotent matrices [[1,a,b],[0,1,a],[0,0,1]] "
                "with b shifted by a(a-1)/2 to straighten the group law")
        return (F.p,) * (2 * F.d), gens, note
    gens = [((1, a, 0), (0, 1, a), (0, 0, 1)) for a in _basis(F)]
    note = "C4^d (q = 2^d): generated by [[1,a,0],[0,1,a],[0,0,1]] over a basis"
    return (4,) * F.d, gens, note


def _translations(shape, note):
    def family(F):
        gens = ([shape(a, 0) for a in _basis(F)]
                + [shape(0, b) for b in _basis(F)])
        return (F.p,) * (2 * F.d), gens, note

    return family


_family_vi = _translations(lambda a, b: ((1, 0, b), (0, 1, a), (0, 0, 1)),
                           "K^2 of translations fixing the line at infinity pointwise")
_family_vii = _translations(lambda a, b: ((1, a, b), (0, 1, 0), (0, 0, 1)),
                            "K^2 of elations with a common center")


def _family_viii(F):
    if (F.q - 1) % 3:
        raise PlaneError("needs q = 1 mod 3 for a cube root of unity")
    w = F.exp((F.q - 1) // 3)
    gens = [((1, 0, 0), (0, w, 0), (0, 0, F.mul(w, w))),
            ((0, 0, 1), (1, 0, 0), (0, 1, 0))]
    note = ("C3 x C3: diag(1, w, w^2) and the coordinate 3-cycle, a pair "
            "commuting modulo scalars")
    return (3, 3), gens, note


def _family_ix(F):
    if (F.q - 1) % 3:
        raise PlaneError("needs q = 1 mod 3")
    L = field_extension(F, 3)
    n = F.q ** 2 + F.q + 1
    gens = [L.mult_matrix(L.pow(L.generator, n // 3)), L.frobenius_matrix()]
    note = ("C3 x C3: the 3-torsion of the cyclic-extension torus together "
            "with the Frobenius of the extension")
    return (3, 3), gens, note


_FAMILIES = {
    "i": _family_i, "ii": _family_ii, "iii": _family_iii, "iv": _family_iv,
    "v": _family_v, "vi": _family_vi, "vii": _family_vii,
    "viii": _family_viii, "ix": _family_ix,
}

FAMILY_TAGS = tuple(_FAMILIES)


# ---------------------------------------------------------------------------

class PlaneAction:
    """An abelian group acting on P^2(K) by projectivities.

    The group is Z/m_1 x ... x Z/m_r over the natural moduli, generator j
    acting by the matrix gens[j]; group is its invariant-factor form.  The
    isomorphism is kept as a table of indices (natural_index_table): the
    k-th natural coordinate vector, in itertools.product order, is the
    element of index _table[k].  Walks over the group (the kernel check,
    stabilizer witnesses, extraction) run on natural positions and make
    GroupElements only for their answers; elements, the mapping of each GroupElement to
    its natural coordinates in that order, is built from the table on
    first read.  Only the generators' matrices are applied to points and
    lines, once each; orbits, stabilizers, the images of a point and every
    element's permutation and matrix are composed from the generators.
    """

    def __init__(self, field, tag, moduli, gens, iso_note):
        self.field = field
        self.tag = tag
        self.moduli = tuple(moduli)
        self.gens = [Projectivity(field, M) for M in gens]
        if len(self.gens) != len(self.moduli):
            raise PlaneError("need one generator per modulus")
        self.iso_note = iso_note
        self.group, self._table = natural_index_table(self.moduli)
        self.plane, self._pt_index, self._ln_index = _plane_data(field)
        triples = [p.triple for p in self.plane.points]
        self._point_gens = [_index_map(field, M.rows, triples) for M in self.gens]
        # n -> n M^(-1) is proportional to n adj(M) = (adj(M)^T n^T)^T
        self._line_gens = [_index_map(field, tuple(zip(*M.adj)), triples)
                           for M in self.gens]
        self._check()

    def _check(self):
        """Exact relations on the generators.  Each must preserve incidence;
        the rest is read off the point permutations, PGL_3(K) acting
        faithfully on points: generator j has order dividing m_j, the
        generators commute, and no nonzero element fixes every point."""
        getters, lines = _line_getters(self.field)
        identity = list(range(self.plane.n_points))
        for j, (pp, lp, m) in enumerate(zip(self._point_gens, self._line_gens,
                                            self.moduli)):
            # line b must go onto line lp[b], point for point
            if [sorted(get(pp)) for get in getters] != [lines[b] for b in lp]:
                raise PlaneError(f"generator {j} breaks incidence")
            if _times_power(identity, pp, m, _compose) != identity:
                raise PlaneError(f"generator {j} has order not dividing {m}")
        for (j, P), (k, Q) in itertools.combinations(enumerate(self._point_gens), 2):
            if [P[x] for x in Q] != [Q[x] for x in P]:
                raise PlaneError(f"generators {j} and {k} do not commute")
        # the group is abelian, so an element fixing one point of an orbit
        # fixes it all: the kernel is the meet of the orbit leaders' stabilizers
        kernel = range(1, self.group.order)
        for orbit in self._point_orbits[0]:
            if not kernel:
                break
            images = _images(self._point_gens, self.moduli, orbit[0])
            kernel = [k for k in kernel if images[k] == orbit[0]]
        if kernel:
            raise PlaneError("action is not faithful")

    @functools.cached_property
    def _position(self):
        """The inverse of _table: each index's natural position."""
        position = [0] * self.group.order
        for k, i in enumerate(self._table):
            position[i] = k
        return position

    def _element(self, k):
        """The GroupElement at natural position k."""
        return GroupElement(self.group, self.group.coords_of(self._table[k]))

    @functools.cached_property
    def elements(self):
        """Each GroupElement with its natural coordinates, in
        itertools.product order of the coordinates."""
        nats = itertools.product(*(range(m) for m in self.moduli))
        return {self._element(k): nat for k, nat in enumerate(nats)}

    def _product(self, out, gens, mul, g):
        """out times each gens[j]^c_j under mul, c_j g's natural coordinates,
        unranked from g's table position last coordinate first (the
        generators commute)."""
        k = self._position[self.group.element(g).index]
        for x, m in zip(reversed(gens), reversed(self.moduli)):
            k, c = divmod(k, m)
            out = _times_power(out, x, c, mul)
        return out

    def matrix(self, g):
        return self._product(Projectivity.identity(self.field), self.gens,
                             Projectivity.__mul__, g)

    def _perm(self, gens, g):
        return tuple(self._product(range(self.plane.n_points), gens, _compose, g))

    def point_perm(self, g):
        return self._perm(self._point_gens, g)

    def line_perm(self, g):
        return self._perm(self._line_gens, g)

    @functools.cached_property
    def _point_orbits(self):
        return _orbits(self._point_gens, self.plane.n_points)

    @functools.cached_property
    def _line_orbits(self):
        return _orbits(self._line_gens, self.plane.n_lines)

    def point_orbit(self, i):
        return frozenset(self._point_orbits[1][i])

    def line_orbit(self, j):
        return frozenset(self._line_orbits[1][j])

    def _witness(self, gens, orbits, i):
        # orbit-stabilizer: the stabilizer is trivial iff the orbit has |G|
        # elements; otherwise the first fixing g in element order is named
        if len(orbits[1][i]) == self.group.order:
            return None
        images = _images(gens, self.moduli, i)
        return self._element(next(k for k in range(1, len(images)) if images[k] == i))

    def point_stabilizer_witness(self, i):
        """A nonzero g fixing point i, or None when the stabilizer is trivial."""
        return self._witness(self._point_gens, self._point_orbits, i)

    def line_stabilizer_witness(self, j):
        return self._witness(self._line_gens, self._line_orbits, j)

    def to_json(self):
        return {"family": self.tag, "field": self.field.to_json(),
                "group": self.group.to_json(), "iso_note": self.iso_note}


def family_build(field, tag):
    """One of the nine abelian families as a PlaneAction."""
    key = str(tag).lower()
    if key not in _FAMILIES:
        raise PlaneError(f"unknown family tag {tag!r}; use one of {FAMILY_TAGS}")
    check_plane_cap(field.q)
    moduli, gens, note = _FAMILIES[key](field)
    return PlaneAction(field, key, moduli, gens, note)


# ---------------------------------------------------------------------------
# orbits and extraction

class OrbitReport:
    def __init__(self, point_orbits, line_orbits, fixed_points, fixed_lines):
        if len(point_orbits) != len(line_orbits):
            raise PlaneError("point and line orbit counts disagree")
        self.point_orbits = point_orbits
        self.line_orbits = line_orbits
        self.t = len(point_orbits)
        self.fixed_points = fixed_points
        self.fixed_lines = fixed_lines

    def to_json(self):
        return {"t": self.t,
                "point_orbit_sizes": sorted(map(len, self.point_orbits)),
                "line_orbit_sizes": sorted(map(len, self.line_orbits)),
                "fixed_points": self.fixed_points,
                "fixed_lines": self.fixed_lines}


def orbit_analysis(action):
    """Full orbit decomposition of the plane under the group."""
    po = [list(o) for o in action._point_orbits[0]]
    lo = [list(o) for o in action._line_orbits[0]]
    return OrbitReport(po, lo,
                       [o[0] for o in po if len(o) == 1],
                       [o[0] for o in lo if len(o) == 1])


class ExtractResult:
    def __init__(self, S, d, bound_ok, point_index, line_index):
        self.S = S
        self.d = d
        self.bound_ok = bound_ok
        self.point_index = point_index
        self.line_index = line_index

    def to_json(self):
        return {"S": [g.to_json() for g in sorted(self.S)],
                "size": len(self.S), "d": self.d, "bound_ok": self.bound_ok,
                "point": self.point_index, "line": self.line_index}


def _resolve(index, cls, field, x, side):
    if isinstance(x, int):
        if not 0 <= x < len(index):
            raise PlaneError(f"{side} index {x} outside range({len(index)})", side=side)
        return x
    return index[(x if isinstance(x, cls) else cls(field, x)).triple]


def default_point_line(action):
    """First point and first line with trivial stabilizer, canonical order:
    by orbit-stabilizer, the first whose orbit has |G| elements."""
    n = action.group.order
    pi = next((i for i, o in enumerate(action._point_orbits[1]) if len(o) == n), None)
    li = next((j for j, o in enumerate(action._line_orbits[1]) if len(o) == n), None)
    if pi is None:
        raise PlaneError("every point has a nontrivial stabilizer", side="point")
    if li is None:
        raise PlaneError("every line has a nontrivial stabilizer", side="line")
    return pi, li


def extract_sidon(action, point=None, line=None):
    """S = {g : p^g on l}; Sidon of size q+1-d when both stabilizers vanish.

    d is recomputed independently as the number of points of l outside the
    orbit of p, and bound_ok checks d |G| <= (q+1)(q^2+q+1-|G|) in exact
    integers.
    """
    if point is None or line is None:
        pi, li = default_point_line(action)
    if point is not None:
        pi = _resolve(action._pt_index, ProjPoint, action.field, point, "point")
    if line is not None:
        li = _resolve(action._ln_index, ProjLine, action.field, line, "line")

    w = action.point_stabilizer_witness(pi)
    if w is not None:
        raise PlaneError(f"point {action.plane.points[pi]} has nontrivial "
                         f"stabilizer (contains {w})", side="point", witness=w)
    w = action.line_stabilizer_witness(li)
    if w is not None:
        raise PlaneError(f"line {action.plane.lines[li]} has nontrivial "
                         f"stabilizer (contains {w})", side="line", witness=w)

    images = _images(action._point_gens, action.moduli, pi)
    on_line = set(action.plane.line_points[li])
    S = {action._element(k) for k, x in enumerate(images) if x in on_line}
    q = action.field.q
    d = (q + 1) - len(S)
    outside = len(on_line - action.point_orbit(pi))
    if d != outside:
        raise PlaneError("deficit disagrees with the orbit count")  # pragma: no cover
    n = action.group.order
    bound_ok = d * n <= (q + 1) * (q * q + q + 1 - n)
    return ExtractResult(S, d, bound_ok, pi, li)


# ---------------------------------------------------------------------------
# matching the five families against the direct constructions

def recover_constructions(field):
    """Extract a Sidon set from each of families i-v and exhibit an affine
    equivalence with the matching direct construction."""
    from .dense import construct_dense
    from .sidon import affine_equivalent, is_sidon

    if field.q < 3:
        raise PlaneError("recovery needs q >= 3; smaller fields degenerate")
    pairing = [("i", "singer"), ("ii", "bose"), ("iii", "hughes"),
               ("iv", "spence"), ("v", "erdos_turan")]
    report = []
    for tag, name in pairing:
        entry = {"family": tag, "construction": name}
        if tag == "v" and field.p == 2:
            entry["skipped"] = "even q gives the C4^d variant, no field model"
            report.append(entry)
            continue
        action = family_build(field, tag)
        ext = extract_sidon(action)
        group, S, _ = construct_dense(name, field)
        if group != action.group:
            raise PlaneError(f"group mismatch for family {tag}: "
                             f"{action.group} vs {group}")  # pragma: no cover
        if not is_sidon(group, ext.S).sidon:
            raise PlaneError(f"extraction for {tag} is not Sidon")  # pragma: no cover
        match = affine_equivalent(group, ext.S, S)
        log.info("GF(%d) family %s vs %s: %d candidates tried",
                 field.q, tag, name, match.candidates)
        entry.update({
            "group": group.to_json(),
            "extracted": [g.to_json() for g in sorted(ext.S)],
            "constructed": [g.to_json() for g in sorted(S)],
            "equivalent": bool(match),
            "conclusive": match.conclusive,
            "witness": match.to_json() if match else None,
        })
        report.append(entry)
    return report
