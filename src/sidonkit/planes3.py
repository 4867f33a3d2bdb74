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
"""

from __future__ import annotations

import functools
import itertools
import logging
import random

from .fields import FieldExtension
from .groups import GroupElement, invariant_factor_form
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

def _normalize_triple(F, triple):
    t = tuple(triple)
    if len(t) != 3 or not any(t):
        raise PlaneError("homogeneous triple must be nonzero of length 3")
    for k in (2, 1, 0):
        if t[k]:
            inv = F.inv(t[k])
            return tuple(F.mul(c, inv) for c in t)
    raise PlaneError("unreachable")  # pragma: no cover


class ProjPoint:
    __slots__ = ("field", "triple")

    def __init__(self, field, triple):
        self.field = field
        self.triple = _normalize_triple(field, triple)

    def __eq__(self, other):
        return (isinstance(other, ProjPoint) and self.field == other.field
                and self.triple == other.triple)

    def __hash__(self):
        return hash(("pt", self.triple))

    def __repr__(self):
        return "(" + ":".join(str(c) for c in self.triple) + ")"


class ProjLine:
    __slots__ = ("field", "triple")

    def __init__(self, field, triple):
        self.field = field
        self.triple = _normalize_triple(field, triple)

    def __eq__(self, other):
        return (isinstance(other, ProjLine) and self.field == other.field
                and self.triple == other.triple)

    def __hash__(self):
        return hash(("ln", self.triple))

    def __repr__(self):
        return "[" + ":".join(str(c) for c in self.triple) + "]"


def _dot(F, a, b):
    acc = 0
    for x, y in zip(a, b):
        acc = F.add(acc, F.mul(x, y))
    return acc


def _mat_mul(F, A, B):
    return tuple(
        tuple(F.add(F.add(F.mul(A[i][0], B[0][j]), F.mul(A[i][1], B[1][j])),
                    F.mul(A[i][2], B[2][j]))
              for j in range(3))
        for i in range(3))


def _mat_vec(F, A, v):
    return tuple(_dot(F, row, v) for row in A)


def _vec_mat(F, v, A):
    return tuple(_dot(F, v, (A[0][j], A[1][j], A[2][j])) for j in range(3))


def _det3(F, A):
    (a, b, c), (d, e, f), (g, h, i) = A
    m = F.mul
    s = F.sub
    return s(s(F.add(F.add(m(a, m(e, i)), m(b, m(f, g))), m(c, m(d, h))),
               F.add(m(c, m(e, g)), m(b, m(d, i)))),
             m(a, m(f, h)))


def _adjugate(F, A):
    (a, b, c), (d, e, f), (g, h, i) = A
    m, s = F.mul, F.sub
    return (
        (s(m(e, i), m(f, h)), s(m(c, h), m(b, i)), s(m(b, f), m(c, e))),
        (s(m(f, g), m(d, i)), s(m(a, i), m(c, g)), s(m(c, d), m(a, f))),
        (s(m(d, h), m(e, g)), s(m(b, g), m(a, h)), s(m(a, e), m(b, d))),
    )


class Projectivity:
    """An element of PGL_3(K): invertible 3x3 matrix over K, normalized so
    the first nonzero entry in row-major order is 1."""

    __slots__ = ("field", "rows", "_adj")

    def __init__(self, field, rows):
        flat = [c for row in rows for c in row]
        if len(flat) != 9:
            raise PlaneError("need a 3x3 matrix")
        lead = next((c for c in flat if c), 0)
        if lead == 0:
            raise PlaneError("zero matrix")
        inv = field.inv(lead)
        flat = [field.mul(c, inv) for c in flat]
        self.field = field
        self.rows = (tuple(flat[0:3]), tuple(flat[3:6]), tuple(flat[6:9]))
        if _det3(field, self.rows) == 0:
            raise PlaneError("singular matrix")
        self._adj = None

    @classmethod
    def identity(cls, field):
        return cls(field, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    def __mul__(self, other):
        return Projectivity(self.field, _mat_mul(self.field, self.rows, other.rows))

    def __pow__(self, n):
        out = Projectivity.identity(self.field)
        base = self
        n = int(n)
        if n < 0:
            base, n = base.inverse(), -n
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            base = base * base
        return out

    def inverse(self):
        return Projectivity(self.field, self._adjugate())

    def _adjugate(self):
        if self._adj is None:
            self._adj = _adjugate(self.field, self.rows)
        return self._adj

    def apply_point(self, pt):
        return ProjPoint(self.field, _mat_vec(self.field, self.rows, pt.triple))

    def apply_line(self, ln):
        # n M^(-1) is proportional to n adj(M); projectively the same line
        return ProjLine(self.field, _vec_mat(self.field, ln.triple, self._adjugate()))

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
    triples = ([(x, y, 1) for x in range(q) for y in range(q)]
               + [(x, 1, 0) for x in range(q)]
               + [(1, 0, 0)])
    points = [ProjPoint(field, t) for t in triples]
    lines = [ProjLine(field, t) for t in triples]
    inc = []
    for j, ln in enumerate(lines):
        for i, pt in enumerate(points):
            if _dot(field, ln.triple, pt.triple) == 0:
                inc.append((i, j))
    structure = IncidenceStructure(points, lines, inc)
    pt_index = {p.triple: i for i, p in enumerate(points)}
    ln_index = {l.triple: j for j, l in enumerate(lines)}
    return structure, pt_index, ln_index


def plane_build(field, cap=PLANE_CAP):
    """P^2(K) as an incidence structure: q^2+q+1 points and lines."""
    if field.q > cap:
        raise PlaneError(f"plane order {field.q} above cap {cap}")
    return _plane_data(field)[0]


# ---------------------------------------------------------------------------
# the nine families: (moduli, build, note) per tag

def _family_i(F):
    L = FieldExtension(F, 3)
    n = F.q ** 2 + F.q + 1
    gen = Projectivity(F, L.mult_matrix(L.generator))
    powers = [Projectivity.identity(F)]
    for _ in range(n - 1):
        powers.append(powers[-1] * gen)
    note = ("cyclic of order q^2+q+1: multiplication by a generator of the "
            "cubic extension, matrices in the basis {1,t,t^2}")
    return (n,), (lambda nat: powers[nat[0]]), note


def _family_ii(F):
    L = FieldExtension(F, 2)
    n = F.q ** 2 - 1
    A = L.mult_matrix(L.generator)
    gen = Projectivity(F, ((A[0][0], A[0][1], 0), (A[1][0], A[1][1], 0), (0, 0, 1)))
    powers = [Projectivity.identity(F)]
    for _ in range(n - 1):
        powers.append(powers[-1] * gen)
    note = ("cyclic of order q^2-1: multiplication by a generator of the "
            "quadratic extension on the first two coordinates")
    return (n,), (lambda nat: powers[nat[0]]), note


def _family_iii(F):
    g = F.generator

    def build(nat):
        j, k = nat
        return Projectivity(F, ((F.pow(g, j), 0, 0), (0, F.pow(g, k), 0), (0, 0, 1)))

    return (F.q - 1, F.q - 1), build, "diagonal torus (Z/(q-1))^2: diag(a, b, 1)"


def _family_iv(F):
    g = F.generator
    moduli = (F.q - 1,) + (F.p,) * F.d

    def build(nat):
        j, rest = nat[0], nat[1:]
        r = F.pow(g, j)
        a = F.mul(F.encode(rest), r)
        return Projectivity(F, ((r, a, 0), (0, r, 0), (0, 0, 1)))

    note = ("Z/(q-1) x K: matrices [[r,a,0],[0,r,0],[0,0,1]]; the K-part "
            "is read off as a/r so the parametrization is additive")
    return moduli, build, note


def _unipotent(F, a, b):
    return Projectivity(F, ((1, a, b), (0, 1, a), (0, 0, 1)))


def _family_v(F):
    if F.p != 2:
        half = F.inv(2 % F.p)

        def build(nat):
            x = F.encode(nat[:F.d])
            y = F.encode(nat[F.d:])
            # shear so that (x, y) -> matrix is a homomorphism from K^2
            corr = F.mul(half, F.mul(x, F.sub(x, 1)))
            return _unipotent(F, x, F.add(y, corr))

        note = ("K^2 (q odd): unipotent matrices [[1,a,b],[0,1,a],[0,0,1]] "
                "with b shifted by a(a-1)/2 to straighten the group law")
        return (F.p,) * (2 * F.d), build, note

    gens = [_unipotent(F, F.encode([0] * i + [1]), 0) for i in range(F.d)]
    pows = [[g ** k for k in range(4)] for g in gens]

    def build(nat):
        out = Projectivity.identity(F)
        for i, k in enumerate(nat):
            if k:
                out = out * pows[i][k]
        return out

    note = "C4^d (q = 2^d): generated by [[1,a,0],[0,1,a],[0,0,1]] over a basis"
    return (4,) * F.d, build, note


def _family_vi(F):
    def build(nat):
        a = F.encode(nat[:F.d])
        b = F.encode(nat[F.d:])
        return Projectivity(F, ((1, 0, b), (0, 1, a), (0, 0, 1)))

    return ((F.p,) * (2 * F.d), build,
            "K^2 of translations fixing the line at infinity pointwise")


def _family_vii(F):
    def build(nat):
        a = F.encode(nat[:F.d])
        b = F.encode(nat[F.d:])
        return Projectivity(F, ((1, a, b), (0, 1, 0), (0, 0, 1)))

    return ((F.p,) * (2 * F.d), build,
            "K^2 of elations with a common center")


def _omega(F):
    if (F.q - 1) % 3:
        raise PlaneError("needs q = 1 mod 3 for a cube root of unity")
    return F.exp((F.q - 1) // 3)


def _family_viii(F):
    w = _omega(F)
    D = Projectivity(F, ((1, 0, 0), (0, w, 0), (0, 0, F.mul(w, w))))
    P = Projectivity(F, ((0, 0, 1), (1, 0, 0), (0, 1, 0)))
    Dp = [Projectivity.identity(F), D, D * D]
    Pp = [Projectivity.identity(F), P, P * P]

    def build(nat):
        return Dp[nat[0]] * Pp[nat[1]]

    note = ("C3 x C3: diag(1, w, w^2) and the coordinate 3-cycle, a pair "
            "commuting modulo scalars")
    return (3, 3), build, note


def _family_ix(F):
    if (F.q - 1) % 3:
        raise PlaneError("needs q = 1 mod 3")
    L = FieldExtension(F, 3)
    n = F.q ** 2 + F.q + 1
    lam = Projectivity(F, L.mult_matrix(L.generator)) ** (n // 3)
    frob = Projectivity(F, L.frobenius_matrix())
    Lp = [Projectivity.identity(F), lam, lam * lam]
    Fp = [Projectivity.identity(F), frob, frob * frob]

    def build(nat):
        return Lp[nat[0]] * Fp[nat[1]]

    note = ("C3 x C3: the 3-torsion of the cyclic-extension torus together "
            "with the Frobenius of the extension")
    return (3, 3), build, note


_FAMILIES = {
    "i": _family_i, "ii": _family_ii, "iii": _family_iii, "iv": _family_iv,
    "v": _family_v, "vi": _family_vi, "vii": _family_vii,
    "viii": _family_viii, "ix": _family_ix,
}

FAMILY_TAGS = tuple(_FAMILIES)


# ---------------------------------------------------------------------------

class PlaneAction:
    """An abelian group acting on P^2(K) by projectivities.

    elements maps each GroupElement (invariant-factor coordinates) to its
    Projectivity.  Point and line permutations are built lazily per group
    element; orbit and stabilizer scans apply matrices to single points
    instead, which is what extraction needs.
    """

    def __init__(self, field, tag, group, elements, iso_note):
        self.field = field
        self.tag = tag
        self.group = group
        self.elements = elements
        self.iso_note = iso_note
        self.plane, self._pt_index, self._ln_index = _plane_data(field)
        self._point_perms = {}
        self._line_perms = {}
        self._check()

    def _check(self):
        ident = Projectivity.identity(self.field)
        if self.elements[self.group.zero] != ident:
            raise PlaneError("identity does not act trivially")
        if len(set(self.elements.values())) != self.group.order:
            raise PlaneError("action is not faithful")
        items = list(self.elements.items())
        rng = random.Random(2)
        pairs = (itertools.product(items, items) if len(items) ** 2 <= 900
                 else ((rng.choice(items), rng.choice(items)) for _ in range(40)))
        for (g, mg), (h, mh) in pairs:
            if mg * mh != self.elements[g + h]:
                raise PlaneError(f"action is not a homomorphism at {g}, {h}")
        inc = self.plane.incidences
        for i in range(self.group.rank):
            coords = tuple(1 if j == i else 0 for j in range(self.group.rank))
            g = self.group.element(coords)
            pp, lp = self.point_perm(g), self.line_perm(g)
            if {(pp[a], lp[b]) for a, b in inc} != set(inc):
                raise PlaneError(f"generator {g} breaks incidence")

    def matrix(self, g):
        return self.elements[self.group.element(g)]

    def point_perm(self, g):
        g = self.group.element(g)
        if g not in self._point_perms:
            M = self.elements[g]
            self._point_perms[g] = tuple(
                self._pt_index[M.apply_point(p).triple] for p in self.plane.points)
        return self._point_perms[g]

    def line_perm(self, g):
        g = self.group.element(g)
        if g not in self._line_perms:
            M = self.elements[g]
            self._line_perms[g] = tuple(
                self._ln_index[M.apply_line(l).triple] for l in self.plane.lines)
        return self._line_perms[g]

    def point_orbit(self, i):
        p = self.plane.points[i]
        return frozenset(self._pt_index[M.apply_point(p).triple]
                         for M in self.elements.values())

    def line_orbit(self, j):
        l = self.plane.lines[j]
        return frozenset(self._ln_index[M.apply_line(l).triple]
                         for M in self.elements.values())

    def point_stabilizer_witness(self, i):
        """A nonzero g fixing point i, or None when the stabilizer is trivial."""
        p = self.plane.points[i]
        for g, M in self.elements.items():
            if g and M.apply_point(p) == p:
                return g
        return None

    def line_stabilizer_witness(self, j):
        l = self.plane.lines[j]
        for g, M in self.elements.items():
            if g and M.apply_line(l) == l:
                return g
        return None

    def to_json(self):
        return {"family": self.tag, "field": self.field.to_json(),
                "group": self.group.to_json(), "iso_note": self.iso_note}


def family_build(field, tag):
    """One of the nine abelian families as a PlaneAction."""
    key = str(tag).lower()
    if key not in _FAMILIES:
        raise PlaneError(f"unknown family tag {tag!r}; use one of {FAMILY_TAGS}")
    if field.q > PLANE_CAP:
        raise PlaneError(f"plane order {field.q} above cap {PLANE_CAP}")
    moduli, build, note = _FAMILIES[key](field)
    group, convert = invariant_factor_form(moduli)
    elements = {}
    for nat in itertools.product(*(range(m) for m in moduli)):
        elements[convert(nat)] = build(nat)
    return PlaneAction(field, key, group, elements, note)


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
    def decompose(n, orbit_of):
        seen, orbits = set(), []
        for i in range(n):
            if i not in seen:
                orb = orbit_of(i)
                orbits.append(sorted(orb))
                seen |= orb
        return orbits

    po = decompose(action.plane.n_points, action.point_orbit)
    lo = decompose(action.plane.n_lines, action.line_orbit)
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


def _resolve_point(action, pt):
    if isinstance(pt, int):
        return pt
    if isinstance(pt, ProjPoint):
        return action._pt_index[pt.triple]
    return action._pt_index[ProjPoint(action.field, pt).triple]


def _resolve_line(action, ln):
    if isinstance(ln, int):
        return ln
    if isinstance(ln, ProjLine):
        return action._ln_index[ln.triple]
    return action._ln_index[ProjLine(action.field, ln).triple]


def default_point_line(action):
    """First point and first line with trivial stabilizer, canonical order."""
    pi = li = None
    for i in range(action.plane.n_points):
        if action.point_stabilizer_witness(i) is None:
            pi = i
            break
    for j in range(action.plane.n_lines):
        if action.line_stabilizer_witness(j) is None:
            li = j
            break
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
        dp, dl = default_point_line(action)
        pi = dp if point is None else _resolve_point(action, point)
        li = dl if line is None else _resolve_line(action, line)
    else:
        pi, li = _resolve_point(action, point), _resolve_line(action, line)

    w = action.point_stabilizer_witness(pi)
    if w is not None:
        raise PlaneError(f"point {action.plane.points[pi]} has nontrivial "
                         f"stabilizer (contains {w})", side="point", witness=w)
    w = action.line_stabilizer_witness(li)
    if w is not None:
        raise PlaneError(f"line {action.plane.lines[li]} has nontrivial "
                         f"stabilizer (contains {w})", side="line", witness=w)

    p = action.plane.points[pi]
    on_line = set(action.plane.line_points[li])
    S = {g for g, M in action.elements.items()
         if action._pt_index[M.apply_point(p).triple] in on_line}
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
        log.info("GF(%d) family %s vs %s: %d candidates tried, sift fallback %s",
                 field.q, tag, name, match.candidates, "ran" if match.sifted else "not run")
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
