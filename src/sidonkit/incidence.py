"""Finite incidence structures and the development dev(S).

dev(S) has the group itself as both point set and line set, with p on l
iff p - l lands in S.  It is a partial linear space exactly when S is
Sidon, and the negation map is always an isomorphism onto the dual.
"""

from __future__ import annotations

from .groups import GroupElement, GroupError

# most incidences |G| * |S| develop builds, an empty S counted as one
# element since the |G| points are built either way.  The costliest
# development at the cap, one element in Z/2^18, took 1.0 s and 244 MB
# peak RSS through develop and 2.2 s and 359 MB through the CLI (2 vCPUs,
# Python 3.11.7).  The largest the tests and benchmark build is 133 x 12,
# the Singer set over GF(11).
DEVELOP_CAP = 1 << 18


class IncidenceStructure:
    """Points, lines and an incidence relation, all index-addressed.

    points / lines are tuples of arbitrary hashable labels; incidences is
    a frozenset of (point index, line index) pairs.  Adjacency lists are
    precomputed: point_lines[i] and line_points[j] are sorted tuples.
    """

    def __init__(self, points, lines, incidences):
        self.points = tuple(points)
        self.lines = tuple(lines)
        inc = set()
        for i, j in incidences:
            if not (0 <= i < len(self.points) and 0 <= j < len(self.lines)):
                raise IndexError(f"incidence ({i},{j}) out of range")
            inc.add((i, j))
        self.incidences = frozenset(inc)
        pl = [[] for _ in self.points]
        lp = [[] for _ in self.lines]
        for i, j in sorted(inc):
            pl[i].append(j)
            lp[j].append(i)
        self.point_lines = tuple(tuple(x) for x in pl)
        self.line_points = tuple(tuple(x) for x in lp)

    @property
    def n_points(self):
        return len(self.points)

    @property
    def n_lines(self):
        return len(self.lines)

    def __eq__(self, other):
        return (isinstance(other, IncidenceStructure)
                and self.points == other.points and self.lines == other.lines
                and self.incidences == other.incidences)

    def __repr__(self):
        return (f"<IncidenceStructure {self.n_points} points, "
                f"{self.n_lines} lines, {len(self.incidences)} incidences>")

    def to_json(self):
        return {
            "points": [str(p) for p in self.points],
            "lines": [str(l) for l in self.lines],
            "incidences": sorted(map(list, self.incidences)),
        }

    def to_dot(self):
        out = ["graph incidence {"]
        for i, p in enumerate(self.points):
            out.append(f'  p{i} [shape=circle label="{p}"];')
        for j, l in enumerate(self.lines):
            out.append(f'  l{j} [shape=box label="{l}"];')
        for i, j in sorted(self.incidences):
            out.append(f"  p{i} -- l{j};")
        out.append("}")
        return "\n".join(out)


def develop(group, S):
    """dev(S): points = lines = G, p incident to l iff p - l is in S.
    GroupError, before anything is built, when |G| * |S| > DEVELOP_CAP."""
    idxs = sorted({group.element(s).index for s in S})
    n = group.order
    if n * max(len(idxs), 1) > DEVELOP_CAP:
        raise GroupError(f"development of {len(idxs)} elements in a group of order {n} "
                         f"exceeds the cap of {DEVELOP_CAP} incidences")
    pts = [GroupElement(group, group.coords_of(i)) for i in range(n)]
    add = group.add
    inc = [(add(j, s), j) for j in range(n) for s in idxs]
    return IncidenceStructure(pts, pts, inc)


class PLSResult:
    """Partial-linear-space verdict; on failure carries a C4: two points
    and two lines, all four mutually incident."""

    def __init__(self, ok, witness=None):
        self.ok = ok
        self.witness = witness

    def __bool__(self):
        return self.ok

    def to_json(self):
        if self.ok:
            return {"partial_linear_space": True}
        p1, p2, l1, l2 = self.witness
        return {"partial_linear_space": False,
                "points": [p1, p2], "lines": [l1, l2]}


def is_partial_linear_space(L):
    """No two distinct points on two distinct common lines (C4-free)."""
    first = {}
    for j, pts in enumerate(L.line_points):
        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                pair = (pts[a], pts[b])
                if pair in first:
                    return PLSResult(False, (pts[a], pts[b], first[pair], j))
                first[pair] = j
    return PLSResult(True)


class PlaneCheck:
    """Projective-plane verdict: carries the order on success, the first
    violated axiom on failure."""

    def __init__(self, order, failure=None):
        self.order = order
        self.failure = failure

    def __bool__(self):
        return self.order is not None

    def to_json(self):
        return {"projective_plane": self.order is not None,
                "order": self.order, "failure": self.failure}


def _general_quad(L, cap=50):
    """Four points, no three collinear, or None.  Assumes the linear-space
    axioms already verified, so collinearity of a triple is one lookup."""
    online = [set(pts) for pts in L.line_points]

    def line_through(a, b):
        for j in L.point_lines[a]:
            if b in online[j]:
                return j
        return None

    tried = 0
    n = L.n_points
    for a in range(n):
        for b in range(a + 1, n):
            tried += 1
            if tried > cap:
                return None
            jab = line_through(a, b)
            for c in range(n):
                if c != a and c != b and c not in online[jab]:
                    break
            else:
                continue
            bad = online[jab] | online[line_through(a, c)] | online[line_through(b, c)]
            for d in range(n):
                if d not in bad:
                    return (a, b, c, d)
    return None


def is_projective_plane(L):
    """Exactly-one joining line, exactly-one meeting point, nondegeneracy;
    returns the order q with all count regularities cross-checked."""
    n_p, n_l = L.n_points, L.n_lines
    # counting: with C4-freeness, pair coverage is exact iff the totals match
    need_p = n_p * (n_p - 1) // 2
    have_p = sum(len(pts) * (len(pts) - 1) // 2 for pts in L.line_points)
    if have_p < need_p:
        return PlaneCheck(None, "two points on no common line")
    need_l = n_l * (n_l - 1) // 2
    have_l = sum(len(ls) * (len(ls) - 1) // 2 for ls in L.point_lines)
    if have_l < need_l:
        return PlaneCheck(None, "two lines with no common point")
    pls = is_partial_linear_space(L)
    if not pls:
        return PlaneCheck(None, "two points on two common lines")
    if have_p > need_p:  # duplicate-free tally can only overshoot via a C4
        return PlaneCheck(None, "two points on two common lines")  # pragma: no cover
    dual_pls = is_partial_linear_space(dualize(L))
    if not dual_pls:
        return PlaneCheck(None, "two lines with two common points")
    if have_l > need_l:
        return PlaneCheck(None, "two lines with two common points")  # pragma: no cover
    if _general_quad(L) is None:
        return PlaneCheck(None, "degenerate: no quadrilateral in general position")
    q = len(L.line_points[0]) - 1 if L.line_points else 0
    if q < 2:
        return PlaneCheck(None, "degenerate: order below 2")
    if n_p != q * q + q + 1 or n_l != n_p:
        return PlaneCheck(None, "point/line counts off q^2+q+1")
    if any(len(pts) != q + 1 for pts in L.line_points):
        return PlaneCheck(None, "line sizes unequal")
    if any(len(ls) != q + 1 for ls in L.point_lines):
        return PlaneCheck(None, "point degrees unequal")
    return PlaneCheck(q)


def dualize(L):
    """Swap points and lines, transpose the incidence relation."""
    return IncidenceStructure(L.lines, L.points,
                              [(j, i) for i, j in L.incidences])


def self_dual_via_negation(group, S):
    """Does x -> -x carry dev(S) onto its dual?  (It always should.)"""
    inc = develop(group, S).incidences
    neg = group.neg
    # (i, j) -> (-j, -i) is a bijection, so it maps inc onto itself as soon
    # as it maps inc into itself
    return all((neg(j), neg(i)) in inc for i, j in inc)


def deficiency(L):
    """How far a structure is from plane axioms: counts of point pairs on
    no common line and line pairs with no common point.  Zero deficiency
    plus nondegeneracy is exactly the plane condition."""
    need_p = L.n_points * (L.n_points - 1) // 2
    have_p = sum(len(pts) * (len(pts) - 1) // 2 for pts in L.line_points)
    need_l = L.n_lines * (L.n_lines - 1) // 2
    have_l = sum(len(ls) * (len(ls) - 1) // 2 for ls in L.point_lines)
    return {"unjoined_point_pairs": need_p - have_p,
            "nonmeeting_line_pairs": need_l - have_l}
