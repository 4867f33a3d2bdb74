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

    points / lines are tuples of arbitrary hashable labels.  The relation is
    its line lists: line_points[j] and point_lines[i] are sorted tuples of
    the points on line j and the lines through point i.  IndexError for a
    point out of range or a point list count other than len(lines).
    """

    def __init__(self, points, lines, line_points):
        self.points = tuple(points)
        self.lines = tuple(lines)
        self.line_points = tuple(tuple(sorted(set(pts))) for pts in line_points)
        if len(self.line_points) != len(self.lines):
            raise IndexError(f"{len(self.line_points)} point lists, {len(self.lines)} lines")
        pl = [[] for _ in self.points]
        for j, pts in enumerate(self.line_points):
            if pts and not (0 <= pts[0] and pts[-1] < len(pl)):
                raise IndexError(f"line {j} has a point out of range")
            for i in pts:
                pl[i].append(j)
        self.point_lines = tuple(map(tuple, pl))

    @property
    def n_points(self):
        return len(self.points)

    @property
    def n_lines(self):
        return len(self.lines)

    def __eq__(self, other):
        return (isinstance(other, IncidenceStructure)
                and self.points == other.points and self.lines == other.lines
                and self.line_points == other.line_points)

    @property
    def incidences(self):
        """The (point index, line index) pairs, derived from the line lists."""
        return frozenset((i, j) for j, pts in enumerate(self.line_points) for i in pts)

    def __repr__(self):
        return (f"<IncidenceStructure {self.n_points} points, "
                f"{self.n_lines} lines, {sum(map(len, self.line_points))} incidences>")

    def to_json(self):
        return {
            "points": [str(p) for p in self.points],
            "lines": [str(l) for l in self.lines],
            "incidences": [[i, j] for i, ls in enumerate(self.point_lines) for j in ls],
        }

    def to_dot(self):
        out = ["graph incidence {"]
        for i, p in enumerate(self.points):
            out.append(f'  p{i} [shape=circle label="{p}"];')
        for j, l in enumerate(self.lines):
            out.append(f'  l{j} [shape=box label="{l}"];')
        out += (f"  p{i} -- l{j};" for i, ls in enumerate(self.point_lines) for j in ls)
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
    return IncidenceStructure(pts, pts, [[add(j, s) for s in idxs] for j in range(n)])


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


def _general_quad(L):
    """Four points, no three collinear, or None.  Assumes the axioms already
    verified: two points lie on exactly one common line, two lines meet in
    exactly one point.  Then points 0 and 1 decide.  In a nondegenerate
    plane of order q >= 2 their line leaves a point c off it; the three
    lines through pairs of {0, 1, c} cover at most 3q of the q^2 + q + 1
    points, so a fourth point d exists as (q - 1)^2 >= 1.  A degenerate
    structure has no such quadrilateral at all."""
    n = L.n_points
    if n < 2:
        return None

    def joining(a, b):
        # the points of the one line through a and b
        return set(L.line_points[min(set(L.point_lines[a]) & set(L.point_lines[b]))])

    ab = joining(0, 1)
    for c in range(n):
        if c not in ab:
            bad = ab | joining(0, c) | joining(1, c)
            return next(((0, 1, c, d) for d in range(n) if d not in bad), None)
    return None


def is_projective_plane(L):
    """Exactly-one joining line, exactly-one meeting point, nondegeneracy;
    returns the order q with all count regularities cross-checked."""
    # counting: with C4-freeness no pair is counted twice, so pair coverage
    # is exact iff the totals match.  A C4 (two points on two common
    # lines) is also two lines through two common points, so the dual
    # needs no pass of its own
    gaps = deficiency(L)
    unjoined, nonmeeting = gaps["unjoined_point_pairs"], gaps["nonmeeting_line_pairs"]
    if unjoined > 0:
        return PlaneCheck(None, "two points on no common line")
    if nonmeeting > 0:
        return PlaneCheck(None, "two lines with no common point")
    # a negative count has more pairs on lines than pairs exist, so some
    # pair lies on two lines; at zero it is C4-free iff every pair is
    # covered, which one OR of line masks per point decides
    if unjoined < 0 or nonmeeting < 0 or not _covers_every_pair(L):
        return PlaneCheck(None, "two points on two common lines")
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


def _covers_every_pair(L):
    """Does every pair of points lie on some common line?"""
    masks = [sum(1 << i for i in pts) for pts in L.line_points]
    full = (1 << L.n_points) - 1
    for a, ls in enumerate(L.point_lines):
        m = 1 << a
        for j in ls:
            m |= masks[j]
        if m != full:
            return False
    return True


def dualize(L):
    """Swap points and lines: the lines through each point become the
    point lists of the dual's lines."""
    return IncidenceStructure(L.lines, L.points, L.point_lines)


def self_dual_via_negation(group, S):
    """Does x -> -x carry dev(S) onto its dual?  (It always should.)"""
    return negation_is_duality(group, develop(group, S))


def negation_is_duality(group, L):
    """Does x -> -x carry the development L = dev(S) of some S in group
    onto its dual?"""
    neg = group.neg
    # (i, j) -> (-j, -i) maps the incidences of line j onto those of point
    # -j, so it preserves incidence iff it does so line by line
    return all(tuple(sorted(map(neg, pts))) == L.point_lines[neg(j)]
               for j, pts in enumerate(L.line_points))


def deficiency(L):
    """How far a structure is from plane axioms: counts of point pairs on
    no common line and line pairs with no common point.  The totals
    depend only on line sizes and point degrees, so zero deficiency does
    not make a plane: the structure must also be C4-free (no two points
    on two common lines), and then nondegeneracy is all that is left.
    dev({0, 1, 3}) in Z/7 with points 0 and 2 swapped between lines 0
    and 1 has deficiencies 0 and 0 and a C4."""
    need_p = L.n_points * (L.n_points - 1) // 2
    have_p = sum(len(pts) * (len(pts) - 1) // 2 for pts in L.line_points)
    need_l = L.n_lines * (L.n_lines - 1) // 2
    have_l = sum(len(ls) * (len(ls) - 1) // 2 for ls in L.point_lines)
    return {"unjoined_point_pairs": need_p - have_p,
            "nonmeeting_line_pairs": need_l - have_l}
