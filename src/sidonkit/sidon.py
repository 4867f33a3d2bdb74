"""Sidon-set verification and structure analysis.

A subset S of an abelian group is Sidon when x + y = z + w forces
{x, y} = {z, w} as multisets; equivalently no nonzero difference repeats.
Verification differences the elements' mixed-radix indices with
AbelianGroup.sub and tallies them in a dict, so the verdict, witness and
energy are exact and O(|S|^2) whatever the size of the group.  The T-set
(everything S - S misses, plus 0) costs O(|G|) only when it is read, and
its JSON text is written from cached block templates, O(|G|) bytes rather
than objects.  Subgroup covers of a T-set work on index sets from
AbelianGroup.span.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math

from .groups import GroupElement, GroupError, endo_apply
from .ntheory import factorint

ORDER_CAP = 1 << 24

# subgroup_union_cover: the most subgroups inside T it enumerates, and the
# most k-subsets of maximal ones its exact search tries, before the answer
# is reported inconclusive
LATTICE_CAP = 4096
COMBO_CAP = 200_000

# fewest elements a T-set text template covers, unless the group is smaller
_T_BLOCK = 1000


class SidonReport:
    """Verdict for one set: Sidon flag, witness quadruple, difference data.

    witness (when present) is a nontrivial quadruple (x, y, z, w) with
    x + y = z + w, canonically ordered within and between pairs.  t_set is
    G \\ (S - S) together with 0 (sorted), built on first access from the
    nonzero differences; t_set_size is its length without building it.
    energy counts all ordered additive quadruples, which equals
    2|S|^2 - |S| exactly for Sidon sets.
    """

    def __init__(self, group, size, sidon, witness, energy, differences):
        self.group = group
        self.size = size
        self.sidon = sidon
        self.witness = witness
        self.energy = energy
        self._differences = differences
        self._t_set = None

    @property
    def t_set_size(self):
        return self.group.order - len(self._differences)

    def _t_coords(self):
        # mixed-radix index order is itertools.product order
        mask = bytearray(b"\x01") * self.group.order
        for d in self._differences:
            mask[d] = 0
        return itertools.compress(
            itertools.product(*(range(n) for n in self.group.factors)), mask)

    def write_t_set(self, stream):
        """Write json.dumps(self.to_json()["t_set"]) to stream.

        Blocks of consecutive indices (see _t_blocks) that hold no
        difference are written as their cached template joined by the
        block's prefix; the at most |S|^2 blocks that hold one, and ragged
        last blocks, join the template items that survive.
        """
        missing = sorted(self._differences)
        pos = 0
        sep = "["
        for base, count, prefix, items, parts in _t_blocks(self.group.factors):
            stop = bisect.bisect_left(missing, base + count, pos)
            if stop == pos and count == len(items):
                text = prefix.join(parts)
            else:
                kept, a = [], 0
                for d in missing[pos:stop]:
                    kept += items[a:d - base]
                    a = d - base + 1
                kept += items[a:count]
                text = ", ".join(kept).replace("@", prefix)
                pos = stop
                if not text:
                    continue
            stream.write(sep)
            stream.write(text)
            sep = ", "
        stream.write("]")

    @property
    def t_set(self):
        if self._t_set is None:
            group = self.group
            self._t_set = [GroupElement(group, c) for c in self._t_coords()]
        return self._t_set

    @property
    def density_ratio(self):
        return self.size / math.sqrt(self.group.order) if self.group.order else 0.0

    def to_json(self, compact=False):
        """JSON form; compact gives t_set_size in place of the O(|G|) list."""
        out = {
            "sidon": self.sidon,
            "size": self.size,
            "witness": None if self.witness is None else [g.to_json() for g in self.witness],
        }
        if compact:
            out["t_set_size"] = self.t_set_size
        else:
            out["t_set"] = list(map(list, self._t_coords()))
        out["energy"] = self.energy
        out["density_ratio"] = self.density_ratio
        return out

    def __repr__(self):
        verdict = "sidon" if self.sidon else f"not sidon, witness {self.witness}"
        return f"<SidonReport |S|={self.size} {verdict} energy={self.energy}>"


@functools.lru_cache(maxsize=16)
def _t_template(count, pad, rest):
    """Texts "[@v, c_1, ..., c_s]" in index order for v < count, written
    with at least pad digits, and every c in range(rest[0]) x ... x
    range(rest[-1]); "@" stands for a block prefix.  Also their ", " join
    split at "@", which the prefix joins into a block's text."""
    tails = ["".join(f", {c}" for c in t) for t in itertools.product(*map(range, rest))]
    items = [f"[@{str(v).zfill(pad)}{t}]" for v in range(count) for t in tails]
    return items, ", ".join(items).split("@")


def _t_blocks(factors):
    """Cut the index range of a group into blocks of consecutive indices
    whose element texts share one template: yields (base, count, prefix,
    items, parts) in index order, items and parts from _t_template.

    The template covers the trailing coordinates m x rest, the fewest that
    hold _T_BLOCK elements, and the prefix is the leading coordinates.  When
    m holds more than the template needs, its values are cut by decimal
    digits: run h >= 1 covers h * 10^k .. h * 10^k + 10^k - 1, written as
    str(h) in the prefix and k zero-padded digits in the template, and
    run 0 takes the unpadded template.  On Z/n, n > 1000, the block of
    index i has prefix str(i // 1000), and the first block an empty one.
    """
    if not factors:
        yield 0, 1, "", ["[]"], ["[]"]
        return
    r = len(factors)
    j = 1
    while j < r and math.prod(factors[r - j:]) < _T_BLOCK:
        j += 1
    m, rest = factors[r - j], factors[r - j + 1:]
    span = math.prod(rest)
    k = 1
    while 10**k * span < _T_BLOCK:
        k += 1
    step = min(10**k, m)
    base = 0
    for lead in itertools.product(*map(range, factors[:r - j])):
        head = "".join(f"{c}, " for c in lead)
        for h, v in enumerate(range(0, m, step)):
            items, parts = _t_template(step, k if h else 0, rest)
            count = min(step, m - v) * span
            yield base, count, f"{head}{h}" if h else head, items, parts
            base += count


def _canonical_witness(group, x, y, z, w):
    lo, hi = sorted((tuple(sorted((x, y))), tuple(sorted((z, w)))))
    return tuple(GroupElement(group, group.coords_of(i)) for i in lo + hi)


def check_verification_cap(n):
    """Raise GroupError when is_sidon refuses a group of order n."""
    if n > ORDER_CAP:
        raise GroupError(f"group order {n} exceeds verification cap {ORDER_CAP}")


def is_sidon(group, S):
    """Exact Sidon verdict with witness, energy and (lazy) T-set."""
    n = group.order
    check_verification_cap(n)
    # index order is coordinate order, so the first repeat and its witness
    # are those of the coordinate tuples
    idxs = sorted({group.element(s).index for s in S})
    sub = group.sub
    counts = {}
    first_pair = {}
    witness = None
    for a in idxs:
        for b in idxs:
            if a == b:
                continue
            d = sub(a, b)
            c = counts.get(d, 0) + 1
            counts[d] = c
            if c == 1:
                first_pair[d] = (a, b)
            elif witness is None:
                pa, pb = first_pair[d]
                # pa - pb = a - b  =>  pa + b = a + pb
                witness = _canonical_witness(group, pa, b, a, pb)
    k = len(idxs)
    energy = k * k + sum(c * c for c in counts.values())
    return SidonReport(group, k, witness is None, witness, energy, counts.keys())


def counting_bound(n):
    """Largest s with s(s-1) <= n-1."""
    if n < 1:
        raise ValueError("group order must be positive")
    return (1 + math.isqrt(4 * n - 3)) // 2


def is_perfect_difference_set(group, S):
    """Sidon and S - S covers the whole group (T-set is just {0})."""
    rep = is_sidon(group, S)
    return rep.sidon and rep.t_set_size == 1


# ---------------------------------------------------------------------------
# covering a T-set by subgroups

class CoverResult:
    def __init__(self, cover, conclusive):
        self.cover = cover
        self.conclusive = conclusive

    def __bool__(self):
        return self.cover is not None

    def to_json(self):
        return {
            "cover": None if self.cover is None else
                     [[g.to_json() for g in H] for H in self.cover],
            "conclusive": self.conclusive,
        }


def subgroup_union_cover(group, T, k_max):
    """Try to write T as a union of at most k_max subgroups of the group.

    Every subgroup inside T is a join of cyclic subgroups <t>, t in T, so
    the sublattice {H <= G : H subset T} is enumerated by closing the good
    cyclic pieces under pairwise joins.  For |T| <= 64 the maximal members
    then feed an exact set-cover search; larger T gets the greedy pass
    only, and a greedy miss is reported as inconclusive.  Candidates are
    taken largest first, and among equal sizes by least sorted index
    list, in both the greedy pass and the exact search.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    tset = frozenset(group.element(t).index for t in T)
    if 0 not in tset:
        raise GroupError("a T-set always contains 0")

    seeds = set()
    for t in tset:
        H = group.span([t])
        if H <= tset:
            seeds.add(H)
    # an element of any subgroup inside T generates a cyclic subgroup inside T
    if set().union(*seeds) != tset:
        return CoverResult(None, True)

    subgroups = seeds
    exhaustive = len(tset) <= 64
    if exhaustive:
        lattice = set(seeds)
        frontier = list(seeds)
        while frontier and len(lattice) <= LATTICE_CAP:
            H = frontier.pop()
            for C in seeds:
                if C <= H:
                    continue
                J = group.span(H | C)
                if J <= tset and J not in lattice:
                    lattice.add(J)
                    frontier.append(J)
        if len(lattice) > LATTICE_CAP:
            exhaustive = False
        else:
            subgroups = [H for H in lattice if not any(H < K for K in lattice)]
    subgroups = sorted(subgroups, key=lambda H: (-len(H), sorted(H)))

    def as_elements(H):
        return [GroupElement(group, group.coords_of(i)) for i in sorted(H)]

    # greedy
    chosen, covered = [], set()
    for _ in range(k_max):
        best = max(subgroups, key=lambda H: len(H - covered), default=None)
        if best is None or not (best - covered):
            break
        chosen.append(best)
        covered |= best
        if covered == tset:
            return CoverResult([as_elements(H) for H in chosen], True)
    if not exhaustive:
        return CoverResult(None, False)

    # exact search over maximal subgroups
    for k in range(1, min(k_max, len(subgroups)) + 1):
        if math.comb(len(subgroups), k) > COMBO_CAP:
            return CoverResult(None, False)
        for combo in itertools.combinations(subgroups, k):
            if frozenset().union(*combo) == tset:
                return CoverResult([as_elements(H) for H in combo], True)
    return CoverResult(None, True)


# ---------------------------------------------------------------------------
# affine equivalence

class AffineResult:
    """Witness of S2 = phi(S1) + c, or absence thereof.

    images are the coords of phi at the canonical generators.  The search
    is exhaustive, so the answer is always conclusive.  candidates counts
    the maps checked in full; it does not go into to_json.
    """

    conclusive = True

    def __init__(self, images, translation, candidates):
        self.images = images
        self.translation = translation
        self.candidates = candidates

    def __bool__(self):
        return self.images is not None

    def to_json(self):
        return {
            "automorphism": None if self.images is None else [list(c) for c in self.images],
            "translation": None if self.translation is None else self.translation.to_json(),
            "conclusive": self.conclusive,
        }


def _order(group, coords):
    return GroupElement(group, coords).order()


def _difference_basis(group, D1, units):
    """Greedy generating subset B of D1, largest orders first, followed by
    the canonical generators outside span(B), and a word over that basis
    (coefficient tuple) for every element of the group."""
    words = {(0,) * group.rank: ()}
    basis = []
    for d in sorted(D1, key=lambda x: (-_order(group, x), x)) + units:
        if d in words:
            continue
        # span + <d> is the disjoint union of the cosets span + k d, k < m
        m, x = 1, d
        while x not in words:
            x = group.add_coords(x, d)
            m += 1
        grown = {}
        for k in range(m):
            kd = group.smul_coords(k, d)
            for h, w in words.items():
                grown[group.add_coords(h, kd)] = w + (k,)
        words = grown
        basis.append(d)
    return basis, words


def affine_equivalent(group, S1, S2):
    """Decide exactly whether some automorphism phi and translation c give
    phi(S1) + c = S2; the answer is always conclusive.

    If they do, phi maps D1 = S1 - s1 onto D2 = S2 - s2 for the fixed
    anchor s1 and some s2 in S2.  One search covers every input: phi is
    fixed by its values on a generating subset B of D1 completed by the
    canonical generators outside span(B).  An element of B goes to a
    distinct element of D2 of its order and p-heights, and the search is
    pruned as soon as an element of D1 in the span so far leaves D2; a
    canonical generator goes to any element of the group of its order and
    p-heights.  Each candidate is accepted only after it is checked to be
    an automorphism with phi(S1) + c = S2.
    """
    set1 = {group.element(s).coords for s in S1}
    set2 = {group.element(s).coords for s in S2}
    if len(set1) != len(set2):
        raise GroupError("affine equivalence needs |S1| = |S2|")
    units = [tuple(int(i == j) for j in range(group.rank)) for i in range(group.rank)]
    if not set1:
        return AffineResult(tuple(units), group.zero, 0)

    s1 = min(set1)
    D1 = {group.sub_coords(x, s1) for x in set1}
    basis, words = _difference_basis(group, D1, units)
    zero = (0,) * group.rank
    r = len(basis)
    # D1 elements first reached at each level j: their words use b_1..b_j only
    level = [[] for _ in range(r + 1)]
    for x in D1:
        w = words[x]
        level[max((j + 1 for j in range(r) if w[j]), default=0)].append((x, w))
    # an automorphism keeps each element's order and its p-heights: x is
    # in p^k G iff gcd(p^k, n_i) | x_i for every i.  The order fixes the
    # heights at a prime that divides one invariant factor only, so only
    # primes dividing the last two are checked
    ladders = []
    if group.rank > 1:
        for p in factorint(group.factors[-2]):
            rungs, q = [], p
            while group.factors[-1] % q == 0:
                rungs.append(tuple(math.gcd(q, n) for n in group.factors))
                q *= p
            ladders.append(rungs)

    def key(x):
        return (_order(group, x),) + tuple(
            sum(all(c % g == 0 for c, g in zip(x, rung)) for rung in rungs)
            for rungs in ladders)

    keys = [key(b) for b in basis]
    # images of the canonical generators completing the basis, by key
    pool = {}
    wanted = {k for b, k in zip(basis, keys) if b not in D1}
    if wanted:
        for x in itertools.product(*map(range, group.factors)):
            k = key(x)
            if k in wanted:
                pool.setdefault(k, []).append(x)
    gens = [words[e] for e in units]
    images = [None] * r
    tried = 0

    def complete(s2):
        nonlocal tried
        tried += 1
        phi = tuple(endo_apply(group, images, w) for w in gens)
        if any(group.smul_coords(n, img) != zero for n, img in zip(group.factors, phi)):
            return None
        c = group.sub_coords(s2, endo_apply(group, phi, s1))
        if {group.add_coords(endo_apply(group, phi, x), c) for x in set1} != set2:
            return None
        if len(group.span([group.index_of(img) for img in phi])) != group.order:
            return None
        return AffineResult(phi, GroupElement(group, c), tried)

    def assign(j, D2, by_key, used, s2):
        if j == r:
            return complete(s2)
        pick = by_key if basis[j] in D1 else pool
        for y in pick.get(keys[j], ()):
            images[j] = y
            fresh = set()
            for x, w in level[j + 1]:
                img = endo_apply(group, images, w)
                if img not in D2 or img in used or img in fresh:
                    break
                fresh.add(img)
            else:
                found = assign(j + 1, D2, by_key, used | fresh, s2)
                if found is not None:
                    return found
        return None

    for s2 in sorted(set2):
        D2 = {group.sub_coords(y, s2) for y in set2}
        by_key = {}
        for y in sorted(D2):
            by_key.setdefault(key(y), []).append(y)
        found = assign(0, D2, by_key, {zero}, s2)
        if found is not None:
            return found
    return AffineResult(None, None, tried)
