"""Finite abelian groups in invariant-factor normal form.

A group is a product Z/n1 x ... x Z/nk with n1 | n2 | ... | nk and every
ni >= 2; the empty product is the trivial group.  Elements are residue
vectors.  Constructors that arrive with arbitrary moduli (CRT products
like K^x x K) go through invariant_factor_form, which also hands back the
isomorphism, so Sidon sets stay portable between presentations;
natural_index_table gives that isomorphism for every element at once, as
a table of indices.
"""

from __future__ import annotations

import itertools
import math

from .ntheory import factorint


class GroupError(ValueError):
    """Invalid group data or an element of the wrong group."""


class GroupElement:
    __slots__ = ("group", "coords")

    def __init__(self, group, coords):
        self.group = group
        self.coords = coords

    def __add__(self, other):
        if not isinstance(other, GroupElement) or other.group != self.group:
            return NotImplemented
        return GroupElement(self.group, self.group.add_coords(self.coords, other.coords))

    def __sub__(self, other):
        if not isinstance(other, GroupElement) or other.group != self.group:
            return NotImplemented
        return GroupElement(self.group, self.group.sub_coords(self.coords, other.coords))

    def __neg__(self):
        return GroupElement(self.group, self.group.neg_coords(self.coords))

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return GroupElement(self.group, self.group.smul_coords(k, self.coords))

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, GroupElement)
                and self.group == other.group and self.coords == other.coords)

    def __lt__(self, other):
        return self.coords < other.coords

    def __hash__(self):
        return hash((self.group.factors, self.coords))

    def __bool__(self):
        return any(self.coords)

    @property
    def index(self):
        return self.group.index_of(self.coords)

    def order(self):
        out = 1
        for c, n in zip(self.coords, self.group.factors):
            out = math.lcm(out, n // math.gcd(c, n))
        return out

    def to_json(self):
        return list(self.coords)

    def __repr__(self):
        if len(self.coords) == 1:
            return str(self.coords[0])
        return "(" + ",".join(map(str, self.coords)) + ")"


class AbelianGroup:
    """Z/n1 x ... x Z/nk with the divisibility chain n1 | ... | nk enforced."""

    def __init__(self, factors=()):
        factors = tuple(int(n) for n in factors)
        for n in factors:
            if n < 2:
                raise GroupError(f"invariant factor {n} < 2 (drop trivial factors)")
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise GroupError(
                    f"{factors} is not an invariant-factor chain; "
                    "normalize with invariant_factor_form")
        self.factors = factors
        self.rank = len(factors)
        self.order = math.prod(factors)
        self.exponent = factors[-1] if factors else 1
        # (weight, modulus, weight * modulus) per coordinate, most
        # significant first: the digit of index i is i // weight % modulus
        weights = [self.order // math.prod(factors[:i + 1]) for i in range(self.rank)]
        self._radix = tuple((w, n, w * n) for w, n in zip(weights, factors))

    @classmethod
    def cyclic(cls, n):
        return cls(() if n == 1 else (n,))

    # -- coordinate arithmetic (tuples in, tuples out) -----------------------

    def add_coords(self, a, b):
        return tuple((x + y) % n for x, y, n in zip(a, b, self.factors))

    def sub_coords(self, a, b):
        return tuple((x - y) % n for x, y, n in zip(a, b, self.factors))

    def neg_coords(self, a):
        return tuple((-x) % n for x, n in zip(a, self.factors))

    def smul_coords(self, k, a):
        return tuple((k * x) % n for x, n in zip(a, self.factors))

    # -- index arithmetic (mixed-radix indices in, index out) ----------------
    # Z/n takes one %.  Otherwise the digit sums are added as integers and
    # each digit that overflows its modulus m (borrows, for sub) gives back
    # m weights: no tuples are built.

    def add(self, a, b):
        if self.rank == 1:
            return (a + b) % self.order
        out = a + b
        for w, n, wn in self._radix:
            if a // w % n + b // w % n >= n:
                out -= wn
        return out

    def sub(self, a, b):
        if self.rank == 1:
            return (a - b) % self.order
        out = a - b
        for w, n, wn in self._radix:
            if a // w % n < b // w % n:
                out += wn
        return out

    def neg(self, a):
        return self.sub(0, a)

    def smul(self, k, a):
        if self.rank == 1:
            return k * a % self.order
        # a // w is the digit plus a multiple of its modulus
        return sum(k * (a // w) % n * w for w, n, _ in self._radix)

    def span(self, gens):
        """The subgroup generated by the indices gens, as a frozenset of
        indices.  Each generator g outside the span H so far grows it to
        the disjoint union of the cosets H + kg, k below the least m with
        mg in H, so every member is reached by one addition."""
        members = [0]
        seen = {0}
        for g in gens:
            if g in seen:
                continue
            grown = list(members)
            x = g
            while x not in seen:
                grown += [self.add(h, x) for h in members]
                x = self.add(x, g)
            members = grown
            seen = set(members)
        return frozenset(seen)

    # -- indexing: mixed radix, first coordinate most significant ------------

    def index_of(self, coords):
        idx = 0
        for c, n in zip(coords, self.factors):
            idx = idx * n + c
        return idx

    def coords_of(self, index):
        out = []
        for n in reversed(self.factors):
            index, r = divmod(index, n)
            out.append(r)
        return tuple(reversed(out))

    # -- element plumbing -----------------------------------------------------

    @property
    def zero(self):
        return GroupElement(self, (0,) * self.rank)

    def element(self, x):
        if isinstance(x, GroupElement):
            if x.group != self:
                raise GroupError("element of a different group")
            return x
        if isinstance(x, int):
            if self.rank != 1:
                raise GroupError("bare integers only name elements of cyclic groups")
            return GroupElement(self, (x % self.factors[0],))
        coords = tuple(int(c) for c in x)
        if len(coords) != self.rank:
            raise GroupError(f"expected {self.rank} coordinates, got {len(coords)}")
        return GroupElement(self, tuple(c % n for c, n in zip(coords, self.factors)))

    def elements(self):
        for coords in itertools.product(*(range(n) for n in self.factors)):
            yield GroupElement(self, coords)

    def __contains__(self, g):
        return isinstance(g, GroupElement) and g.group == self

    def __eq__(self, other):
        return isinstance(other, AbelianGroup) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        if not self.factors:
            return "Z/1"
        return " x ".join(f"Z/{n}" for n in self.factors)

    def to_json(self):
        return {"factors": list(self.factors)}


# ---------------------------------------------------------------------------

def _crt_pair(a, m, b, n):
    # gcd(m, n) == 1
    return (a + m * ((b - a) * pow(m, -1, n) % n)) % (m * n)


def invariant_factor_form(moduli):
    """Regroup Z/m1 x ... x Z/mr (arbitrary mi >= 1) into invariant factors.

    Returns (group, convert) where convert maps a residue vector for the
    given moduli to the coordinates of the same element in the normal
    form.  Each prime's largest power lands in the last invariant factor.
    """
    moduli = [int(m) for m in moduli]
    if any(m < 1 for m in moduli):
        raise GroupError("moduli must be positive")
    # per prime: list of (exponent, source position)
    per_prime = {}
    for pos, m in enumerate(moduli):
        for p, e in factorint(m).items():
            per_prime.setdefault(p, []).append((e, pos))
    slots = max((len(v) for v in per_prime.values()), default=0)
    # recipe[j] = list of (source position, prime power); slot order: last gets
    # each prime's largest exponent so the divisibility chain comes out right
    recipe = [[] for _ in range(slots)]
    for p, entries in per_prime.items():
        entries.sort(reverse=True)
        for rank_, (e, pos) in enumerate(entries):
            recipe[slots - 1 - rank_].append((pos, p ** e))
    recipe = [r for r in recipe if r]
    factors = tuple(math.prod(q for _, q in r) for r in recipe)
    group = AbelianGroup(factors)

    def convert(coords):
        coords = tuple(coords)
        if len(coords) != len(moduli):
            raise GroupError("coordinate/modulus length mismatch")
        out = []
        for r in recipe:
            a, m = 0, 1
            for pos, q in r:
                a, m = _crt_pair(a, m, coords[pos] % q, q), m * q
            out.append(a)
        return group.element(tuple(out))

    return group, convert


def natural_index_table(moduli):
    """invariant_factor_form's isomorphism as a table of indices.

    Returns (group, table) where table[k] is the index in group of the
    k-th residue vector of itertools.product(*map(range, moduli)).  The
    map is additive: the unit vectors are converted, linear_table does the rest.
    """
    moduli = [int(m) for m in moduli]
    group, convert = invariant_factor_form(moduli)
    units = [convert([int(i == j) for i in range(len(moduli))]).index
             for j in range(len(moduli))]
    return group, linear_table(group, units, moduli)


def linear_table(group, gens, moduli):
    """table[k] is the index of sum_j c_j gens[j] (indices of elements whose
    orders divide the moduli), c the k-th residue vector of
    itertools.product(*map(range, moduli)): one mixed-radix walk of
    group.add, last coordinate fastest."""
    add = group.add
    table = [0]
    for u, m in zip(reversed(gens), reversed(moduli)):
        block = table
        for _ in range(m - 1):
            block = [add(x, u) for x in block]
            table += block
    return table


# ---------------------------------------------------------------------------
# automorphisms

def automorphisms(group):
    """Yield every automorphism as a tuple of generator images (coords),
    in itertools.product order of the candidate images.

    A candidate sends e_i to images[i]; it is an endomorphism iff each
    image's order divides that of e_i.  An endomorphism is bijective iff
    it is on every Sylow subgroup, and one of a finite abelian p-group P
    is bijective iff it is on P/pP (Burnside's basis theorem: pP is the
    Frattini subgroup of P).  G/pG is that quotient for the p-part of G,
    with basis the e_i whose invariant factor p divides, so the candidate
    is an automorphism iff for each prime p dividing |G| the rows of the
    images' coordinates mod p at those factors, one per such e_i, are
    independent over F_p.  The images are chosen in order, and each row
    must lie outside the span of the rows chosen before it; that span is
    grown once per prefix, so a full candidate costs one set lookup per
    prime.
    """
    tests = [(p, [i for i, n in enumerate(group.factors) if n % p == 0])
             for p in factorint(group.order)]
    # per generator: the tests it takes part in, and its candidate images
    # with their rows mod p for those tests
    levels = []
    for i, n in enumerate(group.factors):
        mine = [(k, p, at) for k, (p, at) in enumerate(tests) if i in at]
        cands = []
        for g in range(group.order):
            if group.smul(n, g) == 0:
                c = group.coords_of(g)
                cands.append((c, [tuple(c[j] % p for j in at) for _, p, at in mine]))
        levels.append((mine, cands))
    if not levels:
        yield ()
        return
    last = len(levels) - 1

    def walk(i, spans, images):
        mine, cands = levels[i]
        for c, rows in cands:
            if any(row in spans[k] for (k, _, _), row in zip(mine, rows)):
                continue
            images.append(c)
            if i == last:
                yield tuple(images)
            else:
                grown = list(spans)
                for (k, p, _), row in zip(mine, rows):
                    grown[k] = {tuple((a + m * b) % p for a, b in zip(s, row))
                                for s in spans[k] for m in range(p)}
                yield from walk(i + 1, grown, images)
            images.pop()

    yield from walk(0, [{(0,) * len(at)} for _, at in tests], [])


def endo_apply(group, images, coords):
    acc = (0,) * group.rank
    for c, img in zip(coords, images):
        if c:
            acc = group.add_coords(acc, group.smul_coords(c, img))
    return acc


# ---------------------------------------------------------------------------
# recognizing an abstract abelian group handed to us as elements + operation

def abelian_basis(elements, op, identity):
    """Basis of a finite abelian group given by a multiplication oracle.

    elements: all group members (hashable); op: the binary operation;
    identity: the neutral element.  Returns [(b_1, m_1), ...] with
    m_1 >= m_2 >= ..., prod m_i = |group|, and every element uniquely
    prod b_i^{k_i} (0 <= k_i < m_i).
    """
    return _basis_and_powers(list(elements), op, identity)[0]


def _basis_and_powers(elems, op, identity):
    """abelian_basis, plus the powers b_1^0, ..., b_1^(m_1 - 1).

    Works by splitting off a maximal-order cyclic factor and recursing on
    the quotient; quotient elements are coset representatives and the lift
    of a quotient basis element h is corrected by a power of b so its true
    order drops to its quotient order.  Orders come from cyclic walks: g,
    g^2, ... up to the identity gives ord(g^k) = ord(g) / gcd(k, ord(g))
    for every power, and no element already reached is walked.  A walk
    reaches every generator of <g> for the first time, so the walks cost
    at most |group| max(m / phi(m)) operations in all.
    """
    n = len(elems)
    if n == 1:
        return [], [identity]
    # the first element of largest order; none can exceed n, so stop there.
    # A new largest order is never one reached by an earlier walk (that
    # walk's element came first, with an order at least as large), so
    # its walk is the list of its powers.
    order = {identity: 1}
    m, powers = 1, [identity]
    for g in elems:
        if g in order:
            continue
        walk = [identity]
        x = g
        while x != identity:
            walk.append(x)
            x = op(x, g)
        o = len(walk)
        for k in range(1, o):
            order.setdefault(walk[k], o // math.gcd(k, o))
        if o > m:
            m, powers = o, walk
            if m == n:
                return [(g, m)], powers
    b = powers[1]
    power_index = {g: k for k, g in enumerate(powers)}

    pos = {g: i for i, g in enumerate(elems)}
    rep = {}
    for g in elems:
        if g in rep:
            continue
        coset = [op(g, pb) for pb in powers]
        r = min(coset, key=pos.get)
        for member in coset:
            rep[member] = r
    reps = sorted(set(rep.values()), key=pos.get)

    sub, _ = _basis_and_powers(reps, lambda a, c: rep[op(a, c)], rep[identity])

    basis = [(b, m)]
    for h, e in sub:
        x = h
        for _ in range(e - 1):
            x = op(x, h)
        s = power_index[x]
        if s % e:
            raise GroupError("basis lifting failed")  # pragma: no cover
        basis.append((op(h, powers[(m - s // e) % m]), e))
    if math.prod(o for _, o in basis) != n:
        raise GroupError("basis size mismatch")  # pragma: no cover
    return basis, powers


class GroupPresentation:
    """An abstract finite abelian group identified with an AbelianGroup.

    Built from elements + operation oracle; .group is the invariant-factor
    form, .to_group maps raw elements to GroupElements and .from_group
    inverts that.
    """

    def __init__(self, elements, op, identity):
        elems = list(elements)
        basis, table = _basis_and_powers(elems, op, identity)
        self.group, index = natural_index_table([o for _, o in basis])
        self.basis = basis
        # prod b_i^k_i for every exponent tuple in itertools.product order:
        # b_1's powers come from the basis search, and every later entry
        # from its prefix by one operation
        for bel, o in basis[1:]:
            row = []
            for g in table:
                row.append(g)
                for _ in range(o - 1):
                    g = op(g, bel)
                    row.append(g)
            table = row
        by_index = list(self.group.elements())
        self.to_group = {g: by_index[i] for g, i in zip(table, index)}
        self.from_group = {img: g for g, img in self.to_group.items()}
        if len(self.to_group) != len(elems):
            raise GroupError("presentation is not a bijection")  # pragma: no cover
