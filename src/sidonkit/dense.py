"""Dense Sidon sets: five direct constructions and planar-function graphs.

Each construction returns (group, set, iso_note) with the group in
invariant-factor form; multiplicative coordinates go through the discrete
log with the field's canonical generator, and iso_note records exactly
that identification so sets can be mapped back to field elements.

Sizes per construction, with q the field order:
    erdos_turan  |G| = q^2       |S| = q     (char != 2)
    singer       |G| = q^2+q+1   |S| = q+1
    bose         |G| = q^2-1     |S| = q
    spence       |G| = q(q-1)    |S| = q-1
    hughes       |G| = (q-1)^2   |S| = q-2
"""

from __future__ import annotations

import functools
import logging
import math
import time

from .fields import FieldError, field_extension
from .groups import AbelianGroup, invariant_factor_form

log = logging.getLogger(__name__)


class ConstructionError(ValueError):
    """Parameters outside a construction's domain."""


def _erdos_turan(F):
    if F.p == 2:
        raise ConstructionError("parabola construction needs odd characteristic")
    group = AbelianGroup((F.p,) * (2 * F.d))
    S = {group.element(F.coeffs(x) + F.coeffs(F.mul(x, x))) for x in range(F.q)}
    return group, S, "K^2 with K = GF(%d) coded coefficientwise; S = {(x, x^2)}" % F.q


def _singer(F):
    """{dlog(x) mod n : x != 0, Tr(x) = 0} with n = q^2+q+1, read off the
    traces t_k = Tr(g^k), k = 0 .. n-1, of the generator's powers.

    The characteristic polynomial of M = mult_matrix(g) is
    x^3 - c2 x^2 + c1 x - c0 with c2 = tr M, c1 the sum of the principal
    2x2 minors and c0 = det M; by Cayley-Hamilton g^3 = c2 g^2 - c1 g + c0,
    and the trace is K-linear, so t_(k+3) = c2 t_(k+2) - c1 t_(k+1) + c0 t_k.
    The same coefficients start it: t_0 = Tr(1) = 3, t_1 = tr M = c2 and
    t_2 = tr M^2 = c2^2 - 2 c1 (Newton's identities), and each further
    term costs three base-field products.  k < n suffices: g^n generates
    K^x, so Tr(g^(k+n)) = g^n Tr(g^k) vanishes exactly when Tr(g^k) does.
    """
    L = field_extension(F, 3)
    n = F.q ** 2 + F.q + 1
    group = AbelianGroup.cyclic(n)
    add, sub, mul = F.add, F.sub, F.mul
    (a, b, c), (d, e, f), (g, h, i) = L.mult_matrix(L.generator)
    c2 = add(add(a, e), i)
    c1 = add(add(sub(mul(a, e), mul(b, d)), sub(mul(a, i), mul(c, g))),
             sub(mul(e, i), mul(f, h)))
    c0 = add(add(mul(a, sub(mul(e, i), mul(f, h))), mul(b, sub(mul(f, g), mul(d, i)))),
             mul(c, sub(mul(d, h), mul(e, g))))
    t0, t1, t2 = 3 % F.p, c2, sub(mul(c2, c2), add(c1, c1))
    S = set()
    for k in range(n):
        if t0 == 0:
            S.add(group.element(k))
        t0, t1, t2 = t1, t2, add(sub(mul(c2, t2), mul(c1, t1)), mul(c0, t0))
    return group, S, ("multiplicative group of the cubic extension modulo "
                      "scalars, coded by discrete log mod %d" % n)


def _bose(F):
    L = field_extension(F, 2)
    group = AbelianGroup.cyclic(F.q ** 2 - 1)
    theta = L.encode([0, 1])
    S = {group.element(L.dlog(L.add(theta, c))) for c in range(F.q)}
    return group, S, ("multiplicative group of the quadratic extension, "
                      "coded by discrete log; S is the coset t + K")


def _spence(F):
    moduli = (F.q - 1,) + (F.p,) * F.d
    group, convert = invariant_factor_form(moduli)
    S = {convert((F.dlog(x),) + F.coeffs(x)) for x in range(1, F.q)}
    return group, S, ("K^x x K with K^x coded by discrete log, K by "
                      "coefficients, then regrouped to invariant factors")


def _hughes(F):
    group = AbelianGroup((F.q - 1, F.q - 1)) if F.q > 2 else AbelianGroup(())
    S = set()
    for x in range(2, F.q):           # x != 0 and 1 - x != 0
        y = F.sub(1, x)
        S.add(group.element((F.dlog(x), F.dlog(y))))
    note = "K^x x K^x coded by discrete logs; S = {(x, y) : x + y = 1}"
    if F.q <= 3:
        note += "; degenerate (|S| <= 1)"
    return group, S, note


_CONSTRUCTIONS = {
    "erdos_turan": (_erdos_turan, lambda q: (q * q, q)),
    "singer": (_singer, lambda q: (q * q + q + 1, q + 1)),
    "bose": (_bose, lambda q: (q * q - 1, q)),
    "spence": (_spence, lambda q: (q * (q - 1), q - 1)),
    "hughes": (_hughes, lambda q: ((q - 1) ** 2, q - 2)),
}

DENSE_NAMES = tuple(_CONSTRUCTIONS)


def dense_parameters(name, q):
    """(|G|, |S|) of a dense construction over GF(q), from its parameter
    formula, so callers can size the result before building it."""
    if name not in _CONSTRUCTIONS:
        raise ConstructionError(f"unknown construction {name!r}; "
                                f"choose from {DENSE_NAMES}")
    return _CONSTRUCTIONS[name][1](q)


def construct_dense(name, F):
    """One of the five dense constructions over the field F.

    Returns (group, S, iso_note); group order and |S| are checked against
    the construction's parameter formula before returning.
    """
    want_n, want_s = dense_parameters(name, F.q)
    verbose = log.isEnabledFor(logging.INFO)
    t0 = time.perf_counter() if verbose else 0.0
    group, S, note = _CONSTRUCTIONS[name][0](F)
    if group.order != want_n or len(S) != want_s:
        raise ConstructionError(
            f"{name}: got (|G|, |S|) = ({group.order}, {len(S)}), "
            f"expected ({want_n}, {want_s})")  # pragma: no cover
    if verbose:
        # the Singer recurrence runs through the |G| traces t_0 .. t_(|G|-1)
        terms = f", {group.order} trace terms" if name == "singer" else ""
        log.info("%s over GF(%d): |G| = %d, |S| = %d%s, %.3fs",
                 name, F.q, group.order, len(S), terms, time.perf_counter() - t0)
    return group, S, note


# ---------------------------------------------------------------------------
# planar functions

class PlanarCandidate:
    """A function F_q -> F_q given as a monomial x^e, a generalized
    quadratic form sum a_ij x^(p^i + p^j), or a raw value table."""

    def __init__(self, field, kind, exponent=None, coeffs=None, table=None):
        self.field = field
        self.kind = kind
        self.exponent = exponent
        self.coeffs = coeffs
        self.table = table
        self._values = None

    @classmethod
    def monomial(cls, field, exponent):
        e = int(exponent)
        if e < 1:
            raise ConstructionError("exponent must be positive")
        return cls(field, "monomial", exponent=e)

    @classmethod
    def quadratic_form(cls, field, coeffs):
        cleaned = {}
        for (i, j), a in coeffs.items():
            if not (0 <= i < field.d and 0 <= j < field.d):
                raise ConstructionError(f"index pair ({i},{j}) outside [0,{field.d})")
            key = (i, j) if i >= j else (j, i)
            cleaned[key] = field.add(cleaned.get(key, 0), a)
        return cls(field, "form", coeffs=cleaned)

    @classmethod
    def from_table(cls, field, values):
        t = tuple(values)
        if len(t) != field.q:
            raise ConstructionError("table must list one value per element")
        return cls(field, "table", table=t)

    @classmethod
    def coulter_matthews(cls, field, alpha):
        if field.p != 3:
            raise ConstructionError("this exponent family lives in characteristic 3")
        if math.gcd(alpha, 2 * field.d) != 1:
            raise ConstructionError(f"need gcd(alpha, 2d) = 1; got alpha={alpha}, d={field.d}")
        return cls.monomial(field, (3 ** alpha + 1) // 2)

    def values(self):
        if self._values is None:
            F = self.field
            if self.kind == "monomial":
                self._values = tuple(F.pow(x, self.exponent) for x in range(F.q))
            elif self.kind == "table":
                self._values = self.table
            else:
                out = []
                for x in range(F.q):
                    acc = 0
                    for (i, j), a in self.coeffs.items():
                        acc = F.add(acc, F.mul(a, F.pow(x, F.p ** i + F.p ** j)))
                    out.append(acc)
                self._values = tuple(out)
        return self._values

    def __repr__(self):
        if self.kind == "monomial":
            return f"<x^{self.exponent} over GF({self.field.q})>"
        if self.kind == "form":
            return f"<quadratic form {self.coeffs} over GF({self.field.q})>"
        return f"<table over GF({self.field.q})>"


class PlanarityReport:
    def __init__(self, planar, witness=None):
        self.planar = planar
        self.witness = witness

    def __bool__(self):
        return self.planar

    def to_json(self):
        return {"planar": self.planar, "witness": self.witness}


def is_planar(candidate):
    """Is x -> phi(x+h) - phi(x) a bijection for every h != 0?  Exhaustive;
    the witness is an h whose difference map misses a value."""
    F = candidate.field
    vals = candidate.values()
    q = F.q
    for h in range(1, q):
        seen = {F.sub(vals[F.add(x, h)], vals[x]) for x in range(q)}
        if len(seen) != q:
            return PlanarityReport(False, h)
    return PlanarityReport(True)


def planar_graph(candidate):
    """The graph {(x, phi(x))} in K^2, a Sidon set of size q."""
    rep = is_planar(candidate)
    if not rep:
        raise ConstructionError(f"not planar; difference map at h={rep.witness} "
                                "is not a bijection")
    F = candidate.field
    group = AbelianGroup((F.p,) * (2 * F.d))
    vals = candidate.values()
    S = {group.element(F.coeffs(x) + F.coeffs(vals[x])) for x in range(F.q)}
    return group, S, f"graph of {candidate!r} in K^2, coefficient coding"


class Polarization:
    """beta(x, y) = phi(x+y) - phi(x) - phi(y).

    For a generalized quadratic form this is computed symbolically as
    sum a_ij (x^(p^i) y^(p^j) + x^(p^j) y^(p^i)) and is additive in each
    argument; for other candidates it is evaluated from the value table.
    """

    def __init__(self, field, terms=None, values=None):
        self.field = field
        self.terms = terms
        self._values = values
        self.additive = terms is not None

    def __call__(self, x, y):
        F = self.field
        if self.terms is not None:
            acc = 0
            for (i, j), a in self.terms.items():
                pi, pj = F.p ** i, F.p ** j
                s = F.mul(F.pow(x, pi), F.pow(y, pj))
                if i != j:
                    s = F.add(s, F.mul(F.pow(x, pj), F.pow(y, pi)))
                else:
                    s = F.add(s, s)
                acc = F.add(acc, F.mul(a, s))
            return acc
        v = self._values
        return F.sub(F.sub(v[F.add(x, y)], v[x]), v[y])


def polarization(candidate):
    """The polarization of a candidate; symbolic iff it is a quadratic form."""
    if candidate.kind == "form":
        return Polarization(candidate.field, terms=dict(candidate.coeffs))
    return Polarization(candidate.field, values=candidate.values())


def is_nondegenerate(beta):
    """No nonzero pair (x, y) with beta(x, y) = 0.

    When beta is additive in y (quadratic-form input), y -> beta(x, y) is
    F_p-linear, so for each x it suffices to rank-check the images of a
    basis; otherwise all pairs are scanned.
    """
    F = beta.field
    q, p, d = F.q, F.p, F.d
    if not beta.additive:
        return all(beta(x, y) != 0 for x in range(1, q) for y in range(1, q))
    basis = [p ** j for j in range(d)]  # codes of 1, t, ..., t^(d-1)
    for x in range(1, q):
        rows = [list(F.coeffs(beta(x, b))) for b in basis]
        if _rank_mod_p(rows, p) < d:
            return False
    return True


def _rank_mod_p(rows, p):
    rows = [r[:] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] % p:
                c = rows[r][col]
                rows[r] = [(a - c * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank
