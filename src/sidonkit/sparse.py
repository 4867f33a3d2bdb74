"""Sparse Sidon sets from prime numbers mapped through number fields.

Each construction picks a finite list of rational primes, sends them
through an embedding-like map phi (an archimedean logarithm, a Gaussian
angle, an ideal class, a unit-group residue), rounds to a finite grid,
and certifies the result.  Rounding is done with certified floors: any
value whose fractional part sits within 2^-20 of an integer is
recomputed at higher precision before the floor is trusted.

framework_build runs the shared two-step certificate behind all of the
constructions: (i) pairs whose rounded keys collide must have exactly
equal phi-sums, and (ii) pairs with equal phi-sums must be the same pair
of primes.  Both checks use exact integer arithmetic only.
"""

from __future__ import annotations

import collections
import math

import mpmath

from .fields import FiniteField, field_create
from .groups import AbelianGroup, invariant_factor_form
from .ntheory import discrete_log, factorint, prime_power, primerange, primitive_root
from .pell import CFData, PellError
from .quadforms import ClassGroup, fundamental_discriminant, prime_form, splits
from .sidon import is_sidon


class SparseError(ValueError):
    pass


def is_sidon_z(values):
    """Sidon test for a set of integers: (ok, witness).

    witness = (a, b, c, d) with a + b = c + d and {a, b} != {c, d}.
    """
    vals = sorted(set(values))
    seen = {}
    for i, a in enumerate(vals):
        for b in vals[i:]:
            s = a + b
            if s in seen:
                return False, (seen[s][0], seen[s][1], a, b)
            seen[s] = (a, b)
    return True, None


def _certified_floor(make_value, label):
    """floor of make_value(), recomputed until the call is provably right.

    make_value is re-evaluated inside increasing mpmath working
    precision; a floor is accepted only when the fractional part keeps a
    margin the arithmetic error cannot bridge.  Returns (floor, margin).
    """
    for prec, gap in ((80, 20), (320, 160), (1280, 640)):
        with mpmath.workprec(prec):
            v = make_value()
            f = mpmath.floor(v)
            frac = v - f
            margin = min(frac, 1 - frac)
            if margin > mpmath.mpf(2) ** -gap:
                return int(f), float(margin)
    raise SparseError(f"cannot certify floor of {label}")


class SparseResult:
    """Common wrapper: integer or group-element values plus a verification.

    group is None when the values live in Z.  details holds the
    construction-specific data that went into the set.
    """

    def __init__(self, name, group, values, details, report=None):
        self.name = name
        self.group = group
        self.values = values
        self.details = details
        self.report = report

    @property
    def sidon(self):
        if self.report is not None:
            return self.report.sidon
        return self.details.get("sidon_in_z", False)

    def to_json(self):
        if self.group is None:
            vals = list(self.values)
        else:
            vals = [v.to_json() for v in self.values]
        out = {
            "construction": self.name,
            "group": None if self.group is None else list(self.group.factors),
            "values": vals,
            "details": self.details,
            "sidon": self.sidon,
        }
        if self.report is not None:
            # the T-set of a sparse set fills most of the group; keep the
            # report compact and leave the full list to is_sidon callers
            out["verification"] = self.report.to_json(compact=True)
        return out


# ---------------------------------------------------------------- logs


def log_primes(X):
    """{floor(3 X^2 log p) : p <= X prime}, a Sidon set of integers."""
    emb = _fw_rationals(FrameworkSpec("rationals", X=X))
    values = [emb.details["arch_values"][p] for p in emb.primes]
    ok, witness = is_sidon_z(values)
    details = {
        "X": X,
        "scale": emb.details["scale"],
        "primes": emb.primes,
        "floor_margin": emb.margin,
        "sidon_in_z": ok,
        "witness": witness,
    }
    if not ok:
        raise SparseError(f"log values collide: {witness}")  # pragma: no cover
    return SparseResult("log_primes", None, values, details)


# --------------------------------------------------- unit group residues


class UnitGroup:
    """(Z/m)^* in invariant factor form with a discrete-log encoder.

    Odd prime power factors are cyclic on their smallest primitive
    root; the 2-part of m contributes nothing for 2, the class of -1
    for 4, and <-1> x <3> for higher powers of two.  encode takes one
    discrete log per prime-power part when it is asked (Pohlig-Hellman
    over the order of the part's log base, factored once here), so no
    table of the units is built.
    """

    def __init__(self, m):
        if m < 3:
            raise SparseError(f"need m >= 3, got {m}")
        self.m = m
        moduli = []
        self.generators = {}  # p^e -> generators of its cyclic factors
        self._orders = {}  # p^e -> (order of its log base, factorint of it)
        for p, e in factorint(m).items():
            pe = p**e
            if p == 2:
                if e == 1:
                    continue
                if e == 2:
                    moduli.append(2)
                    self.generators[4] = [3]
                    self._orders[4] = (2, {2: 1})
                    continue
                moduli.extend([2, pe >> 2])
                self.generators[pe] = [pe - 1, 3]
                self._orders[pe] = (pe >> 2, {2: e - 2})
                continue
            order = pe - pe // p
            moduli.append(order)
            self.generators[pe] = [primitive_root(pe)]
            self._orders[pe] = (order, factorint(order))
        self.group, self._convert = invariant_factor_form(tuple(moduli))
        self.order = self.group.order

    def encode(self, u):
        if math.gcd(u, self.m) != 1:
            raise SparseError(f"{u} is not a unit mod {self.m}")
        coords = []
        for pe, gens in self.generators.items():
            order, factors = self._orders[pe]
            r = u % pe
            if len(gens) == 2:
                # <3> mod 2^e holds the residues 1 and 3 mod 8, -<3> the rest
                neg = r % 8 not in (1, 3)
                r = pe - r if neg else r
                coords.extend([int(neg), discrete_log(pe, r, 3, order, factors)])
            else:
                coords.append(discrete_log(pe, r, gens[0], order, factors))
        return self._convert(tuple(coords))


def quotient_ring_primes(m):
    """Primes 1 < p <= sqrt(m) coprime to m, as a Sidon set in (Z/m)^*."""
    if m < 4:
        raise SparseError(f"need m >= 4, got {m}")
    emb = _fw_rationals(FrameworkSpec("rationals", X=math.isqrt(m), mods=(m,)))
    [units] = emb.aux["units"]
    values = [units.group.element(emb.coords[p]) for p in emb.primes]
    report = is_sidon(units.group, values)
    details = {
        "m": m,
        "primes": emb.primes,
        "unit_group": list(units.group.factors),
        "generators": units.generators,
    }
    if not report.sidon:
        raise SparseError(
            f"prime residues collide: {report.witness}"
        )  # pragma: no cover
    return SparseResult("quotient_ring_primes", units.group, values, details, report)


# ------------------------------------------------------- Gaussian angles


def two_squares(p):
    """(a, b) with a^2 + b^2 = p and a > b >= 1, for prime p = 1 mod 4."""
    if p % 4 != 1:
        raise SparseError(f"{p} is not 1 mod 4")
    for b in range(1, math.isqrt(p // 2) + 1):
        a2 = p - b * b
        a = math.isqrt(a2)
        if a * a == a2:
            return a, b
    raise SparseError(f"no two-square split of {p}")  # pragma: no cover


def gaussian_direction(p):
    """(re, im) of (a + b i)^4 for the normalized Gaussian prime over p."""
    a, b = two_squares(p)
    re, im = a * a - b * b, 2 * a * b
    return re * re - im * im, 2 * re * im


def _angle(re, im, n):
    return n * (mpmath.atan2(im, re) % (2 * mpmath.pi)) / (2 * mpmath.pi)


def angle_floor(re, im, n):
    """floor(n * atan2(im, re) / (2 pi)) with the angle taken in [0, 2 pi)."""
    return _certified_floor(lambda: _angle(re, im, n), f"angle({re},{im})*{n}")


def gaussian_angles(n):
    """{floor(n arg(rho_p^4) / 2 pi) : p = 1 mod 4, 16 p^2 <= n}.

    Sidon as integers (certified); the same values taken mod n are
    tested as well and the outcome is reported without being required.
    """
    emb = _fw_gaussian(FrameworkSpec("gaussian", n=n))
    values = [emb.details["arch_values"][p] for p in emb.primes]
    ok, witness = is_sidon_z(values)
    if not ok:
        raise SparseError(f"angle values collide: {witness}")
    mod_group = AbelianGroup.cyclic(n)
    report = is_sidon(mod_group, [mod_group.element(v % n) for v in values])
    details = {
        "n": n,
        "primes": emb.primes,
        "directions": emb.details["directions"],
        "floor_margin": emb.margin,
        "sidon_in_z": ok,
        "sidon_mod_n": report.sidon,
    }
    return SparseResult("gaussian_angles", None, values, details)


# ----------------------------------------------------- ideal class maps


def class_group_primes(D):
    """Classes of split prime ideals with (2p)^4 < D in Cl(Q(sqrt(-D))).

    Candidates are scanned in increasing p; a class is dropped when it
    or its inverse is already chosen, or when it is two-torsion, so the
    final set has no solutions to x + y = 0.
    """
    emb = _fw_imaginary(FrameworkSpec("imaginary_quadratic", D=D))
    disc = emb.details["discriminant"]
    group = emb.aux["class_group"].group
    zero = group.zero
    chosen = []
    records = {}
    skipped = dict(emb.skipped)
    for p in emb.primes:
        x = group.element(emb.coords[p])
        if x + x == zero:
            skipped[p] = "two-torsion class"
            continue
        if x in chosen:
            skipped[p] = "class already chosen"
            continue
        if -x in chosen:
            skipped[p] = "inverse class already chosen"
            continue
        chosen.append(x)
        records[p] = prime_form(disc, p).to_json()
    report = is_sidon(group, chosen)
    details = {
        "D": D,
        "discriminant": disc,
        "class_number": emb.details["class_number"],
        "invariants": list(group.factors),
        "chosen": records,
        "skipped": dict(sorted(skipped.items())),
    }
    if not report.sidon:
        raise SparseError(
            f"ideal classes collide: {report.witness}"
        )  # pragma: no cover
    return SparseResult("class_group_primes", group, chosen, details, report)


def real_quadratic(D):
    """Split primes with (10 p)^4 <= D mapped by log|pi / pi-bar| into Z/M.

    M = ceil(log u) for the fundamental unit u of Z[sqrt(D)].  pi = a +
    b sqrt(D) comes from the continued-fraction norm table; split primes
    it cannot represent are reported in skipped.
    """
    emb = _fw_real(FrameworkSpec("real_quadratic", D=D))
    M = emb.details["M"]
    group = AbelianGroup.cyclic(M)
    values = [group.element(emb.coords[p]) for p in emb.primes]
    report = is_sidon(group, values)
    details = {
        "D": D,
        "unit": emb.details["unit"],
        "unit_norm": emb.aux["unit_norm"],
        "regulator": emb.aux["regulator"],
        "M": M,
        "primes": emb.primes,
        "representations": emb.details["representations"],
        "skipped": emb.skipped,
        "floor_margin": emb.margin,
    }
    if not report.sidon:
        raise SparseError(
            f"unit-log values collide: {report.witness}"
        )  # pragma: no cover
    return SparseResult("real_quadratic", group, values, details, report)


# ----------------------------------------------------------- cubic graph


def cubic_graph(q, subset=None):
    """{(x, x^3) : x in U} in (additive F_q)^2, char > 3.

    U may contain at most one unordered pair {x, -x}; that includes the
    self-paired x = 0.  The default U keeps x when x.code <= (-x).code,
    one element from every pair, so its only such pair is {0, 0}.
    """
    field = q if isinstance(q, FiniteField) else field_create(*_pd(q))
    if field.p <= 3:
        raise SparseError(f"need characteristic > 3, got {field.p}")
    if subset is None:
        subset = [
            x
            for x in (field(c) for c in range(field.q))
            if x.code <= (-x).code
        ]
    else:
        subset = [field(x) for x in subset]
    if len(set(subset)) != len(subset):
        raise SparseError("subset has repeated elements")
    codes = set(x.code for x in subset)
    pairs = []
    for x in subset:
        nx = (-x).code
        if nx in codes and nx >= x.code:
            pairs.append((x.code, nx))
    if len(pairs) > 1:
        raise SparseError(f"subset has {len(pairs)} pairs x, -x: {pairs}")
    d = field.d
    group = AbelianGroup((field.p,) * (2 * d))
    values = [
        group.element(field.prime_coeffs(x.code) + field.prime_coeffs((x * x * x).code))
        for x in subset
    ]
    report = is_sidon(group, values)
    details = {
        "q": field.q,
        "subset": sorted(codes),
        "negation_pairs": pairs,
    }
    if not report.sidon:
        raise SparseError(
            f"cubic graph not Sidon: {report.witness}"
        )  # pragma: no cover
    return SparseResult("cubic_graph", group, values, details, report)


def _pd(q):
    pd = prime_power(q)
    if pd is None:
        raise SparseError(f"{q} is not a prime power")
    return pd


# ------------------------------------------------------------ perturbing


def perturb(values, eps=None):
    """{5 s + eps(s)} for a Sidon set of integers and eps into {0, 1, 2}.

    Any per-element offset with pair sums spread over fewer than 5
    consecutive integers preserves the Sidon property; {0, 1, 2} is the
    largest such range.  Default eps(s) = s mod 2.
    """
    vals = sorted(set(int(v) for v in values))
    ok, witness = is_sidon_z(vals)
    if not ok:
        raise SparseError(f"input is not Sidon: {witness}")
    if eps is None:
        table = {s: s % 2 for s in vals}
    elif callable(eps):
        table = {s: int(eps(s)) for s in vals}
    else:
        table = {s: int(eps[s]) for s in vals}
    bad = {s: e for s, e in table.items() if e not in (0, 1, 2)}
    if bad:
        raise SparseError(f"offsets outside {{0,1,2}}: {bad}")
    out = [5 * s + table[s] for s in vals]
    ok, witness = is_sidon_z(out)
    if not ok:
        raise SparseError(f"output not Sidon: {witness}")  # pragma: no cover
    details = {
        "input": vals,
        "offsets": [table[s] for s in vals],
        "sidon_in_z": ok,
        "witness": witness,
    }
    return SparseResult("perturb", None, out, details)


# ------------------------------------------------------------- framework


class BudgetError(SparseError):
    """Raised when a scan would exceed the configured pair budget."""


FRAMEWORK_FIELDS = ("rationals", "gaussian", "imaginary_quadratic", "real_quadratic")


class FrameworkSpec:
    """Parameters for the shared prime-embedding pipeline.

    rationals: primes p <= X coprime to every modulus in mods, mapped to
    floor(scale * log p) and to the unit groups (Z/m)^*.  The log place
    is present when scale is given, or by default (scale = 3 X^2) when
    mods is empty.  gaussian / imaginary_quadratic / real_quadratic take
    n resp. D and reproduce the corresponding dedicated constructions.
    """

    __slots__ = ("kind", "X", "n", "D", "scale", "mods", "rounding", "scan_cap")

    def __init__(
        self,
        kind,
        X=None,
        n=None,
        D=None,
        scale=None,
        mods=(),
        rounding="floor",
        scan_cap=3000,
    ):
        if kind not in FRAMEWORK_FIELDS:
            raise SparseError(f"unknown field kind {kind!r}")
        if rounding not in ("floor", "nearest"):
            raise SparseError(f"rounding must be floor or nearest, got {rounding!r}")
        need = {"rationals": X, "gaussian": n}.get(kind, D)
        if need is None:
            param = {"rationals": "X", "gaussian": "n"}.get(kind, "D")
            raise SparseError(f"field {kind} needs parameter {param}")
        if mods and kind != "rationals":
            raise SparseError("mods only apply to the rationals")
        self.kind = kind
        self.X, self.n, self.D = X, n, D
        self.scale = scale
        self.mods = tuple(mods)
        self.rounding = rounding
        self.scan_cap = scan_cap

    def to_json(self):
        out = {"field": self.kind, "rounding": self.rounding, "scan_cap": self.scan_cap}
        for key in ("X", "n", "D", "scale"):
            v = getattr(self, key)
            if v is not None:
                out[key] = v
        if self.mods:
            out["mods"] = list(self.mods)
        return out


def _rounded(make_value, mode, label):
    if mode == "nearest":
        return _certified_floor(
            lambda: make_value() + mpmath.mpf(1) / 2, label
        )
    return _certified_floor(make_value, label)


def _primitive(re, im):
    g = math.gcd(abs(re), abs(im))
    return re // g, im // g


# What a builder returns: the candidate primes with their coordinates in
# Z/moduli, the exact test for equal phi-sums (exact_key, or exact_equal
# when equality needs more than a key), the details framework_build
# reports, the primes left out, the smallest certified rounding margin,
# and aux, data only the dedicated constructions read.
_Embedding = collections.namedtuple(
    "_Embedding",
    "primes coords moduli exact_key exact_equal details skipped margin aux",
)


def _squarefree_D(D, least):
    if D < least:
        raise SparseError(f"need D >= {least}, got {D}")
    if any(e > 1 for e in factorint(D).values()):
        raise SparseError(f"{D} is not squarefree")


def _fw_rationals(spec):
    X = spec.X
    if X < 2:
        raise SparseError(f"need X >= 2, got {X}")
    scale = spec.scale
    if scale is None and not spec.mods:
        scale = 3 * X * X
    primes = [
        p
        for p in primerange(2, X + 1)
        if all(math.gcd(p, m) == 1 for m in spec.mods)
    ]
    units = [UnitGroup(m) for m in spec.mods]
    arch = {}
    coords = {}
    margin = 1.0
    for p in primes:
        row = ()
        if scale is not None:
            v, mg = _rounded(
                lambda p=p: scale * mpmath.log(p), spec.rounding, f"log({p})"
            )
            arch[p] = v
            margin = min(margin, mg)
            row += (v,)
        for u in units:
            row += u.encode(p).coords
        coords[p] = row
    moduli = ()
    if scale is not None:
        top = 2 * max(arch.values(), default=0) + 3
        moduli += (top,)
    for u in units:
        moduli += u.group.factors

    def exact_key(p, q):
        key = tuple((p * q) % m for m in spec.mods)
        if scale is not None:
            key = (p * q,) + key
        return key

    details = {"scale": scale, "mods": list(spec.mods)}
    if scale is not None:
        details["arch_values"] = arch
    return _Embedding(
        primes, coords, moduli, exact_key, None, details, {}, margin, {"units": units}
    )


def _fw_gaussian(spec):
    n = spec.n
    if n < 16:
        raise SparseError(f"need n >= 16, got {n}")
    primes = [
        p
        for p in primerange(5, math.isqrt(n) // 4 + 1)
        if p % 4 == 1 and 16 * p * p <= n
    ]
    coords = {}
    dirs = {}
    arch = {}
    margin = 1.0
    for p in primes:
        re, im = gaussian_direction(p)
        dirs[p] = (re, im)
        v, mg = _rounded(
            lambda re=re, im=im: _angle(re, im, n), spec.rounding, f"angle({p})"
        )
        arch[p] = v
        margin = min(margin, mg)
        coords[p] = (v % n,)

    def exact_key(p, q):
        a, b = dirs[p]
        c, d = dirs[q]
        return _primitive(a * c - b * d, a * d + b * c)

    details = {"directions": {p: list(v) for p, v in dirs.items()}, "arch_values": arch}
    return _Embedding(primes, coords, (n,), exact_key, None, details, {}, margin, {})


def _fw_imaginary(spec):
    D = spec.D
    _squarefree_D(D, 1)
    disc = fundamental_discriminant(D)
    cg = ClassGroup(disc)
    primes = []
    coords = {}
    skipped = {}
    for p in primerange(2, max(2, math.isqrt(math.isqrt(D)) // 2 + 2)):
        if (2 * p) ** 4 >= D:
            break
        if not splits(disc, p):
            skipped[p] = "inert or ramified"
            continue
        primes.append(p)
        coords[p] = cg.element(prime_form(disc, p)).coords

    def exact_key(p, q):
        return tuple(
            (a + b) % m for a, b, m in zip(coords[p], coords[q], cg.group.factors)
        )

    details = {"discriminant": disc, "class_number": cg.h}
    return _Embedding(
        primes, coords, cg.group.factors, exact_key, None, details, skipped, None,
        {"class_group": cg},
    )


def _fw_real(spec):
    D = spec.D
    _squarefree_D(D, 2)
    try:
        cf = CFData(D)
        x0, y0, unorm = cf.checked_unit()
    except PellError as exc:
        raise SparseError(str(exc))
    with mpmath.workprec(max(80, x0.bit_length() + 40)):
        reg = mpmath.log(mpmath.mpf(x0) + mpmath.mpf(y0) * mpmath.sqrt(D))
        M = int(mpmath.ceil(reg))
        regval = float(reg)
    primes = []
    coords = {}
    reps = {}
    skipped = {}
    margin = 1.0
    for p in primerange(2, max(2, math.isqrt(math.isqrt(D)) // 10 + 2)):
        if (10 * p) ** 4 > D:
            break
        if not splits(4 * D, p):
            skipped[p] = "inert or ramified"
            continue
        rep = cf.represent(p)
        if rep is None:
            skipped[p] = "not represented by the principal form"
            continue
        # exact_equal's bound on unit powers needs 1 < pi <= u
        if not (0 < rep[0] <= x0 and 0 < rep[1] <= y0):
            raise SparseError(f"representation {rep} of {p} exceeds the unit")
        reps[p] = rep

        def _val(a=rep[0], b=rep[1], p=p):
            r = mpmath.log(mpmath.mpf(x0) + mpmath.mpf(y0) * mpmath.sqrt(D))
            lam = 2 * mpmath.log(mpmath.mpf(a) + mpmath.mpf(b) * mpmath.sqrt(D))
            return (M / r) * (lam - mpmath.log(p))

        v, mg = _rounded(_val, spec.rounding, f"unit-log({p})")
        primes.append(p)
        coords[p] = (v % M,)
        margin = min(margin, mg)

    def _mul(u, v):
        return (u[0] * v[0] + u[1] * v[1] * D, u[0] * v[1] + u[1] * v[0])

    def exact_equal(pair1, pair2):
        # The log sums agree mod R = log u iff a = +-u^k a-bar exactly.
        # Each pi = a + b sqrt(D) is a convergent within one period, so
        # 1 < pi <= u, and p < sqrt(D) < u: lambda_p = log|pi / pi-bar|
        # = 2 log pi - log p lies in (-R, 2R].  The four-term sum
        # log|a / a-bar| = kR then lies in (-6R, 6R), so |k| <= 5.
        p1 = _mul(reps[pair1[0]], reps[pair1[1]])
        p2 = _mul(reps[pair2[0]], reps[pair2[1]])
        a = _mul(p1, (p2[0], -p2[1]))
        abar = (a[0], -a[1])
        unit = (x0, y0)
        for side in (a, abar):
            w = side
            for _ in range(6):
                if w == abar or w == (-abar[0], -abar[1]):
                    if side == a:
                        return True
                if w == a or w == (-a[0], -a[1]):
                    if side == abar:
                        return True
                w = _mul(w, unit)
        return False

    details = {
        "M": M,
        "unit": [x0, y0],
        "representations": {p: list(v) for p, v in reps.items()},
    }
    return _Embedding(
        primes, coords, (M,), None, exact_equal, details, skipped, margin,
        {"unit_norm": unorm, "regulator": regval},
    )


_FW_BUILDERS = {
    "rationals": _fw_rationals,
    "gaussian": _fw_gaussian,
    "imaginary_quadratic": _fw_imaginary,
    "real_quadratic": _fw_real,
}


def framework_build(spec):
    """Run the shared pipeline and certify the resulting set.

    Check (i): pairs of primes whose rounded keys collide must have
    exactly equal phi-sums, so rounding never manufactures a collision.
    Check (ii): pairs with equal phi-sums must be the same pair, so phi
    itself never manufactures one.  Both pass = the set is Sidon; the
    direct difference test is still run on the embedded set afterwards
    and the two verdicts are required to agree.
    """
    emb = _FW_BUILDERS[spec.kind](spec)
    exact_equal = emb.exact_equal
    if exact_equal is None:
        exact_key = emb.exact_key
        exact_equal = lambda u, v: exact_key(*u) == exact_key(*v)
    group, convert = invariant_factor_form(emb.moduli)
    elems = {p: convert(emb.coords[p]) for p in emb.primes}

    kept = []
    kept_by_elem = {}
    discarded = {}
    self_negative = None
    for p in emb.primes:
        g = elems[p]
        if g in kept_by_elem:
            discarded[p] = f"same value as {kept_by_elem[g]}"
            continue
        if g == -g:
            if self_negative is not None:
                discarded[p] = f"second self-negative after {self_negative}"
                continue
            self_negative = p
        elif -g in kept_by_elem:
            discarded[p] = f"negative of {kept_by_elem[-g]}"
            continue
        kept.append(p)
        kept_by_elem[g] = p

    n_pairs = len(kept) * (len(kept) + 1) // 2
    if n_pairs > spec.scan_cap:
        raise BudgetError(f"{n_pairs} pairs exceed the scan cap {spec.scan_cap}")
    buckets = {}
    for i, p in enumerate(kept):
        for q in kept[i:]:
            buckets.setdefault(elems[p] + elems[q], []).append((p, q))
    check_round = {"ok": True, "witness": None, "collisions": 0}
    check_products = {"ok": True, "witness": None}
    for same in buckets.values():
        for i in range(len(same)):
            for j in range(i + 1, len(same)):
                u, v = same[i], same[j]
                check_round["collisions"] += 1
                if not exact_equal(u, v):
                    check_round["ok"] = False
                    if check_round["witness"] is None:
                        check_round["witness"] = [*u, *v]
                elif set(u) != set(v):
                    check_products["ok"] = False
                    if check_products["witness"] is None:
                        check_products["witness"] = [*u, *v]

    values = [elems[p] for p in kept]
    report = is_sidon(group, values)
    certified = check_round["ok"] and check_products["ok"]
    if certified != report.sidon:
        raise SparseError(
            "certificate and difference test disagree"
        )  # pragma: no cover
    details = {
        "field": spec.kind,
        "rounding": spec.rounding,
        "spec": spec.to_json(),
        "primes": kept,
        "skipped": emb.skipped,
        "discarded": discarded,
        "pairs_scanned": n_pairs,
        "checks": {"rounding_faithful": check_round, "phi_injective": check_products},
    }
    details.update(emb.details)
    return SparseResult("framework:" + spec.kind, group, values, details, report)

