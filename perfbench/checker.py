"""Answer checker for the benchmark: reference verdicts plus witness checks.

Nothing here imports sidonkit.  Answers reach the checker as plain data
(tuples of coordinates, dicts parsed from CLI JSON), and every set the
program returns is re-tested with the checker's own difference test.
Affine witnesses are re-applied, plane orders are re-derived from the
incidence counts, and sizes are compared with parameter formulas.  Only
verdicts that cannot be re-derived cheaply come from the reference
tables below.

Each check returns OK or INCONCLUSIVE, or raises WrongAnswer.  An answer
the program itself marks as incomplete or inconclusive is INCONCLUSIVE,
provided whatever it did return is still correct.
"""

from __future__ import annotations

import itertools
import json
import math

OK = "ok"
INCONCLUSIVE = "inconclusive"


class WrongAnswer(Exception):
    """The program returned an answer that the checker rejects."""


# ---------------------------------------------------------------- references

# sigma(n): the largest Sidon set in Z/n, for every order the census asks
# about.  The perfect difference set orders 13, 21, 31, 57, 73, 91 give
# q + 1, and the rest agree with the table of Haanpaa, Huima and Ostergard
# (Discrete Appl. Math. 2004).  Every entry was recomputed by an exhaustive
# search independent of sidonkit (translate so that 0 is in the set and the
# wrap-around gap is the largest gap, then backtrack over increasing
# elements); selftest.py re-derives the entries up to 26 by brute force.
SIGMA = {
    2: 1, 3: 2, 4: 2, 5: 2, 6: 2, 7: 3, 8: 3, 9: 3, 10: 3, 11: 3, 12: 3,
    13: 4, 14: 4, 15: 4, 16: 4, 17: 4, 18: 4, 19: 4, 20: 4, 21: 5, 22: 4,
    23: 5, 24: 5, 25: 5, 26: 5, 27: 5, 28: 5, 29: 5, 30: 5, 31: 6, 32: 5,
    33: 5, 34: 5, 35: 6, 36: 6, 37: 6, 38: 6, 39: 6, 40: 6, 41: 6, 42: 6,
    43: 6, 44: 6, 45: 6, 46: 6, 47: 6, 48: 7, 49: 7, 50: 7, 51: 7, 52: 7,
    53: 7, 54: 7, 55: 7, 56: 7, 57: 8, 58: 7, 59: 7, 60: 7, 61: 7, 62: 7,
    63: 8, 64: 8, 65: 8, 66: 8, 67: 8, 68: 8, 69: 8, 70: 8, 71: 8, 72: 8,
    73: 9, 74: 8, 75: 8, 76: 8, 77: 8, 78: 8, 79: 8, 80: 9, 81: 8, 82: 8,
    83: 8, 84: 8, 85: 9, 86: 9, 87: 9, 88: 9, 89: 9, 90: 9, 91: 10, 92: 9,
    93: 9, 94: 9, 95: 9, 96: 9, 97: 9, 98: 9, 99: 9, 100: 9,
}

# largest Sidon set in rank-2 groups Z/a x Z/b (invariant-factor form)
SIGMA_RANK2 = {
    (2, 2): 1, (3, 3): 3, (2, 4): 2, (4, 4): 4, (2, 8): 3, (3, 6): 4,
    (5, 5): 5, (2, 12): 4, (3, 9): 5, (6, 6): 6, (4, 12): 7,
}

# Sidon classes of Z/n up to translation and negation, by size 3, 4, 5;
# selftest.py re-derives every row by brute force
CENSUS = {13: (8, 2, 0), 14: (7, 1, 0), 15: (12, 7, 0), 16: (11, 6, 0)}

# class numbers of Q(sqrt(-D)): a pool of squarefree D with h in 96-104
# whose class_group_primes costs about the same, and D = 1999993;
# selftest.py recounts them by reduced forms
CLASS_NUMBERS_POOL = {
    20105: 104, 27263: 102, 31303: 100, 34367: 99, 35362: 100, 38503: 102,
    40159: 96, 43311: 100, 44494: 100, 46462: 100, 47983: 96, 49690: 104,
    58069: 104, 58677: 104,
}
CLASS_NUMBERS = {**CLASS_NUMBERS_POOL, 1999993: 500}

# conjecture testers: (verdict, number of classes examined)
T_SUBGROUP = {3: (True, 1), 5: (True, 1)}
EXTENDABLE = {2: (True, 5), 3: (True, 17), 5: (False, 634)}

# dense constructions: (|G|, |S|) as functions of q
DENSE_PARAMS = {
    "erdos_turan": lambda q: (q * q, q),
    "singer": lambda q: (q * q + q + 1, q + 1),
    "bose": lambda q: (q * q - 1, q),
    "spence": lambda q: (q * (q - 1), q - 1),
    "hughes": lambda q: ((q - 1) ** 2, q - 2),
}

# families i-v act like the construction they are paired with, and the
# extracted set misses q + 1 by the deficit d of that construction
FAMILY_DEFICIT = {"i": 0, "ii": 1, "iii": 3, "iv": 2, "v": 1}
# in families vi and vii every line (vi) or point (vii) has a nontrivial
# stabilizer, so extraction must refuse
FAMILY_REFUSES = {"vi": "line", "vii": "point"}
# families viii and ix need a cube root of unity, i.e. q = 1 mod 3
FAMILY_NEEDS_Q_1_MOD_3 = ("viii", "ix")


# ------------------------------------------------------------ group algebra

def counting_bound(n):
    """Largest s with s (s - 1) <= n - 1."""
    s = 1
    while (s + 1) * s <= n - 1:
        s += 1
    return s


def _sub(factors, a, b):
    return tuple((x - y) % n for x, y, n in zip(a, b, factors))


def _add(factors, a, b):
    return tuple((x + y) % n for x, y, n in zip(a, b, factors))


def sidon_witness(factors, elems):
    """None when elems is Sidon in Z/n1 x ... x Z/nk, else (x, y, z, w)
    with x + y = z + w and {x, y} != {z, w}.  factors None means Z."""
    els = sorted({tuple(e) if factors is not None else e for e in elems})
    seen = {}
    for a, b in itertools.permutations(els, 2):
        d = _sub(factors, a, b) if factors is not None else a - b
        if d in seen:
            c, e = seen[d]              # c - e = a - b, so c + b = a + e
            return (c, b, a, e)
        seen[d] = (a, b)
    return None


def is_sum_witness(factors, S, w):
    """w is a nontrivial additive quadruple inside S."""
    x, y, z, v = (tuple(t) for t in w)
    members = {tuple(s) for s in S}
    return ({x, y, z, v} <= members and sorted((x, y)) != sorted((z, v))
            and _add(factors, x, y) == _add(factors, z, v))


def require_sidon(factors, elems, what):
    w = sidon_witness(factors, elems)
    if w is not None:
        raise WrongAnswer(f"{what} is not Sidon: {w[0]} + {w[1]} = {w[2]} + {w[3]}")


def index_coords(factors, idx):
    """Mixed-radix index -> coordinates, first coordinate most significant."""
    out = []
    for n in reversed(factors):
        idx, r = divmod(idx, n)
        out.append(r)
    return tuple(reversed(out))


def _apply_hom(factors, images, x):
    acc = (0,) * len(factors)
    for c, img in zip(x, images):
        acc = _add(factors, acc, tuple(c * t for t in img))
    return acc


def check_affine_witness(factors, S1, S2, images, translation):
    """phi(S1) + c == S2 with phi an automorphism given by generator images."""
    order = math.prod(factors)
    images = [tuple(i) for i in images]
    if len(images) != len(factors):
        raise WrongAnswer("affine witness has the wrong number of images")
    for img, n in zip(images, factors):
        if any((n * t) % m for t, m in zip(img, factors)):
            raise WrongAnswer(f"image {img} does not respect the order {n}")
    image_of_group = {_apply_hom(factors, images, x)
                      for x in itertools.product(*(range(n) for n in factors))}
    if len(image_of_group) != order:
        raise WrongAnswer("affine witness is not an automorphism")
    c = tuple(translation)
    mapped = {_add(factors, _apply_hom(factors, images, tuple(s)), c) for s in S1}
    if mapped != {tuple(s) for s in S2}:
        raise WrongAnswer("affine witness does not map S1 onto S2")


# ------------------------------------------------------------------ census

def check_max_sidon(factors, elems, complete):
    """Answer of max_sidon: a Sidon set of the maximum size when complete."""
    require_sidon(factors, elems, "max_sidon set")
    size = len({tuple(e) for e in elems})
    order = math.prod(factors)
    ref = SIGMA.get(order) if len(factors) <= 1 else SIGMA_RANK2.get(tuple(factors))
    if size > counting_bound(order) or (ref is not None and size > ref):
        raise WrongAnswer(f"size {size} exceeds sigma of {factors}")
    if not complete:
        return INCONCLUSIVE
    if ref is None:
        raise WrongAnswer(f"no reference for {factors}; the workload must not ask")
    if size != ref:
        raise WrongAnswer(f"max_sidon{factors} = {size}, reference says {ref}")
    return OK


def check_census(n, size, classes):
    """enumerate_sidon(Z/n, size): one canonical Sidon tuple per class."""
    seen = set()
    for cls in classes:
        if len(cls) != size or cls[0] != 0 or tuple(cls) in seen:
            raise WrongAnswer(f"bad census entry {cls} for Z/{n}, size {size}")
        seen.add(tuple(cls))
        require_sidon((n,), [(i,) for i in cls], f"census entry {cls}")
    want = CENSUS[n][size - 3]
    if len(classes) != want:
        raise WrongAnswer(f"Z/{n} has {want} classes of size {size}, got {len(classes)}")
    return OK


def check_t_subgroup(p, report):
    ok, n_classes = T_SUBGROUP[p]
    factors = (p, p)
    if report["ok"] != ok or report["n_classes"] != n_classes:
        raise WrongAnswer(f"T_subgroup({p}) = {report['ok']} over "
                          f"{report['n_classes']} classes")
    for cls in report["classes"]:
        S = [index_coords(factors, i) for i in cls["set"]]
        require_sidon(factors, S, f"T_subgroup class {cls['set']}")
        diffs = {_sub(factors, a, b) for a in S for b in S if a != b}
        t_set = [index_coords(factors, i) for i in cls["t_set"]]
        want = sorted({(0, 0)} | {x for x in itertools.product(range(p), repeat=2)
                                  if x not in diffs})
        if sorted(t_set) != want:
            raise WrongAnswer(f"wrong T-set for {cls['set']}")
    return OK


def check_extendable(p, report):
    ok, n_classes = EXTENDABLE[p]
    n = p * p + p + 1
    if report["ok"] != ok or report["n_classes"] != n_classes:
        raise WrongAnswer(f"extendable({p}) = {report['ok']} over "
                          f"{report['n_classes']} classes")
    for rec in report["classes"]:
        require_sidon((n,), [(i,) for i in rec["set"]], f"class {rec['set']}")
        if rec["extends"]:
            comp = rec["completion"]
            if not set(rec["set"]) <= set(comp) or len(set(comp)) != p + 1:
                raise WrongAnswer(f"bad completion {comp} of {rec['set']}")
            require_sidon((n,), [(i,) for i in comp], f"completion {comp}")
    return OK


# ------------------------------------------------------------------ planes

def check_dense(name, q, factors, S, sidon, t_set_size):
    """construct_dense(name, GF(q)) followed by is_sidon."""
    want_n, want_s = DENSE_PARAMS[name](q)
    k = len({tuple(s) for s in S})
    if math.prod(factors) != want_n or k != want_s:
        raise WrongAnswer(f"{name}({q}): (|G|, |S|) = ({math.prod(factors)}, {k})")
    require_sidon(factors, S, f"{name}({q})")
    if sidon is not True or t_set_size != want_n - k * (k - 1):
        raise WrongAnswer(f"is_sidon on {name}({q}) said sidon={sidon}, "
                          f"|T| = {t_set_size}")
    return OK


def check_refusal(name, q):
    """construct_dense refused: only the parabola in even characteristic may."""
    if name == "erdos_turan" and q % 2 == 0:
        return OK
    raise WrongAnswer(f"{name}({q}) was refused")


def check_plane(q, n_points, n_lines, line_sizes, point_degrees, order):
    """dev(G, S) of a Singer set is PG(2, q)."""
    n = q * q + q + 1
    if order != q or n_points != n or n_lines != n:
        raise WrongAnswer(f"Singer development over GF({q}): order {order}, "
                          f"{n_points} points, {n_lines} lines")
    if set(line_sizes) != {q + 1} or set(point_degrees) != {q + 1}:
        raise WrongAnswer(f"Singer development over GF({q}) is not regular")
    return OK


def check_family(q, tag, outcome):
    """family_build + orbit_analysis + extract_sidon for one family."""
    kind = outcome["kind"]
    if tag in FAMILY_NEEDS_Q_1_MOD_3 and q % 3 != 1:
        if kind != "build_refused":
            raise WrongAnswer(f"family {tag} built over GF({q})")
        return OK
    if kind == "build_refused":
        raise WrongAnswer(f"family {tag} refused over GF({q})")
    n = q * q + q + 1
    factors = tuple(outcome["group"])
    order = math.prod(factors)
    for orbits in (outcome["point_orbits"], outcome["line_orbits"]):
        if sum(orbits) != n or any(order % s for s in orbits):
            raise WrongAnswer(f"family {tag} over GF({q}): orbit sizes {orbits}")
    if tag in FAMILY_REFUSES:
        if kind != "extract_refused" or outcome["side"] != FAMILY_REFUSES[tag]:
            raise WrongAnswer(f"family {tag} over GF({q}) extracted a set")
        return OK
    if kind != "extracted":
        raise WrongAnswer(f"family {tag} over GF({q}) refused to extract")
    S, d = outcome["S"], outcome["d"]
    require_sidon(factors, S, f"extraction from family {tag} over GF({q})")
    bound_ok = d * order <= (q + 1) * (n - order)
    if len(S) != q + 1 - d or outcome["bound_ok"] != bound_ok or not bound_ok:
        raise WrongAnswer(f"family {tag} over GF({q}): |S| = {len(S)}, d = {d}")
    if tag in FAMILY_DEFICIT and d != FAMILY_DEFICIT[tag]:
        raise WrongAnswer(f"family {tag} over GF({q}) has deficit {d}")
    return OK


def check_recover(q, report):
    """recover_constructions(GF(q)): families i-v match their construction."""
    verdict = OK
    tags = [e["family"] for e in report]
    if tags != list(FAMILY_DEFICIT):
        raise WrongAnswer(f"recovery over GF({q}) reported families {tags}")
    for e in report:
        tag = e["family"]
        if "skipped" in e:
            if not (tag == "v" and q % 2 == 0):
                raise WrongAnswer(f"recovery over GF({q}) skipped family {tag}")
            continue
        factors = tuple(e["group"]["factors"])
        require_sidon(factors, e["extracted"], f"family {tag} over GF({q})")
        check_dense(e["construction"], q, factors, e["constructed"], True,
                    math.prod(factors) - len(e["constructed"]) * (len(e["constructed"]) - 1))
        if e["equivalent"]:
            w = e["witness"]
            check_affine_witness(factors, e["extracted"], e["constructed"],
                                 w["automorphism"], w["translation"])
        elif e["conclusive"]:
            raise WrongAnswer(f"recovery over GF({q}) denies that family {tag} "
                              f"matches {e['construction']}")
        else:
            verdict = INCONCLUSIVE
    return verdict


# -------------------------------------------------------------- sparse / cli

def check_sparse(argv, code, out):
    """A `sidonkit sparse ...` call: a Sidon set, verified or certified."""
    if code == 3:
        return INCONCLUSIVE
    if code != 0:
        raise WrongAnswer(f"{' '.join(argv)} exited with {code}: {out.strip()[:200]}")
    j = parse_json(argv, out)
    factors = None if j["group"] is None else tuple(j["group"])
    values = j["values"]
    if j["sidon"] is not True:
        raise WrongAnswer(f"{' '.join(argv)} returned a set it calls non-Sidon")
    require_sidon(factors, values, " ".join(argv))
    k = len(values)
    det = j["details"]
    if factors is not None:
        v = j["verification"]
        if (v["sidon"] is not True or v["size"] != k or v["energy"] != 2 * k * k - k
                or v["t_set_size"] != math.prod(factors) - k * (k - 1)):
            raise WrongAnswer(f"{' '.join(argv)}: verification {v}")
    name = j["construction"]
    if name == "class_group_primes":
        h = CLASS_NUMBERS.get(det["D"])
        if math.prod(det["invariants"]) != det["class_number"] or h not in (
                None, det["class_number"]):
            raise WrongAnswer(f"class group {det['invariants']} of D = {det['D']}: "
                              f"h = {det['class_number']}, reference {h}")
    if name.startswith("framework:"):
        checks = det["checks"]
        if (det["pairs_scanned"] != k * (k + 1) // 2
                or not checks["rounding_faithful"]["ok"]
                or not checks["phi_injective"]["ok"]):
            raise WrongAnswer(f"{' '.join(argv)}: certificate {checks}")
    if name == "log_primes" and len(values) != len(det["primes"]):
        raise WrongAnswer("log_primes dropped a prime")
    return OK


def check_verify(factors, S, code, out):
    """`sidonkit verify`: the verdict, the witness and the T-set size."""
    if code != 0:
        raise WrongAnswer(f"verify exited with {code}")
    out, t_set_size = _cut_t_set(out)
    j = parse_json(["verify"], out)
    witness = sidon_witness(factors, S)
    k = len({tuple(s) for s in S})
    if j["sidon"] != (witness is None) or j["size"] != k:
        raise WrongAnswer(f"verify said sidon={j['sidon']} for a set that "
                          f"{'is' if witness is None else 'is not'} Sidon")
    if witness is None:
        if t_set_size != math.prod(factors) - k * (k - 1):
            raise WrongAnswer("verify returned a T-set of the wrong size")
        if j["perfect_difference_set"] != (t_set_size == 1):
            raise WrongAnswer("perfect_difference_set flag disagrees with |T|")
    elif not is_sum_witness(factors, S, j["witness"]):
        raise WrongAnswer(f"verify witness {j['witness']} is not a sum collision")
    return OK


ORDER_FORMS = {
    "(q-1)^2": lambda q: (q - 1) ** 2,
    "q(q-1)": lambda q: q * (q - 1),
    "q^2": lambda q: q * q,
    "q^2-1": lambda q: q * q - 1,
    "q^2+q+1": lambda q: q * q + q + 1,
}


def check_orders(n, code, out):
    """`sidonkit orders n`: every way to write n in a dense-order shape."""
    if code != 0:
        raise WrongAnswer(f"orders {n} exited with {code}")
    j = parse_json(["orders"], out)
    want = []
    for form, f in ORDER_FORMS.items():
        q = 2
        while f(q) <= n:
            if f(q) == n:
                want.append([form, q])
            q += 1
    r = 2
    while r ** 4 - r <= n:
        if r ** 4 - r == n:
            want.append(["q^2-sqrt(q)", r * r])
        r += 1
    if sorted(j["solutions"]) != sorted(want) or j["admissible"] != bool(want):
        raise WrongAnswer(f"orders {n}: got {j['solutions']}, expected {want}")
    return OK


def _cut_t_set(out):
    """Count the elements of verify's T-set array and drop it from the JSON.

    The T-set of a small set in Z/2^20 is about a million coordinate lists;
    parsing them would put the checker's time and memory into the run.
    Every element is a flat list of integers, so the array ends at the
    first "]]" and each "[" inside it opens one element."""
    key = '"t_set": ['
    start = out.find(key)
    if start < 0:
        return out, None
    start += len(key) - 1
    end = out.find("]]", start) + 2 if out.startswith("[[", start) else start + 2
    return out[:start] + "[]" + out[end:], out.count("[", start + 1, end)


def parse_json(argv, out):
    try:
        return json.loads(out)
    except ValueError:
        raise WrongAnswer(f"{' '.join(argv)} printed no JSON object") from None


def class_number(D):
    """h(Q(sqrt(-D))) for squarefree D by counting reduced forms."""
    d = -D if D % 4 == 3 else -4 * D
    h, a = 0, 1
    while 3 * a * a <= -d:
        for b in range(-a + 1, a + 1):
            if (b * b - d) % (4 * a):
                continue
            c = (b * b - d) // (4 * a)
            if c < a or (c == a and b < 0) or math.gcd(math.gcd(a, b), c) != 1:
                continue
            h += 1
        a += 1
    return h
