"""Command line front end: JSON on stdout, logs on stderr.

Exit codes: 0 success, 2 a precondition failed (bad parameters, wrong
group, non-Sidon input), 3 a search or scan gave up on its budget
before reaching an answer.  Group elements are printed as coordinate
arrays; sigma tables are the one CSV output.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import sys

from .dense import (
    DENSE_NAMES,
    ConstructionError,
    PlanarCandidate,
    construct_dense,
    dense_parameters,
    is_planar,
    planar_graph,
    polarization,
    is_nondegenerate,
)
from .fields import FieldError, field_create
from .groups import AbelianGroup, GroupError
from .incidence import develop, is_partial_linear_space, is_projective_plane, negation_is_duality
from .ntheory import prime_power
from .pell import PellError
from .planes3 import (
    FAMILY_TAGS,
    PlaneError,
    extract_sidon,
    family_build,
    orbit_analysis,
    recover_constructions,
)
from .quadforms import FormError
from .search import (
    BudgetExceeded,
    SearchError,
    admissible_orders,
    enumerate_sidon,
    max_sidon,
    sigma_table,
    test_extendable,
    test_T_subgroup,
)
from .sidon import check_verification_cap, is_sidon
from .sparse import (
    FRAMEWORK_FIELDS,
    BudgetError,
    FrameworkSpec,
    SparseError,
    class_group_primes,
    cubic_graph,
    framework_build,
    gaussian_angles,
    log_primes,
    perturb,
    quotient_ring_primes,
    real_quadratic,
)

log = logging.getLogger("sidonkit")

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_BUDGET = 3

PRECONDITION_ERRORS = (
    ConstructionError,
    FieldError,
    FormError,
    GroupError,
    PellError,
    PlaneError,
    SearchError,
    SparseError,
    ValueError,
)


def _emit(payload):
    print(json.dumps(payload, sort_keys=True))


def _prime_power(q):
    pd = prime_power(q)
    if pd is None:
        raise FieldError(f"{q} is not a prime power")
    return pd


def _field(q):
    return field_create(*_prime_power(q))


def _parse_group(text):
    try:
        factors = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise GroupError(f"cannot parse group {text!r}; use e.g. 4,8")
    return AbelianGroup(factors)


def _parse_elements(text, group):
    out = []
    for part in text.split(","):
        coords = tuple(int(c) for c in part.split(":"))
        out.append(group.element(coords))
    return out


def _int_list(text):
    return [int(x) for x in text.split(",")] if text else []


# ------------------------------------------------------------- handlers


def cmd_construct(args):
    pd = _prime_power(args.q)
    planar = args.name == "planar"
    if planar and args.exponent is None:
        raise ConstructionError("construct planar needs --exponent")
    # the output is verified, so an order past is_sidon's cap is refused
    # from the parameter formula before the field or the set is built
    check_verification_cap(args.q ** 2 if planar else dense_parameters(args.name, args.q)[0])
    F = field_create(*pd)
    if planar:
        cand = PlanarCandidate.monomial(F, args.exponent)
        rep = is_planar(cand)
        if not rep.planar:
            raise ConstructionError(
                f"x^{args.exponent} over GF({F.q}) is not planar "
                f"(witness h={rep.witness})"
            )
        group, S, note = planar_graph(cand)
        beta = polarization(cand)
        extra = {"exponent": args.exponent, "nondegenerate": is_nondegenerate(beta)}
    else:
        group, S, note = construct_dense(args.name, F)
        extra = {}
    report = is_sidon(group, S)
    payload = {
        "construction": args.name,
        "q": F.q,
        "group": list(group.factors),
        "set": [g.to_json() for g in sorted(S)],
        "size": len(S),
        "note": note,
        "sidon": report.sidon,
        "perfect_difference_set": report.t_set_size == 1,
        "t_set_size": report.t_set_size,
    }
    payload.update(extra)
    _emit(payload)
    return EXIT_OK


def cmd_verify(args):
    group = _parse_group(args.group)
    S = _parse_elements(args.set, group)
    report = is_sidon(group, S)
    payload = report.to_json(compact=True)
    del payload["t_set_size"]
    payload["perfect_difference_set"] = report.sidon and report.t_set_size == 1
    # the T-set is O(|G|) text: write it where its key sorts, straight from
    # the report, around the rest of the payload
    payload["t_set"] = None
    head, _, tail = json.dumps(payload, sort_keys=True).partition('"t_set": null')
    out = sys.stdout
    out.write(f'{head}"t_set": ')
    report.write_t_set(out)
    out.write(f"{tail}\n")
    return EXIT_OK


def cmd_develop(args):
    group = _parse_group(args.group)
    S = _parse_elements(args.set, group)
    inc = develop(group, S)
    pls = is_partial_linear_space(inc)
    plane = is_projective_plane(inc)
    payload = {
        "n_points": inc.n_points,
        "n_lines": inc.n_lines,
        "partial_linear_space": pls.to_json(),
        "projective_plane": plane.to_json(),
        "self_dual_via_negation": negation_is_duality(group, inc),
    }
    _emit(payload)
    return EXIT_OK


def cmd_planes(args):
    if args.action == "list":
        _emit({"families": list(FAMILY_TAGS)})
        return EXIT_OK
    F = _field(args.q)
    if args.action == "recover":
        _emit({"q": F.q, "recovery": recover_constructions(F)})
        return EXIT_OK
    if args.family is None:
        raise PlaneError(f"planes {args.action} needs --family")
    action = family_build(F, args.family)
    if args.action == "show":
        payload = action.to_json()
        payload["order"] = action.group.order
        _emit(payload)
        return EXIT_OK
    if args.action == "orbits":
        payload = action.to_json()
        payload["orbits"] = orbit_analysis(action).to_json()
        _emit(payload)
        return EXIT_OK
    if args.action == "extract":
        ext = extract_sidon(action)
        payload = action.to_json()
        payload["extraction"] = ext.to_json()
        rep = is_sidon(action.group, ext.S)
        payload["sidon"] = rep.sidon
        _emit(payload)
        return EXIT_OK
    raise PlaneError(f"unknown planes action {args.action!r}")


# the sparse constructions that take one integer, by their --option
SPARSE_ONE_PARAM = {
    "log_primes": (log_primes, "X"),
    "quotient_ring_primes": (quotient_ring_primes, "m"),
    "gaussian_angles": (gaussian_angles, "n"),
    "class_group_primes": (class_group_primes, "D"),
    "real_quadratic": (real_quadratic, "D"),
}


def cmd_sparse(args):
    name = args.name
    if name in SPARSE_ONE_PARAM:
        fn, param = SPARSE_ONE_PARAM[name]
        value = getattr(args, param)
        if value is None:
            raise SparseError(f"{name} needs --{param}")
        result = fn(value)
    elif name == "cubic_graph":
        if args.q is None:
            raise SparseError("cubic_graph needs --q")
        subset = _int_list(args.subset) if args.subset else None
        result = cubic_graph(args.q, subset)
    elif name == "perturb":
        if not args.values:
            raise SparseError("perturb needs --values")
        vals = _int_list(args.values)
        eps = None
        if args.offsets:
            offs = _int_list(args.offsets)
            if len(offs) != len(vals):
                raise SparseError("--offsets must match --values in length")
            eps = dict(zip(sorted(set(vals)), offs))
        result = perturb(vals, eps)
    elif name == "framework":
        spec = FrameworkSpec(
            args.framework_field,
            X=args.X,
            n=args.n,
            D=args.D,
            scale=args.scale,
            mods=tuple(_int_list(args.mods)) if args.mods else (),
            rounding=args.rounding,
            scan_cap=args.scan_cap,
        )
        result = framework_build(spec)
    else:
        raise SparseError(f"unknown sparse construction {name!r}")
    _emit(result.to_json())
    return EXIT_OK


def cmd_search(args):
    group = _parse_group(args.group) if args.group else None
    if args.sigma:
        orders = _int_list(args.sigma)
        table = sigma_table(orders, args.budget)
        sys.stdout.write("n,sigma\n")
        for n in orders:
            sys.stdout.write(f"{n},{table[n]}\n")
        return EXIT_OK
    if group is None:
        raise SearchError("search needs --group (or --sigma)")
    if args.enumerate:
        classes = enumerate_sidon(group, size=args.size, budget=args.budget)
        _emit(
            {
                "group": list(group.factors),
                "size": args.size,
                "count": len(classes),
                "classes": [list(c) for c in classes],
            }
        )
        return EXIT_OK
    res = max_sidon(group, args.budget)
    _emit(res.to_json())
    return EXIT_OK if res.complete else EXIT_BUDGET


def cmd_conjecture(args):
    if args.name == "t_subgroup":
        rep = test_T_subgroup(args.p, args.budget)
    elif args.name == "extendable":
        rep = test_extendable(args.p, args.budget)
    else:
        raise SearchError(f"unknown conjecture {args.name!r}")
    _emit(rep.to_json())
    return EXIT_OK


def cmd_orders(args):
    hits = admissible_orders(args.n)
    _emit(
        {
            "n": args.n,
            "admissible": bool(hits),
            "solutions": [[form, q] for form, q in hits],
        }
    )
    return EXIT_OK


# ------------------------------------------------------------ arg wiring


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="sidonkit",
        description="Sidon sets in finite abelian groups: constructions, "
        "projective planes, exhaustive searches.",
    )
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="dense constructions and planar graphs")
    p.add_argument("name", choices=DENSE_NAMES + ("planar",))
    p.add_argument("q", type=int)
    p.add_argument("--exponent", type=int, help="monomial exponent for planar")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("verify", help="Sidon test for an explicit set")
    p.add_argument("--group", required=True, help="invariant factors, e.g. 4,8")
    p.add_argument("--set", required=True, help="elements like 0:1,2:3 (coords by ':')")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("develop", help="incidence structure dev(G, S)")
    p.add_argument("--group", required=True)
    p.add_argument("--set", required=True)
    p.set_defaults(fn=cmd_develop)

    p = sub.add_parser("planes", help="abelian group actions on P^2")
    p.add_argument("action", choices=("list", "show", "orbits", "extract", "recover"))
    p.add_argument("--family", choices=FAMILY_TAGS)
    p.add_argument("--q", type=int)
    p.set_defaults(fn=cmd_planes)

    p = sub.add_parser("sparse", help="constructions from prime numbers")
    p.add_argument(
        "name", choices=tuple(SPARSE_ONE_PARAM) + ("cubic_graph", "perturb", "framework")
    )
    p.add_argument("--X", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--D", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--subset", help="comma separated field codes")
    p.add_argument("--values", help="comma separated integers")
    p.add_argument("--offsets", help="offsets aligned with sorted --values")
    p.add_argument("--framework-field", default="rationals", choices=FRAMEWORK_FIELDS)
    p.add_argument("--scale", type=int)
    p.add_argument("--mods", help="unit-group moduli, e.g. 11")
    p.add_argument("--rounding", default="floor", choices=("floor", "nearest"))
    p.add_argument("--scan-cap", type=int, default=3000)
    p.set_defaults(fn=cmd_sparse)

    p = sub.add_parser("search", help="maximum Sidon sets / census / sigma table")
    p.add_argument("--group")
    p.add_argument("--enumerate", action="store_true")
    p.add_argument("--size", type=int)
    p.add_argument("--sigma", help="comma separated orders, CSV output")
    p.add_argument("--budget", type=int, default=5_000_000)
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("conjecture", help="exhaustive conjecture testers")
    p.add_argument("name", choices=("t_subgroup", "extendable"))
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--budget", type=int, default=5_000_000)
    p.set_defaults(fn=cmd_conjecture)

    p = sub.add_parser("orders", help="orders admitting a dense construction")
    p.add_argument("n", type=int)
    p.set_defaults(fn=cmd_orders)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(message)s",
    )
    try:
        return args.fn(args)
    except (BudgetError, BudgetExceeded) as exc:
        log.error("budget exhausted: %s", exc)
        _emit({"error": str(exc), "budget_exhausted": True})
        return EXIT_BUDGET
    except PRECONDITION_ERRORS as exc:
        log.error("%s", exc)
        _emit({"error": str(exc)})
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
