"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that the metric names the
benchmark prints match BENCHMARK.json and metrics.json (the units are read
from BENCHMARK.json), runs a tiny pass of every workload through the
checker and the metric code, checks that every order the census asks about
has a reference, re-derives part of the reference tables by brute force,
and plants faults the checker must catch:
a non-Sidon set reported as Sidon, a wrong sigma(n) and a bad affine
witness.  Exits 1 on the first failure.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import checker  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checker import WrongAnswer  # noqa: E402

# queries left out of the tiny pass: each takes seconds
HEAVY = {
    "census": lambda q: (q[0] == "sigma" and q[1] in workloads.HARD_ORDERS)
    or q in (("t_subgroup", 5), ("extendable", 5)),
    "planes": lambda q: q[1] >= 11 or q[0] == "recover" and q[1] == 9,
    "sparse_cli": lambda q: (q[0] == "verify" and max(q[1]) > 1 << 14)
    or (len(q) > 3 and q[3] == str(workloads.ANCHOR_CLASS_D)),
}
TINY_PASS = 12


def test_metric_tables():
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "metrics.json")) as fh:
        notes = json.load(fh)
    units = run.metric_units()
    e2e, layer = units["end_to_end"], units["per_layer"]
    assert set(notes["end_to_end"]) == set(e2e), set(notes["end_to_end"]) ^ set(e2e)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert set(notes["workloads"]) == set(workloads.WORKLOADS)
    assert set(notes["per_layer"]) == set(layer)
    for name, note in notes["per_layer"].items():
        assert set(note["moves"]) <= set(e2e) | {"inconclusive_share"}, name
        assert set(note["on"]) <= set(workloads.WORKLOADS), name


def test_tiny_passes():
    import sidonkit  # noqa: F401  (every layer module must be loaded)
    import sidonkit.cli  # noqa: F401
    units = run.metric_units()
    for name, (make_pass, execute, check) in workloads.WORKLOADS.items():
        qs = [q for q in make_pass(random.Random(f"{name}:selftest:0"))
              if not HEAVY[name](q)][:TINY_PASS]
        api = workloads.make_api(name)
        tracer = tracing.Tracer()
        tracer.install(api)
        try:
            verdicts = [check(q, execute(api, q)) for q in qs]
        finally:
            tracer.uninstall()
        assert set(verdicts) <= {checker.OK, checker.INCONCLUSIVE}, verdicts
        metrics = tracer.metrics(1.0)
        metrics["trace.overhead"] = 0.0
        assert set(metrics) == set(units["per_layer"]), name
        e2e = run.end_to_end_metrics([0.001] * len(verdicts),
                                     verdicts.count(checker.INCONCLUSIVE),
                                     len(verdicts), 1.0, 1.0)
        assert set(e2e) == set(units["end_to_end"]), name
        assert tracer.spans, f"{name}: no spans recorded"
        assert not tracer._installed


def test_generator_is_seeded():
    for name, (make_pass, _, _) in workloads.WORKLOADS.items():
        a = make_pass(random.Random(f"{name}:7:0"))
        b = make_pass(random.Random(f"{name}:7:0"))
        c = make_pass(random.Random(f"{name}:8:0"))
        assert a == b and a != c, name
        assert len(a) == len(c), name        # every pass has the same shape


def _brute_sigma(n):
    best = 1
    for k in range(2, checker.counting_bound(n) + 1):
        if not any(checker.sidon_witness((n,), [(0,)] + [(x,) for x in rest]) is None
                   for rest in itertools.combinations(range(1, n), k - 1)):
            break
        best = k
    return best


def _brute_census(n, k):
    classes = set()
    for rest in itertools.combinations(range(1, n), k - 1):
        S = (0,) + rest
        if checker.sidon_witness((n,), [(x,) for x in S]) is None:
            images = [sorted((s - a) % n for s in S) for a in S]
            images += [sorted((a - s) % n for s in S) for a in S]
            classes.add(min(map(tuple, images)))
    return len(classes)


def test_reference_tables():
    qs = workloads.census_pass(random.Random("census:selftest:0"))
    asked = {q[1] for q in qs if q[0] == "sigma"}
    assert asked <= set(checker.SIGMA), sorted(asked - set(checker.SIGMA))
    for n in range(2, 27):
        assert _brute_sigma(n) == checker.SIGMA[n], n
    for n, counts in checker.CENSUS.items():
        assert tuple(_brute_census(n, k) for k in (3, 4, 5)) == counts, n
    for D, h in checker.CLASS_NUMBERS.items():
        assert checker.class_number(D) == h, D


def _raises(fn, *args):
    try:
        fn(*args)
    except WrongAnswer:
        return
    raise AssertionError(f"{fn.__name__} accepted a planted fault")


def test_planted_faults():
    # a non-Sidon set reported as Sidon: 0 + 3 = 1 + 2 in Z/13
    bad = [(0,), (1,), (2,), (3,)]
    _raises(checker.check_dense, "singer", 3, (13,), bad, True, 1)
    out = json.dumps({"construction": "quotient_ring_primes", "group": [13],
                      "values": [list(s) for s in bad], "details": {}, "sidon": True,
                      "verification": {"sidon": True, "size": 4, "energy": 28,
                                       "t_set_size": 1}})
    _raises(checker.check_sparse, ["sparse", "quotient_ring_primes"], 0, out)
    out = json.dumps({"sidon": True, "size": 4, "witness": None, "t_set": [[0]],
                      "perfect_difference_set": True})
    _raises(checker.check_verify, (13,), bad, 0, out)
    # a T-set of the wrong size: {0, 1, 3, 9} is a perfect difference set mod 13
    pds = [(0,), (1,), (3,), (9,)]
    out = {"sidon": True, "size": 4, "witness": None, "t_set": [[0]],
           "perfect_difference_set": True}
    assert checker.check_verify((13,), pds, 0, json.dumps(out)) == checker.OK
    out["t_set"].append([5])
    _raises(checker.check_verify, (13,), pds, 0, json.dumps(out))
    # a wrong sigma(n): Z/13 has a perfect difference set of size 4
    _raises(checker.check_max_sidon, (13,), [(0,), (1,), (3,)], True)
    _raises(checker.check_max_sidon, (13,), [(0,), (1,), (3,), (9,), (5,)], False)
    # a bad affine witness, made by shifting a correct one
    import sidonkit
    good = json.dumps(sidonkit.recover_constructions(sidonkit.field_create(5, 1)))
    assert checker.check_recover(5, json.loads(good)) == checker.OK
    report = json.loads(good)
    entry = report[0]
    t = entry["witness"]["translation"]
    t[0] = (t[0] + 1) % entry["group"]["factors"][0]
    _raises(checker.check_recover, 5, report)
    # an inconclusive recovery is not an error, a conclusive denial is
    report = json.loads(good)
    report[1].update(equivalent=False, conclusive=False, witness=None)
    assert checker.check_recover(5, report) == checker.INCONCLUSIVE
    report[1]["conclusive"] = True
    _raises(checker.check_recover, 5, report)


def main():
    tests = [test_metric_tables, test_generator_is_seeded, test_planted_faults,
             test_reference_tables, test_tiny_passes]
    for test in tests:
        try:
            test()
        except Exception as exc:
            print(f"FAIL {test.__name__}: {type(exc).__name__}: {exc}")
            return 1
        print(f"ok   {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
