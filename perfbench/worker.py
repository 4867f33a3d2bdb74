"""One pass of one workload, in a fresh interpreter.

Started by run.py with the checkout's src/ on the path.  Issues the
workload's query pass for the seed once (or its first --limit queries),
in a closed loop with one client, checks every answer, and prints one
JSON object on its last stdout line with the latency of every query in
pass order and a digest of the whole generated pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checker  # noqa: E402
import workloads  # noqa: E402


def run(workload, seed, limit, trace, spans_path):
    make_pass, execute, check = workloads.WORKLOADS[workload]
    api = workloads.make_api(workload)
    import sidonkit
    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(sidonkit.__file__).startswith(src + os.sep):
        raise SystemExit(f"sidonkit imported from {sidonkit.__file__}, not {src}")

    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(api)

    lat, verdicts, errors = [], {"ok": 0, "inconclusive": 0}, []
    qs = make_pass(random.Random(f"{workload}:{seed}:0"))
    digest = hashlib.sha256()
    for q in qs:
        digest.update(workloads.query_json(q).encode())
    qs = qs[:limit]
    start = time.perf_counter()
    for i, q in enumerate(qs):
        if tracer is not None:
            tracer.query = i
        t0 = time.perf_counter()
        try:
            res = execute(api, q)
        except Exception as exc:   # an unexpected failure is an error answer
            lat.append(time.perf_counter() - t0)
            errors.append(f"{q}: raised {type(exc).__name__}: {exc}")
            continue
        lat.append(time.perf_counter() - t0)
        try:
            verdicts[check(q, res)] += 1
        except checker.WrongAnswer as exc:
            errors.append(f"{q}: {exc}")
    wall = time.perf_counter() - start

    out = {
        "queries": len(qs),
        "digest": digest.hexdigest()[:16],
        "wall_s": wall,
        "ok": verdicts["ok"],
        "inconclusive": verdicts["inconclusive"],
        "errors": len(errors),
        "error_messages": errors[:5],
        "latencies_s": lat,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.metrics(wall)
        tracer.write_spans(spans_path)
        out["spans"] = len(tracer.spans)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--limit", type=int)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--spans", default=os.path.join(".bench_out", "spans.jsonl"))
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.limit, args.trace, args.spans)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
