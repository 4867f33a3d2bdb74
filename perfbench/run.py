"""sidonkit benchmark: one command, one workload, every answer checked.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ./src.
--trace 0 prints the end-to-end metrics.  The run issues the seed's query
pass several times, each time in a fresh interpreter (one pass per
PASS_SHARE_S seconds of --seconds; the workload's MEASURED_ONCE last
queries only in the first), and takes every query's latency as its
fastest over those passes: the host's speed swings by up to 2x for
seconds to minutes at a time, and a query is rarely slowed in every
pass.  Set-up time is the median of several fresh interpreters
importing the package, spread over the run.  --trace 1 prints the
per-layer metrics of one traced pass, and the tracing overhead against
one untraced pass of the same queries.  The last stdout line is one
JSON object; lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import MEASURED_ONCE, SETUP_IMPORTS, WORKLOADS  # noqa: E402

# one fresh pass per this many seconds of --seconds, at least one: the
# pass count depends on --seconds alone, never on the speed measured, so
# the fastest-of-passes latency is always taken over the same count
PASS_SHARE_S = 15
SETUP_PER_PASS = 2
CHILD_TIMEOUT_S = 170
OUT_DIR = ".bench_out"


def metric_units():
    """{"end_to_end" | "per_layer": {name: unit}} as BENCHMARK.json lists them."""
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in bench[kind]}
            for kind in ("end_to_end", "per_layer")}


def percentile(sorted_values, pct):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def tail_percentile(n):
    """Highest whole percentile with at least 10 of n samples beyond it."""
    pct = 99
    while pct > 50 and n - -(-n * pct // 100) < 10:
        pct -= 1
    return pct


def end_to_end_metrics(lat, inconclusive, attempted, peak_rss_mb, setup_s):
    """The end-to-end metrics from per-query latencies (s) and verdicts."""
    lat = sorted(lat)
    return {
        "setup_s": setup_s,
        # answers per second of the program's own calls: the answer checks
        # between queries are the benchmark's time, not the program's
        "queries_per_s": len(lat) / sum(lat),
        "verdict_p50_ms": 1000 * percentile(lat, 50),
        "verdict_tail_ms": 1000 * percentile(lat, tail_percentile(len(lat))),
        "conclusive_share": 1.0 - inconclusive / attempted,
        "peak_rss_mb": peak_rss_mb,
    }


def child_env():
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(workload, env, deadline, samples):
    """Times from spawning an interpreter until its imports are done."""
    code = ("import sys\n"
            + "".join(f"import {m}\n" for m in SETUP_IMPORTS[workload])
            + "sys.stdout.write('ready\\n')\nsys.stdout.flush()\n")
    for _ in range(SETUP_PER_PASS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            try:
                _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise RuntimeError("set-up probe timed out")
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()[-500:]}")
        samples.append(t1 - t0)


def run_worker(env, deadline, *args):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *map(str, args)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker timed out: {' '.join(cmd[1:])}") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "sidonkit", "__init__.py")):
        print("run.py: no src/sidonkit here; run from the root of a sidonkit checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    env = child_env()
    os.makedirs(OUT_DIR, exist_ok=True)
    common = ["--workload", args.workload, "--seed", args.seed]
    try:
        if args.trace:
            plain = run_worker(env, deadline, *common)
            spans = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
            traced = run_worker(env, deadline, *common, "--trace", 1, "--spans", spans)
            passes = [traced]
            metrics = dict(traced["trace"])
            metrics["trace.overhead"] = traced["wall_s"] / plain["wall_s"] - 1.0
            units = metric_units()["per_layer"]
        else:
            setup, passes = [], []
            for _ in range(max(1, round(args.seconds / PASS_SHARE_S))):
                measure_setup(args.workload, env, deadline, setup)
                limit = ([] if not passes else
                         ["--limit", passes[0]["queries"] - MEASURED_ONCE[args.workload]])
                passes.append(run_worker(env, deadline, *common, *limit))
            plain = passes[0]
            units = metric_units()["end_to_end"]
        if any(p["digest"] != plain["digest"] for p in passes):
            raise RuntimeError("passes of one seed issued different queries")
        # every query's fastest latency over the passes that issued it
        lat = list(passes[0]["latencies_s"])
        for p in passes[1:]:
            lat[:len(p["latencies_s"])] = map(min, lat, p["latencies_s"])
        attempted = sum(p["queries"] for p in passes)
        inconclusive = sum(p["inconclusive"] for p in passes)
        failed = sum(p["errors"] for p in passes)
        if not args.trace:
            metrics = end_to_end_metrics(lat, inconclusive, attempted,
                                         max(p["peak_rss_mb"] for p in passes),
                                         statistics.median(setup))
        if set(metrics) != set(units):
            raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                               "do not match BENCHMARK.json")
    except RuntimeError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    n = len(lat)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} fresh passes of "
          f"{n} queries (the last {MEASURED_ONCE[args.workload]} only in the first), "
          f"digest {plain['digest']}")
    print(f"  ok {attempted - inconclusive - failed}  inconclusive {inconclusive} "
          f"(inconclusive_share {inconclusive / attempted:.4f})  "
          f"errors {failed} (error_share {failed / attempted:.4f})")
    print(f"  verdict_tail_ms is p{tail_percentile(n)} of {n} queries, "
          "each at its fastest over the passes")
    for t, i in sorted(((t, i) for i, t in enumerate(lat)), reverse=True)[:3]:
        print(f"  slow: {1000 * t:.1f} ms, query {i} of the pass")
    for msg in [m for p in passes for m in p["error_messages"]][:5]:
        print(f"  error: {msg}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
