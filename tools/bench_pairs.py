"""Alternating parent/change pairs of the benchmark, recorded as BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent REV --pr N census:7:10 planes:1:5

The change is HEAD.  Each WORKLOAD:SEED:PAIRS argument runs
`perfbench/run.py --workload WORKLOAD --seed SEED --seconds S`, with S
the `run_seconds` of BENCHMARK.json, PAIRS times on each revision, in
pairs whose first run alternates between parent and change.  Both revisions
are unpacked with `git archive | tar -x` into one temporary directory,
so no worktree, branch or checkout is left behind, and the script
refuses to run when BENCHMARK.json or perfbench/ differ between them.
The record at the repo root holds both revisions, the interpreter's
version, the CPU count, every run's metrics and, per workload, seed and
end-to-end metric, each side's median and quartiles and the change's
wins, where a win is a better value in the direction BENCHMARK.json
gives as `better`.  A record already there for the same two revisions
keeps its sets, and the new ones follow them.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_FILES = ("BENCHMARK.json", "perfbench")


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def unpack(rev, dest):
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"bench_pairs: git archive {rev} failed")


def run_once(tree, workload, seed, seconds):
    """One run.py run in `tree`: its last stdout line, with the wall time."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: run.py failed in {tree}:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["wall_s"] = time.perf_counter() - t0
    return out


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def summarize(pairs, better):
    """Per metric: both sides' medians and quartiles, and the change's wins.

    `pairs` lists (parent, change) dicts of {metric: value}; `better`
    maps each metric to "lower" or "higher".  A tie is nobody's win.  The
    gain rule holds when the change wins at least 9 pairs in 10 and the
    medians differ, in its favour, by more than the parent's quartile
    spread.
    """
    out = {}
    for name, direction in better.items():
        sign = 1 if direction == "higher" else -1
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        p, c = quartiles(parent), quartiles(change)
        wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
        out[name] = {
            "better": direction,
            "parent": p,
            "change": c,
            "change_over_parent": c["median"] / p["median"] if p["median"] else None,
            "wins": wins,
            "pairs": len(pairs),
            "gain_rule_met": (10 * wins >= 9 * len(pairs)
                              and sign * (c["median"] - p["median"]) > p["q3"] - p["q1"]),
        }
    return out


def parse_spec(text):
    try:
        workload, seed, pairs = text.split(":")
        return workload, int(seed), int(pairs)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEED:PAIRS, got {text!r}") from None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="revision to compare against")
    ap.add_argument("--pr", required=True, help="names the record BENCH_<pr>.json")
    ap.add_argument("specs", nargs="+", type=parse_spec, metavar="WORKLOAD:SEED:PAIRS")
    args = ap.parse_args(argv)

    revs = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", "HEAD")}
    if subprocess.run(["git", "diff", "--quiet", revs["parent"], revs["change"], "--",
                       *BENCH_FILES], cwd=ROOT).returncode != 0:
        raise SystemExit("bench_pairs: BENCHMARK.json or perfbench/ differ between "
                         f"{args.parent} and HEAD; the pairs would not compare")
    bench = json.loads(git("show", f"{revs['change']}:BENCHMARK.json"))
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    record = {
        "parent": revs["parent"],
        "change": revs["change"],
        "python": sys.version,
        "cpu_count": os.cpu_count(),
        # with it set, every fresh interpreter compiles what it imports
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "seconds": seconds,
        "sets": [],
    }
    if os.path.exists(path):
        with open(path) as fh:
            earlier = json.load(fh)
        # a later batch on the same two revisions adds its sets to the record
        if (earlier["parent"], earlier["change"]) == (record["parent"], record["change"]):
            record["sets"] = earlier["sets"]
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {side: os.path.join(tmp, side) for side in revs}
        for side, rev in revs.items():
            unpack(rev, trees[side])
        for workload, seed, n in args.specs:
            runs = []
            for i in range(n):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run_once(trees[side], workload, seed, seconds)
                    metrics = pair[side]["metrics"]
                    print(f"{workload} seed {seed} pair {i + 1}/{n} {side}: " + ", ".join(
                        f"{k} {v['value']:.4g}" for k, v in metrics.items()), file=sys.stderr)
                runs.append(pair)
            values = [tuple({k: v["value"] for k, v in pair[side]["metrics"].items()}
                            for side in revs) for pair in runs]
            record["sets"].append({"workload": workload, "seed": seed, "runs": runs,
                                   "summary": summarize(values, better)})
            # written after every set, so an interrupted run keeps the sets done
            with open(path, "w") as fh:
                json.dump(record, fh, indent=1)
                fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
