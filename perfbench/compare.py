#!/usr/bin/env python3
"""Paired parent-vs-change comparison on the testbed benchmark.

    python3 perfbench/compare.py PARENT_TREE CHANGE_TREE [--pairs 10] [--seed S]

Each tree is a checkout holding src/, BENCHMARK.json and perfbench/. The
benchmark code (perfbench/ and BENCHMARK.json) must be identical in both, so
copy the change's perfbench/ into the parent tree first; the helper refuses
to run otherwise. Every workload of BENCHMARK.json runs, for its
run_seconds. Pair i runs both sides at seed `S + i`, the parent first in
even pairs and the change first in odd ones. S defaults to the seed after
the default one, so that a change that re-pins perfbench/digests.json can
still be compared (run.py and test_observation.py check the digests).

For every workload and end-to-end metric it prints each side's median and
quartiles, the fraction of pairs the change wins (ties count for neither)
and a verdict:

  better      the change wins >= 9/10 of the pairs and the medians differ by
              more than the parent's interquartile distance
  worse       the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  the parent's interquartile spread exceeds the bound, so
              "unchanged" cannot be claimed
  not worse   as unresolved, but every change run beats every parent run
  unchanged   otherwise
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import DEFAULT_SEED  # noqa: E402


def tree_digest(root):
    h = hashlib.sha256()
    paths = [os.path.join(root, "BENCHMARK.json")]
    for d, _, files in os.walk(os.path.join(root, "perfbench")):
        if "__pycache__" in d:
            continue
        paths += [os.path.join(d, f) for f in files]
    for p in sorted(paths, key=lambda p: os.path.relpath(p, root)):
        h.update(os.path.relpath(p, root).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def run_once(root, workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit("%s: incorrect run of %s at seed %d" % (root, workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric, parent, change):
    sign = 1 if metric["better"] == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    win_frac = wins / len(parent)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    spread = (p3 - p1) / pm if pm else float("inf")
    if win_frac >= 0.9 and sign * (cm - pm) > p3 - p1:
        return win_frac, "better"
    if sign * (pm - cm) > metric["bound"] * abs(pm):
        return win_frac, "worse"
    if spread > metric["bound"]:
        beats_all = (min(change) > max(parent) if sign > 0
                     else max(change) < min(parent))
        return win_frac, "not worse" if beats_all else "unresolved"
    return win_frac, "unchanged"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED + 1)
    args = ap.parse_args()
    if args.pairs < 10:
        sys.exit("at least 10 pairs are needed")

    parent = os.path.abspath(args.parent)
    change = os.path.abspath(args.change)
    if tree_digest(parent) != tree_digest(change):
        sys.exit("perfbench/ or BENCHMARK.json differ between the trees; "
                 "copy the change's benchmark into the parent tree")
    with open(os.path.join(change, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]

    for w in (w["name"] for w in bench["workloads"]):
        runs = {parent: [], change: []}
        for i in range(args.pairs):
            order = (parent, change) if i % 2 == 0 else (change, parent)
            for root in order:
                runs[root].append(run_once(root, w, args.seed + i, seconds))
                print(".", end="", file=sys.stderr, flush=True)
        print(file=sys.stderr)
        print("workload %s (%d pairs, %g s runs)" % (w, args.pairs, seconds))
        print("  %-14s %-32s %-32s %5s  %s"
              % ("metric", "parent median [q1, q3]", "change median [q1, q3]",
                 "wins", "verdict"))
        for m in bench["end_to_end"]:
            pv = [r[m["name"]] for r in runs[parent]]
            cv = [r[m["name"]] for r in runs[change]]
            win_frac, v = verdict(m, pv, cv)
            fmt = "%.4g [%.4g, %.4g]"
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            print("  %-14s %-32s %-32s %5.2f  %s"
                  % (m["name"], fmt % (pm, p1, p3), fmt % (cm, c1, c3),
                     win_frac, v))


if __name__ == "__main__":
    main()
