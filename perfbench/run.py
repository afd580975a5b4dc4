#!/usr/bin/env python3
"""Testbed benchmark: builds longlook_bench from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --record-digests

Run from the repository root (any directory works; paths are resolved from
this file). The build goes to .bench_build/perfbench. Progress and build
logs go to stderr. Stdout carries one line per metric (name, value, unit,
sample count) and, as its last line, one JSON object:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end set, with
--trace 1 its per_layer set. A round fails when either stack times out or
moves other totals than its spec, when a replayed packet does not survive
decode+encode byte for byte, or, at the default seed, when its deterministic
digest differs from the one recorded in perfbench/digests.json.
--record-digests rewrites that file from a run at the default seed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "longlook_bench")
DIGESTS = os.path.join(HERE, "digests.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

# Seeds (see perfbench/README.md): the default seed pins the digests; the
# held-out seed is reserved for checking a claimed gain after the fact.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7177
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("longlook sources not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "longlook_bench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def run_driver(workload, seed, seconds, trace):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--spans-out",
                os.path.join(BUILD, "spans-%s-%d.jsonl" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("longlook_bench timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("longlook_bench exited with %d" % proc.returncode)
    return json.loads(lines[-1])


def load_json(path):
    with open(path) as f:
        return json.load(f)


def record_digests():
    names = [w["name"] for w in load_json(BENCHMARK)["workloads"]]
    out = {}
    for name in names:
        report = run_driver(name, DEFAULT_SEED, 1, False)
        if report["failed"]:
            fail("%s: failed rounds at the default seed: %s"
                 % (name, report["errors"]))
        out[name] = report["digests"]
    with open(DIGESTS, "w") as f:
        json.dump({"seed": DEFAULT_SEED, "digests": out}, f, indent=2)
        f.write("\n")
    print("perfbench: wrote %s" % DIGESTS, file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()

    if not os.path.isfile(BENCHMARK):
        fail("BENCHMARK.json not found at the repository root")
    bench = load_json(BENCHMARK)
    build()
    if args.record_digests:
        record_digests()
        return
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail("--workload must be one of " + ", ".join(names))

    report = run_driver(args.workload, args.seed, args.seconds, args.trace)
    failed = report["failed"]
    errors = list(report["errors"])
    if args.seed == DEFAULT_SEED:
        pinned = load_json(DIGESTS)["digests"].get(args.workload, [])
        got = report["digests"]
        mismatched = sum(1 for a, b in zip(pinned, got) if a != b)
        if len(pinned) != len(got) or mismatched:
            failed += max(mismatched, 1)
            errors.append("digest differs from perfbench/digests.json")
    correct = failed == 0 and report["trace_matches_untraced"]
    if not report["trace_matches_untraced"]:
        errors.append("traced and untraced rounds disagree")

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None:
            fail("metric %s missing from the driver's report" % m["name"])
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
        print("%-32s %16.6f %-6s samples=%d"
              % (m["name"], got["value"], got["unit"], got["samples"]))
    # Reported here rather than in the JSON metrics: both are 0 on a correct
    # run, and the result line carries them as failed/attempted.
    print("%-32s %16.6f %-6s samples=%d"
          % ("failed_frac", failed / report["attempted"], "ratio",
             report["attempted"]))
    if args.trace:
        print("%-32s %16d %-6s" % ("quic.codec.mismatches",
                                   report["codec_mismatches"], "count"))
    for e in errors:
        print("error: " + e)
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
