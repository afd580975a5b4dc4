#!/usr/bin/env python3
"""The benchmark's own checks; run with `python3 perfbench/test_observation.py`.

* Observation only: the deterministic counts of a traced run repeat exactly
  in a second invocation at the same seed, and every traced round's digest
  equals the untraced run of the same round (the link taps and the profiler
  do not perturb the simulation).
* Oracle: no round fails and no replayed packet mismatches, at the default
  seed (digests checked against perfbench/digests.json) and at the held-out
  seed.
* Seeds: page_load's generated round mix changes with the seed.

Takes about a minute; builds longlook_bench first, like run.py.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = [w["name"] for w in run.load_json(run.BENCHMARK)["workloads"]]
DETERMINISTIC = [
    "sim.events", "sim.timer_ops", "sim.event_pool_slots", "net.packets",
    "net.drops", "net.reordered", "quic.packets_sent",
    "quic.recovery.window_pkts_p50", "quic.recovery.window_pkts_max",
    "quic.ackmgr.ranges_p50", "quic.retx_ratio", "quic.spurious_ratio",
    "quic.goodput_ratio", "tcp.segments_sent", "tcp.retx_ratio",
    "tcp.dsack_events",
]


def traced(workload, seed):
    return run.run_driver(workload, seed, 1, True)


def run_py(workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=True).stdout
    lines = out.strip().splitlines()
    printed = {l.split()[0]: l.split()[1] for l in lines[:-1] if l.strip()}
    return json.loads(lines[-1]), printed


class ObservationOnly(unittest.TestCase):
    def test_counts_repeat_and_taps_do_not_perturb(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a = traced(w, 3)
                b = traced(w, 3)
                self.assertTrue(a["trace_matches_untraced"])
                self.assertTrue(b["trace_matches_untraced"])
                self.assertEqual(a["digests"], b["digests"])
                for name in DETERMINISTIC:
                    self.assertEqual(a["metrics"][name]["value"],
                                     b["metrics"][name]["value"], name)
                self.assertGreater(a["metrics"]["sim.events"]["value"], 0)


class Oracle(unittest.TestCase):
    def test_no_failures_at_default_and_held_out_seeds(self):
        for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
            for w in WORKLOADS:
                with self.subTest(workload=w, seed=seed):
                    r, printed = run_py(w, seed)
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertEqual(printed["quic.codec.mismatches"], "0")


class Seeds(unittest.TestCase):
    def test_page_load_mix_changes_with_seed(self):
        a = traced("page_load", run.DEFAULT_SEED)
        b = traced("page_load", run.HELD_OUT_SEED)
        self.assertNotEqual(a["mix"], b["mix"])
        self.assertNotEqual(a["digests"], b["digests"])


if __name__ == "__main__":
    run.build()
    unittest.main()
