#!/usr/bin/env python3
"""Runs tools/bench_diff.py on the fixture pairs in testdata/bench_diff.

`match` differs from `baseline` only in wall-time fields (throughput halves,
which warns) and an extra row; `mismatch` changes one counter
and one derived ratio. The first must exit 0 and the second exit 1 with an
::error naming each changed field.
"""

import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "testdata", "bench_diff")


def run_diff(current):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "bench_diff.py"),
         "--baseline-dir", os.path.join(DATA, "baseline"),
         "--current-dir", os.path.join(DATA, current), "BENCH_t.json"],
        capture_output=True, text=True, check=False)


class BenchDiffTest(unittest.TestCase):
    def test_matching_counters_pass_and_wall_time_only_warns(self):
        result = run_diff("match")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertNotIn("::error::", result.stdout)
        self.assertIn("::warning::BENCH_t.json [scenario=light] mcycles_per_sec regressed",
                      result.stdout)

    def test_changed_exact_counter_fails(self):
        result = run_diff("mismatch")
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("::error::BENCH_t.json [config=pooled] exact counter arb_probes changed: "
                      "4097 vs baseline 4096", result.stdout)
        self.assertIn("::error::BENCH_t.json [scenario=light] exact counter active_fraction "
                      "changed: 0.3 vs baseline 0.25", result.stdout)

    def test_missing_current_file_fails(self):
        result = run_diff("no_such_dir")
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("::error::bench_diff: cannot compare BENCH_t.json", result.stdout)


if __name__ == "__main__":
    unittest.main()
