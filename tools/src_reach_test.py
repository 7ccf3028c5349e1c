#!/usr/bin/env python3
"""Runs tools/src_reach.py on this repository and on the fixtures in
testdata/src_reach.

`good` reaches every src/ header from bench/ or perfbench/, one of them only
through a reached header's `.cc` sibling and one through a relative include;
`bad` adds a header that only tests/ includes. The repository and `good`
must exit 0; `bad` must exit 1 with an ::error naming the orphan.
"""

import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "testdata", "src_reach")


def run_reach(*args):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "src_reach.py"), *args],
        capture_output=True, text=True, check=False)


class SrcReachTest(unittest.TestCase):
    def test_repository_src_is_fully_reached(self):
        result = run_reach()
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_reached_fixture_passes(self):
        result = run_reach("--repo-root", os.path.join(DATA, "good"))
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertNotIn("::error::", result.stdout)

    def test_test_only_header_fails(self):
        result = run_reach("--repo-root", os.path.join(DATA, "bad"))
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertEqual(result.stdout.count("::error::"), 1, result.stdout)
        self.assertIn("::error::src_reach: src/a/orphan.h is not reached", result.stdout)


if __name__ == "__main__":
    unittest.main()
