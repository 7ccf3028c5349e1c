#!/usr/bin/env python3
"""Diffs the stdout of the seeded benches against bench/golden/<bench>.txt.

Every bench below is fully seeded and prints no wall-clock figure, so its
stdout is a fingerprint of the simulated behaviour: a change that moves one
cycle, one counter or one PASS line shows up as a diff. Each mismatch (and
each nonzero exit) is printed as a GitHub ::error with a unified diff, and
the script exits 1.

`--update` rewrites the goldens from the current build instead. Regenerate
them only in a change that also says why the simulated behaviour moved.

Usage: bench_golden.py --bin-dir BUILD/bench [--golden-dir DIR] [--update]
"""

import argparse
import difflib
import os
import subprocess
import sys

BENCHES = (
    "e2_monitor_overhead",
    "e4_noisy_neighbor",
    "e6_fault_containment",
    "e7_scaleout",
    "e8_interface_scaling",
    "a4_dma_vs_messages",
    "a5_remote_service",
    "a8_recovery_time",
    "a9_chaos",
)
MAX_DIFF_LINES = 40


def main():
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bin-dir", required=True,
                        help="directory holding the built bench binaries")
    parser.add_argument("--golden-dir", default=os.path.join(repo, "bench", "golden"))
    parser.add_argument("--update", action="store_true",
                        help="rewrite the goldens instead of diffing against them")
    args = parser.parse_args()

    failed = []
    for bench in BENCHES:
        run = subprocess.run([os.path.join(args.bin_dir, bench)],
                             capture_output=True, text=True, check=False)
        golden_path = os.path.join(args.golden_dir, bench + ".txt")
        if run.returncode != 0:
            print(f"::error::bench_golden: {bench} exited {run.returncode}")
            print(run.stderr, end="")
            failed.append(bench)
            continue
        if args.update:
            os.makedirs(args.golden_dir, exist_ok=True)
            with open(golden_path, "w", encoding="utf-8") as f:
                f.write(run.stdout)
            print(f"bench_golden: wrote {golden_path}")
            continue
        with open(golden_path, encoding="utf-8") as f:
            golden = f.read()
        if run.stdout == golden:
            print(f"bench_golden: {bench} matches")
            continue
        print(f"::error::bench_golden: {bench} stdout differs from {golden_path}")
        diff = list(difflib.unified_diff(golden.splitlines(), run.stdout.splitlines(),
                                         "golden", "current", lineterm=""))
        print("\n".join(diff[:MAX_DIFF_LINES]))
        failed.append(bench)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
