#!/usr/bin/env python3
"""Warn-only diff of bench JSON against the checked-in baselines.

Usage:
  bench_diff.py --baseline-dir . --current-dir bench_out BENCH_b1.json ...

For every named file, rows are joined on their identifying fields (config,
scenario, period, active_pct) and the key throughput fields —
anything named *mcycles_per_sec, speedup, or express_hits — are compared
against the baseline. A throughput drop beyond --tolerance (default 30%,
smoke runs on shared CI hardware are noisy), a corridor hit count
collapsing to zero, or a file holding two rows with the same identifying
fields (they cannot be joined) prints a GitHub ::warning annotation. The
exit code is always 0: this step tracks the perf trajectory in-repo, it
does not gate merges.
"""

import argparse
import json
import os
import sys

ID_FIELDS = ("config", "scenario", "period", "active_pct")


def row_key(row):
    return tuple((f, row[f]) for f in ID_FIELDS if f in row)


def index_rows(name, path, rows):
    """Maps row key -> row, warning about keys that name more than one row."""
    indexed = {}
    warnings = 0
    for row in rows:
        key = row_key(row)
        if key in indexed:
            label = ", ".join(f"{k}={v}" for k, v in key) or "no identifying fields"
            print(f"::warning::{name}: {path} has two rows keyed [{label}]; "
                  f"only the last one is compared")
            warnings += 1
        indexed[key] = row
    return indexed, warnings


def key_fields(row):
    for name, value in row.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        if name.endswith("mcycles_per_sec") or name == "speedup" or name == "express_hits":
            yield name, value


def diff_file(name, base_path, cur_path, tolerance):
    warnings = 0
    try:
        with open(base_path) as f:
            base = json.load(f)
        with open(cur_path) as f:
            cur = json.load(f)
    except (OSError, ValueError) as err:
        print(f"::warning::bench_diff: cannot compare {name}: {err}")
        return 1

    base_rows, dup_base = index_rows(name, base_path, base.get("rows", []))
    cur_rows, dup_cur = index_rows(name, cur_path, cur.get("rows", []))
    warnings += dup_base + dup_cur
    for row in cur_rows.values():
        base_row = base_rows.get(row_key(row))
        if base_row is None:
            continue  # New sweep point: nothing to compare against yet.
        label = ", ".join(f"{k}={v}" for k, v in row_key(row)) or "row"
        for field, value in key_fields(row):
            if field not in base_row:
                continue
            ref = base_row[field]
            if field == "express_hits":
                if ref > 0 and value == 0:
                    print(f"::warning::{name} [{label}] express_hits fell to 0 "
                          f"(baseline {ref}) — corridors stopped launching")
                    warnings += 1
                continue
            if ref > 0 and value < ref * (1.0 - tolerance):
                print(f"::warning::{name} [{label}] {field} regressed: "
                      f"{value:.2f} vs baseline {ref:.2f} "
                      f"({100.0 * (1.0 - value / ref):.0f}% drop)")
                warnings += 1
    return warnings


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir", default=".")
    parser.add_argument("--current-dir", default="bench_out")
    parser.add_argument("--tolerance", type=float, default=0.30)
    parser.add_argument("files", nargs="+")
    args = parser.parse_args()

    total = 0
    for name in args.files:
        total += diff_file(name, os.path.join(args.baseline_dir, name),
                           os.path.join(args.current_dir, name), args.tolerance)
    if total == 0:
        print(f"bench_diff: {len(args.files)} file(s) within tolerance of baselines")
    else:
        print(f"bench_diff: {total} warning(s) — see annotations (non-gating)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
