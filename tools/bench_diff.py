#!/usr/bin/env python3
"""Diff bench JSON against the checked-in baselines.

Usage:
  bench_diff.py --baseline-dir . --current-dir bench_out BENCH_b1.json ...

For every named file, rows are joined on their identifying fields (config,
scenario, period, active_pct).

Exact fields gate: the simulator is seeded and deterministic, so every
numeric field except the wall-time ones (wall_*, *_sec, speedup) is
exact. One that differs from its baseline prints a GitHub
::error annotation and makes the exit code 1. So does a baseline row with
no current counterpart, or a file that cannot be read: either would let a
counter go unchecked.

Throughput only warns: anything named *mcycles_per_sec or speedup dropping
beyond --tolerance (default 30%; smoke runs on shared CI hardware are
noisy), or a file holding two rows with the same identifying fields (only
the last one is compared), prints a ::warning annotation.
"""

import argparse
import json
import os
import sys

ID_FIELDS = ("config", "scenario", "period", "active_pct")


def row_key(row):
    return tuple((f, row[f]) for f in ID_FIELDS if f in row)


def row_label(key):
    return ", ".join(f"{k}={v}" for k, v in key) or "no identifying fields"


def index_rows(name, path, rows):
    """Maps row key -> row, warning about keys that name more than one row."""
    indexed = {}
    warnings = 0
    for row in rows:
        key = row_key(row)
        if key in indexed:
            print(f"::warning::{name}: {path} has two rows keyed [{row_label(key)}]; "
                  f"only the last one is compared")
            warnings += 1
        indexed[key] = row
    return indexed, warnings


def numeric_fields(row):
    for name, value in row.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            yield name, value


def is_wall_time(name):
    return name.startswith("wall_") or name.endswith("_sec") or name == "speedup"


def is_throughput(name):
    return name.endswith("mcycles_per_sec") or name == "speedup"


def diff_file(name, base_path, cur_path, tolerance):
    """Returns (errors, warnings) for one bench file."""
    errors = 0
    warnings = 0
    try:
        with open(base_path) as f:
            base = json.load(f)
        with open(cur_path) as f:
            cur = json.load(f)
    except (OSError, ValueError) as err:
        print(f"::error::bench_diff: cannot compare {name}: {err}")
        return 1, 0

    base_rows, dup_base = index_rows(name, base_path, base.get("rows", []))
    cur_rows, dup_cur = index_rows(name, cur_path, cur.get("rows", []))
    warnings += dup_base + dup_cur
    for key, base_row in base_rows.items():
        label = row_label(key)
        row = cur_rows.get(key)
        if row is None:
            print(f"::error::{name} [{label}] is missing from {cur_path}")
            errors += 1
            continue
        for field, ref in numeric_fields(base_row):
            if not is_wall_time(field) and row.get(field) != ref:
                print(f"::error::{name} [{label}] exact counter {field} changed: "
                      f"{row.get(field)} vs baseline {ref}")
                errors += 1
        for field, value in numeric_fields(row):
            if not is_throughput(field):
                continue
            ref = base_row.get(field)
            if isinstance(ref, (int, float)) and ref > 0 and value < ref * (1.0 - tolerance):
                print(f"::warning::{name} [{label}] {field} regressed: "
                      f"{value:.2f} vs baseline {ref:.2f} "
                      f"({100.0 * (1.0 - value / ref):.0f}% drop)")
                warnings += 1
    return errors, warnings


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline-dir", default=".")
    parser.add_argument("--current-dir", default="bench_out")
    parser.add_argument("--tolerance", type=float, default=0.30)
    parser.add_argument("files", nargs="+")
    args = parser.parse_args()

    errors = 0
    warnings = 0
    for name in args.files:
        e, w = diff_file(name, os.path.join(args.baseline_dir, name),
                         os.path.join(args.current_dir, name), args.tolerance)
        errors += e
        warnings += w
    print(f"bench_diff: {len(args.files)} file(s), {errors} exact-counter error(s), "
          f"{warnings} throughput warning(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
