#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (the simulator library from src/ plus the measuring
binary) with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs the binary's self-checks, then one measured
run. The binary's report is passed through; a "meta" line (host, build and
source facts) follows, and the result JSON is the last line. Every run also
leaves its full record in .bench_out/. `--workload all` runs every workload
in turn, one such block each. Workloads and metrics are described in
perfbench/README.md and BENCHMARK.json.

Exit status: 0 when every check passed, 1 when an output, determinism or
observer check failed, 2 when the benchmark cannot build or run here.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
WORKLOADS = ("mesh_saturated", "kv_net_paced", "tenants_contended")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def inside_root(path):
    """`path` resolved against the checkout root, or None if it leads outside it."""
    root = os.path.realpath(ROOT)
    path = os.path.realpath(os.path.join(root, path))
    return path if os.path.commonpath([path, root]) == root else None


def run_logged(cmd, log_path, what):
    with open(log_path, "a") as log:
        log.write("$ " + " ".join(cmd) + "\n")
        log.flush()
        proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
    if proc.returncode != 0:
        with open(log_path) as log:
            tail = log.read()[-4000:]
        fail(f"{what} failed (log: {log_path}):\n{tail}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "simulator.h")):
        fail(f"no simulator sources under {os.path.join(ROOT, 'src')}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    build_root = inside_root(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) or inside_root(
        ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_logged(cmd, log_path, "configure")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", build_dir, "-j", jobs], log_path, "build")
    return build_dir


def cmake_cache(build_dir):
    values = {}
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                values[key.split(":", 1)[0]] = value
    return values


def source_digest():
    """SHA-256 over src/ and perfbench/ sources: identifies the measured code."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return "none (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json promises for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(build_dir, workload, args):
    """Runs one measured run, prints its report, and returns the binary's status."""
    binary = os.path.join(build_dir, "apiary_perfbench")
    out_dir = os.path.join(ROOT, ".bench_out")
    cmd = [binary, "--workload", workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace), "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode not in (0, 1) or not lines:
        fail(f"measuring binary exited with status {proc.returncode}")

    result = json.loads(lines[-1])
    detail = next((json.loads(line.split(" ", 1)[1]) for line in lines
                   if line.startswith("PERFBENCH_DETAIL ")), {})
    build_facts = detail.get("build", {})
    if not build_facts.get("optimized") or build_facts.get("sanitized"):
        fail("refusing results from an unoptimized or sanitizer build")

    want = expected_metrics(args.trace)
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    if want is not None and sorted(want) != sorted(got):
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            fail(f"metric {name} is not a finite number")

    cache = cmake_cache(build_dir)
    meta = {
        "nproc": os.cpu_count(),
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "compiler": f"{cache.get('CMAKE_CXX_COMPILER', 'unknown')} "
                    f"{build_facts.get('compiler', '')}".strip(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "digest": detail.get("digest"),
    }
    if meta["build_type"] not in ("Release", "RelWithDebInfo"):
        fail(f"refusing results from a {meta['build_type']} build")
    os.makedirs(out_dir, exist_ok=True)
    record = os.path.join(out_dir, f"result-{workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as f:
        json.dump({"meta": meta, "detail": detail, "result": result}, f, indent=1)

    for line in lines[:-1]:
        if not line.startswith("PERFBENCH_DETAIL "):
            print(line)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result), flush=True)
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = build()
    selftest = subprocess.run([os.path.join(build_dir, "apiary_perfbench"), "--selftest"],
                              capture_output=True, text=True, cwd=ROOT)
    if selftest.returncode != 0:
        fail("self-checks failed:\n" + selftest.stdout + selftest.stderr)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    sys.exit(max(run_workload(build_dir, w, args) for w in workloads))


if __name__ == "__main__":
    main()
