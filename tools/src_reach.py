#!/usr/bin/env python3
"""Fails when a header under src/ is reached only by tests.

Starting from every source file under bench/, examples/ and perfbench/, the
script follows `#include "..."` lines (repo-root relative first, then
relative to the including file) and, for each reached header, its `.cc`
sibling. Every `src/**/*.h` outside that closure is printed as a GitHub
::error and the script exits 1: a module whose only callers are its own
tests gets a bench or example row, or is deleted.

Usage: src_reach.py [--repo-root DIR]
"""

import argparse
import os
import re
import sys

ROOTS = ("bench", "examples", "perfbench")
SOURCE_EXTS = (".h", ".cc", ".cpp")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def source_files(repo, subdir):
    for dirpath, _, names in os.walk(os.path.join(repo, subdir)):
        for name in sorted(names):
            if name.endswith(SOURCE_EXTS):
                yield os.path.relpath(os.path.join(dirpath, name), repo)


def includes(repo, path):
    with open(os.path.join(repo, path), encoding="utf-8") as f:
        text = f.read()
    for inc in INCLUDE_RE.findall(text):
        for candidate in (inc, os.path.join(os.path.dirname(path), inc)):
            candidate = os.path.normpath(candidate)
            if os.path.isfile(os.path.join(repo, candidate)):
                yield candidate
                break


def reached(repo):
    todo = [f for root in ROOTS for f in source_files(repo, root)]
    seen = set(todo)
    while todo:
        path = todo.pop()
        deps = list(includes(repo, path))
        if path.endswith(".h"):
            sibling = path[:-2] + ".cc"
            if os.path.isfile(os.path.join(repo, sibling)):
                deps.append(sibling)
        for dep in deps:
            if dep not in seen:
                seen.add(dep)
                todo.append(dep)
    return seen


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo-root",
                        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    args = parser.parse_args()
    seen = reached(args.repo_root)
    orphans = sorted(h for h in source_files(args.repo_root, "src")
                     if h.endswith(".h") and h not in seen)
    for header in orphans:
        print(f"::error::src_reach: {header} is not reached from "
              f"{', '.join(r + '/' for r in ROOTS)}")
    if orphans:
        return 1
    print(f"src_reach: every src/ header is reached from {', '.join(ROOTS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
