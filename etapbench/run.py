#!/usr/bin/env python3
"""Build and run the etap benchmark.

Run from the root of a source tree:

    python3 etapbench/run.py --workload paper-repro --seed 1 --seconds 10 --trace 0

Builds etapbench/main.exe with dune (no shared dune cache, so nothing is
written outside the tree), runs it, and passes its output through. The
last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}. Scratch files and result
documents go to _etapbench/ at the root. --inject-mismatch perturbs the
first correctness comparison, to show that a failed check is reported.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-repro", "sweep-extend", "serve-mix")
SOURCE_DIRS = ("lib", "bin", "bench", "etapbench")


def source_digest():
    """Hash of the sources the benchmark builds, standing in for the
    commit when the tree is not a git checkout."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "dune-project")]
    for d in SOURCE_DIRS:
        for base, dirs, files in os.walk(os.path.join(ROOT, d)):
            dirs.sort()
            paths += [os.path.join(base, f) for f in files
                      if f.endswith((".ml", ".mli", ".py")) or f == "dune"]
    for p in sorted(paths):
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def catalogue(trace):
    """Metric names the result must carry, from BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-mismatch", action="store_true")
    a = ap.parse_args()

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet",
         "./etapbench/main.exe"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=850)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        sys.stderr.write("etapbench: build failed\n")
        return 1

    exe = os.path.join(ROOT, "_build", "default", "etapbench", "main.exe")
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--commit", commit(), "--source-digest", source_digest()]
    if a.inject_mismatch:
        cmd.append("--inject-mismatch")
    run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         timeout=175)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        sys.stderr.write("etapbench: run failed with code %d\n" % run.returncode)
        return 1
    result = json.loads(lines[-1])
    names = catalogue(a.trace == 1)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] or (
            names is not None and list(result["metrics"]) != names):
        sys.stderr.write(run.stdout)
        sys.stderr.write("etapbench: result does not match BENCHMARK.json\n")
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
