#!/usr/bin/env python3
"""Builds pcmbench from source and runs one workload.

    python3 pcmbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or anywhere: paths are resolved from this
file).  The first run configures pcmbench/ into .bench_build/pcmbench and
compiles the libraries it links from src/; later runs rebuild only what
changed.  Build output goes to stderr; the benchmark's stdout is passed
through, and its last line is the result JSON.  The traced run also
writes a Chrome trace-event file to .bench_build/traces/.

Exit status: the benchmark's (0 when every output checked correct), or 2
without a result when the build fails or the sources are missing.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "pcmbench")
WORKLOADS = ["paper_mix", "stream_clean", "stream_faulty", "static_screen"]
RUN_TIMEOUT_S = 170


def build(target="pcmbench"):
    """Configures (once) and builds `target`; returns its path or exits 2."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("pcmbench: library sources (src/) not found next to pcmbench/",
              file=sys.stderr)
        sys.exit(2)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", os.path.join(ROOT, "pcmbench"), "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target, "-j", "2"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("pcmbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            sys.exit(2)
    return os.path.join(BUILD_DIR, target)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        # subprocess.run kills and reaps the child when the timeout expires.
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("pcmbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
