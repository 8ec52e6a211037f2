#!/usr/bin/env python3
"""Builds and runs gpudb's end-to-end SQL benchmark.

    python3 sqlbench/run.py --workload select_hot --seed 1 --seconds 10 --trace 0

Run from the root of a gpudb checkout. The first run configures and builds
the benchmark (the gpudb library from ./src plus sqlbench/src) into
.bench_build/sqlbench; later runs only re-check the build. Build output goes
to stderr. The benchmark's own stdout is relayed unchanged: its last line is
the JSON result. The exit code is non-zero, and no result is printed, when
the build or the run fails. See sqlbench/README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "sqlbench")
BINARY = os.path.join(BUILD_DIR, "sqlbench")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("gpudb sources not found under " + ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"] + generator,
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return BINARY


def run(args, extra=()):
    """Runs the built binary; returns its stdout lines and the parsed result."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(BUILD_DIR, "trace-%s.json" % args.workload)]
    proc = subprocess.run(cmd + list(extra), stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("sqlbench exited with code %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if set(result) != RESULT_KEYS:
        raise RuntimeError("malformed result line: %r" % lines[-1:])
    return lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        build()
        lines, _ = run(args)
    except (OSError, RuntimeError, ValueError,
            subprocess.SubprocessError) as e:
        print("run.py: %s" % e, file=sys.stderr)
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
