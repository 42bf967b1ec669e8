#!/usr/bin/env python3
"""Builds and runs wirebench, the DeepCSI wire-to-verdict benchmark.

Run from the repository root:

    python3 wirebench/run.py --workload paper_steady --seed 1 --seconds 15 --trace 0

The benchmark is compiled from this directory's CMakeLists.txt (which
builds the library from ../src) into $CARGO_TARGET_DIR/wirebench, or
.bench_build/wirebench when that variable is unset, then run with the
given arguments. Build output goes to stderr; the last line of stdout is
the benchmark's JSON result, and the exit code is the benchmark's.
"""
import fcntl
import os
import subprocess
import sys


def build(source_dir, build_dir):
    # Compiler temporaries stay inside the build directory too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.abspath(tmp))
    # Serialise builds that share a build directory.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = subprocess.run(
                ["cmake", "-S", source_dir, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, env=env)
            if configure.returncode != 0:
                return configure.returncode
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        return subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                              stdout=sys.stderr, env=env).returncode


def main():
    source_dir = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(target, "wirebench")
    status = build(source_dir, build_dir)
    if status != 0:
        print("wirebench: build failed", file=sys.stderr)
        return status
    binary = os.path.join(build_dir, "wirebench")
    out_dir = os.path.join(build_dir, "out")
    return subprocess.run([binary, *sys.argv[1:], "--out-dir", out_dir]).returncode


if __name__ == "__main__":
    sys.exit(main())
