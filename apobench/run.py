#!/usr/bin/env python3
"""Build and run the wall-clock benchmark of the Apophenia stack.

    python3 apobench/run.py --workload s3d_auto --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds apobench/ (which compiles ../src)
with CMake into $CARGO_TARGET_DIR, or .bench_build when that is unset,
then runs the benchmark binary with APO_JOBS=1. Build output goes to
standard error; the last line of standard output is the benchmark's
JSON result. A traced run (--trace 1) also writes the spans of its
last traced episode to <build dir>/spans-<workload>.tsv.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("s3d_auto", "cfd_auto", "svc_mixed")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure and build the benchmark binary; True on success."""
    steps = (
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "--target", "apobench",
         "-j", str(min(4, os.cpu_count() or 1))],
    )
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds in (0, 120]")

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        print("apobench: build failed", file=sys.stderr)
        return 1

    command = [os.path.join(build_dir, "apobench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans",
                    os.path.join(build_dir, f"spans-{args.workload}.tsv")]
    # One engine thread: the cluster's parallel engine would otherwise
    # size itself to the host and make wall times host-dependent.
    env = dict(os.environ, APO_JOBS="1")
    sys.stdout.flush()
    try:
        return subprocess.run(command, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"apobench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
