#!/usr/bin/env python3
"""End-to-end benchmark of the sharded FLAT store.

Run from the repository root:

    python3 e2ebench/run.py --workload sn_disk --seed 1 --seconds 20 --trace 0

Builds the benchmark (and the library, from the repository's sources) with
CMake in Release mode under $CARGO_TARGET_DIR (default .bench_build), then
runs one measurement. A traced run (--trace 1) leaves its spans in
$CARGO_TARGET_DIR/e2ebench-spans/<workload>.jsonl. The last line
of standard output is the JSON result; build output goes to standard error. Exits non-zero without a result when
the repository's sources are missing or the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sn_disk", "lss_viewport")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    return 2


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "flat_e2e", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        return fail(f"repository sources not found next to {HERE}")
    if shutil.which("cmake") is None:
        return fail("cmake not found")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "e2ebench")
    if not build(build_dir):
        return fail("build failed")

    tmp_dir = os.path.join(target, "e2ebench-tmp", str(os.getpid()))
    spans_dir = os.path.join(target, "e2ebench-spans")
    os.makedirs(spans_dir, exist_ok=True)
    command = [
        os.path.join(build_dir, "flat_e2e"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--tmp-dir", tmp_dir,
        "--spans-out",
        os.path.join(spans_dir, f"{args.workload}.jsonl"),
        "--git-sha", git_sha(),
    ]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
        code = result.returncode
    except subprocess.TimeoutExpired:
        code = fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
