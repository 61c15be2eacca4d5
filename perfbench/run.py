#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <cg_solve|fleet_burst|composed_faulty>
                             --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The first call configures and builds
perfbench/ (the fblas libraries from src/ plus the benchmark binary) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only
re-check the build. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. With --trace 1 the benchmark's
own spans are also written to <build dir>/spans/<workload>-<seed>.json.
The exit code is non-zero when the build fails, when the run times out,
or when any correctness gate failed.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log(f"no fblas sources under {ROOT}/src")
        return None
    cmds = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        cmds.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    cmds.append(["cmake", "--build", build_dir, "--target", "fblas_perfbench",
                 "-j", jobs])
    for cmd in cmds:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"build failed: {err}")
            return None
        if done.returncode != 0:
            log(f"build failed: {' '.join(cmd)}")
            return None
    binary = os.path.join(build_dir, "fblas_perfbench")
    return binary if os.path.isfile(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--corrupt-unit", type=int, default=-1,
                        help="self-test only: mangle this unit's output")
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if binary is None:
        return 3

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans",
                os.path.join(spans_dir, f"{args.workload}-{args.seed}.json")]
    if args.corrupt_unit >= 0:
        cmd += ["--corrupt-unit", str(args.corrupt_unit)]
    try:
        # subprocess.run kills and reaps the child if it overruns.
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 4


if __name__ == "__main__":
    sys.exit(main())
