#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/selftest.py [--seconds S]

1. For every workload in BENCHMARK.json, and for fleet_burst (kept out of
   BENCHMARK.json, see README.md, but still runnable), a short untraced
   run prints every end_to_end metric and a short traced run every
   per_layer metric, each by name with its declared unit and nothing
   else, with correct = true and exit code 0.
2. For each of those workloads, a run that mangles one unit's read-back
   output (--corrupt-unit) must count exactly that unit as failed, lower
   ok_frac (1 - failed_frac) below 1, report correct = false and exit
   non-zero: the correctness gate can fail.

Exits 0 when every check passes.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, seconds, corrupt=-1):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", str(seconds), "--trace",
           str(trace)]
    if corrupt >= 0:
        cmd += ["--corrupt-unit", str(corrupt)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    return done.returncode, json.loads(lines[-1]) if lines else None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    workloads = [w["name"] for w in spec["workloads"]] + ["fleet_burst"]
    for w in workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, res = run(w, trace, args.seconds)
            check(code == 0 and res is not None and res["correct"],
                  f"{w} --trace {trace}: exit 0 and correct")
            if res is None:
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want,
                  f"{w} --trace {trace}: prints every {key} metric with "
                  f"its unit")
            check(res["attempted"] >= 100 and res["failed"] == 0,
                  f"{w} --trace {trace}: >= 100 units attempted, none failed")

        code, res = run(w, 0, args.seconds, corrupt=5)
        check(code != 0 and res is not None and not res["correct"] and
              res["failed"] == 1 and res["metrics"]["ok_frac"]["value"] < 1,
              f"{w}: one corrupted output lands in failed_frac")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
