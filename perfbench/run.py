#!/usr/bin/env python3
"""Build and run the scimpi benchmark on one workload.

    python3 perfbench/run.py --workload stencil_coll --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first call configures and builds the
driver (perfbench/CMakeLists.txt, which compiles the simulator from ../src)
under .bench_build/perfbench; later calls only rebuild what changed. Build
output goes to stderr, so the last stdout line is the driver's JSON result.

--trace 1 also writes every recorded span, one JSON object per line, to
.bench_build/perfbench/spans/<workload>-seed<seed>.jsonl.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "scimpi_perfbench")
WORKLOADS = ("stencil_coll", "noncontig_pack", "osc_sparse")
# Slack beyond --seconds before a hung run is killed: the last instance
# may start just before the deadline, and a run must end within 180 s.
KILL_SLACK_S = 150


def seeds():
    with open(os.path.join(HERE, "seeds.json"), encoding="utf-8") as f:
        return json.load(f)


def run_quiet(cmd):
    """Run a build step; show its output on stderr only when it fails."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")


def build(targets=("scimpi_perfbench",)):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit(f"perfbench: no simulator sources under {ROOT}/src; "
                 "run from the root of a scimpi checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD, "-j", jobs, "--target", *targets])


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: seeds.json 'default')")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--short", action="store_true",
                   help="tiny inputs, fewest instances: a smoke test")
    args = p.parse_args()
    seed = seeds()["default"] if args.seed is None else args.seed

    build()
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.short:
        cmd.append("--short")
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, f"{args.workload}-seed{seed}.jsonl")]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, check=False,
                              timeout=args.seconds + KILL_SLACK_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: driver did not finish in time")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
