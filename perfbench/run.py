#!/usr/bin/env python3
"""Build and run the tlbpf benchmark from the root of a checkout.

    python3 perfbench/run.py --workload fig7_sweep --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

The benchmark program is built (Release) into .bench_build/perfbench, then run
once per workload.  Its last stdout line is the JSON result.  With
--workload all every workload runs in turn and the last line merges
their results, each metric prefixed with its workload's name.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["fig7_sweep", "trace_replay", "service_mix", "fleet_sharded"]


def build():
    """Configure and build perfbench; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no tlbpf sources next to perfbench/; "
                 "run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                        "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j",
                    str(min(4, os.cpu_count() or 1))],
                   check=True, stdout=sys.stderr)


def run_one(workload, args):
    """Run perfbench for one workload; returns its last stdout line."""
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", ROOT]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit("run.py: %s exited with %d" % (workload, proc.returncode))
    return proc.stdout.strip().splitlines()[-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    build()
    if args.selftest:
        test = os.path.join(BUILD, "perfbench_test")
        sys.exit(subprocess.run([test], cwd=ROOT).returncode)

    if args.workload != "all":
        run_one(args.workload, args)
        return
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = json.loads(run_one(workload, args))
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][workload + "." + name] = metric
    for name, metric in sorted(merged["metrics"].items()):
        print("%-44s %.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps(merged))


if __name__ == "__main__":
    main()
