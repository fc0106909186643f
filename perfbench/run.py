#!/usr/bin/env python3
"""Builds the mgko wall-clock benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root.  The first call configures and builds the
library and the benchmark into the build directory ($CARGO_TARGET_DIR, or
.bench_build) with CMake; later calls only rebuild what changed.  Build
output goes to stderr.  The benchmark's stdout is passed through, and its
last line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 1 the span dump the benchmark writes is checked with the
repository's observability validator (--flight); a dump that fails makes
the run incorrect.  The script exits non-zero, without a result line, when
the build or the benchmark fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
# Wall-clock guard below the 180 s a run may take.
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build(targets):
    """Configures (once) and builds `targets`; returns False on failure."""
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("configure failed")
            return False
    command = ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets
    if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode:
        log("build failed")
        return False
    return True


def run_child(command):
    """Runs `command` to completion (killed after the guard timeout)."""
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        log("benchmark exceeded %d s" % RUN_TIMEOUT_S)
        return None, -1
    return out, child.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        if not build(["perfbench_selftest"]):
            return 1
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode
    if not args.workload:
        parser.error("--workload is required")
    if not build(["perfbench", "bench_validate_observability"]):
        return 1

    out_dir = os.path.join(BUILD, "out")
    out, code = run_child([os.path.join(BUILD, "perfbench"),
                           "--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", str(args.seconds), "--trace", args.trace,
                           "--out", out_dir])
    if out is None:
        return 1
    lines = out.rstrip("\n").split("\n")
    if code != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        log("benchmark failed with exit code %d" % code)
        return 1
    result = json.loads(lines[-1])
    print("\n".join(lines[:-1]), flush=True)

    if args.trace == "1":
        dump = os.path.join(out_dir, "trace_%s_%d.json" % (args.workload, args.seed))
        check = subprocess.run(
            [os.path.join(BUILD, "bench_validate_observability"), "--flight", dump],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        print(check.stdout.rstrip("\n"))
        if check.returncode != 0:
            print("check FAILED: span dump rejected by bench_validate_observability --flight")
            result["correct"] = False
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
