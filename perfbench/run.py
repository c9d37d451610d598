#!/usr/bin/env python3
"""Build and run the Mosaic end-to-end benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a Mosaic source tree. The script

  1. configures and builds perfbench/ (which pulls in the engine's library
     targets from the tree) into .bench_build/perfbench, incrementally;
  2. runs the statistics self-test (perfbench_selftest);
  3. pins itself to one CPU -- the highest-numbered it may run on -- so
     the benchmark process, its load-generator threads and the server's
     pools share it, and the host-speed calibration (perfbench/speed.h)
     runs on the CPU it describes;
  4. runs the workload in a fresh process and relays its output, whose
     last line is the JSON result.

Workloads: dashboard_hot, adhoc_scan, ingest_mixed, and open_world, which
runs by hand but is not in BENCHMARK.json (see perfbench/workloads.cc). Scratch files go under .bench_build/run and are
removed by the benchmark itself.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("dashboard_hot", "adhoc_scan", "open_world", "ingest_mixed")
RUN_TIMEOUT_S = 170
MAX_CPUS = 1


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(src, build_dir):
    """Configure once, then build incrementally. Build output goes to
    stderr so stdout keeps the result as its last line."""
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per tree
        if not (build_dir / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(src), "-B", str(build_dir),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                # Leave no half-configured tree behind for the next run.
                shutil.rmtree(build_dir / "CMakeFiles", ignore_errors=True)
                (build_dir / "CMakeCache.txt").unlink(missing_ok=True)
                return False
        cmd = ["cmake", "--build", str(build_dir), "-j", jobs, "--target",
               "perfbench", "perfbench_selftest"]
        return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def pin():
    allowed = sorted(os.sched_getaffinity(0))
    cpus = allowed[-min(MAX_CPUS, len(allowed)):]
    os.sched_setaffinity(0, cpus)
    return cpus


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    src = Path(__file__).resolve().parent
    root = Path.cwd()
    build_dir = root / ".bench_build" / "perfbench"
    if not build(src, build_dir):
        log("build failed")
        return 1
    selftest = subprocess.run([str(build_dir / "perfbench_selftest")],
                              stdout=sys.stderr)
    if selftest.returncode != 0:
        log("statistics self-test failed")
        return 1

    cpus = pin()
    log(f"pinned to CPUs {cpus}")
    cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--dir", str(root / ".bench_build" / "run")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        log(f"benchmark exited with {proc.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(proc.stdout)
        log("benchmark printed no JSON result")
        return 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
