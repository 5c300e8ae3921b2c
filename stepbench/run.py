#!/usr/bin/env python3
"""Builds and runs the step benchmark (host ms/step of SETTLE water NVE).

    python3 stepbench/run.py --workload water-tme-fine --seed 1 --seconds 30 --trace 0
    python3 stepbench/run.py --workload water-tme-fine,water-tme-fleet   # several
    python3 stepbench/run.py --test                             # fidelity test

The first call configures and builds the library sources under ../src into
$CARGO_TARGET_DIR/stepbench (default .bench_build/stepbench, relative to the
checkout root); later calls only rebuild what changed.  The load comes from
one process whose thread pool is pinned to TME_THREADS=2 (the fleet workload
adds two single-threaded worker processes); every other TME_* variable is
cleared so the environment cannot change the measured program.

Each workload run prints its checks, its metrics by name and unit, and the
run manifest; the last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}.  With several workloads the
last line maps each workload to its result object.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

POOL_THREADS = "2"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"stepbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir, target):
    log_path = build_dir.parent / "stepbench-build.log"
    build_dir.parent.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(root / "stepbench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", "4", "--target", target])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                fail(f"build failed; see {log_path}")
    return build_dir / target


def bench_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("TME_")}
    env["TME_THREADS"] = POOL_THREADS
    return env


def run_workload(binary, build_root, args, workload):
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(build_root / f"stepbench-trace-{workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=bench_env(),
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        fail(f"{workload}: step_bench exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload}: last line is not a result object")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: malformed result object")
    print("\n".join(lines[:-1]), flush=True)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="water-tme-fine",
                        help="workload name, or comma-separated names")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the decomposition fidelity test")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {root / 'src'}")
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = root / build_root
    build_dir = build_root / "stepbench"

    if args.test:
        binary = build(root, build_dir, "stepbench_fidelity")
        sys.exit(subprocess.run([str(binary)], env=bench_env()).returncode)

    names = args.workload.split(",")
    binary = build(root, build_dir, "step_bench")
    results = {name: run_workload(binary, build_root, args, name) for name in names}
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(results))


if __name__ == "__main__":
    main()
