#!/usr/bin/env python3
"""End-to-end benchmark of the intensity-guided ABFT stack.

Builds the benchmark program aift_e2e (bench/e2e/CMakeLists.txt) into
build/bench-e2e/, runs one workload per process and prints every metric
by name with its unit.

    python3 bench/e2e/run.py --seed S [--workload W] [--seconds N]
                             [--trace [0|1]] [--smoke] [--out FILE]

Without --workload every workload runs in turn. With --trace the run
reports the per-layer metrics instead of the end-to-end ones and writes a
Chrome trace-event file per workload under build/bench-e2e/traces/.

Standard output: one JSON document per workload run (with host metadata),
then, as the last line, {"correct", "attempted", "failed", "metrics"}.
The exit status is non-zero when an output was incorrect, any operation
failed, or the build or a run failed.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build" / "bench-e2e"
BINARY = BUILD / "aift_e2e"
WORKLOADS = ["dlrm-online", "coral-online", "amsterdam-offline", "fault-campaign"]
SMOKE_SECONDS = 2.0


class BenchError(Exception):
    pass


def build():
    if not (ROOT / "src").is_dir():
        raise BenchError(f"library sources not found under {ROOT / 'src'}")
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1)]]
    # Compiler temporaries stay inside the build tree too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, env=env)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            raise BenchError("build failed: " + " ".join(cmd))


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    except OSError:
        return "unknown"
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else "unknown"


def cmake_cache(key):
    try:
        for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return ""


def host_metadata(threads):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER") or "c++"
    return {
        "nproc": os.cpu_count(),
        "AIFT_NUM_THREADS": threads,
        "git_revision": first_line(["git", "describe", "--always", "--dirty",
                                    "--abbrev=12"]),
        "compiler": first_line([compiler, "--version"]),
        "cpu_model": cpu,
        "machine": platform.machine(),
        "build_flags": " ".join(
            f for f in [cmake_cache("CMAKE_CXX_FLAGS"),
                        cmake_cache("CMAKE_CXX_FLAGS_RELEASE"),
                        "-std=c++20 -Wall -Wextra -Werror"] if f),
    }


def run_workload(workload, args, env):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    trace_file = None
    if args.trace:
        trace_file = BUILD / "traces" / f"{workload}-seed{args.seed}.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_file)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=3 * args.seconds + 120)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"{workload}: aift_e2e exited {proc.returncode}")
    result = json.loads(lines[-1])
    if trace_file is not None:
        result["trace_file"] = str(trace_file.relative_to(ROOT))
    return result


def summarize(results, kind, prefixed):
    """The last output line. A run is correct only if no operation failed."""
    metrics = {}
    for r in results:
        prefix = r["workload"] + "." if prefixed else ""
        for name, m in r[kind].items():
            metrics[prefix + name] = m
    failed = sum(r["failed"] for r in results)
    return {
        "correct": failed == 0 and all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="timed phase per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1], help="per-layer run with spans")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_SECONDS:g} s per workload, small pools")
    parser.add_argument("--out", type=Path,
                        help="append each workload's full result to this file")
    args = parser.parse_args()
    if args.smoke:
        args.seconds = SMOKE_SECONDS
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    env = dict(os.environ)
    # The thread calling parallel_for works alongside the pool, so nproc - 1
    # workers fill the cores; nproc workers would oversubscribe them and
    # every fork-join would wait on a preempted chunk.
    env.setdefault("AIFT_NUM_THREADS", str(max(1, (os.cpu_count() or 1) - 1)))
    try:
        build()
        host = host_metadata(env["AIFT_NUM_THREADS"])
        workloads = [args.workload] if args.workload else WORKLOADS
        results = []
        for workload in workloads:
            result = run_workload(workload, args, env)
            result.update(seed=args.seed, seconds=args.seconds,
                          trace=args.trace, smoke=args.smoke, host=host)
            results.append(result)
            print(json.dumps(result, sort_keys=True))
            if args.out:
                with args.out.open("a") as f:
                    f.write(json.dumps(result, sort_keys=True) + "\n")
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2

    summary = summarize(results, "per_layer" if args.trace else "e2e",
                        prefixed=not args.workload)
    print(json.dumps(summary))
    for r in results:
        for e in r["errors"]:
            print(f"run.py: {r['workload']}: {e}", file=sys.stderr)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
