#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

    python3 bench/e2e/selftest.py

Checks that BENCHMARK.json is well formed; that a --smoke run of every
workload, untraced and traced, exits 0, reports correct outputs and no
failed operation, and prints every metric BENCHMARK.json names with its unit
and a finite value (end-to-end metrics also non-zero); that traced runs
write a loadable trace file; that a failed operation makes the summary
incorrect; and that run.py fails without printing a result when the library
sources are missing. Exit status 1 on any failure.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL: {what}", file=sys.stderr)
    return ok


def check_benchmark_file(bench):
    check(bench["command"] == ["python3", "bench/e2e/run.py"], "command")
    check(bench["paths"] == ["bench/e2e"], "paths")
    check(isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60,
          "run_seconds")
    names = set()
    for w in bench["workloads"]:
        check(set(w) == {"name", "why"} and len(w["why"]) <= 200
              and "\n" not in w["why"], f"workload {w.get('name')}")
        names.add(w["name"])
    for m in bench["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"}
              and 0 <= m["bound"] <= 0.25, f"end_to_end {m.get('name')}")
    for m in bench["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, f"per_layer {m.get('name')}")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"]),
          "setup_s has the largest bound")
    for m in bench["end_to_end"] + bench["per_layer"]:
        check(NAME.match(m["name"]) and m["name"] not in names,
              f"name {m['name']} is malformed or reused")
        names.add(m["name"])
        check(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"),
              f"unit/direction of {m['name']}")


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable] + args, cwd=cwd,
                          stdout=subprocess.PIPE, text=True)


def check_smoke(bench):
    for w in bench["workloads"]:
        for trace in (0, 1):
            kind = "per_layer" if trace else "end_to_end"
            what = f"{w['name']} trace={trace}"
            proc = run(["bench/e2e/run.py", "--smoke", "--workload", w["name"],
                        "--seed", "1", "--trace", str(trace)])
            if not check(proc.returncode == 0, f"{what}: exit {proc.returncode}"):
                continue
            lines = proc.stdout.strip().splitlines()
            last = json.loads(lines[-1])
            check(set(last) == {"correct", "attempted", "failed", "metrics"}
                  and last["correct"] is True and last["attempted"] >= 1
                  and last["failed"] == 0, f"{what}: result line")
            expected = {m["name"]: m for m in bench[kind]}
            check(set(last["metrics"]) == set(expected), f"{what}: metric names")
            for name, m in expected.items():
                got = last["metrics"].get(name, {})
                value = got.get("value")
                check(got.get("unit") == m["unit"], f"{what}: unit of {name}")
                check(isinstance(value, (int, float)) and math.isfinite(value),
                      f"{what}: {name} is not finite")
                if not trace:
                    check(value != 0, f"{what}: {name} is 0")
            if trace:
                trace_file = ROOT / json.loads(lines[-2])["trace_file"]
                events = json.loads(trace_file.read_text())["traceEvents"]
                check(len(events) > 0, f"{what}: empty trace file")


def check_failed_is_incorrect():
    """A run with a failed operation (say, a shed request) is incorrect even
    when every output it produced matched its reference."""
    sys.path.insert(0, str(HERE))
    sys.dont_write_bytecode = True
    import run as run_py
    ok = {"workload": "w", "correct": True, "attempted": 10, "failed": 0,
          "e2e": {}}
    shed = dict(ok, failed=1)
    check(run_py.summarize([ok], "e2e", prefixed=False)["correct"] is True,
          "summary of a clean run must be correct")
    check(run_py.summarize([ok, shed], "e2e", prefixed=True)["correct"] is False,
          "summary of a run with a failed operation must be incorrect")


def check_fails_without_sources():
    lone = ROOT / "build" / "bench-e2e-selftest"
    shutil.rmtree(lone, ignore_errors=True)
    shutil.copytree(HERE, lone / "bench" / "e2e",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", lone)
    proc = run(["bench/e2e/run.py", "--smoke", "--workload", "dlrm-online",
                "--seed", "1"], cwd=lone)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "run.py without library sources must fail without a result")
    shutil.rmtree(lone, ignore_errors=True)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_benchmark_file(bench)
    check_failed_is_incorrect()
    check_smoke(bench)
    check_fails_without_sources()
    print("selftest: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
