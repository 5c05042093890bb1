#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs.

    python3 bench/e2e/compare.py SET_A SET_B

A set is a file of run results, one JSON object per line, as written by
`run.py --out FILE`; traced runs and lines without a workload are skipped.
Metrics and bounds come from the repository's BENCHMARK.json.

For every workload x end-to-end metric this prints each set's median and
quartiles (statistics.quantiles, n=4) and gives one of four verdicts on B
against A:

  within bound  B's median is no worse and no better than A's by more
                than the bound;
  better        B's median is better than A's by more than the bound;
  worse         B's median is worse than A's by more than the bound;
  unresolved    a set's spread (the distance between its quartiles as a
                share of its median) is wider than the bound, so a
                difference of the bound's size cannot be told from noise.

Exit status 1 when any verdict is worse or unresolved.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_set(path):
    runs = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        doc = json.loads(line)
        if "workload" not in doc or doc.get("trace"):
            continue
        runs.setdefault(doc["workload"], []).append(doc)
    return runs


def summary(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v, 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def worse_share(a, b, better):
    """How much worse b is than a, as a share of a (negative: better)."""
    delta = (b - a) / abs(a) if a else 0.0
    return delta if better == "lower" else -delta


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("set_a", type=Path)
    parser.add_argument("set_b", type=Path)
    args = parser.parse_args()
    bench = json.loads(BENCHMARK.read_text())
    sets = [load_set(args.set_a), load_set(args.set_b)]

    failing = 0
    print(f"{'workload':18} {'metric':17} {'A median':>12} {'A q1..q3':>25} "
          f"{'B median':>12} {'B q1..q3':>25} {'spread':>15} {'worse':>7} "
          f"{'bound':>6}  verdict")
    for w in bench["workloads"]:
        name = w["name"]
        for m in bench["end_to_end"]:
            metric, bound = m["name"], m["bound"]
            stats = []
            for s in sets:
                values = [r["e2e"][metric]["value"] for r in s.get(name, [])
                          if metric in r["e2e"]]
                stats.append((len(values),) + summary(values))
            if any(st[0] == 0 for st in stats):
                print(f"{name:18} {metric:17} missing")
                failing += 1
                continue
            (_, a_med, a_q1, a_q3, a_spread), (_, b_med, b_q1, b_q3, b_spread) = stats
            delta = worse_share(a_med, b_med, m["better"])
            if max(a_spread, b_spread) > bound:
                verdict = "unresolved"
            elif delta > bound:
                verdict = "worse"
            elif delta < -bound:
                verdict = "better"
            else:
                verdict = "within bound"
            failing += verdict in ("worse", "unresolved")
            a_iqr = f"{a_q1:.6g}..{a_q3:.6g}"
            b_iqr = f"{b_q1:.6g}..{b_q3:.6g}"
            spreads = f"{a_spread:.1%}/{b_spread:.1%}"
            print(f"{name:18} {metric:17} {a_med:12.6g} {a_iqr:>25} "
                  f"{b_med:12.6g} {b_iqr:>25} {spreads:>15} {delta:+7.2%} "
                  f"{bound:6.0%}  {verdict}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
