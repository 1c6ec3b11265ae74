#!/usr/bin/env python3
"""Steadiness check: run the workloads interleaved, one seed per round,
and print each end-to-end metric's median, quartiles and spreads.

    python3 perfbench/steady.py [--runs 10]

Round i, for i = 1 .. N, runs every workload of BENCHMARK.json once
with seed i. For each (workload, metric) it prints the median, the
first and third quartiles (statistics.quantiles, n=4), the
interquartile spread and the range, both as a share of the median, and
flags spreads above the metric's bound in BENCHMARK.json ("!!") or
above a third of it ("!"), setup_s included. Each run lasts
BENCHMARK.json's run_seconds. Run it from the repository root; it uses
the same command as BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-2000:])
        raise SystemExit("%s seed %d: exit %d" % (workload, seed, p.returncode))
    info = {}
    for line in lines:
        if line.startswith("# run "):
            info = json.loads(line[len("# run "):])
    return json.loads(lines[-1]), info


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {w: {} for w in workloads}
    for i in range(1, args.runs + 1):
        for w in workloads:
            res, info = run(bench, w, i)
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print("round %d %-13s failed=%d steal=%s probe=%.4f/%.4f  %s" % (
                i, w, res["failed"], info.get("steal_ticks"),
                info.get("probe_before_s", 0), info.get("probe_after_s", 0),
                " ".join("%s=%.4g" % (k, m["value"]) for k, m in res["metrics"].items())),
                flush=True)
    print()
    print("%-13s %-18s %12s %12s %12s %7s %7s %6s" % (
        "workload", "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound"))
    for w in workloads:
        for name, vs in values[w].items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
            iqr = (q3 - q1) / med if med else float("nan")
            rng = (max(vs) - min(vs)) / med if med else float("nan")
            b = bounds.get(name)
            flag = ""
            if b is not None:
                flag = "!!" if iqr > b else ("!" if iqr > b / 3 else "")
            print("%-13s %-18s %12.5g %12.5g %12.5g %7.3f %7.3f %6s %s" % (
                w, name, med, q1, q3, iqr, rng, b, flag))


if __name__ == "__main__":
    main()
