#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark (about a minute).

    python3 perfbench/selftest.py

Checks, from the repository root:
  * every workload runs at --scale tiny in both modes, exits 0, and
    ends its output with {"correct", "attempted", "failed", "metrics"};
  * every workload prints exactly the metrics BENCHMARK.json declares
    for the mode, each with its declared unit; every end-to-end value
    is above 0, and every per-layer metric is measured (not listed as
    bypassed on the `# run` line) by at least one workload;
  * a corrupted reply (serve) and a corrupted saved model (train) each
    raise the failure count and make the run exit non-zero;
  * a directory holding only BENCHMARK.json and the benchmark's files
    makes the command exit non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
failures = []


def expect(ok, msg):
    print(("ok   " if ok else "FAIL ") + msg, flush=True)
    if not ok:
        failures.append(msg)


def run(bench, workload, trace, extra=(), cwd=ROOT):
    cmd = bench["command"] + ["--workload", workload, "--seed", "5", "--seconds", "1",
                              "--trace", str(trace), "--scale", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def run_info(p):
    for line in p.stdout.splitlines():
        if line.startswith("# run "):
            return json.loads(line[len("# run "):])
    return {}


def result_of(p):
    lines = p.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None
    return res if isinstance(res, dict) else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    measured = set()
    for w in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            p = run(bench, w, trace)
            res = result_of(p)
            tag = "%s --trace %d" % (w, trace)
            expect(p.returncode == 0, tag + " exits 0")
            expect(res is not None and set(res) == {"correct", "attempted", "failed", "metrics"},
                   tag + " ends with the result object")
            if p.returncode != 0 or res is None:
                sys.stderr.write(p.stderr[-3000:])
                continue
            expect(res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1,
                   tag + " passes its correctness gates")
            printed = {name: m["unit"] for name, m in res["metrics"].items()}
            expect(printed == declared[trace],
                   tag + " prints every declared metric, in its unit, and no other")
            for name, m in res["metrics"].items():
                expect(isinstance(m["value"], (int, float)), "%s: %s is a number" % (tag, name))
                if trace == 0:
                    expect(m["value"] > 0, "%s: %s is above 0" % (tag, name))
            if trace == 1:
                measured |= set(printed) - set(run_info(p).get("bypassed", []))
    for name in declared[1]:
        expect(name in measured, "%s is measured by some workload's traced run" % name)
    for w, fault in (("serve-predict", "reply"), ("serve-edit", "reply"), ("train", "model")):
        p = run(bench, w, 0, ("--inject", fault))
        res = result_of(p)
        expect(p.returncode != 0 and res is not None and res["failed"] >= 1
               and res["correct"] is False,
               "%s with a corrupted %s counts a failure and exits non-zero" % (w, fault))
    bare = os.path.join(ROOT, "_perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    p = run(bench, bench["workloads"][0]["name"], 0, cwd=bare)
    expect(p.returncode != 0 and result_of(p) is None,
           "a tree without the program fails without printing a result")
    shutil.rmtree(bare, ignore_errors=True)
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
