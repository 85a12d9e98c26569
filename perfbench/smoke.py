#!/usr/bin/env python3
"""Smoke test for the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

For every workload it checks that:
  * untraced and traced runs exit 0 and report correct results with no
    failed operations;
  * every metric BENCHMARK.json names is printed, with its unit, and no
    other;
  * the schedule digest and the deterministic work counters (every
    per-layer metric counted in "count" or "ratio") repeat exactly across
    two runs of one seed;
  * a second, held-out seed also runs clean.
Exits 1 and lists the problems when any check fails.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED, HELD_OUT_SEED = 1, 977


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--size", "tiny"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    digest = None
    for line in lines:
        if line.startswith("# run "):
            digest = json.loads(line[len("# run "):])["digest"]
    return p.returncode, result, digest, p.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expect = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for w in (x["name"] for x in bench["workloads"]):
        seen = {}
        for seed, trace, rep in [(SEED, 0, 0), (SEED, 0, 1), (SEED, 1, 0),
                                 (SEED, 1, 1), (HELD_OUT_SEED, 0, 0),
                                 (HELD_OUT_SEED, 1, 0)]:
            tag = f"{w} seed={seed} trace={trace} run={rep}"
            code, result, digest, err = run(w, seed, trace)
            if code != 0 or result is None:
                problems.append(f"{tag}: exit {code}\n{err[-2000:]}")
                continue
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{tag}: correct={result['correct']} "
                                f"failed={result['failed']}")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expect[trace]:
                problems.append(f"{tag}: metrics/units differ from "
                                f"BENCHMARK.json: {sorted(units)}")
            counters = {k: v["value"] for k, v in result["metrics"].items()
                        if v["unit"] in ("count", "ratio")}
            seen.setdefault((seed, trace), []).append((digest, counters))
            print(f"ok {tag} digest={digest}", flush=True)
        for (seed, trace), runs in seen.items():
            if len(runs) == 2 and runs[0] != runs[1]:
                problems.append(f"{w} seed={seed} trace={trace}: digest or "
                                f"counters differ between runs: {runs}")
    for p in problems:
        print("FAIL", p)
    print("smoke:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
