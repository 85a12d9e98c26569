#!/usr/bin/env python3
"""Compare benchmark results of two commits.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are each a log file or a directory of log files. A log is the
stdout of one or more `perfbench/run.py` runs, for example:

    for s in 1 2 3 4 5 6 7 8 9 10; do
      python3 perfbench/run.py --workload easy_backlog --seed $s \
          --seconds 28 --trace 0 > logs/base/easy_backlog-$s.log
    done

For each workload and metric it prints the median and quartiles of both
sides, the change of the median, and whether that change is worse than the
metric's bound in BENCHMARK.json. It flags every (workload, seed) whose
schedule digest differs between the two sides: the commits then made
different scheduling decisions, and their timings are not comparable.
Exits 1 when a digest differs or a metric is worse than its bound.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def read_side(path):
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))]
             if os.path.isdir(path) else [path])
    metrics, digests = {}, {}
    for name in files:
        run = None
        with open(name) as f:
            for line in f:
                line = line.strip()
                if line.startswith("# run "):
                    run = json.loads(line[len("# run "):])
                elif line.startswith("{") and run is not None:
                    result = json.loads(line)
                    w = run["workload"]
                    digests[(w, run["seed"])] = run["digest"]
                    for k, v in result["metrics"].items():
                        metrics.setdefault((w, k), []).append(v["value"])
                    run = None
    return metrics, digests


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main():
    if len(sys.argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base_m, base_d = read_side(sys.argv[1])
    new_m, new_d = read_side(sys.argv[2])
    bad = 0
    for key in sorted(set(base_d) & set(new_d)):
        if base_d[key] != new_d[key]:
            bad += 1
            print(f"DIGEST DIFFERS {key[0]} seed={key[1]}: "
                  f"{base_d[key]} -> {new_d[key]}")
    print(f"{'workload':22} {'metric':36} {'base q1/med/q3':>32} "
          f"{'new q1/med/q3':>32} {'change':>8}")
    for (w, name) in sorted(set(base_m) & set(new_m)):
        b, n = quartiles(base_m[(w, name)]), quartiles(new_m[(w, name)])
        change = (n[1] - b[1]) / b[1] if b[1] else 0.0
        m = spec.get(name, {})
        worse = -change if m.get("better") == "higher" else change
        flag = ""
        if "bound" in m and worse > m["bound"]:
            flag = "  WORSE THAN BOUND"
            bad += 1
        fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
        print(f"{w:22} {name:36} {fmt(b):>32} {fmt(n):>32} "
              f"{100 * change:+7.2f}%{flag}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
