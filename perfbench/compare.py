#!/usr/bin/env python3
"""Summarises or compares benchmark result files.

A result file holds JSON lines appended by `bash perfbench/run.sh ... --record FILE`, one
per run: {"workload": .., "seed": .., "trace": 0|1, "result": {..}}.

    python3 perfbench/compare.py RUNS.jsonl            # per workload and metric: quartiles
                                                       # and spread (IQR / median)
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl  # per workload and metric: NEW/BASE
                                                       # median ratio and both sides' quartiles

Quartiles are `statistics.quantiles(values, n=4)`. With BENCHMARK.json beside this
directory, end-to-end rows also name the direction and bound and flag a regression.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(path):
    """(workload, trace) -> {metric: [values]}, plus run and failure counts."""
    groups = defaultdict(lambda: defaultdict(list))
    runs = defaultdict(lambda: [0, 0])
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            entry = json.loads(line)
            key = (entry["workload"], entry["trace"])
            result = entry["result"]
            runs[key][0] += 1
            runs[key][1] += 0 if result["correct"] else 1
            for name, metric in result["metrics"].items():
                groups[key][name].append(metric["value"])
    return groups, runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def bounds():
    spec = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    if not spec.exists():
        return {}
    with open(spec) as f:
        return {m["name"]: m for m in json.load(f)["end_to_end"]}


def fmt(q):
    return f"{q[0]:.4g} / {q[1]:.4g} / {q[2]:.4g}"


def summarise(path):
    groups, runs = load(path)
    for key in sorted(groups):
        n, bad = runs[key]
        print(f"== {key[0]} trace={key[1]}: {n} runs, {bad} not correct")
        print(f"{'metric':<44} {'q1 / median / q3':>36} {'spread':>8}")
        for name, values in groups[key].items():
            q = quartiles(values)
            spread = (q[2] - q[0]) / q[1] if q[1] else float("nan")
            print(f"{name:<44} {fmt(q):>36} {spread:>8.3f}")


def compare(base_path, new_path):
    base, base_runs = load(base_path)
    new, new_runs = load(new_path)
    spec = bounds()
    regressions = 0
    for key in sorted(set(base) & set(new)):
        print(f"== {key[0]} trace={key[1]}: base {base_runs[key][0]} runs, new {new_runs[key][0]} runs")
        print(f"{'metric':<44} {'base q1 / median / q3':>36} {'new q1 / median / q3':>36} {'ratio':>7}  verdict")
        for name in base[key]:
            if name not in new[key]:
                continue
            b, n = quartiles(base[key][name]), quartiles(new[key][name])
            ratio = n[1] / b[1] if b[1] else float("nan")
            verdict = ""
            if name in spec:
                m = spec[name]
                worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
                verdict = f"{m['better']} is better, bound {m['bound']}"
                if worse > m["bound"]:
                    verdict += ": REGRESSION"
                    regressions += 1
            print(f"{name:<44} {fmt(b):>36} {fmt(n):>36} {ratio:>7.3f}  {verdict}")
    return regressions


def main(argv):
    if len(argv) == 2:
        summarise(argv[1])
        return 0
    if len(argv) == 3:
        return 1 if compare(argv[1], argv[2]) else 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
