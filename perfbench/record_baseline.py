#!/usr/bin/env python3
"""Records the benchmark baseline of the current tree into perfbench/baseline.json.

Run from the repository root (takes about 40 minutes on a 4-core machine):

    python3 perfbench/record_baseline.py

For every workload in BENCHMARK.json it makes SETS sets of untraced runs,
one run per seed in SEEDS, and records each end-to-end metric's median,
quartiles and spread (interquartile distance over the median, as
statistics.quantiles(values, n=4) gives the quartiles).  It then makes one
traced run per workload for the per-layer numbers and the host description.
It exits non-zero when a run fails, when a spread exceeds its metric's
bound, or when a later set's median is worse than the first set's by more
than the bound.
"""

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "baseline.json")
SEEDS = list(range(1, 11))
SETS = 2


def run(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.time()
    result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    lines = result.stdout.splitlines()
    if result.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: run failed ({result.returncode})")
    report = json.loads(lines[-1])
    report["wall_s"] = round(time.time() - started, 1)
    return report, lines


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    metrics = spec["end_to_end"]
    problems = []
    baseline = {"run_seconds": spec["run_seconds"], "seeds": SEEDS, "workloads": {}}

    for workload in spec["workloads"]:
        name = workload["name"]
        entry = {"why": workload["why"], "sets": []}
        for set_index in range(SETS):
            values = {m["name"]: [] for m in metrics}
            failed = 0
            for seed in SEEDS:
                report, _ = run(name, seed, spec["run_seconds"], 0)
                print(f"{name} set {set_index + 1} seed {seed}: {report['wall_s']} s "
                      f"correct={report['correct']}", file=sys.stderr, flush=True)
                failed += report["failed"]
                if not report["correct"]:
                    problems.append(f"{name} seed {seed}: incorrect run")
                for m in metrics:
                    values[m["name"]].append(report["metrics"][m["name"]]["value"])
            stats = {m: summary(v) for m, v in values.items()}
            entry["sets"].append({"failed_ops": failed, "metrics": stats})
            for m in metrics:
                s = stats[m["name"]]
                if s["spread"] > m["bound"]:
                    problems.append(f"{name} set {set_index + 1}: {m['name']} spread "
                                    f"{s['spread']:.3f} > bound {m['bound']}")
                first = entry["sets"][0]["metrics"][m["name"]]["median"]
                worse = (s["median"] - first) / first if m["better"] == "lower" \
                    else (first - s["median"]) / first
                if worse > m["bound"]:
                    problems.append(f"{name} set {set_index + 1}: {m['name']} median "
                                    f"{worse:.3f} worse than set 1")
        report, lines = run(name, SEEDS[0], spec["run_seconds"], 1)
        entry["traced"] = {k: v["value"] for k, v in report["metrics"].items()}
        host = [line for line in lines if line.startswith("host: ")]
        if host:
            baseline["host"] = host[-1][len("host: "):]
        baseline["workloads"][name] = entry

    baseline["problems"] = problems
    with open(OUT, "w") as handle:
        json.dump(baseline, handle, indent=1)
        handle.write("\n")
    for problem in problems:
        print("PROBLEM:", problem, file=sys.stderr)
    for name, entry in baseline["workloads"].items():
        for m in metrics:
            row = [f"{entry['sets'][i]['metrics'][m['name']]['median']:.6g} "
                   f"(spread {entry['sets'][i]['metrics'][m['name']]['spread']:.3f})"
                   for i in range(len(entry["sets"]))]
            print(f"{name:16s} {m['name']:16s} " + "  ".join(row))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
