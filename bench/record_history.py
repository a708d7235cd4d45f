#!/usr/bin/env python3
"""Append one run's BENCH_*.json records to the queryable perf history.

The bench drivers and the CI perf job each produce a pile of
BENCH_<name>.json files (engine records) plus the micro_kernels
google-benchmark JSON.  This script folds them into ONE line of
bench/history/history.jsonl -- a run record keyed by commit and
timestamp -- so the perf trajectory of the repository accumulates
across PRs in a form one `jq`/pandas line can query, instead of being
buried in per-run CI artifact zips.

Usage:
  record_history.py record [--dir BUILD_DIR] [--label TEXT]
                           [--history PATH] [--commit SHA]
  record_history.py show   [--history PATH] [--metric wall_seconds]
  record_history.py gate   [--dir BUILD_DIR] [--history PATH]
                           [--metric wall_seconds] [--threshold 1.20]
                           [--min-value 0.05]

`record` scans BUILD_DIR (default: ./build next to the repo root) for
BENCH_*.json, keeps the informative fields, and appends one JSON line.
`show` prints a per-run summary of the recorded fig8 wall times --
the quick "did that PR move the needle" view.
`gate` is the trend gate the CI perf job runs: it compares a fresh
build directory's BENCH_*.json (or, without --dir, the newest history
line) against the *median* of the matching configurations across all
earlier history lines, and fails (exit 1) when any configuration
regressed by more than the threshold (default 20%).  Configurations
are matched on (bench, engine, delta, threads, kernels, reorder,
scenario, batch), so a new kernel tier or ordering starts its own trend
instead of tripping the gate; values below --min-value seconds are
noise and never gate.
"""

import argparse
import datetime
import glob
import json
import os
import subprocess
import sys

SCRIPT_DIR = os.path.dirname(os.path.abspath(__file__))
DEFAULT_HISTORY = os.path.join(SCRIPT_DIR, "history", "history.jsonl")

# google-benchmark emits many repetitions/aggregates; keep the fields a
# trajectory query actually consumes.
MICRO_FIELDS = ("name", "real_time", "cpu_time", "time_unit",
                "bytes_per_second", "items_per_second")


def git_commit():
    try:
        return subprocess.check_output(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=SCRIPT_DIR, text=True).strip()
    except (subprocess.CalledProcessError, OSError):
        return "unknown"


def collect(build_dir):
    benches = {}
    micro = []
    for path in sorted(glob.glob(os.path.join(build_dir, "BENCH_*.json"))):
        with open(path) as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as error:
                print(f"[history] skipping unparsable {path}: {error}",
                      file=sys.stderr)
                continue
        name = os.path.basename(path)
        if "records" in data:
            benches[name] = data["records"]
        elif "benchmarks" in data:
            micro.extend(
                {field: row[field] for field in MICRO_FIELDS if field in row}
                for row in data["benchmarks"])
        else:
            print(f"[history] skipping {path}: unknown schema",
                  file=sys.stderr)
    return benches, micro


def cmd_record(args):
    benches, micro = collect(args.dir)
    if not benches and not micro:
        raise SystemExit(f"no BENCH_*.json found under {args.dir}")
    run = {
        "schema": 1,
        "recorded_at": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "commit": args.commit or git_commit(),
        "label": args.label,
        "benches": benches,
        "micro_kernels": micro,
    }
    os.makedirs(os.path.dirname(args.history), exist_ok=True)
    with open(args.history, "a") as handle:
        handle.write(json.dumps(run, sort_keys=True) + "\n")
    records = sum(len(v) for v in benches.values())
    print(f"[history] appended run {run['commit']} "
          f"({records} records, {len(micro)} micro rows) -> {args.history}")


def cmd_show(args):
    if not os.path.exists(args.history):
        raise SystemExit(f"no history at {args.history}")
    with open(args.history) as handle:
        for line in handle:
            run = json.loads(line)
            summary = []
            for name, records in sorted(run.get("benches", {}).items()):
                for record in records:
                    if "states" not in record or "engine" not in record:
                        continue
                    value = record.get(args.metric)
                    if value is None:
                        continue
                    summary.append(
                        f"{record['engine']}@{record.get('delta', '?')}"
                        f"[{record.get('threads', 1)}t]"
                        f"={value:.2f}" if isinstance(value, float)
                        else f"{record['engine']}={value}")
            label = f" {run['label']}" if run.get("label") else ""
            print(f"{run['recorded_at']} {run['commit']}{label}: "
                  + " ".join(summary))


def record_key(bench, record):
    """Configuration identity a trend is tracked under."""
    return (bench, record.get("engine", "?"), record.get("delta"),
            record.get("threads"), record.get("kernels"),
            record.get("reorder"), record.get("scenario"),
            record.get("batch"))


def metric_values(benches, metric):
    values = {}
    for bench, records in benches.items():
        for record in records:
            value = record.get(metric)
            if isinstance(value, (int, float)):
                # Repeated configurations within one run: keep the best
                # (the gate asks "can the code still go this fast").
                key = record_key(bench, record)
                if key not in values or value < values[key]:
                    values[key] = float(value)
    return values


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def cmd_gate(args):
    if not os.path.exists(args.history):
        print(f"[gate] no history at {args.history}; nothing to gate against")
        return
    with open(args.history) as handle:
        runs = [json.loads(line) for line in handle if line.strip()]
    if args.dir:
        candidate, _ = collect(args.dir)
        baseline_runs = runs
        candidate_label = args.dir
    else:
        if not runs:
            print("[gate] empty history; nothing to gate")
            return
        candidate = runs[-1].get("benches", {})
        baseline_runs = runs[:-1]
        candidate_label = (f"run {runs[-1].get('commit', '?')} "
                           f"({runs[-1].get('recorded_at', '?')})")
    if not baseline_runs:
        print("[gate] no baseline runs in history; nothing to gate against")
        return
    current = metric_values(candidate, args.metric)
    baselines = {}
    for run in baseline_runs:
        for key, value in metric_values(run.get("benches", {}),
                                        args.metric).items():
            baselines.setdefault(key, []).append(value)
    regressions = []
    compared = 0
    for key, value in sorted(current.items()):
        history = baselines.get(key)
        if not history:
            continue  # new configuration: starts its own trend
        base = median(history)
        if base < args.min_value or value < args.min_value:
            continue  # sub-noise timings never gate
        compared += 1
        ratio = value / base
        marker = "REGRESSION" if ratio > args.threshold else "ok"
        line = (f"[gate] {marker}: {key[0]} {key[1]}"
                f" delta={key[2]} threads={key[3]} kernels={key[4]}"
                f" reorder={key[5]}: {args.metric} {value:.3f}"
                f" vs median {base:.3f} over {len(history)} run(s)"
                f" (x{ratio:.2f})")
        if ratio > args.threshold:
            regressions.append(line)
            print(line, file=sys.stderr)
        else:
            print(line)
    print(f"[gate] {candidate_label}: {compared} configuration(s) compared, "
          f"{len(regressions)} regression(s) beyond x{args.threshold:.2f}")
    if regressions:
        raise SystemExit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    record = sub.add_parser("record")
    record.add_argument("--dir", default=os.path.join(
        os.path.dirname(SCRIPT_DIR), "build"))
    record.add_argument("--label", default="")
    record.add_argument("--history", default=DEFAULT_HISTORY)
    record.add_argument("--commit", default="")
    show = sub.add_parser("show")
    show.add_argument("--history", default=DEFAULT_HISTORY)
    show.add_argument("--metric", default="wall_seconds")
    gate = sub.add_parser("gate")
    gate.add_argument("--dir", default="")
    gate.add_argument("--history", default=DEFAULT_HISTORY)
    gate.add_argument("--metric", default="wall_seconds")
    gate.add_argument("--threshold", type=float, default=1.20)
    gate.add_argument("--min-value", type=float, default=0.05)
    args = parser.parse_args()
    if args.command == "show":
        cmd_show(args)
    elif args.command == "gate":
        cmd_gate(args)
    else:
        cmd_record(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
