#!/usr/bin/env python3
"""Repository benchmark: time to a battery-lifetime curve, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload fig8_d10 --seed 1 --seconds 30 --trace 0

Builds the library from source together with the benchmark binary into
.bench_build/perfbench (CMake, Release; the first run compiles, later runs
only check the build is current), then runs one workload:

    fig8_d10          Fig. 8 on/off KiBaM, Delta = 10, engine parallel
    fig8_d10_krylov   the same chain and grid, engine krylov
    scenario_batch    seeded small scenarios through engine::ScenarioBatch

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run (spans are written as Chrome trace-event JSON under
.bench_build/out).  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.

Besides the binary's own checks, this wrapper enforces the cross-run exact
count guard: the work counters of a (workload, seed) pair are stored per
build of the binary, and a later run of the same build that reports other
counts fails every op as nondeterministic.  It also checks that the metric
names and units are exactly those BENCHMARK.json declares.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "kibamrm_perfbench")
WORKLOADS = ("fig8_d10", "fig8_d10_krylov", "scenario_batch")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures once, then builds the benchmark target; True on success."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        # Configure until one configure has succeeded; afterwards the build
        # tool re-runs CMake itself when a build file changes.
        configured = os.path.join(BUILD_DIR, "configured.stamp")
        steps = []
        if not os.path.exists(configured):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target",
                      "kibamrm_perfbench", "-j", jobs])
        for step in steps:
            result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if result.returncode != 0:
                log(f"build step failed: {' '.join(step)}")
                return False
            if step[1] == "-S":
                open(configured, "w").close()
    return os.path.exists(BINARY)


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as handle:
            spec = json.load(handle)
    except (OSError, ValueError):
        return None
    section = spec.get("per_layer" if trace else "end_to_end", [])
    return {(m["name"], m["unit"]) for m in section}


def binary_digest():
    digest = hashlib.sha256()
    with open(BINARY, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()[:16]


def cross_run_guard(workload, seed, counts):
    """Compares counts with earlier runs of this build; returns a reason or ''."""
    directory = os.path.join(BUILD_ROOT, "counts")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{workload}-seed{seed}-{binary_digest()}.json")
    if os.path.exists(path):
        with open(path) as handle:
            previous = json.load(handle)
        if previous != counts:
            changed = sorted(k for k in set(previous) | set(counts)
                             if previous.get(k) != counts.get(k))
            return "exact counts differ from an earlier run of this seed: " + \
                ", ".join(f"{k} {previous.get(k)} -> {counts.get(k)}" for k in changed)
        return ""
    with open(path + ".tmp", "w") as handle:
        json.dump(counts, handle, sort_keys=True)
    os.replace(path + ".tmp", path)
    return ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 1
    out_dir = os.path.join(BUILD_ROOT, "out")
    os.makedirs(out_dir, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--data", os.path.join(HERE, "data"), "--out", out_dir]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = result.stdout.splitlines()
    if result.returncode != 0 or not lines:
        sys.stdout.write(result.stdout)
        log(f"benchmark binary exited with {result.returncode}")
        return 1
    for line in lines[:-1]:
        print(line)
    try:
        report = json.loads(lines[-1])
    except ValueError:
        print(lines[-1])
        log("last line of the binary's output is not JSON")
        return 1

    counts = None
    for line in lines:
        if line.startswith("counts: "):
            counts = json.loads(line[len("counts: "):])
    if counts is None:
        log("binary reported no exact counts")
        return 1
    reason = cross_run_guard(args.workload, args.seed, counts)
    if reason:
        # Nondeterminism taints every op of the run.
        print(f"FAILED: {reason}")
        report["correct"] = False
        report["failed"] = report["attempted"]
        if "pass_frac" in report["metrics"]:
            report["metrics"]["pass_frac"]["value"] = 0.0

    declared = declared_metrics(bool(args.trace))
    reported = {(name, m["unit"]) for name, m in report["metrics"].items()}
    if declared is not None and declared != reported:
        log("metrics differ from BENCHMARK.json: missing "
            f"{sorted(declared - reported)}, undeclared {sorted(reported - declared)}")
        return 1
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
