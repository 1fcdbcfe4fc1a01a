#!/usr/bin/env python3
"""Steadiness check for the perfbench benchmark.

Runs each workload once per seed, untraced, and prints every end-to-end
metric's median, quartiles and spread (interquartile distance over the
median, as statistics.quantiles(values, n=4) gives the quartiles) next to
its bound from BENCHMARK.json. A spread is marked `ok` below a third of
the bound. `setup_s` has no spread gate; its median is what a later
change is compared on.

With --repeat it also checks determinism on the first seed: a second
untraced run and two traced runs must reproduce the digests, the
decision and candidate counts and the dora_*_pct values exactly, and the
two traced runs must agree on every per-layer count.

Run from the repository root:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --workloads decide-replay --runs 5 --repeat
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

# Per-layer metrics that count simulated work; they must repeat exactly.
DETERMINISTIC_LAYER_METRICS = (
    "soc.step.calls",
    "soc.switches",
    "soc.migrate.calls",
    "governors.decide.calls",
    "core.decide.calls.msm8974",
    "core.decide.calls.biglittle",
    "core.candidates_per_decision.msm8974",
    "core.candidates_per_decision.biglittle",
    "core.infeasible_decision_pct.msm8974",
    "core.infeasible_decision_pct.biglittle",
)


def run_once(command, workload, seed, seconds, trace):
    """Runs the benchmark once; returns (result, info, wall seconds)."""
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "1" if trace else "0",
    ]
    start = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, check=False)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(argv)} failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    info = {}
    for line in lines[:-1]:
        if line.startswith("perfbench-info "):
            info = json.loads(line[len("perfbench-info "):])
    return result, info, wall


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(workload, results, metrics):
    print(f"\n{workload}: {len(results)} runs")
    print(f"  {'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    worst = True
    for metric in metrics:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = quartiles(values)
        spread = (q3 - q1) / abs(median) if median else float("inf")
        bound = metric["bound"]
        if name == "setup_s":
            verdict = "(no gate)"
        else:
            verdict = "ok" if spread < bound / 3 else ("WITHIN" if spread <= bound else "OVER")
            worst = worst and spread <= bound
        print(f"  {name:<28} {median:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.2%} {bound:>6} {verdict}")
    return worst


def check_repeat(command, workload, seed, seconds, first_info):
    """Determinism on one seed across untraced and traced runs."""
    _, again, _ = run_once(command, workload, seed, seconds, trace=False)
    traced = [run_once(command, workload, seed, seconds, trace=True) for _ in range(2)]
    problems = []
    if again != first_info:
        problems.append(f"untraced runs differ: {first_info} vs {again}")
    for result, info, _ in traced:
        if not result["correct"] or result["failed"]:
            problems.append(f"traced run failed: {result['failed']} of {result['attempted']}")
        for key in ("digest", "models_digest"):
            if info.get(key) != first_info.get(key):
                problems.append(f"traced {key} {info.get(key)} != untraced {first_info.get(key)}")
    a, b = (t[0]["metrics"] for t in traced)
    for name in DETERMINISTIC_LAYER_METRICS:
        if a[name]["value"] != b[name]["value"]:
            problems.append(f"{name}: {a[name]['value']} vs {b[name]['value']}")
    overhead = statistics.median(t[0]["metrics"]["trace.overhead_pct"]["value"] for t in traced)
    print(f"  repeat on seed {seed}: {'identical' if not problems else 'DIFFERS'}"
          f" (trace.overhead_pct {overhead:.1f})")
    for p in problems:
        print(f"    {p}")
    return not problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="seeds per workload")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--seconds", type=float, help="override run_seconds")
    parser.add_argument("--repeat", action="store_true", help="also check determinism")
    parser.add_argument("--bin", help="run this built binary instead of the command")
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    command = [args.bin] if args.bin else bench["command"]
    seconds = args.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")

    all_ok = True
    for workload in names:
        results, infos, walls = [], [], []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, info, wall = run_once(command, workload, seed, seconds, trace=False)
            if not result["correct"] or result["failed"]:
                all_ok = False
                print(f"  seed {seed}: {result['failed']} of {result['attempted']} failed")
            results.append(result)
            infos.append(info)
            walls.append(wall)
        for seed, result in zip(range(args.first_seed, args.first_seed + args.runs), results):
            values = "  ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                               for m in bench["end_to_end"] if m["unit"] in ("1/s", "s"))
            print(f"  seed {seed}: {values}")
        all_ok &= report(workload, results, bench["end_to_end"])
        print(f"  wall per run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        if args.repeat:
            all_ok &= check_repeat(command, workload, args.first_seed, seconds, infos[0])
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
