#!/usr/bin/env python3
"""A/B pairs of the benchmark: two checkouts, alternating, end-to-end metrics compared.

    python3 scripts/bench_pairs.py --parent ../base --change . --workload score --pairs 10 --seed 1

Runs `bench/run.py --trace 0` in each checkout for `BENCHMARK.json`'s
`run_seconds`, `--pairs` times each; within a pair the side that runs first
alternates. Reads the JSON line each run prints last, then prints, for every
end-to-end metric `BENCHMARK.json` lists, the median and quartiles of both
sides, the relative change of the medians, in how many pairs the change was
better (the direction is the metric's `better`; ties count for neither side),
whether the medians differ by more than the parent's interquartile range, and
whether the change's median is worse than the parent's by more than the
metric's relative `bound` (what a change that claims no gain is held to). It
also prints each side's failed operation counts. Writes to standard output
only; each benchmark run keeps its own input cache in its checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_bench(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """The result object `bench/run.py` prints last, from one run in `checkout`."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.exit(f"{checkout}: bench/run.py exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def value(result: dict, name: str) -> float | None:
    return result["metrics"].get(name, {}).get("value")


def spread(values: list[float]) -> tuple[float, float, float]:
    """Median and the first and third quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout measured as the baseline")
    ap.add_argument("--change", required=True, help="checkout measured against it")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]

    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        sides = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in sides:
            res = run_bench(getattr(args, side), args.workload, args.seed, seconds)
            results[side].append(res)
            print(f"pair {i + 1}/{args.pairs} {side}: failed {res['failed']}/{res['attempted']}",
                  flush=True)

    print(f"\n{args.workload} seed {args.seed}, {args.pairs} pairs, {seconds:g} s per run")
    print(f"{'metric':<22} {'parent median [q1, q3]':>32} {'change median [q1, q3]':>32}"
          f" {'change':>8} {'wins':>6} {'past parent IQR':>16} {'worse past bound':>17}")
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        pairs = [(value(p, name), value(c, name))
                 for p, c in zip(results["parent"], results["change"])]
        pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
        if not pairs:
            print(f"{name:<22} not reported")
            continue
        parent, change = spread([p for p, _ in pairs]), spread([c for _, c in pairs])
        wins = sum(sign * (c - p) > 0 for p, c in pairs)
        rel = f"{(change[0] - parent[0]) / parent[0]:+.1%}" if parent[0] else "n/a"
        past_iqr = abs(change[0] - parent[0]) > parent[2] - parent[1]
        past_bound = sign * (parent[0] - change[0]) > metric["bound"] * abs(parent[0])
        print(f"{name:<22} {parent[0]:>12.6g} [{parent[1]:.6g}, {parent[2]:.6g}]"
              f" {change[0]:>12.6g} [{change[1]:.6g}, {change[2]:.6g}]"
              f" {rel:>8} {wins:>3}/{len(pairs)} {'yes' if past_iqr else 'no':>16}"
              f" {'yes' if past_bound else 'no':>17}")
    for side, runs in results.items():
        print(f"{side} failed: {[r['failed'] for r in runs]} of {[r['attempted'] for r in runs]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
