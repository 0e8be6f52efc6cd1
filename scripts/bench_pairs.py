#!/usr/bin/env python3
"""A/B pairs of the benchmark: two checkouts, alternating, end-to-end metrics compared.

    python3 scripts/bench_pairs.py --parent ../base --change . --workload score --pairs 10 --seed 1 2
    python3 scripts/bench_pairs.py --record BENCH_1.json --change . --seed 1

Runs `bench/run.py --trace 0` in each checkout for `BENCHMARK.json`'s
`run_seconds`, `--pairs` times each for each `--seed`, one seed after the
other; within a seed's pairs the side that runs first alternates. A single
seed's data cannot resolve a change of a few percent, so several seeds can
be pooled. Reads the JSON line each run prints last, then prints per seed,
and pooled over all pairs when there are several seeds, for every
end-to-end metric `BENCHMARK.json` lists, the median and quartiles of both
sides, the relative change of the medians, the exact two-sided sign-test p
of the pairs that are not tied (the chance of wins and losses at least this
uneven if each such pair were a fair coin toss), in how many pairs the change
was better (the direction is the metric's `better`; ties count for neither
side), whether the medians differ by more than the parent's interquartile
range, and whether the change's median is worse than the parent's by more
than the metric's relative `bound` (what a change that claims no gain is
held to). A metric whose parent runs have a zero interquartile range within each seed,
such as a deterministic `valid_mse`, reads "zero IQR" there when the medians
differ at all, with its values to 10 significant digits and its relative
change in e-notation, so a rounding-level move shows as one, and its p and
wins read "n/a": a pair that differs at all counts as won or lost there, so
the count would not tell a deterministic shift from a resolved change. The
pooled table reads such a metric the same way, though its values differ by
seed. It also prints each side's failed operation counts. Writes to standard
output only.

Each checkout keeps its own input cache, and every run after the one that
generated it reuses it, so those runs' `peak_rss_mb` reads the program. The
run that generates the inputs reads the generator's peak in `bench/run.py`
on train-short and score (about 145 MiB on score) instead, so generate both
checkouts' inputs, with a short `bench/run.py` run each, before the pairs.

With `--record PATH` it measures the `--change` checkout alone, at the one
`--seed` given, and writes a JSON record to PATH. For each workload
(`--workload`, or every one that `BENCHMARK.json` lists) it does one run it
throws away, because the first run after `bench/run.py` generates its inputs
reads a high `peak_rss_mb`; then `RUNS` runs at `--trace 0` and one at
`--trace 1`. The record holds the checkout's git revision, and per workload
the `environment` line of its first kept run, each end-to-end metric's
median, quartiles and values, the per-layer values and the spans the traced
run found missing, and every kept run's attempted and failed operation
counts.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

RUNS = 5  # --trace 0 runs per workload in a record

def run_bench(checkout: str, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """The result object `bench/run.py` prints last, from one run in `checkout`,
    with the `environment` object and `missing_spans` list it prints before."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.exit(f"{checkout}: bench/run.py exited {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["missing_spans"] = []
    for line in lines:
        if line.startswith("environment "):
            result["environment"] = json.loads(line.removeprefix("environment "))
        elif line.startswith("missing spans "):
            result["missing_spans"] = line.removeprefix("missing spans ").split(", ")
    return result


def value(result: dict, name: str) -> float | None:
    return result["metrics"].get(name, {}).get("value")


def spread(values: list[float]) -> tuple[float, float, float]:
    """Median and the first and third quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p of `wins` against `losses`: twice the chance
    that a fair coin tossed once per pair gives a side no more than the fewer
    of them, capped at 1."""
    n = wins + losses
    tail = sum(math.comb(n, k) for k in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n)


def revision(checkout: str) -> str | None:
    """The checkout's git commit, with "-dirty" if tracked files differ from it."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
                              text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               cwd=checkout, capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    return head + ("-dirty" if dirty.strip() else "")


def record(args, spec: dict) -> dict:
    """Warm-up, `RUNS` runs at --trace 0 and one at --trace 1 per workload."""
    seconds = spec["run_seconds"]
    workloads = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    (seed,) = args.seed
    out = {"revision": revision(args.change), "seed": seed, "runs": RUNS,
           "run_seconds": seconds, "workloads": {}}
    for workload in workloads:
        run_bench(args.change, workload, seed, seconds)  # warm-up, thrown away
        runs = []
        for i in range(RUNS):
            runs.append(run_bench(args.change, workload, seed, seconds))
            print(f"{workload} run {i + 1}/{RUNS}: failed {runs[-1]['failed']}"
                  f"/{runs[-1]['attempted']}", flush=True)
        traced = run_bench(args.change, workload, seed, seconds, trace=1)
        end_to_end = {}
        for metric in spec["end_to_end"]:
            values = [v for v in (value(r, metric["name"]) for r in runs) if v is not None]
            median, q1, q3 = spread(values) if values else (None, None, None)
            end_to_end[metric["name"]] = {"unit": metric["unit"], "median": median, "q1": q1,
                                          "q3": q3, "values": values}
        out["workloads"][workload] = {
            "environment": runs[0]["environment"],
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
            "missing_spans": traced["missing_spans"],
            "attempted": [r["attempted"] for r in runs + [traced]],
            "failed": [r["failed"] for r in runs + [traced]],
        }
    return out


def report(title: str, spec: dict, seeds: list[tuple[list[dict], list[dict]]]) -> None:
    """Print the end-to-end table over the pairs (parent[i], change[i]) of
    every seed's (parent, change) run lists in `seeds`, and each side's
    failed operation counts."""
    print(f"\n{title}")
    print(f"{'metric':<22} {'parent median [q1, q3]':>32} {'change median [q1, q3]':>32}"
          f" {'change':>8} {'p':>6} {'wins':>6} {'past parent IQR':>16} {'worse past bound':>17}")
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        by_seed = []
        for parent, change in seeds:
            values = ((value(p, name), value(c, name)) for p, c in zip(parent, change))
            by_seed.append([(p, c) for p, c in values if p is not None and c is not None])
        pairs = [pair for seed_pairs in by_seed for pair in seed_pairs]
        if not pairs:
            print(f"{name:<22} not reported")
            continue
        base, new = spread([p for p, _ in pairs]), spread([c for _, c in pairs])
        wins = sum(sign * (c - p) > 0 for p, c in pairs)
        losses = sum(sign * (c - p) < 0 for p, c in pairs)
        # deterministic when no seed's parent runs spread, though the pooled runs may
        seed_spreads = [spread([p for p, _ in seed_pairs]) for seed_pairs in by_seed if seed_pairs]
        zero_iqr = all(q1 == q3 for _, q1, q3 in seed_spreads)
        digits, rel_format = (".10g", "+.1e") if zero_iqr else (".6g", "+.1%")
        rel = format((new[0] - base[0]) / base[0], rel_format) if base[0] else "n/a"
        past_iqr = abs(new[0] - base[0]) > (0.0 if zero_iqr else base[2] - base[1])
        past_bound = sign * (base[0] - new[0]) > metric["bound"] * abs(base[0])
        past = ("zero IQR" if zero_iqr else "yes") if past_iqr else "no"
        won = "n/a" if zero_iqr else f"{wins}/{len(pairs)}"
        p_value = "n/a" if zero_iqr else format(sign_test_p(wins, losses), ".2g")
        print(f"{name:<22} {base[0]:>12{digits}} [{base[1]:{digits}}, {base[2]:{digits}}]"
              f" {new[0]:>12{digits}} [{new[1]:{digits}}, {new[2]:{digits}}]"
              f" {rel:>8} {p_value:>6} {won:>6} {past:>16}"
              f" {'yes' if past_bound else 'no':>17}")
    for i, side in enumerate(("parent", "change")):
        runs = [r for pair in seeds for r in pair[i]]
        print(f"{side} failed: {[r['failed'] for r in runs]} of {[r['attempted'] for r in runs]}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="checkout measured as the baseline")
    ap.add_argument("--change", default=".", help="checkout measured against it, or recorded")
    ap.add_argument("--workload", help="required for pairs; a record defaults to all")
    ap.add_argument("--pairs", type=int, help="pairs per seed")
    ap.add_argument("--seed", type=int, nargs="+", required=True,
                    help="workload seeds; pairs run each in turn, a record takes one")
    ap.add_argument("--record", metavar="PATH", help="write a record of --change to PATH")
    args = ap.parse_args()
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    if args.record:
        if len(args.seed) != 1:
            ap.error("a record takes one --seed")
        rec = record(args, spec)
        with open(args.record, "w", encoding="utf-8") as f:
            json.dump(rec, f, indent=1, sort_keys=True)
            f.write("\n")
        return 0
    if not (args.parent and args.workload and args.pairs):
        ap.error("pairs need --parent, --workload and --pairs")
    seconds = spec["run_seconds"]

    results = {seed: {"parent": [], "change": []} for seed in args.seed}
    for seed, runs in results.items():
        for i in range(args.pairs):
            sides = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in sides:
                res = run_bench(getattr(args, side), args.workload, seed, seconds)
                runs[side].append(res)
                print(f"seed {seed} pair {i + 1}/{args.pairs} {side}: failed {res['failed']}"
                      f"/{res['attempted']}", flush=True)

    for seed, runs in results.items():
        report(f"{args.workload} seed {seed}, {args.pairs} pairs, {seconds:g} s per run",
               spec, [(runs["parent"], runs["change"])])
    if len(results) > 1:
        seeds = ", ".join(map(str, results))
        report(f"{args.workload} seeds {seeds} pooled, {args.pairs * len(results)} pairs,"
               f" {seconds:g} s per run", spec,
               [(runs["parent"], runs["change"]) for runs in results.values()])
    return 0


if __name__ == "__main__":
    sys.exit(main())
