"""Paper-scale benchmark of the clickbait-gru command line.

    python3 bench/run.py --workload train-short --seed 1 --seconds 35 --trace 0

Run from the root of a checkout. Generates the workload's inputs from the
seed (cached under .bench_data/), runs the workload in a child process
through `clickbait_gru.cli.main`, checks every output, and prints the
metrics. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones from a traced
run. BENCHMARK.json lists them; bench/metric_map.json says which end-to-end
metric each per-layer one should move.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

# Fixed before numpy loads here or in the worker; the worker records it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(ROOT, ".bench_data")
KEEP_DATASETS = 4  # cached (workload, seed) inputs kept on disk
DEADLINE_S = 170  # the whole run, generation included, ends before this

sys.path.insert(0, HERE)
import gen  # noqa: E402


def _evict_old(keep: str) -> None:
    data = os.path.join(CACHE, "data")
    entries = sorted(
        (os.path.join(data, e) for e in os.listdir(data)),
        key=os.path.getmtime, reverse=True,
    )
    for path in entries[KEEP_DATASETS:]:
        if path != keep:
            shutil.rmtree(path, ignore_errors=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    start = time.monotonic()
    # a TERM unwinds through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "clickbait_gru", "cli.py")):
        print(f"no program to measure: {ROOT}/src/clickbait_gru is missing", file=sys.stderr)
        return 2

    data, manifest = gen.ensure(args.workload, args.seed, os.path.join(CACHE, "data"))
    os.utime(data)
    _evict_old(data)

    work = os.path.join(CACHE, f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    result_path = os.path.join(work, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--data", data, "--work", work,
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--result", result_path]
    try:
        try:
            proc = subprocess.run(cmd, timeout=max(1.0, DEADLINE_S - (time.monotonic() - start)))
        except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
            print("worker timed out", file=sys.stderr)
            return 1
        if proc.returncode != 0:
            print(f"worker exited with code {proc.returncode}", file=sys.stderr)
            return 1
        with open(result_path, encoding="utf-8") as f:
            result = json.load(f)
        if args.trace:
            kept = os.path.join(CACHE, f"spans-{args.workload}-s{args.seed}.jsonl")
            shutil.move(result["spans_file"], kept)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report(args, manifest, result, kept if args.trace else None)
    metrics = result["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


def report(args, manifest: dict, result: dict, spans_path: str | None) -> None:
    """Human-readable lines ahead of the JSON result line."""
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  cycles {result['cycles']}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    keys = ("vocab_size", "glove_lines", "glove_match_ratio", "train_truncated_ratio",
            "fresh_truncated_ratio", "train_length_hist", "fresh_length_hist")
    print("data " + json.dumps({k: manifest[k] for k in keys}))
    ops = {op: len(times) for op, times in result["samples"].items()}
    print(f"operations attempted {result['attempted']}  failed {result['failed']}  ok {json.dumps(ops)}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    print(f"host slowdown against the reference probe: median {result['host_slowdown']:.3f}")
    metrics = result["per_layer" if args.trace else "end_to_end"]
    wall = {} if args.trace else result["end_to_end_wall"]
    for name, (value, unit) in metrics.items():
        shown = "missing" if value is None else f"{value:.6g}"
        raw = wall.get(name, (None,))[0]
        note = "" if raw is None or raw == value else f"   (wall clock: {raw:.6g})"
        print(f"  {name:36s} {shown:>14s} {unit}{note}")
    if args.trace:
        if result["missing_spans"]:
            print("missing spans " + ", ".join(result["missing_spans"]))
        total = sum(r[3] for r in result["span_summary"])
        print(f"spans written to {os.path.relpath(spans_path, ROOT)}; self time by function:")
        for name, calls, secs, own in result["span_summary"]:
            print(f"  {name:40s} {calls:8d} calls {secs:9.3f} s total {own:9.3f} s self"
                  f" {100 * own / total:5.1f}%")


if __name__ == "__main__":
    sys.exit(main())
