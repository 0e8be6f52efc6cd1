"""One benchmark workload, run in-process through `clickbait_gru.cli.main`.

Started by run.py in a fresh process with the BLAS thread count already set
in its environment, so its peak memory is the workload's alone. Writes a
JSON result file; run.py prints it.

Every workload runs the same user session on its own generated inputs:
train for an epoch or two, score fresh posts, evaluate the scores and analyze the
fresh corpus. Only the sizes and the `Plan` differ, so each workload reports
every metric while stressing different layers.
"""

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

from clickbait_gru import cli  # noqa: E402

import host  # noqa: E402
import layers  # noqa: E402
from spans import Tracer  # noqa: E402

EMPTY_PREDICT_REPS = 9  # samples of the 10 ms empty predict; the median is reported
MIN_CYCLES = 2  # the traced run needs one untraced and one traced cycle
ORACLE_TOL = 1e-5  # |float32 CLI score - float64 scalar oracle|
PAPER_FLAGS = ["--dim", "100", "--hidden", "128", "--batch", "64", "--max-len", "32", "--seed", "0"]


@dataclasses.dataclass(frozen=True)
class Plan:
    setup_op: str  # the call setup_s reports
    train_split: str  # the split the timed `train` calls learn from
    epochs: int  # of the timed training run
    fixed_model: bool  # score with the warm-up's epochs-0 checkpoint, not the cycle's


PLANS = {
    "train-short": Plan(setup_op="train0", train_split="train", epochs=1, fixed_model=False),
    "train-long": Plan(setup_op="train0", train_split="train", epochs=1, fixed_model=False),
    # score measures inference, so setup is the checkpoint load (predict of
    # an empty file); it trains for two epochs on its 768-post validation
    # split only, so that it reports every metric at a fraction of
    # train-short's cost
    "score": Plan(setup_op="predict0", train_split="valid", epochs=2, fixed_model=True),
}


class CheckFailed(Exception):
    pass


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


class Session:
    def __init__(self, data: str, manifest: dict):
        self.data = data
        self.manifest = manifest
        self.samples: dict[str, list[float]] = {}  # wall seconds per op
        self.slowdown: dict[str, list[float]] = {}  # host probe / reference, per sample
        self._probe = host.probe()
        self.attempted = 0
        self.failures: list[str] = []
        self.shards = [os.path.join(data, f"fresh-{i}") for i in range(manifest["spec"]["fresh_shards"])]
        self.shard_ids = []
        for shard in self.shards:
            with open(os.path.join(shard, "instances.jsonl"), encoding="utf-8") as f:
                self.shard_ids.append([json.loads(line)["id"] for line in f])
        self.history: bytes | None = None
        self.valid_mse: float | None = None

    def call(self, op: str, argv: list[str], check) -> None:
        """Run and time one CLI call; a failed call or check is recorded, not raised."""
        self.attempted += 1
        before = self._probe  # probed right after the previous call
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            elapsed = time.perf_counter() - start
            if code != 0:
                raise CheckFailed(f"exit code {code}")
            check(out.getvalue())
        except (SystemExit, Exception) as exc:  # a failed call is counted, not fatal
            detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            self.failures.append(f"{op}: {detail}")
            return
        finally:
            self._probe = host.probe()
        self.samples.setdefault(op, []).append(elapsed)
        self.slowdown.setdefault(op, []).append((before + self._probe) / (2 * host.REFERENCE_S))

    # --- operations ----------------------------------------------------------

    def train(self, op: str, epochs: int, out: str, split: str = "train") -> None:
        d = self.data
        argv = ["train", os.path.join(d, split), os.path.join(d, "valid"),
                "--glove", os.path.join(d, "glove.txt"), "--out", out,
                "--epochs", str(epochs), *PAPER_FLAGS]
        self.call(op, argv, lambda _: self._check_train(out, epochs))

    def _check_train(self, out: str, epochs: int) -> None:
        if not os.path.getsize(os.path.join(out, cli.CHECKPOINT_FILENAME)):
            raise CheckFailed("empty checkpoint")
        path = os.path.join(out, cli.HISTORY_FILENAME)
        with open(path, "rb") as f:
            raw = f.read()
        rows = list(csv.DictReader(io.StringIO(raw.decode("utf-8"))))
        if len(rows) != epochs + 1:
            raise CheckFailed(f"history has {len(rows)} rows, expected {epochs + 1}")
        for row in rows:
            if not all(math.isfinite(float(row[k])) for k in ("train_mse", "valid_mse")):
                raise CheckFailed(f"non-finite history row {row}")
        if epochs:
            # same flags, same inputs: every rerun must write identical bytes
            if self.history is not None and raw != self.history:
                raise CheckFailed("history differs from an earlier identical run")
            self.history = raw
            self.valid_mse = min(float(row["valid_mse"]) for row in rows)

    def predict(self, op: str, ckpt: str, instances: str, out: str, ids: list[str]) -> None:
        argv = ["predict", ckpt, "--instances", instances, "--out", out]
        self.call(op, argv, lambda _: self._check_predict(out, ids))

    @staticmethod
    def _check_predict(out: str, ids: list[str]) -> None:
        with open(out, encoding="utf-8") as f:
            rows = [json.loads(line) for line in f]
        if [r.get("id") for r in rows] != ids:
            raise CheckFailed("predictions do not list the input ids in input order")
        for r in rows:
            score = r.get("clickbaitScore")
            if not (_finite(score) and 0.0 < score < 1.0):
                raise CheckFailed(f"score {score!r} for id {r['id']} is not in (0, 1)")

    def evaluate(self, results: str, truth: str, out: str) -> None:
        argv = ["evaluate", results, "--truth", truth, "--out", out]

        def check(stdout: str) -> None:
            with open(out, encoding="utf-8") as f:
                report = json.load(f)
            if json.loads(stdout) != report:
                raise CheckFailed("printed report differs from the written one")
            if not report or not all(_finite(v) for v in report.values()):
                raise CheckFailed(f"report has non-finite values: {report}")

        self.call("evaluate", argv, check)

    def analyze(self, instances: str, truth: str, out: str) -> None:
        shutil.rmtree(out, ignore_errors=True)  # stale files must not pass the check
        argv = ["analyze", "--instances", instances, "--truth", truth, "--out", out]
        from clickbait_gru.analytics import ANALYTICS_FILENAMES

        def check(_: str) -> None:
            absent = [n for n in ANALYTICS_FILENAMES if not os.path.isfile(os.path.join(out, n))]
            if absent:
                raise CheckFailed(f"analyze did not write {absent}")

        self.call("analyze", argv, check)

    # --- the oracle ----------------------------------------------------------

    def oracle_check(self, ckpt: str, preds: str, shard: int) -> None:
        """Score a few posts with the float64 scalar oracle and compare."""
        from oracle import naive_predict

        from clickbait_gru.nn import load_model

        with open(ckpt, "rb") as f:
            model, vocab, meta = load_model(f)
        model = _upcast(model)
        with open(preds, encoding="utf-8") as f:
            scores = {r["id"]: r["clickbaitScore"] for r in map(json.loads, f)}
        for post in self.manifest["oracle_posts"][shard]:
            ids = [vocab.lookup(t) for t in post["tokens"][: meta["max_len"]]]
            want = naive_predict(model, ids, len(ids))
            got = scores.get(post["id"])
            self.attempted += 1
            if got is None or not abs(got - want) <= ORACLE_TOL:
                self.failures.append(f"oracle: id {post['id']} scored {got!r}, oracle {want!r}")


def _upcast(obj):
    """Copy of a model dataclass tree with every float array in float64."""
    if isinstance(obj, np.ndarray):
        return obj.astype(np.float64) if obj.dtype.kind == "f" else obj
    if dataclasses.is_dataclass(obj):
        return dataclasses.replace(
            obj, **{f.name: _upcast(getattr(obj, f.name)) for f in dataclasses.fields(obj) if f.init}
        )
    return obj


def warm_blas(seconds: float = 0.3) -> None:
    """Start the BLAS thread pool and fault in its buffers at the model's shapes."""
    rng = np.random.default_rng(0)
    a = rng.random((512, 128), dtype=np.float32)
    b = rng.random((128, 384), dtype=np.float32)
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        a @ b


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
    }


def run(workload: str, data: str, work: str, seconds: float, traced: bool) -> dict:
    with open(os.path.join(data, "manifest.json"), encoding="utf-8") as f:
        manifest = json.load(f)
    spec = manifest["spec"]
    plan = PLANS[workload]
    sess = Session(data, manifest)
    w = lambda *p: os.path.join(work, *p)  # noqa: E731
    empty = os.path.join(data, "empty.jsonl")

    # untimed: warm BLAS, imports, page cache; the epochs-0 checkpoint
    # scores the fresh posts on the score workload
    warm_blas()
    sess.train("warm", 0, w("c0"))
    c0_ckpt = w("c0", cli.CHECKPOINT_FILENAME)
    sess.predict("warm", c0_ckpt, empty, w("p0.jsonl"), [])

    tracer = Tracer() if traced else None
    if tracer:
        layers.install(tracer)
    for _ in range(EMPTY_PREDICT_REPS):
        sess.predict("predict0", c0_ckpt, empty, w("p0.jsonl"), [])

    ckpt = c0_ckpt if plan.fixed_model else w("t1", cli.CHECKPOINT_FILENAME)
    cycle_times: list[float] = []
    traced_spans = (0, 0)  # span index range of the first traced cycle
    begin = time.perf_counter()
    # Every call runs once per cycle, so each metric's samples spread over the
    # whole run. A cycle starts only if it is due to end within the budget.
    while len(cycle_times) < MIN_CYCLES or (
        time.perf_counter() - begin + statistics.mean(cycle_times) <= seconds
    ):
        # the traced run leaves its first cycle untraced to measure overhead
        if tracer:
            (tracer.install if cycle_times else tracer.uninstall)()
            first_span = len(tracer.spans)
        start = time.perf_counter()
        sess.train("train0", 0, w("t0"), plan.train_split)
        sess.train("trainE", plan.epochs, w("t1"), plan.train_split)
        shard = len(cycle_times) % len(sess.shards)  # a new file each cycle, in turn
        inst = os.path.join(sess.shards[shard], "instances.jsonl")
        truth = os.path.join(sess.shards[shard], "truth.jsonl")
        sess.predict("predict", ckpt, inst, w("preds.jsonl"), sess.shard_ids[shard])
        sess.evaluate(w("preds.jsonl"), truth, w("report.json"))
        sess.analyze(inst, truth, w("analytics"))
        cycle_times.append(time.perf_counter() - start)
        if tracer and len(cycle_times) == 2:
            traced_spans = (first_span, len(tracer.spans))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
    if "predict" in sess.samples:
        sess.oracle_check(ckpt, w("preds.jsonl"), shard)

    n_shard = len(sess.shard_ids[0])
    n_train = spec["n_" + plan.train_split]

    def end_to_end(correct: bool) -> dict[str, tuple[float | None, str]]:
        """The metrics from host-corrected times, or from raw wall times."""
        smp = {op: [t / f for t, f in zip(times, sess.slowdown[op])] if correct else times
               for op, times in sess.samples.items()}
        med = {op: statistics.median(times) for op, times in smp.items()}

        def rate(op: str, count: int, base_op: str | None = None) -> float | None:
            """Median of count / (time - median time of base_op) over op's samples."""
            if op not in smp or (base_op and base_op not in med):
                return None
            base = med[base_op] if base_op else 0.0
            return statistics.median(count / (t - base) for t in smp[op])

        return {
            "setup_s": (med.get(plan.setup_op), "s"),
            "train_posts_per_s": (
                plan.epochs * n_train / (med["trainE"] - med["train0"])
                if "trainE" in med and "train0" in med else None,
                "posts/s"),
            "valid_mse": (sess.valid_mse, "MSE"),
            "predict_posts_per_s": (rate("predict", n_shard, "predict0"), "posts/s"),
            "evaluate_posts_per_s": (rate("evaluate", n_shard), "posts/s"),
            "analyze_posts_per_s": (rate("analyze", n_shard), "posts/s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }

    result = {
        "attempted": sess.attempted,
        "failed": len(sess.failures),
        "failures": sess.failures,
        "samples": sess.samples,
        "host_slowdown": statistics.median(f for fs in sess.slowdown.values() for f in fs),
        "cycles": len(cycle_times),
        "environment": environment(),
        "end_to_end": end_to_end(correct=True),
        "end_to_end_wall": end_to_end(correct=False),
    }
    if tracer:
        per_layer = layers.per_layer(tracer, traced_spans, manifest["glove_lines"])
        per_layer["nn.checkpoint_bytes"] = (os.path.getsize(ckpt), "bytes")
        per_layer["trace.overhead"] = (
            statistics.median(cycle_times[1:]) / cycle_times[0] - 1.0, "ratio")
        result["per_layer"] = per_layer
        result["missing_spans"] = tracer.missing
        result["span_summary"] = layers.summary(tracer)
        trace_path = w("spans.jsonl")
        tracer.write(trace_path)
        result["spans_file"] = trace_path
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(PLANS))
    ap.add_argument("--data", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()
    # one core: the host probe then measures the core the calls run on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    result = run(args.workload, args.data, args.work, args.seconds, bool(args.trace))
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
