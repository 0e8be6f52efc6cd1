#!/usr/bin/env python3
"""Exercise the whole pipeline on generated data; no downloads required.

Builds a synthetic labeled corpus where a handful of marker words ("shocking",
"unbelievable", ...) drive the judgment scores, plus a random embedding file
for its vocabulary. Then runs every subcommand in order: analyze, split,
train, predict, evaluate. Artifacts land under --out.

The point is a fast, reproducible end-to-end check of the tooling; the scores
it reaches on its own toy data are not meaningful beyond that.
"""

import argparse
import json
import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from clickbait_gru.cli import main as cli
from clickbait_gru.ingest import INSTANCES_FILENAME, TRUTH_FILENAME, derive_label

PLAIN_WORDS = [
    "council", "approves", "the", "quarterly", "budget", "report", "market",
    "closed", "higher", "officials", "said", "study", "finds", "results",
    "published", "new", "policy", "takes", "effect", "monday",
]
MARKER_WORDS = ["shocking", "unbelievable", "jaw-dropping"]

# five-decimal level encoding used in the truth files
LEVELS = {0: 0.0, 1: 0.33333, 2: 0.66667, 3: 1.0}


def write_corpus(directory: str, n: int, seed: int) -> None:
    """The labeled corpus as a challenge dataset directory: one JSON line
    per post in each of its instances and truth files."""
    rnd = random.Random(seed)
    os.makedirs(directory, exist_ok=True)
    with (
        open(os.path.join(directory, INSTANCES_FILENAME), "w", encoding="utf-8") as instances,
        open(os.path.join(directory, TRUTH_FILENAME), "w", encoding="utf-8") as truth,
    ):
        for i in range(n):
            bait = i % 3 == 0
            words = [rnd.choice(PLAIN_WORDS) for _ in range(rnd.randint(4, 10))]
            if bait:
                words.insert(rnd.randrange(len(words) + 1), rnd.choice(MARKER_WORDS))
            pool = (2, 3) if bait else (0, 1)
            scores = sorted(LEVELS[rnd.choice(pool)] for _ in range(5))
            median = scores[2]
            post = {"id": str(i), "postText": [" ".join(words)],
                    "targetTitle": "", "targetDescription": ""}  # no linked article
            judgment = {"id": str(i), "truthJudgments": scores, "truthMean": sum(scores) / 5.0,
                        "truthMedian": median, "truthClass": derive_label(median).value}
            instances.write(json.dumps(post) + "\n")
            truth.write(json.dumps(judgment) + "\n")


def write_embeddings(path: str, d: int, seed: int) -> None:
    rnd = random.Random(seed)
    with open(path, "w", encoding="utf-8") as f:
        for word in PLAIN_WORDS + MARKER_WORDS:
            vec = " ".join(f"{rnd.uniform(-0.5, 0.5):.5f}" for _ in range(d))
            f.write(f"{word} {vec}\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="runs/demo")
    ap.add_argument("--records", type=int, default=600)
    ap.add_argument("--epochs", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    base = args.out
    data = os.path.join(base, "data")
    write_corpus(data, args.records, args.seed)
    glove = os.path.join(base, "glove.txt")
    write_embeddings(glove, d=16, seed=args.seed)

    steps = [
        ["analyze",
         "--instances", os.path.join(data, "instances.jsonl"),
         "--truth", os.path.join(data, "truth.jsonl"),
         "--out", os.path.join(base, "stats")],
        ["split", data, os.path.join(base, "train"), os.path.join(base, "test"),
         "--seed", str(args.seed)],
        ["train", os.path.join(base, "train"), os.path.join(base, "test"),
         "--glove", glove, "--out", os.path.join(base, "run"),
         "--dim", "16", "--hidden", "16", "--batch", "32",
         "--epochs", str(args.epochs), "--max-len", "16", "--seed", str(args.seed)],
        ["predict", os.path.join(base, "run", "model.ckpt"),
         "--instances", os.path.join(base, "test", "instances.jsonl"),
         "--out", os.path.join(base, "preds.jsonl")],
        ["evaluate", os.path.join(base, "preds.jsonl"),
         "--truth", os.path.join(base, "test", "truth.jsonl"),
         "--out", os.path.join(base, "report.json")],
    ]
    for argv in steps:
        print(f"\n$ clickbait-gru {' '.join(argv)}")
        code = cli(argv)
        if code != 0:
            print(f"step {argv[0]} failed with exit code {code}", file=sys.stderr)
            return code
    print(f"\nall artifacts in {base}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
