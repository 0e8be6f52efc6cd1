#!/usr/bin/env python3
"""Train the regressor on a labeled corpus and report held-out metrics.

Protocol: a stratified 30% of the corpus is set aside as the test split, a
further stratified slice of the remainder serves as validation for best-epoch
selection, and the model trains on the rest with the default recipe (100-d
embeddings, hidden size 128 per direction, batch 64, dropout 0.2/0.2/0.5,
RMSprop). Each stage is a `clickbait-gru` subcommand: split, split, train,
predict, evaluate. Under --out land the splits (train_full/, test/, train/,
valid/), model.ckpt, history.csv, the test split's preds.jsonl and
report.json, its seven-metric report, which is also printed.

Expects the corpus directory to hold instances.jsonl + truth.jsonl and the
embedding file to be GloVe-format text matching --dim.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from clickbait_gru.cli import main as cli


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("data_dir", help="corpus directory (instances.jsonl + truth.jsonl)")
    ap.add_argument("--glove", required=True, help="GloVe text file")
    ap.add_argument("--out", default="runs/challenge", help="artifact directory")
    ap.add_argument("--test-fraction", type=float, default=0.3)
    ap.add_argument("--valid-fraction", type=float, default=0.15,
                    help="slice of the training part used for best-epoch selection")
    ap.add_argument("--epochs", type=int, default=20)
    ap.add_argument("--dim", type=int, default=100)
    ap.add_argument("--hidden", type=int, default=128)
    ap.add_argument("--seed", type=int, default=0)
    return ap.parse_args()


def main() -> int:
    args = parse_args()
    out, seed = args.out, str(args.seed)
    train_full, test, train, valid = (os.path.join(out, name)
                                      for name in ("train_full", "test", "train", "valid"))
    preds = os.path.join(out, "preds.jsonl")
    steps = [
        ["split", args.data_dir, train_full, test, "--fraction", str(args.test_fraction),
         "--seed", seed],
        ["split", train_full, train, valid, "--fraction", str(args.valid_fraction),
         "--seed", seed],
        ["train", train, valid, "--glove", args.glove, "--out", out, "--epochs", str(args.epochs),
         "--dim", str(args.dim), "--hidden", str(args.hidden), "--seed", seed],
        ["predict", os.path.join(out, "model.ckpt"),
         "--instances", os.path.join(test, "instances.jsonl"), "--out", preds],
        ["evaluate", preds, "--truth", os.path.join(test, "truth.jsonl"),
         "--out", os.path.join(out, "report.json")],
    ]
    for argv in steps:
        code = cli(argv)
        if code != 0:
            print(f"step {argv[0]} failed with exit code {code}", file=sys.stderr)
            return code
    print(f"artifacts in {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
