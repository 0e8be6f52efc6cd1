#!/usr/bin/env python3
"""Train the regressor on a labeled corpus and report held-out metrics.

Protocol: a stratified 30% of the corpus is set aside as the test split, a
further stratified slice of the remainder serves as validation for best-epoch
selection, and the model trains on the rest with the default recipe (100-d
embeddings, hidden size 128 per direction, batch 64, dropout 0.2/0.2/0.5,
RMSprop). The seven-metric report for the test split is printed and written
next to the checkpoint.

Expects the corpus directory to hold instances.jsonl + truth.jsonl and the
embedding file to be GloVe-format text matching --dim.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from clickbait_gru.cli import train_and_save
from clickbait_gru.ingest import atomic_open, load_dataset, stratified_split
from clickbait_gru.metrics import evaluate
from clickbait_gru.nn import predict_batch
from clickbait_gru.train import TrainConfig, encode_dataset


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
    ds = load_dataset(args.data_dir)
    train_full, test = stratified_split(ds, args.test_fraction, args.seed)
    train, valid = stratified_split(train_full, args.valid_fraction, args.seed)
    print(f"records: train {len(train)}, valid {len(valid)}, test {len(test)}")

    cfg = TrainConfig(epochs=args.epochs, d=args.dim, h=args.hidden, seed=args.seed)
    model, vocab, history, matched = train_and_save(train, valid, cfg, args.glove, args.out)
    print(f"vocabulary: {vocab.size} ids, {matched} with pretrained vectors")
    best = min(history, key=lambda row: row.valid_mse)
    print(f"best validation mse {best.valid_mse!r} at epoch {best.epoch}/{cfg.epochs}")

    ids, lengths, _ = encode_dataset(test, vocab, cfg.max_len, cfg.text_field)
    preds = predict_batch(model, ids, lengths)
    report = evaluate(list(preds), [judgment for _, judgment in test])
    text = report.to_json()
    print(text)
    with atomic_open(os.path.join(args.out, "report.json")) as f:
        f.write(text + "\n")
    print(f"artifacts in {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
