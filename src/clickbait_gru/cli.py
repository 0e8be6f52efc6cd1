"""Command-line pipeline: analyze, split, train, predict, evaluate.

Exit codes: 0 success, 1 usage error, 2 data error (parse failures, missing
ids, bad files), 3 numeric failure (non-finite loss or metrics). One --seed
flag drives every random component through named substreams, so reruns with
the same flags produce byte-identical artifacts.
"""

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .analytics import write_analytics
from .errors import DataError, NumericError, ParseError
from .ingest import (
    TEXT_FIELDS,
    atomic_open,
    finite_number,
    index_by_id,
    load_dataset,
    parse_instances,
    parse_truth,
    read_dataset,
    read_objects,
    stratified_split,
    write_dataset,
)
from .metrics import evaluate
from .nn import load_model, predict_batch, save_model
from .text import build_vocab, load_glove, tokenize
from .train import TrainConfig, encode_posts, fit, write_history

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

CHECKPOINT_FILENAME = "model.ckpt"
HISTORY_FILENAME = "history.csv"

class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; remap to the usage-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="clickbait-gru", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("analyze", help="dataset statistics as CSV/JSON tables")
    p.add_argument("--instances", required=True, help="instances.jsonl path")
    p.add_argument("--truth", required=True, help="truth.jsonl path")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("split", help="stratified train/test split of one dataset")
    p.add_argument("dataset_dir", help="directory with instances.jsonl and truth.jsonl")
    p.add_argument("train_out", help="output directory for the train part")
    p.add_argument("test_out", help="output directory for the test part")
    p.add_argument("--fraction", type=float, default=0.3, help="test fraction (default 0.3)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train the regressor, write checkpoint + history")
    p.add_argument("train_dir", help="training dataset directory")
    p.add_argument("valid_dir", help="validation dataset directory")
    p.add_argument("--glove", required=True, help="GloVe text file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="JSON file overriding training defaults")
    p.add_argument("--dim", dest="d", type=int, help="embedding dimension (default 100)")
    p.add_argument("--hidden", dest="h", type=int,
                   help="GRU hidden size per direction (default 128)")
    p.add_argument("--batch", dest="batch_size", type=int, help="mini-batch size (default 64)")
    p.add_argument("--lr", dest="learning_rate", type=float, help="learning rate (default 1e-3)")
    p.add_argument("--epochs", type=int, help="epoch budget (default 20)")
    p.add_argument("--dropout-embed", type=float, help="embedding dropout (default 0.2)")
    p.add_argument("--dropout-in", dest="dropout_gru_in", type=float,
                   help="GRU input dropout (default 0.2)")
    p.add_argument("--dropout-out", dest="dropout_gru_out", type=float,
                   help="summary dropout (default 0.5)")
    p.add_argument("--max-len", type=int, help="token cutoff per post (default 32)")
    p.add_argument("--seed", type=int, help="random seed (default 0)")
    p.add_argument("--text-field", choices=TEXT_FIELDS, help="text source (default postText)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score instances with a trained checkpoint")
    p.add_argument("checkpoint", help="model checkpoint path")
    p.add_argument("--instances", required=True, help="instances.jsonl path")
    p.add_argument("--out", required=True, help="output JSONL path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score a prediction file against truth")
    p.add_argument("results", help="predictions JSONL (id + clickbaitScore)")
    p.add_argument("--truth", required=True, help="truth.jsonl path")
    p.add_argument("--threshold", type=float, default=0.5, help="positive-class cutoff")
    p.add_argument("--out", help="also write the report JSON here")
    p.set_defaults(func=cmd_evaluate)

    return parser


def cmd_analyze(args) -> int:
    write_analytics(read_dataset(args.instances, args.truth), args.out)
    return EXIT_OK


def cmd_split(args) -> int:
    ds = load_dataset(args.dataset_dir)
    train, test = stratified_split(ds, args.fraction, args.seed)
    write_dataset(train, args.train_out)
    write_dataset(test, args.test_out)
    print(f"train: {len(train)} records, test: {len(test)} records")
    return EXIT_OK


def _train_config(args) -> TrainConfig:
    """`TrainConfig` from its defaults, then --config's JSON object, then every
    flag given; each flag's `dest` is the field it sets."""
    values = dataclasses.asdict(TrainConfig())
    if args.config:
        with open(args.config, encoding="utf-8") as f:
            try:
                overrides = json.load(f)
            except RecursionError:  # json recurses once per nesting level
                raise ValueError("config file is nested too deeply for JSON") from None
        if not isinstance(overrides, dict):
            raise ValueError("config file must hold a JSON object of training fields")
        unknown = sorted(set(overrides) - set(values))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        values.update(overrides)
    values.update({k: v for k, v in vars(args).items() if k in values and v is not None})
    return TrainConfig(**values)


def cmd_train(args) -> int:
    """Vocabulary, GloVe-initialized embeddings, `fit`, then the best epoch's
    checkpoint and the history CSV under --out."""
    cfg = _train_config(args)
    train_ds = load_dataset(args.train_dir)
    valid_ds = load_dataset(args.valid_dir)
    if not train_ds or not valid_ds:
        raise DataError("train and valid datasets must be non-empty")
    vocab = build_vocab(
        tokenize(record.field_text(cfg.text_field)) for record, _ in train_ds
    )
    with open(args.glove, encoding="utf-8") as f:
        embeddings, matched = load_glove(f, vocab, cfg.d, seed=cfg.seed)
    model, history = fit(train_ds, valid_ds, cfg, vocab, embeddings)

    os.makedirs(args.out, exist_ok=True)
    with atomic_open(os.path.join(args.out, CHECKPOINT_FILENAME), binary=True) as f:
        save_model(model, vocab, cfg, f)
    with atomic_open(os.path.join(args.out, HISTORY_FILENAME)) as f:
        write_history(history, f)

    best = min(history, key=lambda row: row.valid_mse)
    print(f"embeddings matched: {matched}/{vocab.size - 2}")
    print(f"validation mse: {best.valid_mse!r} (epoch {best.epoch} of {cfg.epochs})")
    return EXIT_OK


def cmd_predict(args) -> int:
    with open(args.checkpoint, "rb") as f:
        model, vocab, meta = load_model(f)
    with open(args.instances, encoding="utf-8") as f:
        records = parse_instances(f)
    index_by_id(records)  # a repeated id would be scored twice
    ids, lengths = encode_posts(records, vocab, meta["max_len"], meta["text_field"])
    scores = predict_batch(model, ids, lengths)
    bad = np.count_nonzero(~np.isfinite(scores))
    if bad:
        raise NumericError(f"the model scores {bad} of {len(scores)} posts non-finite")
    with atomic_open(args.out) as f:
        for record, score in zip(records, scores):
            f.write(json.dumps({"id": record.id, "clickbaitScore": float(score)}))
            f.write("\n")
    print(f"scored {len(records)} instances")
    return EXIT_OK


def _parse_results(stream) -> dict[str, float]:
    """Scores by id; each must be a number in [0, 1], the range of a judgment mean."""
    scores: dict[str, float] = {}
    for lineno, obj in read_objects(stream):
        if "clickbaitScore" not in obj:
            raise ParseError("missing 'clickbaitScore'", line=lineno)
        rec_id = str(obj["id"])
        if rec_id in scores:
            raise ParseError(f"duplicate result id {rec_id!r}", line=lineno)
        score = finite_number(obj["clickbaitScore"])
        if score is None or not 0.0 <= score <= 1.0:
            raise ParseError(
                f"clickbaitScore must be a finite number in [0, 1], "
                f"got {obj['clickbaitScore']!r}",
                line=lineno,
            )
        scores[rec_id] = score
    return scores


def cmd_evaluate(args) -> int:
    with open(args.results, encoding="utf-8") as f:
        results = _parse_results(f)
    with open(args.truth, encoding="utf-8") as f:
        truths = parse_truth(f)
    if len(truths) < 2:
        raise DataError(f"evaluate needs at least 2 truth lines, got {len(truths)}")
    missing = [rec_id for rec_id, _ in truths if rec_id not in results]
    if missing:
        shown = ", ".join(missing[:20])
        more = f" (and {len(missing) - 20} more)" if len(missing) > 20 else ""
        raise DataError(f"results are missing {len(missing)} truth ids: {shown}{more}")
    preds = [results[rec_id] for rec_id, _ in truths]
    report = evaluate(preds, [j for _, j in truths], threshold=args.threshold)
    if report.r2_degenerate:
        print("warning: constant truth means, r2 reported as 0", file=sys.stderr)
    text = report.to_json()
    print(text)
    if args.out:
        with atomic_open(args.out) as f:
            f.write(text)
            f.write("\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, UnicodeError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
