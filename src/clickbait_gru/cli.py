"""Command-line pipeline: analyze, split, train, predict, evaluate.

Exit codes: 0 success, 1 usage error, 2 data error (parse failures, missing
ids, bad files), 3 a valid input that could not be computed (non-finite loss
or metrics, or too little memory). One --seed flag drives every random
component through named substreams, so reruns with the same flags produce
byte-identical artifacts.
"""

import argparse
import dataclasses
import io
import json
import os
import sys

import numpy as np

from .analytics import write_analytics
from .errors import DataError, NumericError, ParseError
from .ingest import (
    INSTANCES_FILENAME,
    JSON_WHITESPACE,
    TRUTH_FILENAME,
    atomic_files,
    build_dataset,
    finite_number,
    load_dataset,
    parse_instances,
    parse_truth,
    read_dataset,
    read_objects,
    stratified_split,
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
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score instances with a trained checkpoint")
    p.add_argument("checkpoint", help="model checkpoint path")
    p.add_argument("--instances", required=True, help="instances.jsonl path")
    p.add_argument("--out", required=True, help="output JSONL path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score a prediction file against truth")
    p.add_argument("results", help="predictions JSONL (id + clickbaitScore)")
    p.add_argument("--truth", required=True, help="truth.jsonl path")
    p.add_argument("--out", help="also write the report JSON here")
    p.set_defaults(func=cmd_evaluate)

    return parser


def cmd_analyze(args) -> int:
    write_analytics(read_dataset(args.instances, args.truth), args.out)
    return EXIT_OK


def _lines_by_id(ids, lines: list[str]) -> dict[str, str]:
    """Each id's line, newline-ended; `ids` follow the non-blank lines `read_objects` keeps."""
    kept = (ln if ln.endswith("\n") else ln + "\n" for ln in lines if ln.strip(JSON_WHITESPACE))
    return dict(zip(ids, kept))


def cmd_split(args) -> int:
    """Each part holds its posts' input lines as read, in truth-file order; all
    four files are rendered before either directory is made, then written all
    or none. The three directories must differ, so no output overwrites the
    input or the other."""
    dirs = {os.path.realpath(d) for d in (args.dataset_dir, args.train_out, args.test_out)}
    if len(dirs) < 3:
        raise ValueError("split needs three different directories: dataset, train and test")
    with open(os.path.join(args.dataset_dir, INSTANCES_FILENAME), encoding="utf-8") as f:
        instance_lines = f.readlines()
    records = parse_instances(instance_lines)
    with open(os.path.join(args.dataset_dir, TRUTH_FILENAME), encoding="utf-8") as f:
        truth_lines = f.readlines()
    truths = parse_truth(truth_lines)
    train, test = stratified_split(build_dataset(records, truths), args.fraction, args.seed)
    by_file = {
        INSTANCES_FILENAME: _lines_by_id((rec.id for rec in records), instance_lines),
        TRUTH_FILENAME: _lines_by_id((rec_id for rec_id, _ in truths), truth_lines),
    }
    outputs = {
        os.path.join(directory, name): "".join(lines[rec.id] for rec, _ in part)
        for directory, part in ((args.train_out, train), (args.test_out, test))
        for name, lines in by_file.items()
    }
    for directory in (args.train_out, args.test_out):
        os.makedirs(directory, exist_ok=True)
    with atomic_files(*outputs) as files:
        for f, text in zip(files, outputs.values()):
            f.write(text.encode("utf-8"))
    print(f"train: {len(train)} records, test: {len(test)} records")
    return EXIT_OK


def _train_config(args) -> TrainConfig:
    """`TrainConfig` from its defaults, then every flag given; each flag's
    `dest` is the field it sets."""
    fields = {f.name for f in dataclasses.fields(TrainConfig)}
    return TrainConfig(**{k: v for k, v in vars(args).items() if k in fields and v is not None})


def cmd_train(args) -> int:
    """Vocabulary, GloVe-initialized embeddings, `fit`, then the best epoch's
    checkpoint and the history CSV under --out."""
    cfg = _train_config(args)
    train_ds = load_dataset(args.train_dir)
    valid_ds = load_dataset(args.valid_dir)
    if not train_ds or not valid_ds:
        raise DataError("train and valid datasets must be non-empty")
    vocab = build_vocab(tokenize(record.text) for record, _ in train_ds)
    with open(args.glove, encoding="utf-8") as f:
        embeddings, matched = load_glove(f, vocab, cfg.d, seed=cfg.seed)
    model, history = fit(train_ds, valid_ds, cfg, vocab, embeddings)

    os.makedirs(args.out, exist_ok=True)
    paths = (os.path.join(args.out, CHECKPOINT_FILENAME), os.path.join(args.out, HISTORY_FILENAME))
    with atomic_files(*paths) as (checkpoint, history_file):
        save_model(model, vocab, cfg, checkpoint)
        history_csv = io.StringIO()
        write_history(history, history_csv)
        history_file.write(history_csv.getvalue().encode("utf-8"))

    best = min(history, key=lambda row: row.valid_mse)
    print(f"embeddings matched: {matched}/{vocab.size - 2}")
    print(f"validation mse: {best.valid_mse!r} (epoch {best.epoch} of {cfg.epochs})")
    return EXIT_OK


def cmd_predict(args) -> int:
    with open(args.checkpoint, "rb") as f:
        model, vocab, meta = load_model(f)
    with open(args.instances, encoding="utf-8") as f:
        records = parse_instances(f)
    ids, lengths = encode_posts(records, vocab, meta["max_len"])
    scores = predict_batch(model, ids, lengths)
    bad = np.count_nonzero(~np.isfinite(scores))
    if bad:
        raise NumericError(f"the model scores {bad} of {len(scores)} posts non-finite")
    with atomic_files(args.out) as (f,):
        # json.dumps writes a float with float.__repr__, so these are its bytes
        for record, score in zip(records, scores.tolist()):
            f.write(f'{{"id": {json.dumps(record.id)}, "clickbaitScore": {score!r}}}\n'.encode())
    print(f"scored {len(records)} instances")
    return EXIT_OK


def _parse_results(stream) -> dict[str, float]:
    """Scores by id; each must be a number in [0, 1], the range of a judgment mean."""
    scores: dict[str, float] = {}
    for lineno, rec_id, obj in read_objects(stream):
        if "clickbaitScore" not in obj:
            raise ParseError("missing 'clickbaitScore'", line=lineno)
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
    report = evaluate(preds, [j for _, j in truths])
    if report.r2_degenerate:
        print("warning: constant truth means, r2 reported as 0", file=sys.stderr)
    text = report.to_json()
    if args.out:
        with atomic_files(args.out) as (f,):
            f.write((text + "\n").encode("utf-8"))
    print(text)
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
    except MemoryError as e:
        print(f"out of memory in {args.command}: {str(e) or 'allocation failed'}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
