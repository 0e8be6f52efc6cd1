"""Release gate: one test per core guarantee, each at its stated tolerance.

The data-dependent checks need the public challenge files (and pretrained
embeddings for the headline run); point CLICKBAIT_DATA_DIR at a directory
holding dataset1/ and dataset2/ (instances.jsonl + truth.jsonl each) and
CLICKBAIT_GLOVE at a 100-dimensional GloVe text file. Without them those
tests skip cleanly and the rest of the gate still runs.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from clickbait_gru.analytics import ANALYTICS_FILENAMES, class_counts, median_label_table
from clickbait_gru.cli import main
from clickbait_gru.ingest import (
    Judgment,
    Label,
    LabeledDataset,
    find_duplicate_posts,
    load_dataset,
    stratified_split,
)
from clickbait_gru.metrics import evaluate
from clickbait_gru.nn import predict_batch
from clickbait_gru.text import build_vocab, load_glove, tokenize
from clickbait_gru.train import (
    RmsPropState,
    TrainConfig,
    backprop,
    encode_dataset,
    fit,
    mse_loss,
    rmsprop_update,
)

from conftest import (
    WORDS,
    direction_states,
    make_judgment,
    model_of,
    synth_dataset,
    tiny_model,
    write_dataset,
    write_glove,
)
from gradcheck import complex_step_check, grad_check

DATA_DIR_VAR = "CLICKBAIT_DATA_DIR"
GLOVE_VAR = "CLICKBAIT_GLOVE"


def random_batch(rng, n, vocab_size, max_len):
    """(ids, lengths, targets) of n posts with ragged lengths in 1..max_len."""
    ids = np.empty((n, max_len), dtype=np.int32)
    lengths = np.empty(n, dtype=np.int64)
    targets = np.empty(n)
    for i in range(n):
        lengths[i] = rng.integers(1, max_len + 1)
        ids[i] = rng.integers(0, vocab_size, size=max_len)
        targets[i] = rng.uniform()
    return ids, lengths, targets


def test_criterion_1_gradients_match_finite_differences():
    """20 random tiny models: analytic vs central-difference gradients < 1e-4."""
    start = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        m = tiny_model(vocab_size=10, d=4, h=3, seed=trial)
        batch = random_batch(rng, n=1 + trial % 4, vocab_size=10, max_len=5)
        report = grad_check(m, *batch, tolerance=1e-4, step=1e-5)
        worst = max(worst, report.max_rel_error)
        assert report.passed, f"trial {trial}: max rel error {report.max_rel_error:g}"
    assert worst < 1e-4
    assert time.perf_counter() - start < 30.0


def test_criterion_1_models_match_complex_step_gradients():
    """Criterion 1's 20 models and batches against complex-step derivatives,
    which carry no cancellation error, at 1e-8."""
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        m = tiny_model(vocab_size=10, d=4, h=3, seed=trial)
        batch = random_batch(rng, n=1 + trial % 4, vocab_size=10, max_len=5)
        report = complex_step_check(m, *batch, tolerance=1e-8)
        assert report.passed, f"trial {trial}: max rel error {report.max_rel_error:g}"


def test_criterion_2_forward_pass_matches_naive_oracle():
    """100 random instances agree with the scalar loop re-implementation to 1e-10."""
    from oracle import naive_predict

    checked = 0
    for model_seed in range(10):
        m = tiny_model(vocab_size=10, d=4, h=3, seed=50 + model_seed)
        rng = np.random.default_rng(model_seed)
        for _ in range(10):
            length = int(rng.integers(1, 6))
            ids = rng.integers(0, 10, size=6).astype(np.int32)
            fast = predict_batch(m, ids[None], np.array([length]))
            slow = naive_predict(m, ids, length)
            assert abs(fast[0] - slow) < 1e-10
            checked += 1
    assert checked == 100


def test_criterion_3_state_never_leaves_unit_interval():
    """1000 random (parameters, input) draws keep every state component of both
    directions in [-1, 1]."""
    rng = np.random.default_rng(7)
    d, h = 4, 3
    for _ in range(1000):
        scale = 10.0 ** rng.uniform(-1.0, 2.0)
        w = lambda *shape: scale * rng.standard_normal(shape)
        params = dict(
            W_r=w(h, d), W_z=w(h, d), W_h=w(h, d),
            U_r=w(h, h), U_z=w(h, h), U_h=w(h, h),
            b_r=w(h), b_z=w(h), b_h=w(h),
        )
        xs = scale * rng.standard_normal((int(rng.integers(1, 9)), d))
        m = model_of(params, xs)
        for states in direction_states(m, np.arange(len(xs)), len(xs)):
            assert np.all(states >= -1.0) and np.all(states <= 1.0)


def _sgd_epochs(m, data, cfg, epochs, stop):
    """Shuffled mini-batch RMSprop epochs over (ids, lengths, targets); returns
    the first epoch where stop() is true, or None."""
    ids, lengths, targets = data
    state = RmsPropState()
    rng = np.random.default_rng(cfg.seed)
    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(ids))
        for start in range(0, len(ids), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            _, grads = backprop(m, ids[batch], lengths[batch], targets[batch])
            rmsprop_update(m, grads, state, cfg)
        if stop(m):
            return epoch
    return None


def test_criterion_4_trainability():
    """Memorizes 32 examples to MSE < 0.01 in <= 500 epochs, and solves a
    marker-token task to >= 0.95 held-out accuracy in <= 20 epochs."""
    start = time.perf_counter()

    # part 1: drive training MSE below 0.01 on 32 random targets; sequences
    # must be distinct or colliding targets set an irreducible MSE floor
    rng = np.random.default_rng(11)
    m = tiny_model(vocab_size=40, d=8, h=8, seed=11)
    rows, targets, keys = [], [], set()
    while len(rows) < 32:
        ids = rng.integers(2, 40, size=5).astype(np.int32)
        if tuple(ids) in keys:
            continue
        keys.add(tuple(ids))
        rows.append(ids)
        targets.append(rng.uniform())
    data = (np.stack(rows), np.full(32, 5), np.array(targets))
    cfg = TrainConfig(
        batch_size=32, learning_rate=1e-2, epochs=500, d=8, h=8, max_len=5,
        dropout_embed=0.0, dropout_gru_in=0.0, dropout_gru_out=0.0, seed=11,
    )

    def memorized(model):
        return mse_loss(predict_batch(model, data[0], data[1]), data[2]) < 0.01

    epoch = _sgd_epochs(m, data, cfg, epochs=500, stop=memorized)
    assert epoch is not None, "train MSE never fell below 0.01 in 500 epochs"

    # part 2: a marker token fully determines target 0.9 vs 0.1
    MARKER = 2

    def marker_batch(rng, n):
        ids = np.empty((n, 6), dtype=np.int32)
        for i in range(n):
            ids[i] = rng.integers(3, 30, size=6)
            if i % 2 == 0:
                ids[i, rng.integers(0, 6)] = MARKER
        return ids, np.full(n, 6), np.where(np.arange(n) % 2 == 0, 0.9, 0.1)

    rng = np.random.default_rng(12)
    train = marker_batch(rng, 64)
    held_out = marker_batch(rng, 32)
    m = tiny_model(vocab_size=30, d=8, h=8, seed=12)
    cfg = TrainConfig(
        batch_size=16, learning_rate=1e-2, epochs=20, d=8, h=8, max_len=6,
        dropout_embed=0.0, dropout_gru_in=0.0, dropout_gru_out=0.0, seed=12,
    )

    def separated(model):
        ids, lengths, targets = held_out
        hits = np.sum((predict_batch(model, ids, lengths) >= 0.5) == (targets > 0.5))
        return hits / len(ids) >= 0.95

    epoch = _sgd_epochs(m, train, cfg, epochs=20, stop=separated)
    assert epoch is not None, "held-out accuracy never reached 0.95 in 20 epochs"
    assert time.perf_counter() - start < 120.0


def test_criterion_5_metrics_oracle():
    """Hand-derived confusion fixture and the perfect-prediction trivial cases.

    The four stated values (precision 2/3, recall 1/2, f1 4/7, accuracy 0.8)
    arise from the confusion matrix (tp=2, fp=1, fn=2, tn=10); the counts
    (tp=2, fp=1, fn=1, tn=6) share the same precision and accuracy but put
    recall and f1 at 2/3. Both matrices are pinned here.
    """
    bait = make_judgment((1, 1, 1, 1, 1))
    plain = make_judgment((0, 0, 0, 0, 0))

    def from_counts(tp, fp, fn, tn):
        preds = [0.9] * (tp + fp) + [0.1] * (fn + tn)
        truth = (
            [bait] * tp + [plain] * fp + [bait] * fn + [plain] * tn
        )
        return evaluate(preds, truth)

    report = from_counts(2, 1, 2, 10)
    assert report.precision == 2.0 / 3.0
    assert report.recall == 1.0 / 2.0
    assert math.isclose(report.f1, 4.0 / 7.0, rel_tol=1e-15)
    assert report.accuracy == 0.8

    report = from_counts(2, 1, 1, 6)
    assert report.precision == 2.0 / 3.0
    assert report.recall == 2.0 / 3.0
    assert math.isclose(report.f1, 2.0 / 3.0, rel_tol=1e-15)
    assert report.accuracy == 0.8

    # trivial cases: copying the truth means scores mse 0 and r2 1
    truth = [make_judgment(lv) for lv in (
        (0, 0, 0, 0, 0),
        (1, 1, 1, 1, 1),
        (0, 0, 1 / 3, 1 / 3, 1 / 3),
        (2 / 3, 2 / 3, 2 / 3, 1, 1),
    )]
    report = evaluate([j.mean for j in truth], truth)
    assert abs(report.mse - 0.0) <= 1e-12
    assert abs(report.r2 - 1.0) <= 1e-12


def challenge_dataset(sub: str) -> LabeledDataset:
    root = os.environ.get(DATA_DIR_VAR)
    if not root:
        pytest.skip(f"{DATA_DIR_VAR} not set; public challenge files unavailable")
    path = os.path.join(root, sub)
    if not os.path.isdir(path):
        pytest.skip(f"challenge dataset missing: {path}")
    return load_dataset(path)


def test_criterion_6_challenge_corpus_statistics():
    """Published corpus statistics, byte-for-byte from the released files."""
    ds1 = challenge_dataset("dataset1")
    ds2 = challenge_dataset("dataset2")
    assert class_counts(ds1) == (2495, 762, 1697)
    assert class_counts(ds2) == (19538, 4761, 14777)

    # the label rule empties the crossed extreme cells
    for ds in (ds1, ds2):
        table = median_label_table(ds)
        assert table[0.0][Label.CLICKBAIT] == 0
        assert table[1.0][Label.NO_CLICKBAIT] == 0

    combined = ds1 + ds2
    assert len(find_duplicate_posts(combined)) == 408

    ncb_max = max(
        j.mean for _, j in combined if j.class_label is Label.NO_CLICKBAIT
    )
    assert abs(ncb_max - 0.6) < 1e-9


def test_criterion_7_headline_regression_quality():
    """Full-size training on 70% of the large corpus scores MSE <= 0.040 on the
    held-out stratified 30%. Runs for minutes; skips without the data files."""
    ds2 = challenge_dataset("dataset2")
    glove_path = os.environ.get(GLOVE_VAR)
    if not glove_path:
        pytest.skip(f"{GLOVE_VAR} not set; pretrained embeddings unavailable")
    if not os.path.isfile(glove_path):
        pytest.skip(f"embedding file missing: {glove_path}")

    train_full, test = stratified_split(ds2, 0.3, seed=0)
    train, valid = stratified_split(train_full, 0.15, seed=0)
    cfg = TrainConfig()  # d 100, h 128, batch 64, dropout 0.2/0.2/0.5, RMSprop
    vocab = build_vocab(tokenize(record.text) for record, _ in train)
    with open(glove_path, encoding="utf-8") as f:
        embeddings, _ = load_glove(f, vocab, cfg.d, seed=cfg.seed)
    model, _ = fit(train, valid, cfg, vocab, embeddings)

    ids, lengths, targets = encode_dataset(test, vocab, cfg.max_len)
    mse = mse_loss(predict_batch(model, ids, lengths), targets)
    assert mse <= 0.040


def run_pipeline(base) -> None:
    """Every subcommand once, seed-pinned, artifacts under base/."""
    data = base / "data"
    write_dataset(synth_dataset(60, seed=5), str(data))
    write_glove(base / "glove.txt", WORDS + ["wow"], d=8)

    steps = [
        ["analyze", "--instances", str(data / "instances.jsonl"),
         "--truth", str(data / "truth.jsonl"), "--out", str(base / "stats")],
        ["split", str(data), str(base / "train"), str(base / "test"), "--seed", "4"],
        ["train", str(base / "train"), str(base / "test"),
         "--glove", str(base / "glove.txt"), "--out", str(base / "run"),
         "--dim", "8", "--hidden", "4", "--batch", "16", "--epochs", "2",
         "--max-len", "12", "--seed", "4"],
        ["predict", str(base / "run" / "model.ckpt"),
         "--instances", str(base / "test" / "instances.jsonl"),
         "--out", str(base / "preds.jsonl")],
        ["evaluate", str(base / "preds.jsonl"),
         "--truth", str(base / "test" / "truth.jsonl"),
         "--out", str(base / "report.json")],
    ]
    for argv in steps:
        assert main(argv) == 0, argv[0]


def test_criterion_8_reruns_are_byte_identical(tmp_path):
    """The whole pipeline twice with one seed: artifacts match byte for byte.

    The evaluation report is compared with its runtime field removed; that
    value is a wall-clock measurement the report format requires.
    """
    for tag in ("a", "b"):
        run_pipeline(tmp_path / tag)
    a, b = tmp_path / "a", tmp_path / "b"

    fixed = [os.path.join("data", n) for n in ("instances.jsonl", "truth.jsonl")]
    fixed += [os.path.join("stats", n) for n in ANALYTICS_FILENAMES]
    fixed += [
        os.path.join(part, n)
        for part in ("train", "test")
        for n in ("instances.jsonl", "truth.jsonl")
    ]
    fixed += [os.path.join("run", "model.ckpt"), os.path.join("run", "history.csv")]
    fixed += ["preds.jsonl"]
    for rel in fixed:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    reports = []
    for base in (a, b):
        report = json.loads((base / "report.json").read_text())
        report.pop("runtime")
        reports.append(report)
    assert reports[0] == reports[1]
