"""Synthetic challenge-shaped data builders shared across the test modules."""

import contextlib
import json
import os
import random
import struct
import warnings

# one BLAS thread, as bench/run.py pins it, unless the environment sets its own;
# the BLAS reads these when numpy is first imported, which is below
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np
import pytest

from clickbait_gru.ingest import (
    INSTANCES_FILENAME,
    TRUTH_FILENAME,
    Judgment,
    LabeledDataset,
    PostRecord,
    derive_label,
)
from clickbait_gru.nn import (
    CHECKPOINT_MAGIC,
    GRU_FIELDS,
    Model,
    _array_shapes,
    forward_batch,
    init_model,
)

# hypothesis's pytest plugin imports this module to explain a failing property
# test; where libcst is installed that import raises a DeprecationWarning, which
# under -W error ends the run in INTERNALERROR before the falsifying example shows
with contextlib.suppress(ImportError), warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

# five-decimal encoding used by the challenge files
LEVEL_ENC = {0.0: 0.0, 1 / 3: 0.33333, 2 / 3: 0.66667, 1.0: 1.0}

WORDS = [
    "you", "won't", "believe", "what", "this", "trick", "does", "scientists",
    "hate", "him", "the", "council", "approved", "a", "budget", "report",
    "quarterly", "earnings", "rose", "market", "closed", "higher", "quiz",
    "photos", "shocking", "officials", "said", "study", "finds", "new",
]


def make_record(rec_id: str, text: str) -> PostRecord:
    """A post, as `parse_instances` reads a line with this "id" and "postText"."""
    return PostRecord(id=rec_id, text=text)


def make_judgment(levels) -> Judgment:
    """Judgment from five raw level values, median-consistent label."""
    scores = tuple(LEVEL_ENC[lv] for lv in levels)
    median = sorted(scores)[2]
    return Judgment(
        scores=scores, mean=sum(scores) / 5.0, median=median, class_label=derive_label(median)
    )


def synth_dataset(n: int, seed: int = 0, clickbait_every: int = 3) -> LabeledDataset:
    """Valid dataset of n posts; every clickbait_every-th record is clickbait.

    Clickbait posts carry a marker word and score levels in {2/3, 1}; the rest
    use {0, 1/3}. All labels satisfy the median rule by construction.
    """
    rnd = random.Random(seed)
    records = []
    for i in range(n):
        bait = i % clickbait_every == 0
        pool = (2 / 3, 1.0) if bait else (0.0, 1 / 3)
        levels = [rnd.choice(pool) for _ in range(5)]
        text = " ".join(rnd.choice(WORDS) for _ in range(rnd.randint(3, 9)))
        if bait:
            text = "wow " + text
        records.append((make_record(str(1000 + i), text), make_judgment(levels)))
    return records


def write_dataset(ds: LabeledDataset, directory: str) -> None:
    """Write a dataset as the challenge's two-file directory layout: in each
    file one JSON line per post, in dataset order, non-ASCII text unescaped.
    A post is written as its id and its postText, as one segment."""
    os.makedirs(directory, exist_ok=True)
    with (
        open(os.path.join(directory, INSTANCES_FILENAME), "w", encoding="utf-8") as instances,
        open(os.path.join(directory, TRUTH_FILENAME), "w", encoding="utf-8") as truth,
    ):
        for rec, judgment in ds:
            instances.write(
                json.dumps({"id": rec.id, "postText": [rec.text]}, ensure_ascii=False) + "\n"
            )
            truth.write(json.dumps({
                "id": rec.id,
                "truthJudgments": list(judgment.scores),
                "truthMean": judgment.mean,
                "truthMedian": judgment.median,
                "truthClass": judgment.class_label.value,
            }, ensure_ascii=False) + "\n")


def write_glove(path, words, d: int, seed: int = 1) -> None:
    rnd = random.Random(seed)
    with open(path, "w", encoding="utf-8") as f:
        for w in words:
            vec = " ".join(f"{rnd.uniform(-0.5, 0.5):.5f}" for _ in range(d))
            f.write(f"{w} {vec}\n")


def sigmoid(x):
    """The logistic function in its textbook form, 1 / (1 + exp(-x)): the
    reference for the tanh form that the gates and the head compute."""
    return 1.0 / (1.0 + np.exp(-x))


def tiny_model(
    vocab_size: int = 10,
    d: int = 4,
    h: int = 3,
    seed: int = 0,
    dtype=np.float64,
) -> Model:
    rng = np.random.default_rng(seed)
    matrix = rng.normal(0.0, 0.3, (vocab_size, d)).astype(dtype)
    matrix[0] = 0.0
    return init_model(matrix, h, seed=seed)


def model_of(gru: dict, matrix) -> Model:
    """Both directions use the nine arrays of `gru` (keyed "W_r", ..., "b_h");
    the embedding rows are the inputs; zero head."""
    h = len(gru["b_r"])
    m = {"embedding": np.asarray(matrix, dtype=np.float64)}
    for prefix in ("fwd", "bwd"):
        m.update({f"{prefix}.{name}": gru[name] for name in GRU_FIELDS})
    m["head.w"] = np.zeros(2 * h)
    m["head.b"] = np.zeros(1)
    return m


def direction_states(m: Model, ids, length: int):
    """Every state each direction passes through on one post, in reading order.

    Read from the cache of a taped `forward_batch`: each tape holds the state
    entering each token in its direction's reading order, the summary the
    final state. Each result is
    (length + 1, h), starting with the zero initial state.
    """
    _, cache = forward_batch(m, np.asarray([ids]), np.asarray([length]))
    final = cache.u_drop[0]
    h = len(m["fwd.b_r"])
    fwd = np.vstack([cache.fwd.h_prev, final[:h]])
    bwd = np.vstack([cache.bwd.h_prev, final[h:]])
    return fwd, bwd


def _header_span(raw: bytes) -> tuple[int, int]:
    """Where the JSON header of checkpoint bytes starts and ends."""
    start = len(CHECKPOINT_MAGIC) + 8
    (size,) = struct.unpack("<Q", raw[len(CHECKPOINT_MAGIC) : start])
    return start, start + size


def checkpoint_header(raw: bytes) -> dict:
    """The JSON header of checkpoint bytes."""
    start, end = _header_span(raw)
    return json.loads(raw[start:end])


def with_header_blob(raw: bytes, blob: bytes) -> bytes:
    """Checkpoint bytes `raw` with the header bytes replaced by `blob`."""
    _, end = _header_span(raw)
    return CHECKPOINT_MAGIC + struct.pack("<Q", len(blob)) + blob + raw[end:]


def with_header_edit(edit):
    """Maps checkpoint bytes to the same bytes with edit(header) applied to the header."""

    def apply(raw: bytes) -> bytes:
        header = checkpoint_header(raw)
        edit(header)
        return with_header_blob(raw, json.dumps(header).encode("utf-8"))

    return apply


def with_dim(d: int):
    """Maps checkpoint bytes to the same bytes with a header that declares
    width `d` and lists every array in the shape that width gives it."""

    def edit(header):
        header["d"] = d
        shapes = _array_shapes(len(header["vocab_tokens"]) + 2, d, header["h"])
        for entry in header["arrays"]:
            entry["shape"] = list(shapes[entry["name"]])

    return with_header_edit(edit)


@pytest.fixture
def dataset60() -> LabeledDataset:
    return synth_dataset(60, seed=5)


@pytest.fixture
def challenge_dir(tmp_path, dataset60):
    """Directory with instances.jsonl + truth.jsonl for the synthetic dataset."""
    path = tmp_path / "data"
    write_dataset(dataset60, str(path))
    return path


@pytest.fixture
def glove_file(tmp_path):
    path = tmp_path / "glove.txt"
    write_glove(path, WORDS + ["wow"], d=8)
    return path


def results_file(path, pairs) -> None:
    """Write a predictions JSONL of (id, score) pairs."""
    with open(path, "w", encoding="utf-8") as f:
        for rec_id, score in pairs:
            f.write(json.dumps({"id": rec_id, "clickbaitScore": score}) + "\n")
