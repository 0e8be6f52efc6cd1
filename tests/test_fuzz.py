"""Mutated inputs through the CLI: every run ends in a documented exit code,
no exception escapes `main`, and a run that succeeds writes strict JSON."""

import contextlib
import io
import json
import math
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clickbait_gru.cli import main
from clickbait_gru.nn import load_model, save_model
from clickbait_gru.train import TrainConfig
from clickbait_gru.text import build_vocab, tokenize
from conftest import synth_dataset, tiny_model, write_dataset, write_glove

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
RAW_LINES = st.binary(max_size=12) | st.sampled_from(
    [b"", b"[" * 5000, b"1" + b"0" * 5000, b'"identity"', b"NaN", b"\xff\xfe"]
)
FIELDS = [
    "id", "postText", "postMedia", "targetTitle", "targetParagraphs", "truthJudgments",
    "truthMean", "truthMedian", "truthClass", "clickbaitScore",
]
# one line edit: set a field, drop a field, or replace the whole line
LINE_EDITS = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(FIELDS), JSON_VALUES),
    st.tuples(st.just("drop"), st.sampled_from(FIELDS), st.none()),
    st.tuples(st.just("raw"), st.none(), RAW_LINES),
)
# one checkpoint edit: overwrite a byte, cut the file, or append bytes
CKPT_EDITS = st.one_of(
    st.tuples(st.just("byte"), st.integers(min_value=0), st.integers(0, 255)),
    st.tuples(st.just("cut"), st.integers(min_value=0), st.none()),
    st.tuples(st.just("append"), st.none(), st.binary(min_size=1, max_size=8)),
)
# one GloVe line edit: set a field, drop one, add a component, or replace the whole line
COMPONENT_TEXT = st.sampled_from(["nan", "inf", "-inf", "1e999", "x", "1_0", "\uff11", ""])
GLOVE_EDITS = st.one_of(
    st.tuples(st.just("set"), st.integers(min_value=0), COMPONENT_TEXT | st.text(max_size=4)),
    st.tuples(st.just("drop"), st.integers(min_value=0), st.none()),
    st.tuples(st.just("add"), st.none(), COMPONENT_TEXT | st.text(max_size=4)),
    st.tuples(st.just("raw"), st.none(), RAW_LINES),
)
# the commands each input file feeds
COMMANDS = {
    "instances.jsonl": ("predict", "analyze"),
    "truth.jsonl": ("analyze", "evaluate"),
    "results.jsonl": ("evaluate",),
    "model.ckpt": ("predict",),
}


def strict_json(text: str):
    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """Valid inputs of every kind, as bytes by file name, and a scratch directory."""
    base = tmp_path_factory.mktemp("fuzz")
    ds = synth_dataset(6, seed=2)
    write_dataset(ds, str(base / "data"))
    vocab = build_vocab(tokenize(record.text) for record, _ in ds)
    ckpt = io.BytesIO()
    model = tiny_model(vocab_size=vocab.size, dtype=np.float32)
    save_model(model, vocab, TrainConfig(max_len=8), ckpt)
    results = "".join(
        json.dumps({"id": record.id, "clickbaitScore": 0.5}) + "\n" for record, _ in ds
    )
    write_glove(base / "glove.txt", vocab.id_to_token[2:] + ["absent"], d=2)
    files = {
        "glove.txt": (base / "glove.txt").read_bytes(),
        "instances.jsonl": (base / "data" / "instances.jsonl").read_bytes(),
        "truth.jsonl": (base / "data" / "truth.jsonl").read_bytes(),
        "results.jsonl": results.encode(),
        "model.ckpt": ckpt.getvalue(),
    }
    return files, base


def edit_line(line: bytes, edit) -> bytes:
    """The line after one edit; a field edit leaves a line that is no object as it is."""
    kind, key, value = edit
    if kind == "raw":
        return value
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError):
        return line
    if not isinstance(obj, dict):
        return line
    if kind == "set":
        obj[key] = value
    else:
        obj.pop(key, None)
    return json.dumps(obj).encode()


def edit_checkpoint(raw: bytes, edit) -> bytes:
    kind, at, value = edit
    if kind == "append":
        return raw + value
    if kind == "cut" or not raw:
        return raw[: at % (len(raw) + 1)]
    at %= len(raw)
    return raw[:at] + bytes([value]) + raw[at + 1 :]


def run_command(command: str, base, inputs) -> tuple[int, list]:
    """Exit code of one CLI run and the JSON files it wrote."""
    out = base / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    argv = {
        "predict": ["predict", str(inputs["model.ckpt"]),
                    "--instances", str(inputs["instances.jsonl"]),
                    "--out", str(out / "preds.jsonl")],
        "analyze": ["analyze", "--instances", str(inputs["instances.jsonl"]),
                    "--truth", str(inputs["truth.jsonl"]), "--out", str(out / "stats")],
        "evaluate": ["evaluate", str(inputs["results.jsonl"]),
                     "--truth", str(inputs["truth.jsonl"]), "--out", str(out / "report.json")],
    }[command]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with np.errstate(all="ignore"):
            code = main(argv)
    return code, sorted(out.rglob("*.json*"))


@given(
    name=st.sampled_from(sorted(COMMANDS)),
    line_edits=st.lists(st.tuples(st.integers(0, 5), LINE_EDITS), min_size=1, max_size=2),
    ckpt_edits=st.lists(CKPT_EDITS, min_size=1, max_size=3),
)
@settings(max_examples=150, deadline=None)
def test_mutated_inputs_exit_cleanly(clean, name, line_edits, ckpt_edits):
    files, base = clean
    inputs = {}
    for file_name, raw in files.items():
        if file_name == name == "model.ckpt":
            for edit in ckpt_edits:
                raw = edit_checkpoint(raw, edit)
        elif file_name == name:
            lines = raw.splitlines()
            for index, edit in line_edits:
                lines[index] = edit_line(lines[index], edit)
            raw = b"\n".join(lines) + b"\n"
        path = base / "in" / file_name
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(raw)
        inputs[file_name] = path

    for command in COMMANDS[name]:
        code, written = run_command(command, base, inputs)
        # 3 is the numeric-failure code: finite weights whose scores overflow
        assert code in ((0, 2, 3) if command == "predict" else (0, 2)), (command, code)
        if code == 0:
            for path in written:
                text = path.read_text(encoding="utf-8")
                if path.suffix == ".jsonl":
                    for line in text.splitlines():
                        strict_json(line)
                else:
                    strict_json(text)


def edit_glove_line(line: bytes, edit) -> bytes:
    kind, at, value = edit
    if kind == "raw":
        return value
    fields = line.split(b" ")
    if kind == "set":
        fields[at % len(fields)] = value.encode("utf-8")
    elif kind == "drop":
        del fields[at % len(fields)]
    else:
        fields.append(value.encode("utf-8"))
    return b" ".join(fields)


@given(edits=st.lists(st.tuples(st.integers(min_value=0), GLOVE_EDITS), min_size=1, max_size=2))
@settings(max_examples=150, deadline=None)
def test_mutated_glove_trains_or_exits_2(clean, edits):
    """`train --epochs 0` on an edited GloVe file either refuses it with exit 2
    or writes a finite history and a checkpoint that load_model accepts."""
    files, base = clean
    lines = files["glove.txt"].splitlines()
    for index, edit in edits:
        index %= len(lines)
        lines[index] = edit_glove_line(lines[index], edit)
    glove = base / "in" / "glove.txt"
    glove.parent.mkdir(exist_ok=True)
    glove.write_bytes(b"\n".join(lines) + b"\n")
    out = base / "train-out"
    shutil.rmtree(out, ignore_errors=True)
    data = str(base / "data")
    argv = ["train", data, data, "--glove", str(glove), "--out", str(out),
            "--dim", "2", "--hidden", "2", "--epochs", "0", "--max-len", "8"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2), code
    if code == 0:
        rows = (out / "history.csv").read_text().splitlines()[1:]
        assert rows and all(math.isfinite(float(v)) for row in rows for v in row.split(","))
        with open(out / "model.ckpt", "rb") as f:
            load_model(f)
