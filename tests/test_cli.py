"""End-to-end runs of the command-line pipeline, in process via main()."""

import dataclasses
import json
import math
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from clickbait_gru.cli import _train_config, build_parser, main
from clickbait_gru.ingest import load_dataset, stratified_split, write_dataset
from clickbait_gru.metrics import evaluate
from clickbait_gru.nn import load_model, predict_batch, save_model
from clickbait_gru.train import TrainConfig, encode_posts

from conftest import (
    WORDS,
    make_judgment,
    make_record,
    results_file,
    synth_dataset,
    with_dim,
    with_header_edit,
    write_glove,
)

ARTIFACTS = ("model.ckpt", "history.csv")


def spliced(base: bytes, line: bytes) -> bytes:
    """`line`, or when it is an object, the object `base` with line's members
    appended; json keeps the last of repeated keys, so they override base's."""
    return base[:-1] + b", " + line[1:] if line.startswith(b"{") else line

DEEP = b"[" * 100_000
BIG = b"1" + b"0" * 5000  # past the interpreter's 4300-digit int conversion limit
HUGE = b"1" + b"0" * 400  # converts to int, but not to a finite float
SURROGATE = b'{"postText": ["\\ud800"]}'  # valid JSON, but no UTF-8 writer can encode it


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def dataset_paths(base):
    return str(base / "instances.jsonl"), str(base / "truth.jsonl")


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Shared dataset/glove/trained-model tree; training runs once per module."""
    base = tmp_path_factory.mktemp("cliwork")
    ds = synth_dataset(60, seed=5)
    write_dataset(ds, str(base / "data"))
    write_glove(base / "glove.txt", WORDS + ["wow"], d=8)
    code = main(
        [
            "train",
            str(base / "data"),
            str(base / "data"),
            "--glove", str(base / "glove.txt"),
            "--out", str(base / "run"),
            "--dim", "8",
            "--hidden", "4",
            "--batch", "16",
            "--epochs", "2",
            "--max-len", "12",
            "--seed", "3",
        ]
    )
    assert code == 0
    return base


class TestAnalyze:
    def test_writes_tables(self, work, tmp_path, capsys):
        instances, truth = dataset_paths(work / "data")
        out = tmp_path / "stats"
        code, _, _ = run(
            capsys, "analyze", "--instances", instances, "--truth", truth, "--out", str(out)
        )
        assert code == 0
        counts = json.loads((out / "counts.json").read_text())
        assert counts["total"] == 60
        assert counts["clickbait"] == 20
        assert counts["label_rule_violations"] == 0

    def test_missing_input_file(self, work, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "analyze",
            "--instances", str(work / "data" / "nope.jsonl"),
            "--truth", str(work / "data" / "truth.jsonl"),
            "--out", str(tmp_path),
        )
        assert code == 2
        assert "data error" in err


    @pytest.mark.parametrize(
        "line, expect",
        [
            (b'"identity"', "line 2: expected a JSON object"),
            (b'{"truthMean": "x"}', "line 2: truthMean must be a finite number"),
            (b'{"truthMean": [1]}', "line 2: truthMean must be a finite number"),
            (b'{"truthMean": ' + HUGE + b"}", "line 2: truthMean must be a finite number"),
            (b'{"truthJudgments": [' + HUGE + b", 0, 0, 0, 0]}", "line 2: judgment scores"),
            (b'{"truthJudgments": [true, 0, 0, 0, 0]}', "line 2: judgment scores"),
            (b'{"truthJudgments": ["0", 0, 0, 0, 0]}', "line 2: judgment scores"),
            (b'{"truthMedian": ' + BIG + b"}", "line 2: invalid JSON"),
            (DEEP, "line 2: invalid JSON"),
            (b'"caf\xe9"', "utf-8"),
        ],
        ids=[
            "not-object", "string-mean", "list-mean", "huge-int-mean", "huge-int-judgment",
            "bool-judgment", "string-judgment", "5001-digit-int", "deep-nesting", "not-utf8",
        ],
    )
    def test_malformed_truth_line_is_data_error(self, work, tmp_path, capsys, line, expect):
        instances, truth = dataset_paths(work / "data")
        first = Path(truth).read_bytes().splitlines()[0]
        line = spliced(first, line)
        bad = tmp_path / "truth.jsonl"
        bad.write_bytes(first + b"\n" + line + b"\n")
        code, _, err = run(
            capsys, "analyze", "--instances", instances, "--truth", str(bad),
            "--out", str(tmp_path / "stats"),
        )
        assert code == 2
        assert err.startswith("data error: ") and expect in err
        assert len(err.strip().splitlines()) == 1

    def test_shared_lone_surrogate_text_is_data_error(self, work, tmp_path, capsys):
        """Two posts with the same unencodable text reach duplicates.csv."""
        lines = (work / "data" / "instances.jsonl").read_bytes().splitlines()
        lines[:2] = [spliced(line, SURROGATE) for line in lines[:2]]
        bad = tmp_path / "instances.jsonl"
        bad.write_bytes(b"\n".join(lines) + b"\n")
        code, _, err = run(
            capsys, "analyze", "--instances", str(bad), "--truth", dataset_paths(work / "data")[1],
            "--out", str(tmp_path / "stats"),
        )
        assert code == 2
        assert err.startswith("data error: ") and "surrogates not allowed" in err
        assert len(err.strip().splitlines()) == 1


class TestSplit:
    def test_partitions_preserving_classes(self, work, tmp_path, capsys):
        train_out, test_out = str(tmp_path / "train"), str(tmp_path / "test")
        code, out, _ = run(capsys, "split", str(work / "data"), train_out, test_out)
        assert code == 0
        train, test = load_dataset(train_out), load_dataset(test_out)
        assert len(train) + len(test) == 60
        assert len(test) == 18  # 30% of 60
        assert "train: 42" in out and "test: 18" in out

    def test_same_seed_is_byte_identical(self, work, tmp_path, capsys):
        outs = [tmp_path / name for name in ("tr_a", "te_a", "tr_b", "te_b")]
        for train_out, test_out in (outs[:2], outs[2:]):
            code, _, _ = run(
                capsys, "split", str(work / "data"), str(train_out), str(test_out), "--seed", "9"
            )
            assert code == 0
        for a, b in ((outs[0], outs[2]), (outs[1], outs[3])):
            for name in ("instances.jsonl", "truth.jsonl"):
                assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_changes_membership(self, work, tmp_path, capsys):
        ids = []
        for seed in ("0", "1"):
            test_out = tmp_path / f"test{seed}"
            run(capsys, "split", str(work / "data"), str(tmp_path / f"train{seed}"), str(test_out), "--seed", seed)
            ids.append({rec.id for rec, _ in load_dataset(str(test_out))})
        assert ids[0] != ids[1]

    def test_lone_surrogate_is_data_error(self, work, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        lines = (work / "data" / "instances.jsonl").read_bytes().splitlines()
        lines[0] = spliced(lines[0], SURROGATE)
        (data / "instances.jsonl").write_bytes(b"\n".join(lines) + b"\n")
        (data / "truth.jsonl").write_bytes((work / "data" / "truth.jsonl").read_bytes())
        code, _, err = run(capsys, "split", str(data), str(tmp_path / "a"), str(tmp_path / "b"))
        assert code == 2
        assert err.startswith("data error: ") and "surrogates not allowed" in err
        assert len(err.strip().splitlines()) == 1

    def test_bad_fraction_is_usage_error(self, work, tmp_path, capsys):
        code, _, err = run(
            capsys, "split", str(work / "data"), str(tmp_path / "a"), str(tmp_path / "b"),
            "--fraction", "1.5",
        )
        assert code == 1
        assert "usage error" in err


class TestTrain:
    def test_writes_checkpoint_and_history(self, work):
        for name in ARTIFACTS:
            assert (work / "run" / name).is_file()
        lines = (work / "run" / "history.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_mse,valid_mse"
        assert len(lines) == 4  # header + epochs 0..2

    def test_reports_match_and_best_epoch(self, work, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "train", str(work / "data"), str(work / "data"),
            "--glove", str(work / "glove.txt"),
            "--out", str(tmp_path / "run"),
            "--dim", "8", "--hidden", "4", "--epochs", "1", "--seed", "3",
        )
        assert code == 0
        assert "embeddings matched:" in out
        assert "validation mse:" in out

    def test_epoch_budget_zero_keeps_initial_model(self, work, tmp_path, capsys):
        code, _, _ = run(
            capsys,
            "train", str(work / "data"), str(work / "data"),
            "--glove", str(work / "glove.txt"),
            "--out", str(tmp_path / "run"),
            "--dim", "8", "--hidden", "4", "--epochs", "0", "--seed", "3",
        )
        assert code == 0
        lines = (tmp_path / "run" / "history.csv").read_text().splitlines()
        assert len(lines) == 2  # header + untrained row

    def test_rerun_same_seed_byte_identical(self, work, tmp_path, capsys):
        args = [
            "train", str(work / "data"), str(work / "data"),
            "--glove", str(work / "glove.txt"),
            "--dim", "8", "--hidden", "4", "--batch", "16",
            "--epochs", "2", "--max-len", "12", "--seed", "3",
        ]
        code, _, _ = run(capsys, *args, "--out", str(tmp_path / "again"))
        assert code == 0
        for name in ARTIFACTS:
            assert (tmp_path / "again" / name).read_bytes() == (work / "run" / name).read_bytes()

    def test_config_file_overridden_by_flags(self, work, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"epochs": 5, "h": 4, "d": 8, "seed": 3}))
        code, _, _ = run(
            capsys,
            "train", str(work / "data"), str(work / "data"),
            "--glove", str(work / "glove.txt"),
            "--out", str(tmp_path / "run"),
            "--config", str(cfg_path),
            "--epochs", "1",  # beats the config value
        )
        assert code == 0
        lines = (tmp_path / "run" / "history.csv").read_text().splitlines()
        assert len(lines) == 3  # header + epochs 0..1

    def test_unknown_config_key(self, work, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"hidden_size": 4}))
        code, _, err = run(
            capsys,
            "train", str(work / "data"), str(work / "data"),
            "--glove", str(work / "glove.txt"),
            "--out", str(tmp_path / "run"),
            "--config", str(cfg_path),
        )
        assert code == 1
        assert "hidden_size" in err

    @pytest.mark.parametrize(
        "config, flags, named",
        [
            ({"epochs": "2"}, [], "epochs"),
            ({"rho": 1.5}, [], "rho"),
            ([4], [], "JSON object"),
            ({}, ["--hidden", "0"], "h must be"),
            ({}, ["--max-len", str(10**11)], "max_len must be <= "),
            ({}, ["--hidden", str(10**9)], "h must be <= 4096"),
            ({}, ["--dim", str(10**9)], "d must be <= 4096"),
            # raw text: json.dumps cannot nest this deep
            pytest.param(b"[" * 200_000 + b"]" * 200_000, [], "nested too deeply", id="deep"),
        ],
    )
    def test_bad_config_value_is_usage_error(self, work, tmp_path, capsys, config, flags, named):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(config if isinstance(config, bytes) else json.dumps(config).encode())
        code, _, err = run(
            capsys,
            "train", str(work / "data"), str(work / "data"),
            "--glove", str(work / "glove.txt"),
            "--out", str(tmp_path / "run"),
            "--config", str(cfg_path),
            "--dim", "8",
            *flags,
        )
        assert code == 1
        assert err.startswith("usage error") and named in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "run").exists()

    def test_every_flag_sets_its_field(self):
        flags = {
            "--dim": ("d", 7),
            "--hidden": ("h", 5),
            "--batch": ("batch_size", 9),
            "--lr": ("learning_rate", 0.01),
            "--epochs": ("epochs", 4),
            "--dropout-embed": ("dropout_embed", 0.1),
            "--dropout-in": ("dropout_gru_in", 0.15),
            "--dropout-out": ("dropout_gru_out", 0.35),
            "--max-len": ("max_len", 20),
            "--seed": ("seed", 6),
            "--text-field": ("text_field", "targetTitle"),
        }
        argv = ["train", "tr", "va", "--glove", "g.txt", "--out", "run"]
        for flag, (_, value) in flags.items():
            argv += [flag, str(value)]
        cfg = _train_config(build_parser().parse_args(argv))
        assert cfg == TrainConfig(**dict(flags.values()))
        # every field has a flag but rho and epsilon, which only --config sets
        assert {f for f, _ in flags.values()} == set(dataclasses.asdict(cfg)) - {"rho", "epsilon"}

    @pytest.mark.parametrize("empty_side", ["train", "valid"])
    def test_empty_dataset_is_data_error(self, work, tmp_path, capsys, empty_side):
        write_dataset([], str(tmp_path / "empty"))
        dirs = {"train": str(work / "data"), "valid": str(work / "data")}
        dirs[empty_side] = str(tmp_path / "empty")
        code, _, err = run(
            capsys,
            "train", dirs["train"], dirs["valid"],
            "--glove", str(work / "glove.txt"),
            "--out", str(tmp_path / "run"),
            "--dim", "8", "--hidden", "4", "--epochs", "1",
        )
        assert code == 2
        assert err == "data error: train and valid datasets must be non-empty\n"
        assert not (tmp_path / "run").exists()

    def test_glove_dim_mismatch_is_data_error(self, work, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "train", str(work / "data"), str(work / "data"),
            "--glove", str(work / "glove.txt"),
            "--out", str(tmp_path / "run"),
            "--dim", "50",
        )
        assert code == 2
        assert "data error" in err

    @pytest.mark.parametrize("epochs", ["0", "1"])
    @pytest.mark.parametrize("component", ["nan", "-inf", "1e999", "1_0"])
    def test_glove_component_not_a_finite_number_is_data_error(
        self, work, tmp_path, capsys, component, epochs
    ):
        lines = (work / "glove.txt").read_text(encoding="utf-8").splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("wow "))
        lines[at] = " ".join(lines[at].split(" ")[:-1] + [component])
        (tmp_path / "glove.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, err = run(
            capsys,
            "train", str(work / "data"), str(work / "data"),
            "--glove", str(tmp_path / "glove.txt"),
            "--out", str(tmp_path / "run"),
            "--dim", "8", "--hidden", "4", "--epochs", epochs, "--seed", "3",
        )
        assert code == 2
        assert err.startswith(f"data error: line {at + 1}: ")
        assert not (tmp_path / "run").exists()


class TestChallengeScript:
    FLAGS = ["--dim", "8", "--hidden", "4", "--epochs", "1"]

    def run_script(self, challenge_dir, glove_file, out):
        script = Path(__file__).resolve().parents[1] / "scripts" / "run_challenge_experiment.py"
        subprocess.run(
            [sys.executable, str(script), str(challenge_dir), "--glove", str(glove_file),
             "--out", str(out), *self.FLAGS],
            check=True, capture_output=True,
        )

    def test_writes_what_train_writes_on_its_split(
        self, challenge_dir, glove_file, tmp_path, capsys
    ):
        """The script's checkpoint and history equal `train`'s on the same
        train/valid split with the same flags."""
        self.run_script(challenge_dir, glove_file, tmp_path / "script")
        # the script's protocol at its default seed 0: test 30%, then valid 15% of the rest
        train_full, _ = stratified_split(load_dataset(str(challenge_dir)), 0.3, 0)
        train, valid = stratified_split(train_full, 0.15, 0)
        write_dataset(train, str(tmp_path / "train"))
        write_dataset(valid, str(tmp_path / "valid"))
        code, _, _ = run(
            capsys, "train", str(tmp_path / "train"), str(tmp_path / "valid"),
            "--glove", str(glove_file), "--out", str(tmp_path / "cli"), *self.FLAGS,
        )
        assert code == 0
        for name in ARTIFACTS:
            script_bytes = (tmp_path / "script" / name).read_bytes()
            assert script_bytes == (tmp_path / "cli" / name).read_bytes(), name

    def test_report_scores_its_test_split(self, challenge_dir, glove_file, tmp_path):
        """The script's report.json, runtime aside, is `evaluate` of its
        checkpoint's scores for its 30% test split, computed in process."""
        out = tmp_path / "script"
        self.run_script(challenge_dir, glove_file, out)
        _, test = stratified_split(load_dataset(str(challenge_dir)), 0.3, 0)
        with open(out / "model.ckpt", "rb") as f:
            model, vocab, meta = load_model(f)
        ids, lengths = encode_posts(
            [record for record, _ in test], vocab, meta["max_len"], meta["text_field"]
        )
        preds = predict_batch(model, ids, lengths)
        expected = json.loads(evaluate(list(preds), [j for _, j in test]).to_json())
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        del expected["runtime"], report["runtime"]
        assert report == expected


class TestPredict:
    def test_scores_every_instance_in_order(self, work, tmp_path, capsys):
        out = tmp_path / "preds.jsonl"
        code, msg, _ = run(
            capsys,
            "predict", str(work / "run" / "model.ckpt"),
            "--instances", str(work / "data" / "instances.jsonl"),
            "--out", str(out),
        )
        assert code == 0
        assert "scored 60" in msg
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        ds = load_dataset(str(work / "data"))
        assert [r["id"] for r in rows] == [rec.id for rec, _ in ds]
        assert all(0.0 < r["clickbaitScore"] < 1.0 for r in rows)

    def test_unseen_words_still_score(self, work, tmp_path, capsys):
        instances = tmp_path / "instances.jsonl"
        with open(instances, "w", encoding="utf-8") as f:
            f.write(json.dumps({"id": "77", "postText": ["zyx qqqwv flurble"]}) + "\n")
        out = tmp_path / "preds.jsonl"
        code, _, _ = run(
            capsys,
            "predict", str(work / "run" / "model.ckpt"),
            "--instances", str(instances), "--out", str(out),
        )
        assert code == 0
        row = json.loads(out.read_text())
        assert row["id"] == "77"
        assert 0.0 < row["clickbaitScore"] < 1.0

    def test_missing_checkpoint(self, work, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "predict", str(tmp_path / "nope.ckpt"),
            "--instances", str(work / "data" / "instances.jsonl"),
            "--out", str(tmp_path / "preds.jsonl"),
        )
        assert code == 2
        assert "data error" in err

    @pytest.mark.parametrize(
        "line, expect",
        [
            (b'"identity"', "line 2: expected a JSON object"),
            (b'{"postText": 5}', "line 2: postText must be a string, a list or null"),
            (b'{"postText": {"a": 1}}', "line 2: postText must be"),
            (b'{"targetCaptions": 2.5}', "line 2: targetCaptions must be"),
            (b'{"postTimestamp": ' + BIG + b"}", "line 2: invalid JSON"),
            (DEEP, "line 2: invalid JSON"),
            (b'{"postText": "caf\xe9"}', "utf-8"),
        ],
        ids=[
            "not-object", "int-post-text", "object-post-text", "float-captions",
            "5001-digit-int", "deep-nesting", "not-utf8",
        ],
    )
    def test_malformed_instances_line_is_data_error(self, work, tmp_path, capsys, line, expect):
        first = b'{"id": "0", "postText": ["a fine post"]}'
        instances = tmp_path / "instances.jsonl"
        instances.write_bytes(first + b"\n" + spliced(first, line) + b"\n")
        out = tmp_path / "preds.jsonl"
        code, _, err = run(
            capsys,
            "predict", str(work / "run" / "model.ckpt"),
            "--instances", str(instances), "--out", str(out),
        )
        assert code == 2
        assert err.startswith("data error: ") and expect in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_duplicate_instance_id_is_data_error(self, work, tmp_path, capsys):
        instances = tmp_path / "instances.jsonl"
        instances.write_text(
            '{"id": "5", "postText": ["one"]}\n{"id": "5", "postText": ["two"]}\n'
        )
        out = tmp_path / "preds.jsonl"
        code, _, err = run(
            capsys,
            "predict", str(work / "run" / "model.ckpt"),
            "--instances", str(instances), "--out", str(out),
        )
        assert code == 2
        assert "duplicate instance id '5'" in err
        assert not out.exists()

    def test_non_finite_scores_are_numeric_failure(self, work, tmp_path, capsys):
        """Finite weights can still overflow. Here r = 0 and z = c = 1 exactly,
        so the state after one token is all ones, U_h h overflows to inf at the
        second token, and r * U_h h is 0 * inf = NaN."""
        with open(work / "run" / "model.ckpt", "rb") as f:
            model, vocab, meta = load_model(f)
        model["fwd.b_r"][:] = -3e38
        model["fwd.b_z"][:] = 3e38
        model["fwd.b_h"][:] = 3e38
        model["fwd.U_h"][:] = 3e38
        ckpt = tmp_path / "model.ckpt"
        cfg = TrainConfig(max_len=meta["max_len"], text_field=meta["text_field"])
        with open(ckpt, "wb") as f:
            save_model(model, vocab, cfg, f)
        out = tmp_path / "preds.jsonl"
        with np.errstate(over="ignore", invalid="ignore"):
            code, _, err = run(
                capsys,
                "predict", str(ckpt),
                "--instances", str(work / "data" / "instances.jsonl"), "--out", str(out),
            )
        assert code == 3
        assert err.startswith("numeric failure: the model scores 60 of 60 posts non-finite")
        assert not out.exists()

    @pytest.mark.parametrize(
        "damage",
        [
            lambda raw: raw[:15],
            lambda raw: raw[:40],
            with_header_edit(lambda h: h["arrays"].pop()),
            lambda raw: raw + b"garbage",
            with_header_edit(lambda h: h.update(text_field="postMedia")),
            lambda raw: raw[:-4] + struct.pack("<f", math.nan),
            with_header_edit(lambda h: h.update(max_len=10**9)),
            with_dim(10**13),
            with_dim(2**62),
            with_header_edit(lambda h: h["vocab_tokens"].__setitem__(1, h["vocab_tokens"][0])),
        ],
        ids=[
            "short-length-prefix", "cut-header", "head.b-omitted", "trailing-bytes",
            "unknown-text-field", "nan-in-head.b", "huge-max-len", "huge-d", "d-overflows-size",
            "vocab-repeats-token",
        ],
    )
    def test_malformed_checkpoint_is_data_error(self, work, tmp_path, capsys, damage):
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes(damage((work / "run" / "model.ckpt").read_bytes()))
        code, _, err = run(
            capsys,
            "predict", str(ckpt),
            "--instances", str(work / "data" / "instances.jsonl"),
            "--out", str(tmp_path / "preds.jsonl"),
        )
        assert code == 2
        assert err.startswith("data error: checkpoint")
        assert len(err.strip().splitlines()) == 1


class TestEvaluate:
    REPORT_KEYS = [
        "mean_squared_error",
        "median_absolute_error",
        "f1_score",
        "precision",
        "recall",
        "accuracy",
        "r2_score",
        "runtime",
    ]

    def perfect_results(self, work, path):
        ds = load_dataset(str(work / "data"))
        results_file(path, [(rec.id, judgment.mean) for rec, judgment in ds])

    def test_perfect_predictions(self, work, tmp_path, capsys):
        results = tmp_path / "results.jsonl"
        self.perfect_results(work, results)
        out = tmp_path / "report.json"
        code, msg, _ = run(
            capsys,
            "evaluate", str(results),
            "--truth", str(work / "data" / "truth.jsonl"),
            "--out", str(out),
        )
        assert code == 0
        report = json.loads(msg)
        assert list(report) == self.REPORT_KEYS
        assert report["mean_squared_error"] == 0.0
        assert report["r2_score"] == 1.0
        assert report["accuracy"] == 1.0
        # file copy matches stdout
        assert json.loads(out.read_text()) == report

    def test_extra_ids_are_fine_missing_are_not(self, work, tmp_path, capsys):
        ds = load_dataset(str(work / "data"))
        results = tmp_path / "results.jsonl"
        pairs = [(rec.id, j.mean) for rec, j in ds][1:]  # drop the first
        results_file(results, pairs + [("not-in-truth", 0.5)])
        code, _, err = run(
            capsys, "evaluate", str(results), "--truth", str(work / "data" / "truth.jsonl")
        )
        assert code == 2
        assert ds[0][0].id in err

    def test_bad_json_line_reported(self, work, tmp_path, capsys):
        results = tmp_path / "results.jsonl"
        results.write_text('{"id": "1", "clickbaitScore": 0.5}\n{oops\n')
        code, _, err = run(
            capsys, "evaluate", str(results), "--truth", str(work / "data" / "truth.jsonl")
        )
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize(
        "score",
        [
            '"high"', "null", "NaN", "Infinity", "-1e999", "true", "1" + "0" * 400,
            "1.5", "-0.25", "1e200",
        ],
        ids=[
            "string", "null", "nan", "infinity", "overflow", "bool", "huge-int",
            "above-one", "below-zero", "1e200",
        ],
    )
    def test_score_not_finite_number_reported(self, work, tmp_path, capsys, score):
        results = tmp_path / "results.jsonl"
        results.write_text(
            '{"id": "1000", "clickbaitScore": 0.5}\n'
            f'{{"id": "1001", "clickbaitScore": {score}}}\n'
        )
        out = tmp_path / "report.json"
        code, _, err = run(
            capsys,
            "evaluate", str(results),
            "--truth", str(work / "data" / "truth.jsonl"),
            "--out", str(out),
        )
        assert code == 2
        assert err.startswith("data error: line 2: clickbaitScore must be a finite number")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, expect",
        [
            (b'{"clickbaitScore": ' + BIG + b"}", "line 2: invalid JSON"),
            (DEEP, "line 2: invalid JSON"),
            (b'{"id": "caf\xe9"}', "utf-8"),
        ],
        ids=["5001-digit-score", "deep-nesting", "not-utf8"],
    )
    def test_malformed_results_line_is_data_error(self, work, tmp_path, capsys, line, expect):
        first = b'{"id": "1000", "clickbaitScore": 0.5}'
        results = tmp_path / "results.jsonl"
        results.write_bytes(first + b"\n" + spliced(first, line) + b"\n")
        out = tmp_path / "report.json"
        code, _, err = run(
            capsys,
            "evaluate", str(results),
            "--truth", str(work / "data" / "truth.jsonl"),
            "--out", str(out),
        )
        assert code == 2
        assert err.startswith("data error: ") and expect in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_repeated_truth_line_is_data_error(self, work, tmp_path, capsys):
        results = tmp_path / "results.jsonl"
        self.perfect_results(work, results)
        truth = (work / "data" / "truth.jsonl").read_text().splitlines(keepends=True)
        repeated = tmp_path / "truth.jsonl"
        repeated.write_text("".join(truth + truth[:1]))
        code, out, err = run(capsys, "evaluate", str(results), "--truth", str(repeated))
        assert code == 2
        assert err.startswith(f"data error: line {len(truth) + 1}: duplicate truth id")
        assert len(err.strip().splitlines()) == 1
        assert out == ""

    def test_duplicate_result_id(self, work, tmp_path, capsys):
        results = tmp_path / "results.jsonl"
        results_file(results, [("1000", 0.5), ("1000", 0.6)])
        code, _, err = run(
            capsys, "evaluate", str(results), "--truth", str(work / "data" / "truth.jsonl")
        )
        assert code == 2
        assert "duplicate" in err

    def test_bad_threshold_is_usage_error(self, work, tmp_path, capsys):
        results = tmp_path / "results.jsonl"
        self.perfect_results(work, results)
        code, _, err = run(
            capsys,
            "evaluate", str(results),
            "--truth", str(work / "data" / "truth.jsonl"),
            "--threshold", "1.5",
        )
        assert code == 1
        assert "usage error" in err

    @pytest.mark.parametrize("n_truth", [0, 1])
    def test_fewer_than_two_truth_lines_is_data_error(self, tmp_path, capsys, n_truth):
        ds = [(make_record("1", "post"), make_judgment((0, 0, 0, 0, 0)))][:n_truth]
        write_dataset(ds, str(tmp_path / "few"))
        results = tmp_path / "results.jsonl"
        results_file(results, [(rec.id, 0.5) for rec, _ in ds])
        code, msg, err = run(
            capsys, "evaluate", str(results), "--truth", str(tmp_path / "few" / "truth.jsonl")
        )
        assert code == 2
        assert msg == ""
        assert err == f"data error: evaluate needs at least 2 truth lines, got {n_truth}\n"

    def test_constant_truth_warns_about_r2(self, tmp_path, capsys):
        data = tmp_path / "flat"
        records = [
            (make_record(str(i), f"post {i}"), make_judgment((1, 1, 1, 1, 1)))
            for i in range(3)
        ]
        write_dataset(records, str(data))
        results = tmp_path / "results.jsonl"
        results_file(results, [(str(i), 0.5 + 0.1 * i) for i in range(3)])
        code, msg, err = run(
            capsys, "evaluate", str(results), "--truth", str(data / "truth.jsonl")
        )
        assert code == 0
        assert "r2" in err
        assert json.loads(msg)["r2_score"] == 0.0


class TestArgumentErrors:
    def test_unknown_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "results.jsonl", "--truth", "t.jsonl", "--frobnicate"])
        assert exc.value.code == 1

    def test_missing_subcommand_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1
