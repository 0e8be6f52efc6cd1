"""Dataset parsing, validation, stratified splitting, duplicates."""

import io
import json
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clickbait_gru.errors import DataError, ParseError
from clickbait_gru.ingest import (
    Judgment,
    Label,
    atomic_open,
    build_dataset,
    derive_label,
    find_duplicate_posts,
    load_dataset,
    parse_instances,
    parse_truth,
    snap_to_level,
    stratified_split,
    validate_label_rule,
    write_dataset,
)
from conftest import make_judgment, make_record, synth_dataset


def instance_line(rec_id="i1", **extra):
    obj = {"id": rec_id, "postText": ["Some post"], **extra}
    return json.dumps(obj)


def truth_line(rec_id="i1", scores=(0.0, 0.0, 0.33333, 0.33333, 1.0), **overrides):
    obj = {
        "id": rec_id,
        "truthJudgments": list(scores),
        "truthMean": sum(scores) / 5.0,
        "truthMedian": sorted(scores)[2],
        "truthClass": "clickbait" if sorted(scores)[2] >= 0.5 else "no-clickbait",
    }
    obj.update(overrides)
    return json.dumps(obj)


class TestParseInstances:
    def test_full_record(self):
        line = instance_line(
            postTimestamp="Sat Jan 01",
            postMedia=["m.png"],
            targetTitle="T",
            targetDescription="D",
            targetKeywords="k1,k2",
            targetParagraphs=["p1", "p2"],
            targetCaptions=["c"],
        )
        (rec,) = parse_instances(io.StringIO(line + "\n"))
        assert rec.id == "i1"
        assert rec.post_text == ["Some post"]
        assert rec.text == "Some post"
        assert rec.target_paragraphs == ["p1", "p2"]

    def test_missing_optional_fields_default_empty(self):
        (rec,) = parse_instances(io.StringIO(json.dumps({"id": "x"}) + "\n"))
        assert rec.post_text == []
        assert rec.text == ""
        assert rec.target_title == ""

    def test_multi_segment_post_text_joined_with_spaces(self):
        line = json.dumps({"id": "x", "postText": ["part one", "part two"]})
        (rec,) = parse_instances(io.StringIO(line))
        assert rec.text == "part one part two"

    def test_blank_lines_skipped(self):
        stream = io.StringIO("\n" + instance_line() + "\n\n")
        assert len(parse_instances(stream)) == 1

    def test_bad_json_reports_line_number(self):
        stream = io.StringIO(instance_line() + "\n{nope\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_instances(stream)

    def test_missing_id_rejected(self):
        with pytest.raises(ParseError, match="id"):
            parse_instances(io.StringIO(json.dumps({"postText": ["x"]})))

    def test_field_text_selector(self):
        line = instance_line(targetTitle="The Title", targetDescription="The Desc")
        (rec,) = parse_instances(io.StringIO(line))
        assert rec.field_text("postText") == "Some post"
        assert rec.field_text("targetTitle") == "The Title"
        assert rec.field_text("targetDescription") == "The Desc"
        with pytest.raises(ValueError):
            rec.field_text("postMedia")


class TestParseTruth:
    def test_valid_line(self):
        ((rec_id, j),) = parse_truth(io.StringIO(truth_line()))
        assert rec_id == "i1"
        assert j.class_label is Label.NO_CLICKBAIT
        assert math.isclose(j.mean, 0.333332, abs_tol=1e-6)

    def test_score_off_level_rejected(self):
        line = truth_line(scores=(0.0, 0.0, 0.5, 1.0, 1.0))
        with pytest.raises(ParseError, match="level"):
            parse_truth(io.StringIO(line))

    def test_score_within_tolerance_accepted(self):
        # files encode 1/3 as 0.33333, off the exact level by ~3.3e-6
        line = truth_line(scores=(0.33333, 0.33333, 0.33333, 0.33333, 0.33333))
        ((_, j),) = parse_truth(io.StringIO(line))
        assert j.median == 0.33333

    def test_wrong_score_count_rejected(self):
        line = truth_line(scores=(0.0, 1.0, 1.0))
        with pytest.raises(ParseError, match="5"):
            parse_truth(io.StringIO(line))

    def test_inconsistent_mean_rejected(self):
        line = truth_line(truthMean=0.9)
        with pytest.raises(ParseError, match="truthMean"):
            parse_truth(io.StringIO(line))

    def test_inconsistent_median_rejected(self):
        line = truth_line(truthMedian=1.0)
        with pytest.raises(ParseError, match="truthMedian"):
            parse_truth(io.StringIO(line))

    def test_unknown_class_rejected(self):
        line = truth_line(truthClass="maybe")
        with pytest.raises(ParseError, match="truthClass"):
            parse_truth(io.StringIO(line))

    def test_repeated_id_rejected_at_its_second_line(self):
        lines = [truth_line("i1"), truth_line("i2"), truth_line("i1")]
        with pytest.raises(ParseError, match="line 3: duplicate truth id 'i1'"):
            parse_truth(io.StringIO("\n".join(lines)))

    def test_missing_mean_rejected(self):
        obj = json.loads(truth_line())
        del obj["truthMean"]
        with pytest.raises(ParseError):
            parse_truth(io.StringIO(json.dumps(obj)))


class TestLevels:
    def test_snap_exact_levels(self):
        assert snap_to_level(0.0) == 0.0
        assert snap_to_level(0.33333) == 1 / 3
        assert snap_to_level(0.66667) == 2 / 3
        assert snap_to_level(1.0) == 1.0

    def test_snap_rejects_between_levels(self):
        with pytest.raises(DataError):
            snap_to_level(0.5)

    def test_median_rule_threshold(self):
        assert derive_label(0.33333) is Label.NO_CLICKBAIT
        assert derive_label(0.66667) is Label.CLICKBAIT
        assert derive_label(1.0) is Label.CLICKBAIT
        assert derive_label(0.0) is Label.NO_CLICKBAIT


class TestBuildDataset:
    def test_join_happy_path(self):
        records = parse_instances(io.StringIO(instance_line()))
        truths = parse_truth(io.StringIO(truth_line()))
        ds = build_dataset(records, truths)
        assert len(ds) == 1

    def test_duplicate_instance_id_rejected(self):
        records = parse_instances(io.StringIO(instance_line() + "\n" + instance_line()))
        truths = parse_truth(io.StringIO(truth_line()))
        with pytest.raises(DataError, match="duplicate instance"):
            build_dataset(records, truths)

    def test_truth_without_instance_rejected(self):
        records = parse_instances(io.StringIO(instance_line("a")))
        truths = parse_truth(io.StringIO(truth_line("b")))
        with pytest.raises(DataError, match="no matching instance"):
            build_dataset(records, truths)

    def test_instance_without_truth_rejected(self):
        records = parse_instances(
            io.StringIO(instance_line("a") + "\n" + instance_line("b"))
        )
        truths = parse_truth(io.StringIO(truth_line("a")))
        with pytest.raises(DataError, match="no truth"):
            build_dataset(records, truths)


class TestLabelRule:
    def test_clean_dataset_has_no_violations(self, dataset60):
        assert validate_label_rule(dataset60) == []

    def test_violation_reported_not_fixed(self):
        bad = Judgment(
            scores=(1.0,) * 5, mean=1.0, median=1.0, class_label=Label.NO_CLICKBAIT
        )
        ds = [(make_record("x", "t"), bad)]
        violations = validate_label_rule(ds)
        assert violations == [("x", 1.0, Label.NO_CLICKBAIT)]


class TestStratifiedSplit:
    def test_challenge_sized_allocation(self):
        """Hand-derived: 19538 records (4761/14777), fraction 0.3.

        Global test size: floor(0.3*19538 + 0.5) = 5861. Class quotas
        5861*4761/19538 = 1428.20 and 5861*14777/19538 = 4432.80; floors sum
        to 5860 and the larger remainder (non-clickbait) takes the leftover,
        so the test side is 1428 clickbait + 4433 non-clickbait.
        """
        records = []
        for i in range(19538):
            levels = (1.0,) * 5 if i < 4761 else (0.0,) * 5
            records.append((make_record(str(i), f"post {i}"), make_judgment(levels)))
        train, test = stratified_split(records, 0.3, seed=11)
        test_cb = sum(1 for _, j in test if j.class_label is Label.CLICKBAIT)
        assert len(test) == 5861
        assert test_cb == 1428
        assert len(test) - test_cb == 4433
        assert len(train) == 13677

    def test_same_seed_same_split(self, dataset60):
        a = stratified_split(dataset60, 0.3, seed=4)
        b = stratified_split(dataset60, 0.3, seed=4)
        assert [r.id for r, _ in a[1]] == [r.id for r, _ in b[1]]

    def test_different_seed_different_membership(self, dataset60):
        a = stratified_split(dataset60, 0.3, seed=4)
        b = stratified_split(dataset60, 0.3, seed=5)
        assert {r.id for r, _ in a[1]} != {r.id for r, _ in b[1]}

    def test_fraction_bounds_rejected(self, dataset60):
        for bad in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                stratified_split(dataset60, bad, seed=0)

    def test_single_class_rejected(self):
        records = [
            (make_record(str(i), "t"), make_judgment((0.0,) * 5)) for i in range(10)
        ]
        with pytest.raises(DataError, match="zero members"):
            stratified_split(records, 0.3, seed=0)

    def test_order_within_splits_preserved(self, dataset60):
        train, test = stratified_split(dataset60, 0.3, seed=4)
        original = [r.id for r, _ in dataset60]
        pos = {rid: i for i, rid in enumerate(original)}
        for part in (train, test):
            ids = [r.id for r, _ in part]
            assert ids == sorted(ids, key=pos.__getitem__)

    @given(
        n_cb=st.integers(1, 40),
        n_ncb=st.integers(1, 40),
        fraction=st.floats(0.05, 0.95),
        seed=st.integers(0, 2**20),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, n_cb, n_ncb, fraction, seed):
        """Split is a disjoint partition; test size follows round-half-up."""
        ds = [
            (make_record(f"c{i}", "x"), make_judgment((1.0,) * 5)) for i in range(n_cb)
        ] + [
            (make_record(f"n{i}", "x"), make_judgment((0.0,) * 5)) for i in range(n_ncb)
        ]
        train, test = stratified_split(ds, fraction, seed)
        train_ids = {r.id for r, _ in train}
        test_ids = {r.id for r, _ in test}
        assert train_ids.isdisjoint(test_ids)
        assert len(train) + len(test) == len(ds)
        n = n_cb + n_ncb
        expected = min(max(int(math.floor(fraction * n + 0.5)), 1), n - 1)
        assert len(test) == expected


class TestDuplicates:
    def test_groups_and_ordering(self):
        texts = ["aaa", "bbb", "aaa", "ccc", "bbb", "aaa"]
        levels = [(1.0,) * 5, (0.0,) * 5, (0.0,) * 5, (0.0,) * 5, (0.0,) * 5, (1.0,) * 5]
        records = [
            (make_record(str(i), t), make_judgment(lv))
            for i, (t, lv) in enumerate(zip(texts, levels))
        ]
        groups = find_duplicate_posts(records)
        assert [(g.text, g.count) for g in groups] == [("aaa", 3), ("bbb", 2)]
        assert groups[0].clickbait == 2 and groups[0].no_clickbait == 1

    def test_no_duplicates_empty_report(self, dataset60):
        texts = [r.text for r, _ in dataset60]
        expected_groups = sum(1 for t in set(texts) if texts.count(t) >= 2)
        assert len(find_duplicate_posts(dataset60)) == expected_groups

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_group_size_identity(self, text_codes):
        """Sum of group counts = total - distinct + number of groups."""
        records = [
            (make_record(str(i), f"text{c}"), make_judgment((0.0,) * 5))
            for i, c in enumerate(text_codes)
        ]
        groups = find_duplicate_posts(records)
        total = len(text_codes)
        distinct = len(set(text_codes))
        assert sum(g.count for g in groups) == total - distinct + len(groups)


class TestRoundTrip:
    def test_write_then_load_is_identity(self, tmp_path, dataset60):
        write_dataset(dataset60, str(tmp_path / "out"))
        back = load_dataset(str(tmp_path / "out"))
        assert len(back) == len(dataset60)
        for (r1, j1), (r2, j2) in zip(dataset60, back):
            assert r1 == r2
            assert j1 == j2

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            load_dataset(str(tmp_path / "nowhere"))


class TestAtomicOpen:
    def test_raising_writer_leaves_earlier_file_and_no_temp(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text("earlier\n")
        with pytest.raises(RuntimeError, match="midway"):
            with atomic_open(str(path)) as f:
                f.write("half of a new file")
                f.flush()
                raise RuntimeError("midway")
        assert path.read_text() == "earlier\n"
        assert os.listdir(tmp_path) == ["preds.jsonl"]

    def test_replaces_the_file_with_plain_open_permissions(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"earlier")
        with atomic_open(str(path), binary=True) as f:
            f.write(b"new")
        assert path.read_bytes() == b"new"
        assert os.listdir(tmp_path) == ["model.ckpt"]
        with open(tmp_path / "plain", "wb"):
            pass
        assert os.stat(path).st_mode == os.stat(tmp_path / "plain").st_mode
