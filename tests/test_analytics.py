"""Dataset statistics: counts, quartiles, histograms, and the artifact writer."""

import csv
import json
import statistics

import pytest
from hypothesis import given
from hypothesis import strategies as st

from clickbait_gru.analytics import (
    ANALYTICS_FILENAMES,
    BoxStats,
    box_stats,
    class_counts,
    length_distribution,
    median_label_table,
    score_box_stats,
    score_histogram,
    write_analytics,
)
from clickbait_gru.errors import DataError
from clickbait_gru.ingest import JUDGMENT_LEVELS, Label, LabeledDataset

from conftest import make_judgment, make_record, synth_dataset

CB = Label.CLICKBAIT
NCB = Label.NO_CLICKBAIT


def dataset_of(rows) -> LabeledDataset:
    """Rows of (text, levels); label follows the median rule."""
    records = [
        (make_record(str(i), text), make_judgment(levels))
        for i, (text, levels) in enumerate(rows)
    ]
    return records


BAIT = (1, 1, 1, 0, 0)  # median 1 -> clickbait
PLAIN = (0, 0, 0, 1 / 3, 1 / 3)  # median 0 -> no-clickbait


class TestClassCounts:
    def test_empty_dataset(self):
        assert class_counts([]) == (0, 0, 0)

    def test_synthetic_construction(self, dataset60):
        # every third record is clickbait by construction
        assert class_counts(dataset60) == (60, 20, 40)


class TestMedianLabelTable:
    def test_single_record_fills_one_cell(self):
        ds = dataset_of([("hello there", (0, 0, 1 / 3, 1 / 3, 1 / 3))])
        table = median_label_table(ds)
        filled = [
            (level, label)
            for level in table
            for label in table[level]
            if table[level][label]
        ]
        assert filled == [(1.0 / 3.0, NCB)]
        assert table[1.0 / 3.0][NCB] == 1

    def test_all_eight_cells_present(self):
        table = median_label_table([])
        assert sorted(table) == sorted(JUDGMENT_LEVELS)
        for level in JUDGMENT_LEVELS:
            assert set(table[level]) == {CB, NCB}
            assert all(v == 0 for v in table[level].values())

    def test_marginals_match_class_counts(self, dataset60):
        table = median_label_table(dataset60)
        total, clickbait, non_clickbait = class_counts(dataset60)
        assert sum(table[lv][CB] for lv in JUDGMENT_LEVELS) == clickbait
        assert sum(table[lv][NCB] for lv in JUDGMENT_LEVELS) == non_clickbait
        assert sum(sum(cells.values()) for cells in table.values()) == total


class TestBoxStats:
    def test_even_count_hand_case(self):
        assert box_stats([1.0, 2.0, 3.0, 4.0]) == BoxStats(
            min=1.0, q1=1.5, median=2.5, q3=3.5, max=4.0
        )

    def test_odd_count_shares_median_with_both_halves(self):
        assert box_stats([1.0, 2.0, 3.0, 4.0, 5.0]) == BoxStats(
            min=1.0, q1=2.0, median=3.0, q3=4.0, max=5.0
        )

    def test_single_value(self):
        b = box_stats([7.0])
        assert (b.min, b.q1, b.median, b.q3, b.max) == (7.0,) * 5

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            box_stats([])

    @given(
        st.lists(
            st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
            min_size=1,
            max_size=40,
        ),
        st.randoms(use_true_random=False),
    )
    def test_hinges_match_half_medians(self, values, rnd):
        # independent check: Tukey hinges are plain medians of the two halves,
        # with odd counts keeping the middle element in both
        shuffled = list(values)
        rnd.shuffle(shuffled)
        b = box_stats(shuffled)
        ordered = sorted(values)
        n = len(ordered)
        lower = ordered[: n // 2 + (n % 2)]
        upper = ordered[n // 2 :]
        assert b.min == ordered[0] and b.max == ordered[-1]
        assert b.median == statistics.median(ordered)
        assert b.q1 == statistics.median(lower)
        assert b.q3 == statistics.median(upper)
        assert b.min <= b.q1 <= b.median <= b.q3 <= b.max


class TestScoreBoxStats:
    def test_matches_per_class_means(self, dataset60):
        boxes = score_box_stats(dataset60)
        for label in (CB, NCB):
            means = [j.mean for _, j in dataset60 if j.class_label is label]
            assert boxes[label] == box_stats(means)

    def test_empty_class_rejected(self):
        ds = dataset_of([("all plain here", PLAIN)] * 2)
        with pytest.raises(DataError, match="clickbait"):
            score_box_stats(ds)


class TestScoreHistogram:
    def test_too_few_bins(self, dataset60):
        with pytest.raises(ValueError, match="bins"):
            score_histogram(dataset60, bins=1)

    def test_totals_cover_every_record(self, dataset60):
        hist = score_histogram(dataset60, bins=20)
        total, clickbait, non_clickbait = class_counts(dataset60)
        assert len(hist.bin_edges) == 21
        assert hist.unit == "count"
        assert int(hist.per_class[CB].sum()) == clickbait
        assert int(hist.per_class[NCB].sum()) == non_clickbait

    def test_boundary_means_land_in_outer_bins(self):
        # mean 0.0 in the first bin; mean 1.0 included in the last
        ds = dataset_of([("a a a", (1, 1, 1, 1, 1)), ("b b b", (0, 0, 0, 0, 0))])
        hist = score_histogram(ds, bins=4)
        assert hist.per_class[CB].tolist() == [0, 0, 0, 1]
        assert hist.per_class[NCB].tolist() == [1, 0, 0, 0]


class TestLengthDistribution:
    def test_bad_bin_width(self, dataset60):
        with pytest.raises(ValueError, match="bin_width"):
            length_distribution(dataset60, bin_width=0)

    def test_hand_case_percentages(self):
        # lengths: clickbait 3 and 12 chars, no-clickbait 5 chars
        ds = dataset_of([("abc", BAIT), ("twelve chars", BAIT), ("plain", PLAIN)])
        hist = length_distribution(ds, bin_width=10)
        assert hist.unit == "percent"
        assert hist.bin_edges.tolist() == [0, 10, 20]
        assert hist.per_class[CB].tolist() == [50.0, 50.0]
        assert hist.per_class[NCB].tolist() == [100.0, 0.0]

    def test_percentages_sum_to_hundred(self, dataset60):
        hist = length_distribution(dataset60, bin_width=7)
        for label in (CB, NCB):
            assert abs(hist.per_class[label].sum() - 100.0) < 0.01

    def test_empty_post_counts_in_first_bin(self):
        ds = dataset_of([("", PLAIN), ("wow such bait", BAIT)])
        hist = length_distribution(ds, bin_width=10)
        assert hist.per_class[NCB][0] == 100.0

    def test_missing_class_reports_zeros(self):
        ds = dataset_of([("only plain text", PLAIN)])
        hist = length_distribution(ds, bin_width=10)
        assert hist.per_class[CB].sum() == 0.0
        assert hist.per_class[NCB].sum() == 100.0


class TestWriteAnalytics:
    def test_writes_all_artifacts(self, dataset60, tmp_path):
        out = tmp_path / "analytics"
        write_analytics(dataset60, str(out))
        for name in ANALYTICS_FILENAMES:
            assert (out / name).is_file(), name

    def test_counts_json_contents(self, dataset60, tmp_path):
        write_analytics(dataset60, str(tmp_path))
        counts = json.loads((tmp_path / "counts.json").read_text())
        assert counts == {
            "total": 60,
            "clickbait": 20,
            "no_clickbait": 40,
            "label_rule_violations": 0,
        }

    def test_median_table_levels_use_short_decimals(self, dataset60, tmp_path):
        write_analytics(dataset60, str(tmp_path))
        with open(tmp_path / "fig1_median_label.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["median_level", "clickbait", "no_clickbait"]
        assert [r[0] for r in rows[1:]] == ["0", "0.33333", "0.66667", "1"]
        assert sum(int(r[1]) + int(r[2]) for r in rows[1:]) == 60

    def test_duplicates_listed_largest_group_first(self, tmp_path):
        ds = dataset_of(
            [
                ("click me now", BAIT),
                ("click me now", BAIT),
                ("click me now", PLAIN),
                ("plain report", PLAIN),
                ("plain report", PLAIN),
                ("unique post", PLAIN),
            ]
        )
        write_analytics(ds, str(tmp_path))
        with open(tmp_path / "duplicates.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["post_text", "count", "clickbait", "no_clickbait"]
        assert rows[1] == ["click me now", "3", "2", "1"]
        assert rows[2] == ["plain report", "2", "0", "2"]
        assert len(rows) == 3

    def test_rerun_is_byte_identical(self, dataset60, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        write_analytics(dataset60, str(first))
        write_analytics(dataset60, str(second))
        for name in ANALYTICS_FILENAMES:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
