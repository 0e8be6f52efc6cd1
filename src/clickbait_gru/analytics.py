"""Exploratory dataset statistics as machine-readable tables.

Covers class counts, the median-score-by-label table, per-class box stats and
score histograms over the judgment mean, post-length distributions, and the
duplicate-post report. `write_analytics` dumps everything as CSV/JSON for
external plotting; nothing here renders images.
"""

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .ingest import (
    JUDGMENT_LEVELS,
    Label,
    LabeledDataset,
    atomic_open,
    find_duplicate_posts,
    snap_to_level,
    validate_label_rule,
)

COUNTS_FILENAME = "counts.json"
# fig3 bins the judgment mean over [0, 1]; fig4 bins post length in characters
SCORE_BINS = 20
LENGTH_BIN_WIDTH = 10
ANALYTICS_FILENAMES = (
    "fig1_median_label.csv",
    "fig2_box.csv",
    "fig3_score_hist.csv",
    "fig4_length_hist.csv",
    "duplicates.csv",
    COUNTS_FILENAME,
)


@dataclass(frozen=True)
class BoxStats:
    min: float
    q1: float
    median: float
    q3: float
    max: float


@dataclass(frozen=True)
class Histogram:
    """Per-class binned values; unit is 'count' or 'percent' (of the class)."""

    bin_edges: np.ndarray
    per_class: dict[Label, np.ndarray]
    unit: str


def class_counts(ds: LabeledDataset) -> tuple[int, int, int]:
    """(total, clickbait, non_clickbait) by annotated class."""
    clickbait = sum(1 for _, j in ds if j.class_label is Label.CLICKBAIT)
    return len(ds), clickbait, len(ds) - clickbait


def median_label_table(ds: LabeledDataset) -> dict[float, dict[Label, int]]:
    """Record counts per (median judgment level, class); all 4x2 cells present."""
    table = {level: {label: 0 for label in Label} for level in JUDGMENT_LEVELS}
    for _, judgment in ds:
        table[snap_to_level(judgment.median)][judgment.class_label] += 1
    return table


def _range_median(ordered, lo: int, hi: int) -> float:
    """Median of ordered[lo..hi] inclusive; mean of the two centrals when even."""
    span = hi - lo + 1
    return (ordered[lo + (span - 1) // 2] + ordered[lo + span // 2]) / 2.0


def box_stats(values) -> BoxStats:
    """Five-number summary with Tukey hinges for the quartiles.

    Odd counts include the median in both halves; a single value yields five
    equal stats.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("box stats of empty sequence")
    median = _range_median(ordered, 0, n - 1)
    if n % 2:
        q1 = _range_median(ordered, 0, n // 2)
        q3 = _range_median(ordered, n // 2, n - 1)
    else:
        q1 = _range_median(ordered, 0, n // 2 - 1)
        q3 = _range_median(ordered, n // 2, n - 1)
    return BoxStats(min=ordered[0], q1=q1, median=median, q3=q3, max=ordered[-1])


def _means_by_class(ds: LabeledDataset) -> dict[Label, list[float]]:
    by_class: dict[Label, list[float]] = {label: [] for label in Label}
    for _, judgment in ds:
        by_class[judgment.class_label].append(judgment.mean)
    return by_class


def score_box_stats(ds: LabeledDataset) -> dict[Label, BoxStats]:
    """Box stats of the judgment mean per class; every class must be populated."""
    by_class = _means_by_class(ds)
    for label, means in by_class.items():
        if not means:
            raise DataError(f"class {label.value!r} has no records")
    return {label: box_stats(means) for label, means in by_class.items()}


def score_histogram(ds: LabeledDataset, bins: int) -> Histogram:
    """Counts of judgment means over [0, 1] in equal-width bins, per class."""
    if bins < 2:
        raise ValueError(f"bins must be >= 2, got {bins}")
    edges = np.linspace(0.0, 1.0, bins + 1)
    by_class = _means_by_class(ds)
    per_class = {
        label: np.histogram(means, bins=edges)[0] for label, means in by_class.items()
    }
    return Histogram(bin_edges=edges, per_class=per_class, unit="count")


def length_distribution(ds: LabeledDataset, bin_width: int = 10) -> Histogram:
    """Post character lengths binned per class, as percentages within the class.

    Length is the character count of the joined post text; empty posts land in
    the first bin. A class with no records reports all-zero percentages.
    """
    if bin_width < 1:
        raise ValueError(f"bin_width must be >= 1, got {bin_width}")
    lengths: dict[Label, list[int]] = {label: [] for label in Label}
    longest = 0
    for record, judgment in ds:
        n = len(record.text)
        lengths[judgment.class_label].append(n)
        longest = max(longest, n)
    edges = np.arange(0, (longest // bin_width + 2) * bin_width, bin_width)
    per_class = {}
    for label, values in lengths.items():
        counts = np.histogram(values, bins=edges)[0]
        total = len(values)
        per_class[label] = 100.0 * counts / total if total else counts.astype(np.float64)
    return Histogram(bin_edges=edges, per_class=per_class, unit="percent")


def _format_level(level: float) -> str:
    return f"{level:.5f}".rstrip("0").rstrip(".")


def write_analytics(ds: LabeledDataset, out_dir: str) -> None:
    """Write the six analytics artifacts into out_dir (created if missing), with
    SCORE_BINS score-histogram bins and LENGTH_BIN_WIDTH-character length bins.

    Output bytes are a pure function of the dataset, so reruns are identical.
    """
    os.makedirs(out_dir, exist_ok=True)

    total, clickbait, non_clickbait = class_counts(ds)
    counts = {
        "total": total,
        "clickbait": clickbait,
        "no_clickbait": non_clickbait,
        "label_rule_violations": len(validate_label_rule(ds)),
    }
    with atomic_open(os.path.join(out_dir, COUNTS_FILENAME)) as f:
        json.dump(counts, f, indent=2, sort_keys=True)
        f.write("\n")

    table = median_label_table(ds)
    with atomic_open(os.path.join(out_dir, "fig1_median_label.csv")) as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["median_level", "clickbait", "no_clickbait"])
        for level in JUDGMENT_LEVELS:
            w.writerow(
                [_format_level(level), table[level][Label.CLICKBAIT], table[level][Label.NO_CLICKBAIT]]
            )

    boxes = score_box_stats(ds)
    with atomic_open(os.path.join(out_dir, "fig2_box.csv")) as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["class", "min", "q1", "median", "q3", "max"])
        for label in (Label.CLICKBAIT, Label.NO_CLICKBAIT):
            b = boxes[label]
            w.writerow([label.value] + [repr(v) for v in (b.min, b.q1, b.median, b.q3, b.max)])

    scores = score_histogram(ds, SCORE_BINS)
    with atomic_open(os.path.join(out_dir, "fig3_score_hist.csv")) as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["bin_start", "bin_end", "clickbait", "no_clickbait"])
        for i in range(len(scores.bin_edges) - 1):
            w.writerow(
                [
                    repr(float(scores.bin_edges[i])),
                    repr(float(scores.bin_edges[i + 1])),
                    int(scores.per_class[Label.CLICKBAIT][i]),
                    int(scores.per_class[Label.NO_CLICKBAIT][i]),
                ]
            )

    lengths = length_distribution(ds, bin_width=LENGTH_BIN_WIDTH)
    with atomic_open(os.path.join(out_dir, "fig4_length_hist.csv")) as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["bin_start", "bin_end", "clickbait_pct", "no_clickbait_pct"])
        for i in range(len(lengths.bin_edges) - 1):
            w.writerow(
                [
                    int(lengths.bin_edges[i]),
                    int(lengths.bin_edges[i + 1]),
                    repr(float(lengths.per_class[Label.CLICKBAIT][i])),
                    repr(float(lengths.per_class[Label.NO_CLICKBAIT][i])),
                ]
            )

    groups = find_duplicate_posts(ds)
    with atomic_open(os.path.join(out_dir, "duplicates.csv")) as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["post_text", "count", "clickbait", "no_clickbait"])
        for g in groups:
            w.writerow([g.text, g.count, g.clickbait, g.no_clickbait])
