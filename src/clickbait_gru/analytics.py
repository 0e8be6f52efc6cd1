"""Exploratory dataset statistics as machine-readable tables.

Covers class counts, the median-score-by-label table, per-class box stats and
score histograms over the judgment mean, post-length distributions, and the
duplicate-post report. `write_analytics` dumps everything as CSV/JSON for
external plotting; nothing here renders images.
"""

import csv
import json
import os
import statistics
from dataclasses import astuple, dataclass

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
    """Per-class binned values: counts, or percentages of the class."""

    bin_edges: np.ndarray
    per_class: dict[Label, np.ndarray]


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


def box_stats(values) -> BoxStats:
    """Five-number summary with Tukey hinges for the quartiles.

    Odd counts include the median in both halves; a single value yields five
    equal stats.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("box stats of empty sequence")
    return BoxStats(
        min=ordered[0],
        q1=statistics.median(ordered[: (n + 1) // 2]),
        median=statistics.median(ordered),
        q3=statistics.median(ordered[n // 2 :]),
        max=ordered[-1],
    )


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
    return Histogram(bin_edges=edges, per_class=per_class)


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
    return Histogram(bin_edges=edges, per_class=per_class)


def _format_level(level: float) -> str:
    return f"{level:.5f}".rstrip("0").rstrip(".")


def _write_csv(out_dir: str, name: str, header: list[str], rows) -> None:
    with atomic_open(os.path.join(out_dir, name)) as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


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

    cb, ncb = Label.CLICKBAIT, Label.NO_CLICKBAIT
    table = median_label_table(ds)
    _write_csv(out_dir, "fig1_median_label.csv", ["median_level", "clickbait", "no_clickbait"], [
        [_format_level(level), table[level][cb], table[level][ncb]] for level in JUDGMENT_LEVELS
    ])

    boxes = score_box_stats(ds)
    _write_csv(out_dir, "fig2_box.csv", ["class", "min", "q1", "median", "q3", "max"], [
        [label.value] + [repr(v) for v in astuple(boxes[label])] for label in (cb, ncb)
    ])

    # a histogram row is one bin: its two edges, then each class's value
    hist = score_histogram(ds, SCORE_BINS)
    edges = hist.bin_edges
    header = ["bin_start", "bin_end", "clickbait", "no_clickbait"]
    _write_csv(out_dir, "fig3_score_hist.csv", header, [
        [repr(float(lo)), repr(float(hi)), int(c), int(n)]
        for lo, hi, c, n in zip(edges, edges[1:], hist.per_class[cb], hist.per_class[ncb])
    ])

    hist = length_distribution(ds, bin_width=LENGTH_BIN_WIDTH)
    edges = hist.bin_edges
    header = ["bin_start", "bin_end", "clickbait_pct", "no_clickbait_pct"]
    _write_csv(out_dir, "fig4_length_hist.csv", header, [
        [int(lo), int(hi), repr(float(c)), repr(float(n))]
        for lo, hi, c, n in zip(edges, edges[1:], hist.per_class[cb], hist.per_class[ncb])
    ])

    _write_csv(out_dir, "duplicates.csv", ["post_text", "count", "clickbait", "no_clickbait"], [
        [g.text, g.count, g.clickbait, g.no_clickbait] for g in find_duplicate_posts(ds)
    ])
