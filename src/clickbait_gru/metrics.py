"""Evaluation bundle: MSE, median absolute error, P/R/F1, accuracy, R2, runtime.

All reductions use exactly-rounded summation, so every metric is invariant to
example order. Classification treats the clickbait class as positive.
"""

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .ingest import CLICKBAIT_CUTOFF, Judgment, Label


@dataclass
class EvalReport:
    mse: float
    median_absolute_error: float
    f1: float
    precision: float
    recall: float
    accuracy: float
    r2: float
    runtime_seconds: float
    r2_degenerate: bool = False  # constant truth means, r2 forced to 0

    def to_json(self) -> str:
        """Flat JSON, one key per report row (runtime in seconds)."""
        return json.dumps(
            {
                "mean_squared_error": self.mse,
                "median_absolute_error": self.median_absolute_error,
                "f1_score": self.f1,
                "precision": self.precision,
                "recall": self.recall,
                "accuracy": self.accuracy,
                "r2_score": self.r2,
                "runtime": self.runtime_seconds,
            },
            indent=2,
        )


def confusion(pred_clickbait: np.ndarray, true_clickbait: np.ndarray) -> tuple[int, int, int, int]:
    """(tp, fp, fn, tn) of two boolean arrays that are True where a post is
    clickbait, the positive class."""
    if len(pred_clickbait) != len(true_clickbait):
        raise ValueError(
            f"length mismatch: {len(pred_clickbait)} predictions, {len(true_clickbait)} truths"
        )
    tp = int(np.count_nonzero(pred_clickbait & true_clickbait))
    fp = int(np.count_nonzero(pred_clickbait)) - tp
    fn = int(np.count_nonzero(true_clickbait)) - tp
    return tp, fp, fn, len(pred_clickbait) - tp - fp - fn


def fsum_of_squares(values: np.ndarray) -> float:
    """Exactly-rounded sum of the squares, each rounded as Python's `v ** 2`
    rounds it: that is libm's pow, which with glibc differs from `v * v` in
    the last bit for about one value in a thousand."""
    return math.fsum([v ** 2 for v in values.tolist()])


def evaluate(preds, truth: list[Judgment]) -> EvalReport:
    """Score predictions against judgments.

    Regression metrics compare to the judgment mean. For classification, a
    prediction is positive when pred >= CLICKBAIT_CUTOFF, and the reference
    label is the annotated class. Zero-denominator precision, recall, and f1 are
    defined as 0. Constant truth means make R2 meaningless; it is reported as
    0 with r2_degenerate set. The work runs on float64 and boolean arrays;
    the median absolute error is the lower of the two middle errors when
    their count is even (`statistics.median_low`).
    """
    preds = np.fromiter(preds, np.float64)
    if len(preds) != len(truth):
        raise ValueError(f"length mismatch: {len(preds)} preds, {len(truth)} truths")
    if len(preds) < 2:
        raise ValueError("evaluate needs at least 2 examples")

    start = time.perf_counter()
    n = len(preds)
    means = np.fromiter((j.mean for j in truth), np.float64, n)
    errors = preds - means

    ss_res = fsum_of_squares(errors)
    mse = ss_res / n
    middle = (n - 1) // 2
    medae = float(np.partition(np.abs(errors), middle)[middle])

    true_clickbait = np.fromiter((j.class_label is Label.CLICKBAIT for j in truth), bool, n)
    tp, fp, fn, tn = confusion(preds >= CLICKBAIT_CUTOFF, true_clickbait)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    accuracy = (tp + tn) / n

    mean_of_means = math.fsum(means.tolist()) / n
    ss_tot = fsum_of_squares(means - mean_of_means)
    degenerate = ss_tot == 0.0
    r2 = 0.0 if degenerate else 1.0 - ss_res / ss_tot

    return EvalReport(
        mse=mse,
        median_absolute_error=medae,
        f1=f1,
        precision=precision,
        recall=recall,
        accuracy=accuracy,
        r2=r2,
        runtime_seconds=time.perf_counter() - start,
        r2_degenerate=degenerate,
    )
