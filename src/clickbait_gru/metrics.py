"""Evaluation bundle: MSE, median absolute error, P/R/F1, accuracy, R2, runtime.

All reductions use exactly-rounded summation, so every metric is invariant to
example order. Classification treats the clickbait class as positive.
"""

import json
import math
import statistics
import time
from dataclasses import dataclass

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


def confusion(pred_labels, true_labels) -> tuple[int, int, int, int]:
    """(tp, fp, fn, tn) with clickbait as the positive class."""
    pred_labels = list(pred_labels)
    true_labels = list(true_labels)
    if len(pred_labels) != len(true_labels):
        raise ValueError(
            f"length mismatch: {len(pred_labels)} predictions, {len(true_labels)} truths"
        )
    tp = fp = fn = tn = 0
    for pred, true in zip(pred_labels, true_labels):
        if pred == Label.CLICKBAIT:
            if true == Label.CLICKBAIT:
                tp += 1
            else:
                fp += 1
        elif true == Label.CLICKBAIT:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


def evaluate(preds, truth: list[Judgment]) -> EvalReport:
    """Score predictions against judgments.

    Regression metrics compare to the judgment mean. For classification, a
    prediction is positive when pred >= CLICKBAIT_CUTOFF, and the reference
    label is the annotated class. Zero-denominator precision, recall, and f1 are
    defined as 0. Constant truth means make R2 meaningless; it is reported as
    0 with r2_degenerate set.
    """
    preds = [float(p) for p in preds]
    if len(preds) != len(truth):
        raise ValueError(f"length mismatch: {len(preds)} preds, {len(truth)} truths")
    if len(preds) < 2:
        raise ValueError("evaluate needs at least 2 examples")

    start = time.perf_counter()
    n = len(preds)
    means = [j.mean for j in truth]

    ss_res = math.fsum((p - m) ** 2 for p, m in zip(preds, means))
    mse = ss_res / n
    medae = statistics.median_low(abs(p - m) for p, m in zip(preds, means))

    pred_labels = [Label.CLICKBAIT if p >= CLICKBAIT_CUTOFF else Label.NO_CLICKBAIT for p in preds]
    tp, fp, fn, tn = confusion(pred_labels, [j.class_label for j in truth])
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    accuracy = (tp + tn) / n

    mean_of_means = math.fsum(means) / n
    ss_tot = math.fsum((m - mean_of_means) ** 2 for m in means)
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
