"""Evaluation bundle: confusion counts, the seven metrics, JSON shape."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clickbait_gru.ingest import Judgment, Label
from clickbait_gru.metrics import EvalReport, confusion, evaluate
from clickbait_gru.train import mse_loss
from oracle import naive_evaluate

CB, NCB = Label.CLICKBAIT, Label.NO_CLICKBAIT


def judgment(mean, label=None):
    """Judgment with a given mean; label defaults to mean >= 0.5."""
    if label is None:
        label = CB if mean >= 0.5 else NCB
    return Judgment(scores=(mean,) * 5, mean=mean, median=mean, class_label=label)


def labeled_inputs(confusion_spec):
    """(preds, truth) realizing given (pred_label, true_label) pairs.

    Positive predictions are encoded as 0.9, negative as 0.1; true labels are
    attached to means spread over [0.2, 0.8] so ss_tot stays positive.
    """
    preds, truth = [], []
    for i, (pred_lb, true_lb) in enumerate(confusion_spec):
        preds.append(0.9 if pred_lb is CB else 0.1)
        mean = 0.2 + 0.6 * (i / max(len(confusion_spec) - 1, 1))
        truth.append(judgment(mean, label=true_lb))
    return preds, truth


def spec_pairs(tp, fp, fn, tn):
    return [(CB, CB)] * tp + [(CB, NCB)] * fp + [(NCB, CB)] * fn + [(NCB, NCB)] * tn


# judgment means as five annotators' levels make them, k / 15
MEANS = st.sampled_from([k / 15 for k in range(16)])
# any score, and scores that sit on the class cutoff, just below it, or tie errors
PREDS = st.floats(0.0, 1.0) | st.sampled_from(
    [0.5, math.nextafter(0.5, 0.0), 0.0, 1.0, 0.25, 0.75, 2 / 15, 8 / 15]
)


@st.composite
def scored_judgments(draw):
    """(preds, truth) of 2 to 30 posts; in one draw of four every truth mean is the same."""
    n = draw(st.integers(2, 30))
    preds = draw(st.lists(PREDS, min_size=n, max_size=n))
    if draw(st.integers(0, 3)) == 0:
        means = [draw(MEANS)] * n
    else:
        means = draw(st.lists(MEANS, min_size=n, max_size=n))
    labels = draw(st.lists(st.sampled_from([CB, NCB]), min_size=n, max_size=n))
    return preds, [judgment(m, label) for m, label in zip(means, labels)]


def clickbait(labels) -> np.ndarray:
    """The boolean array `confusion` counts: True where a label is clickbait."""
    return np.array([lb is CB for lb in labels], dtype=bool)


class TestConfusion:
    def test_identical_labels_no_errors(self):
        labels = clickbait([CB, NCB, CB, NCB])
        assert confusion(labels, labels) == (2, 0, 0, 2)

    def test_inverted_labels_no_hits(self):
        pred = clickbait([CB, NCB, CB])
        true = clickbait([NCB, CB, NCB])
        assert confusion(pred, true) == (0, 2, 1, 0)

    def test_mixed_fixture(self):
        pairs = spec_pairs(2, 1, 1, 6)
        counts = confusion(clickbait(p for p, _ in pairs), clickbait(t for _, t in pairs))
        assert counts == (2, 1, 1, 6)
        assert all(type(c) is int for c in counts)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            confusion(clickbait([CB]), clickbait([CB, NCB]))


class TestEvaluate:
    def test_perfect_predictions(self):
        truth = [judgment(m) for m in (0.1, 0.4, 0.6, 0.9)]
        report = evaluate([j.mean for j in truth], truth)
        assert report.mse == 0.0
        assert report.median_absolute_error == 0.0
        assert report.r2 == 1.0
        assert report.accuracy == 1.0

    def test_confusion_metrics_from_counts_2_1_2_10(self):
        """tp=2, fp=1, fn=2, tn=10: precision 2/3, recall 1/2, f1 4/7, acc 0.8."""
        preds, truth = labeled_inputs(spec_pairs(2, 1, 2, 10))
        report = evaluate(preds, truth)
        assert report.precision == 2.0 / 3.0
        assert report.recall == 0.5
        # 2PR/(P+R) rounds one ulp away from the direct quotient 4/7
        assert math.isclose(report.f1, 4.0 / 7.0, rel_tol=1e-15)
        assert report.accuracy == 0.8

    def test_confusion_metrics_from_counts_2_1_1_6(self):
        """tp=2, fp=1, fn=1, tn=6: precision 2/3, recall 2/3, f1 2/3, acc 0.8."""
        preds, truth = labeled_inputs(spec_pairs(2, 1, 1, 6))
        report = evaluate(preds, truth)
        assert report.precision == 2.0 / 3.0
        assert report.recall == 2.0 / 3.0
        assert report.f1 == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert report.accuracy == 0.8

    def test_no_predicted_positives_precision_zero(self):
        truth = [judgment(0.9, CB), judgment(0.8, CB), judgment(0.7, CB)]
        report = evaluate([0.1, 0.2, 0.3], truth)
        assert report.precision == 0.0
        assert report.recall == 0.0
        assert report.f1 == 0.0
        assert report.accuracy == 0.0

    def test_constant_truth_means_degenerate_r2(self):
        truth = [judgment(0.5, CB), judgment(0.5, CB), judgment(0.5, NCB)]
        report = evaluate([0.5, 0.6, 0.4], truth)
        assert report.r2 == 0.0
        assert report.r2_degenerate

    def test_nondegenerate_r2_formula(self):
        truth = [judgment(0.0), judgment(1.0)]
        report = evaluate([0.25, 0.75], truth)
        # ss_res = 2 * 0.0625, ss_tot = 2 * 0.25
        assert math.isclose(report.r2, 1.0 - 0.125 / 0.5, rel_tol=1e-12)

    def test_median_absolute_error_lower_median(self):
        """An even count takes the lower central error, an odd count the middle one."""
        truth = [judgment(0.0)] * 4
        report = evaluate([0.4, 0.1, 0.3, 0.2], truth)
        assert report.median_absolute_error == pytest.approx(0.2, abs=1e-15)
        report = evaluate([0.3, 0.1, 0.2], truth[:3])
        assert report.median_absolute_error == pytest.approx(0.2, abs=1e-15)

    def test_threshold_is_inclusive(self):
        truth = [judgment(0.9, CB), judgment(0.1, NCB)]
        report = evaluate([0.5, 0.49999], truth)
        assert report.accuracy == 1.0

    def test_runtime_recorded(self):
        truth = [judgment(0.2), judgment(0.8)]
        report = evaluate([0.2, 0.8], truth)
        assert report.runtime_seconds >= 0.0

    def test_validation_errors(self):
        truth = [judgment(0.2), judgment(0.8)]
        with pytest.raises(ValueError, match="at least 2"):
            evaluate([0.1], truth[:1])
        with pytest.raises(ValueError, match="mismatch"):
            evaluate([0.1, 0.2, 0.3], truth)

    def test_mse_agrees_with_training_loss(self):
        preds = [0.12, 0.47, 0.81, 0.33]
        truth = [judgment(m) for m in (0.0, 0.5, 1.0, 0.25)]
        report = evaluate(preds, truth)
        assert abs(report.mse - mse_loss(preds, [j.mean for j in truth])) < 1e-12

    @given(
        data=st.lists(
            st.tuples(st.floats(0.001, 0.999), st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])),
            min_size=2,
            max_size=25,
        ),
        seed=st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariant(self, data, seed):
        preds = [p for p, _ in data]
        truth = [judgment(m) for _, m in data]
        a = evaluate(preds, truth)
        paired = list(zip(preds, truth))
        seed.shuffle(paired)
        b = evaluate([p for p, _ in paired], [t for _, t in paired])
        assert (a.mse, a.median_absolute_error, a.f1, a.precision, a.recall,
                a.accuracy, a.r2) == (b.mse, b.median_absolute_error, b.f1,
                                      b.precision, b.recall, b.accuracy, b.r2)

    @given(
        tp=st.integers(0, 8), fp=st.integers(0, 8),
        fn=st.integers(0, 8), tn=st.integers(0, 8),
    )
    @settings(max_examples=80, deadline=None)
    def test_f1_is_harmonic_mean_and_accuracy_exact(self, tp, fp, fn, tn):
        if tp + fp + fn + tn < 2:
            return
        preds, truth = labeled_inputs(spec_pairs(tp, fp, fn, tn))
        report = evaluate(preds, truth)
        assert report.accuracy == (tp + tn) / (tp + fp + fn + tn)
        if report.precision > 0 and report.recall > 0:
            harmonic = 2 / (1 / report.precision + 1 / report.recall)
            assert math.isclose(report.f1, harmonic, rel_tol=1e-12)
        assert 0.0 <= report.f1 <= 1.0
        assert report.mse >= 0.0 and report.r2 <= 1.0


class TestAgainstReference:
    """`evaluate` against the per-example loop it replaced, `oracle.naive_evaluate`."""

    @given(scored_judgments())
    # with glibc, 0.343805606955381 ** 2 (libm's pow) is one bit off
    # 0.343805606955381 * 0.343805606955381
    @example(([0.343805606955381, 0.0], [judgment(0.0), judgment(0.0)]))
    @example(([0.25, 0.75, 0.5, 0.6], [judgment(0.5, CB), judgment(0.5, NCB)] * 2))
    @example(([0.5, 0.2, 0.9], [judgment(2 / 15), judgment(8 / 15), judgment(1.0)]))
    @settings(max_examples=200, deadline=None)
    def test_every_metric_equals_the_loop(self, inputs):
        preds, truth = inputs
        got, want = evaluate(preds, truth), naive_evaluate(preds, truth)
        for field in dataclasses.fields(EvalReport):
            if field.name != "runtime_seconds":
                a, b = getattr(got, field.name), getattr(want, field.name)
                assert (type(a), a) == (type(b), b), field.name


class TestReportJson:
    def test_keys_and_order(self):
        report = EvalReport(
            mse=0.1, median_absolute_error=0.2, f1=0.3, precision=0.4,
            recall=0.5, accuracy=0.6, r2=0.7, runtime_seconds=0.01,
        )
        data = json.loads(report.to_json())
        assert list(data) == [
            "mean_squared_error", "median_absolute_error", "f1_score",
            "precision", "recall", "accuracy", "r2_score", "runtime",
        ]
        assert data["mean_squared_error"] == 0.1
        assert data["runtime"] == 0.01
