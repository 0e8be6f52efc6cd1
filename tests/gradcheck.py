"""Finite-difference check of `train.backprop`'s gradients.

`grad_check` compares every analytic gradient element with a central
difference of the batch loss. `dense` turns a row-sparse embedding gradient
into the full (V, d) array it stands for, so tests can compare it whole.
"""

from dataclasses import dataclass

import numpy as np

from clickbait_gru.nn import Model, forward_batch
from clickbait_gru.train import RowSparseGrad, backprop, mse_loss


def dense(g) -> np.ndarray:
    """The gradient `g` as a dense array: a `RowSparseGrad` is zero off its rows."""
    if not isinstance(g, RowSparseGrad):
        return np.asarray(g)
    out = np.zeros(g.shape, dtype=g.values.dtype)
    out[g.rows] = g.values
    return out


@dataclass
class GradCheckReport:
    per_array: dict[str, float]
    tolerance: float

    @property
    def max_rel_error(self) -> float:
        return max(self.per_array.values())

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def grad_check(
    m: Model,
    ids: np.ndarray,
    lengths: np.ndarray,
    targets: np.ndarray,
    tolerance: float = 1e-4,
    step: float = 1e-5,
) -> GradCheckReport:
    """Compare analytic gradients to central differences, element by element.

    Requires a double-precision model. Both sides run without dropout and
    without clipping, so they see the raw derivative. Relative error per
    element is |a - n| / max(|a|, |n|, 1e-6); the floor must sit well above the
    cancellation noise of the difference quotient (about 1e-11 for unit-scale
    losses at this step), or near-zero derivatives fail on noise alone.
    """
    if m["embedding"].dtype != np.float64:
        raise ValueError("grad_check needs a float64 model")

    def batch_loss() -> float:
        preds, _ = forward_batch(m, ids, lengths)
        return mse_loss(preds, targets)

    _, analytic = backprop(m, ids, lengths, targets, clip=None)
    per_array: dict[str, float] = {}
    for name, arr in m.items():
        worst = 0.0
        flat = arr.reshape(-1)
        a_flat = dense(analytic[name]).reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + step
            plus = batch_loss()
            flat[i] = saved - step
            minus = batch_loss()
            flat[i] = saved
            numeric = (plus - minus) / (2.0 * step)
            a = float(a_flat[i])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
            worst = max(worst, rel)
        per_array[name] = worst
    return GradCheckReport(per_array=per_array, tolerance=tolerance)
