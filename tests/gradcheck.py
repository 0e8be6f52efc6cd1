"""Finite-difference and complex-step checks of `train.backprop`'s gradients.

`grad_check` compares every analytic gradient element with a central
difference of the batch loss. `complex_step_check` compares it with the
complex-step derivative, Im loss(x + ih) / h, which subtracts nothing and so
gives the derivative to rounding at any tiny h (Squire & Trapp, SIAM Review
1998; Martins, Sturdza & Alonso, ACM TOMS 2003). That needs every op on the
forward path to be analytic: `abs`, `maximum` or `clip` on values would break
it. Both take one forward pass per element, so they run on tiny models;
`directional_complex_step_check` takes one per array, Im loss(x + ihv) / h
against the gradient's inner product with v, and so runs at paper scale.
`dense` turns a row-sparse embedding gradient into the full (V, d) array it
stands for, so tests can compare it whole.
"""

from dataclasses import dataclass

import numpy as np

from clickbait_gru.nn import DropoutMasks, Model, forward_batch
from clickbait_gru.train import RowSparseGrad, backprop, mse_loss

# h: the real part of loss(x + ih) differs from loss(x) by O(h^2), far below rounding
COMPLEX_STEP = 1e-30


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

    Requires a double-precision model. Both sides run without dropout, and
    `backprop` does not clip, so they see the raw derivative. Relative error per
    element is |a - n| / max(|a|, |n|, 1e-6); the floor must sit well above the
    cancellation noise of the difference quotient (about 1e-11 for unit-scale
    losses at this step), or near-zero derivatives fail on noise alone.
    """
    if m["embedding"].dtype != np.float64:
        raise ValueError("grad_check needs a float64 model")

    def batch_loss() -> float:
        preds, _ = forward_batch(m, ids, lengths)
        return mse_loss(preds, targets)

    _, analytic = backprop(m, ids, lengths, targets)
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


def complex_step_gradient(
    m: Model,
    ids: np.ndarray,
    lengths: np.ndarray,
    targets: np.ndarray,
    masks: DropoutMasks | None = None,
) -> dict[str, np.ndarray]:
    """d loss / d element for every element of `m`, as Im loss(x + ih) / h
    with h = COMPLEX_STEP.

    `forward_batch` runs on a complex128 copy of the model; the loss is the
    batch MSE taken in complex arithmetic (`mse_loss` sums reals only).
    """
    cm = {name: arr.astype(np.complex128) for name, arr in m.items()}
    grads = {}
    for name, arr in cm.items():
        flat = arr.reshape(-1)
        g = np.empty(flat.size)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + 1j * COMPLEX_STEP
            preds, _ = forward_batch(cm, ids, lengths, masks=masks)
            g[i] = np.mean((preds - targets) ** 2).imag / COMPLEX_STEP
            flat[i] = saved
        grads[name] = g.reshape(arr.shape)
    return grads


def complex_step_check(
    m: Model,
    ids: np.ndarray,
    lengths: np.ndarray,
    targets: np.ndarray,
    masks: DropoutMasks | None = None,
    tolerance: float = 1e-8,
) -> GradCheckReport:
    """Compare `backprop`'s gradients, under `masks`, to complex-step
    derivatives, element by element, with `grad_check`'s relative error."""
    if m["embedding"].dtype != np.float64:
        raise ValueError("complex_step_check needs a float64 model")
    numeric = complex_step_gradient(m, ids, lengths, targets, masks)
    _, analytic = backprop(m, ids, lengths, targets, masks=masks)
    per_array = {}
    for name, n in numeric.items():
        a = dense(analytic[name])
        rel = np.abs(a - n) / np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
        per_array[name] = float(rel.max())
    return GradCheckReport(per_array=per_array, tolerance=tolerance)


def directional_complex_step_check(
    m: Model,
    ids: np.ndarray,
    lengths: np.ndarray,
    targets: np.ndarray,
    masks: DropoutMasks | None = None,
    tolerance: float = 1e-10,
    seed: int = 0,
    analytic: dict | None = None,
) -> GradCheckReport:
    """Compare, per array, the inner product of `backprop`'s gradient (or of
    `analytic`, when given) with a random direction v, standard normal per
    element and drawn from `seed`, to the directional complex-step
    derivative Im loss(x + ihv) / h. The relative error is
    |a - n| / max(|a|, |n|), and 0 when both are 0."""
    if m["embedding"].dtype != np.float64:
        raise ValueError("directional_complex_step_check needs a float64 model")
    if analytic is None:
        _, analytic = backprop(m, ids, lengths, targets, masks=masks)
    rng = np.random.default_rng(seed)
    cm = {name: arr.astype(np.complex128) for name, arr in m.items()}
    per_array = {}
    for name, arr in m.items():
        v = rng.standard_normal(arr.shape)
        cm[name] = arr + 1j * COMPLEX_STEP * v
        preds, _ = forward_batch(cm, ids, lengths, masks=masks)
        cm[name] = arr.astype(np.complex128)
        n = np.mean((preds - targets) ** 2).imag / COMPLEX_STEP
        a = float(np.vdot(dense(analytic[name]), v))
        per_array[name] = abs(a - n) / max(abs(a), abs(n), np.finfo(np.float64).tiny)
    return GradCheckReport(per_array=per_array, tolerance=tolerance)
