"""MSE loss, dropout masks, backpropagation through time, RMSprop, and the training loop.

Gradients are derived by reverse accumulation through the GRU recurrence;
`tests/gradcheck.py` checks them against central finite differences. The loop
trains in single precision; gradient checking runs the same code in double
precision.

Every per-token array a training step makes, the input dropout mask included,
holds real tokens only, in the packed order of `nn.pack_batch`.
"""

import csv
import math
from dataclasses import dataclass, field
from typing import IO

import numpy as np

from .errors import NumericError
from .ingest import LabeledDataset, PostRecord
from .metrics import fsum_of_squares
from .nn import (
    DropoutMasks,
    GruTape,
    Model,
    Packing,
    check_settings,
    copy_model,
    forward_batch,
    init_model,
    pack_batch,
    predict_batch,
)
from .rng import named_rng
from .text import PAD_ID, Vocabulary, encode, tokenize

CLIP_LIMIT = 5.0
# RMSprop's accumulator decay and denominator guard; the recipe fixes both
RMSPROP_RHO = 0.9
RMSPROP_EPSILON = 1e-8


@dataclass
class TrainConfig:
    """The recipe's settable values; `nn.check_settings` rules on those the
    checkpoint header records, `__post_init__` on the rest."""

    batch_size: int = 64
    learning_rate: float = 1e-3
    epochs: int = 20
    dropout_embed: float = 0.2
    dropout_gru_in: float = 0.2
    dropout_gru_out: float = 0.5
    d: int = 100
    h: int = 128
    max_len: int = 32
    seed: int = 0

    def __post_init__(self):
        check_settings(vars(self))
        for name, least in (("batch_size", 1), ("epochs", 0), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        lr = self.learning_rate
        if isinstance(lr, bool) or not isinstance(lr, (int, float)) or not 0 < lr < math.inf:
            raise ValueError(f"learning_rate must be a finite number > 0, got {lr!r}")


@dataclass
class RowSparseGrad:
    """Gradient of a (V, d) table that is exactly zero outside `rows`.

    values[i] is the gradient of row rows[i]; rows are unique and ascending.
    """

    rows: np.ndarray  # (k,) int
    values: np.ndarray  # (k, d)
    shape: tuple[int, ...]


@dataclass
class RmsPropState:
    """Squared-gradient accumulators, one per parameter array, created at first use.

    A row-sparse gradient updates only its rows' accumulators. Rows it skips
    saw g = 0, which decays the accumulator by rho and leaves the parameter
    unchanged, so the decay rho^k for the k skipped steps is applied when
    the row is next touched. `last_step[name][i]` is the step that last
    brought row i up to date; between its updates a row's entry in `acc` is
    stale. A parameter gets either sparse or dense gradients, never both.
    """

    acc: dict[str, np.ndarray] = field(default_factory=dict)
    last_step: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0


GradientSet = dict[str, "np.ndarray | RowSparseGrad"]


def make_dropout_masks(
    m: Model, cfg: TrainConfig, lengths: np.ndarray, width: int, rng: np.random.Generator
) -> DropoutMasks:
    """Inverted-dropout masks at `cfg`'s rates for rows of the given `lengths`,
    each cut to `width` steps; survivors scale by 1/(1-rate).

    The embedding draw is (N, d), one row per token in `pack_batch` order; the
    GRU-input draw is (B, d), one row per post shared by all its tokens (Gal &
    Ghahramani, arXiv:1512.05287). A rate of 0 draws nothing. Draw order:
    embedding, GRU input, output.
    """
    dtype = m["embedding"].dtype
    d, h = m["embedding"].shape[1], len(m["fwd.b_r"])
    rows = pack_batch(lengths, width).rows

    def keep(shape, rate: float) -> np.ndarray:
        return (rng.random(shape) >= rate).astype(dtype) / dtype.type(1.0 - rate)

    x = out = None
    if cfg.dropout_embed > 0.0:
        x = keep((len(rows), d), cfg.dropout_embed)
    if cfg.dropout_gru_in > 0.0:
        gru_in = keep((len(lengths), d), cfg.dropout_gru_in)[rows]
        x = gru_in if x is None else x * gru_in
    if cfg.dropout_gru_out > 0.0:
        out = keep((len(lengths), 2 * h), cfg.dropout_gru_out)
    return DropoutMasks(x=x, out=out)


def mse_loss(preds, targets) -> float:
    """Mean squared error, the differences taken in float64; exactly-rounded
    sum (`metrics.fsum_of_squares`), so example order never matters."""
    if not len(preds) or len(preds) != len(targets):
        raise ValueError(
            f"need equal, nonzero lengths, got {len(preds)} and {len(targets)}"
        )
    return fsum_of_squares(np.subtract(preds, targets, dtype=np.float64)) / len(preds)


def _gru_backward(m: Model, prefix: str, X, pack: Packing, tape: GruTape, dh, grads: GradientSet):
    """Reverse accumulation through packed direction `prefix`; sets its
    gradients in `grads` and returns dX (N, d) in the row order of `X` and
    `tape`.

    `dh` is the gradient of the final states (live rows, h) in sorted row
    order. Steps run from the last to step 0; the rows a step covers are a
    prefix of the sorted rows, so rows that are not reading at that step
    keep their dh untouched. The loop carries only the dh recurrence and
    turns each token's tape entries into its gate gradients (see `GruTape`);
    the weight gradients and dX are formed over all tokens at once after it.
    """
    U = np.stack([m[f"{prefix}.U_{gate}"] for gate in "hrz"])  # the tape's gate order
    dh = dh.copy()
    for t in reversed(range(len(pack.counts))):
        n = pack.counts[t]
        s = slice(pack.offsets[t], pack.offsets[t] + n)
        dh_t = dh[:n]
        g = tape.gates[:, s]
        uh, rz, c = g[0], g[1:3], g[3]
        # h = (1 - z) * h_prev + z * c
        # c = tanh(W_h x + r * uh + b_h), uh = U_h h_prev
        d_rz = np.empty_like(rz)  # dr, dz
        np.subtract(c, tape.h_prev[s], out=d_rz[1])
        d_rz[1] *= dh_t
        dc_da = c * c
        np.subtract(1.0, dc_da, out=dc_da)
        np.multiply(dh_t, g[2], out=c)
        c *= dc_da  # d a_c
        np.multiply(c, uh, out=d_rz[0])
        np.multiply(c, g[1], out=uh)  # d uh
        one_minus = 1.0 - rz
        # dr, dz -> d a_r, d a_z through the sigmoid
        rz *= d_rz
        rz *= one_minus
        if t:  # dh_t becomes the gradient of h_prev; step 0's is the zero start's, unused
            dh_t *= one_minus[1]
            dh_t += np.matmul(g[:3], U).sum(axis=0)
    G = tape.gates
    k = len(dh)  # step 0's packed rows, one per live row; their h_prev is zero
    dW = _token_sum(G[1:], X)
    dU = _token_sum(G[:3, k:], tape.h_prev[k:])
    db = G[1:].sum(axis=1)
    for i, gate in enumerate("rzh"):
        grads[f"{prefix}.W_{gate}"] = dW[i]
        grads[f"{prefix}.b_{gate}"] = db[i]
    for i, gate in enumerate("hrz"):
        grads[f"{prefix}.U_{gate}"] = dU[i]
    dX = G[3] @ m[f"{prefix}.W_h"]
    dX += G[1] @ m[f"{prefix}.W_r"]
    dX += G[2] @ m[f"{prefix}.W_z"]
    return dX


def _token_sum(G, X):
    """G[i].T @ X for each gate of the (3, n, h) `G` and the (n, d) `X`, as two
    GEMMs split at the last multiple of 64 tokens: OpenBLAS sums other token
    counts in an order that depends on its thread count."""
    cut = len(X) - len(X) % 64
    out = np.matmul(G[:, :cut].transpose(0, 2, 1), X[:cut])
    out += np.matmul(G[:, cut:].transpose(0, 2, 1), X[cut:])
    return out


def _embedding_grad(tokens, dX, vocab_size: int) -> RowSparseGrad:
    """Row-sparse gradient of the embedding table: dX summed per token id,
    each id's rows added in packed order."""
    by_id = np.argsort(tokens, kind="stable")
    sorted_ids = tokens[by_id]
    starts = np.flatnonzero(np.diff(sorted_ids, prepend=-1))
    return RowSparseGrad(
        rows=sorted_ids[starts],
        values=np.add.reduceat(dX[by_id], starts, axis=0),
        shape=(vocab_size, dX.shape[1]),
    )


def backprop(
    m: Model,
    ids: np.ndarray,
    lengths: np.ndarray,
    targets: np.ndarray,
    masks: DropoutMasks | None = None,
) -> tuple[float, GradientSet]:
    """Batch MSE and its exact gradient for every parameter array.

    The batch is a (B, T) id array, its (B,) lengths and its (B,) float
    targets, as `encode_dataset` returns them; `masks` None is no dropout.
    Gradients are accumulated over the batch and not clipped; `rmsprop_update`
    clips them.
    """
    if len(ids) == 0:
        raise ValueError("batch must be non-empty")
    masks = masks or DropoutMasks()
    preds, cache = forward_batch(m, ids, lengths, masks)
    loss = mse_loss(preds, targets)

    grads: GradientSet = dict.fromkeys(m)
    h = len(m["fwd.b_r"])
    B = len(ids)
    pack = cache.pack

    dp = (2.0 / B) * (preds - targets.astype(preds.dtype))
    da = dp * preds * (1.0 - preds)
    grads["head.w"] = da @ cache.u_drop
    grads["head.b"] = da.sum(keepdims=True)
    du = np.outer(da, m["head.w"])
    if masks.out is not None:
        du = du * masks.out
    du = du[pack.live]
    dX = _gru_backward(m, "fwd", cache.X, pack, cache.fwd, du[:, :h], grads)
    dX[pack.flip] += _gru_backward(m, "bwd", cache.X[pack.flip], pack, cache.bwd, du[:, h:], grads)

    if masks.x is not None:
        dX *= masks.x
    grads["embedding"] = _embedding_grad(cache.tokens, dX, len(m["embedding"]))

    # a row-sparse gradient is zero off its rows, so its values are all there is to check
    stored = {name: g.values if isinstance(g, RowSparseGrad) else g for name, g in grads.items()}
    if not math.isfinite(loss):
        raise NumericError(f"non-finite loss: {_first_nonfinite(m, stored)}")
    for name, g in stored.items():
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient in {name}")
    return loss, grads


def _first_nonfinite(params: Model, grads: GradientSet) -> str:
    for name, arr in params.items():
        if not np.all(np.isfinite(arr)):
            return f"parameter {name} contains non-finite values"
    for name, arr in grads.items():
        if not np.all(np.isfinite(arr)):
            return f"gradient for {name} contains non-finite values"
    return "parameters and gradients are finite (loss overflow)"


def rmsprop_update(
    params: dict[str, np.ndarray],
    grads: GradientSet,
    state: RmsPropState,
    cfg: TrainConfig,
) -> None:
    """In-place RMSprop step: acc <- rho*acc + (1-rho)*g^2, p <- p - lr*g/(sqrt(acc)+eps),
    with rho `RMSPROP_RHO`, eps `RMSPROP_EPSILON` and lr `cfg.learning_rate`.

    Each gradient element is first clipped, in place, to [-CLIP_LIMIT,
    CLIP_LIMIT], as Keras's `clipvalue` does. A `RowSparseGrad` updates its
    rows only, decaying each row's accumulator for the steps it skipped (see
    `RmsPropState`); in exact arithmetic that equals the dense step on the
    densified gradient.
    """
    state.step += 1
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != param shape {p.shape} for {name}")
        acc = state.acc.get(name)
        if acc is None:
            acc = state.acc[name] = np.zeros_like(p)
        if isinstance(g, RowSparseGrad):
            last = state.last_step.get(name)
            if last is None:
                last = state.last_step[name] = np.full(p.shape[0], state.step - 1)
            rows, g = g.rows, g.values
            np.clip(g, -CLIP_LIMIT, CLIP_LIMIT, out=g)
            elapsed = state.step - last[rows]
            last[rows] = state.step
            a = acc[rows]
            a *= (RMSPROP_RHO ** elapsed).reshape((-1,) + (1,) * (p.ndim - 1))
            a += (1.0 - RMSPROP_RHO) * g * g
            acc[rows] = a
            p[rows] -= cfg.learning_rate * g / (np.sqrt(a) + RMSPROP_EPSILON)
            continue
        np.clip(g, -CLIP_LIMIT, CLIP_LIMIT, out=g)
        acc *= RMSPROP_RHO
        acc += (1.0 - RMSPROP_RHO) * g * g
        p -= cfg.learning_rate * g / (np.sqrt(acc) + RMSPROP_EPSILON)


def encode_posts(
    records: list[PostRecord], vocab: Vocabulary, max_len: int
) -> tuple[np.ndarray, np.ndarray]:
    """The posts' texts as (N, max_len) int32 ids, PAD past each post's first
    max_len tokens, and their (N,) token counts, in record order."""
    ids = np.full((len(records), max_len), PAD_ID, dtype=np.int32)
    lengths = np.empty(len(records), dtype=np.int64)
    for i, record in enumerate(records):
        row = encode(tokenize(record.text), vocab, max_len)
        ids[i, : len(row)] = row
        lengths[i] = len(row)
    return ids, lengths


def encode_dataset(
    ds: LabeledDataset, vocab: Vocabulary, max_len: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`encode_posts` of the dataset's posts plus their (N,) float64
    judgment-mean targets, in dataset order."""
    ids, lengths = encode_posts([record for record, _ in ds], vocab, max_len)
    return ids, lengths, np.array([judgment.mean for _, judgment in ds], dtype=np.float64)


@dataclass
class EpochStats:
    """One epoch's losses. `train_mse` at epoch 0 is the untrained model's
    MSE on the training posts; from epoch 1 on it is the epoch's loss as it
    was trained: its batch MSEs, dropout on and each at that step's weights,
    weighted by batch size. `valid_mse` is always the end-of-epoch model's
    MSE on the validation posts, and alone chooses the returned model."""

    epoch: int
    train_mse: float
    valid_mse: float


def fit(
    train: LabeledDataset,
    valid: LabeledDataset,
    cfg: TrainConfig,
    vocab: Vocabulary,
    embeddings: np.ndarray,
) -> tuple[Model, list[EpochStats]]:
    """Mini-batch training of a model around the (V, d) `embeddings`, in place;
    returns a separate snapshot of the model from the best-validation epoch.

    Epoch 0 in the history is the untrained model, so the checkpointing rule
    (return the minimum-validation-MSE state) can never hand back something
    worse than the initialization.
    """
    if len(train) == 0 or len(valid) == 0:
        raise ValueError("train and valid datasets must be non-empty")
    if embeddings.shape[1] != cfg.d:
        raise ValueError(f"embedding dim {embeddings.shape[1]} != configured d {cfg.d}")

    train_ids, train_lengths, train_targets = encode_dataset(train, vocab, cfg.max_len)
    valid_ids, valid_lengths, valid_targets = encode_dataset(valid, vocab, cfg.max_len)

    model = init_model(embeddings, cfg.h, cfg.seed)
    shuffle_rng = named_rng(cfg.seed, "shuffle")
    dropout_rng = named_rng(cfg.seed, "dropout")
    opt_state = RmsPropState()

    def checkpoint_row(epoch: int, train_mse: float) -> EpochStats:
        valid_mse = mse_loss(predict_batch(model, valid_ids, valid_lengths), valid_targets)
        if not math.isfinite(valid_mse):
            raise NumericError(f"validation MSE non-finite at epoch {epoch}: {valid_mse}")
        return EpochStats(epoch, train_mse, valid_mse)

    history = [
        checkpoint_row(0, mse_loss(predict_batch(model, train_ids, train_lengths), train_targets))
    ]
    best = copy_model(model)

    n = len(train_ids)
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(n)
        batch_sums = []
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            masks = make_dropout_masks(model, cfg, train_lengths[batch], cfg.max_len, dropout_rng)
            loss, grads = backprop(
                model, train_ids[batch], train_lengths[batch], train_targets[batch], masks=masks
            )
            batch_sums.append(loss * len(batch))
            rmsprop_update(model, grads, opt_state, cfg)
        row = checkpoint_row(epoch, math.fsum(batch_sums) / n)
        if row.valid_mse < min(r.valid_mse for r in history):
            for name, arr in model.items():
                np.copyto(best[name], arr)
        history.append(row)
    return best, history


def write_history(history: list[EpochStats], out: IO[str]) -> None:
    """`history` as CSV rows `epoch,train_mse,valid_mse`, floats as their repr;
    the columns mean what the `EpochStats` fields of the same names do."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["epoch", "train_mse", "valid_mse"])
    for row in history:
        writer.writerow([row.epoch, repr(row.train_mse), repr(row.valid_mse)])
