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
from .ingest import TEXT_FIELDS, LabeledDataset, PostRecord
from .nn import (
    MAX_LEN_LIMIT,
    WIDTH_LIMIT,
    DropoutMasks,
    GruTape,
    Model,
    Packing,
    copy_model,
    forward_batch,
    init_model,
    pack_batch,
    predict_batch,
)
from .rng import named_rng
from .text import PAD_ID, Vocabulary, encode, tokenize

CLIP_LIMIT = 5.0
INT_FIELDS = ("batch_size", "epochs", "d", "h", "max_len", "seed")
FLOAT_FIELDS = (
    "learning_rate", "rho", "epsilon", "dropout_embed", "dropout_gru_in", "dropout_gru_out",
)


@dataclass
class TrainConfig:
    batch_size: int = 64
    learning_rate: float = 1e-3
    rho: float = 0.9
    epsilon: float = 1e-8
    epochs: int = 20
    dropout_embed: float = 0.2
    dropout_gru_in: float = 0.2
    dropout_gru_out: float = 0.5
    d: int = 100
    h: int = 128
    max_len: int = 32
    seed: int = 0
    text_field: str = "postText"

    def __post_init__(self):
        for name in INT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in FLOAT_FIELDS:
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        for name in ("batch_size", "d", "h", "max_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name, limit in (("d", WIDTH_LIMIT), ("h", WIDTH_LIMIT), ("max_len", MAX_LEN_LIMIT)):
            if getattr(self, name) > limit:
                raise ValueError(f"{name} must be <= {limit}, got {getattr(self, name)}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must be in [0, 1), got {self.rho}")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("dropout_embed", "dropout_gru_in", "dropout_gru_out"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {rate}")
        if self.text_field not in TEXT_FIELDS:
            raise ValueError(
                f"text_field must be one of {TEXT_FIELDS}, got {self.text_field!r}"
            )


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
    """Mean squared error; exactly-rounded sum, so example order never matters."""
    preds = list(preds)
    targets = list(targets)
    if not preds or len(preds) != len(targets):
        raise ValueError(
            f"need equal, nonzero lengths, got {len(preds)} and {len(targets)}"
        )
    return math.fsum((p - t) ** 2 for p, t in zip(preds, targets)) / len(preds)


def _gru_backward(m: Model, prefix: str, X, pack: Packing, tape: GruTape, dh, reverse: bool,
                  grads: GradientSet):
    """Reverse accumulation through packed direction `prefix`; sets its
    gradients in `grads` and returns dX (N, d).

    `dh` is the gradient of the final states (live rows, h) in sorted row
    order. Steps run in the reverse of the forward pass's order; the rows a
    step covers are a prefix of the sorted rows, so rows that are not
    reading at that step keep their dh untouched. The loop carries only the
    dh recurrence and turns each token's tape entries into its gate
    gradients (see `GruTape`); the weight gradients and dX are formed over
    all tokens at once after it.
    """
    U = np.stack([m[f"{prefix}.U_{gate}"] for gate in "hrz"])  # the tape's gate order
    dh = dh.copy()
    order = range(len(pack.counts))
    for t in order if reverse else reversed(order):
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
        dh_t *= one_minus[1]
        # dr, dz -> d a_r, d a_z through the sigmoid
        rz *= d_rz
        rz *= one_minus
        # dh_t becomes the gradient of h_prev
        dh_t += np.matmul(g[:3], U).sum(axis=0)
    G = tape.gates
    dW = np.matmul(G[1:].transpose(0, 2, 1), X)
    dU = np.matmul(G[:3].transpose(0, 2, 1), tape.h_prev)
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
    dX = _gru_backward(m, "fwd", cache.X, pack, cache.fwd, du[:, :h], False, grads)
    dX += _gru_backward(m, "bwd", cache.X, pack, cache.bwd, du[:, h:], True, grads)

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
    """In-place RMSprop step: acc <- rho*acc + (1-rho)*g^2, p <- p - lr*g/(sqrt(acc)+eps).

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
            a *= (cfg.rho ** elapsed).reshape((-1,) + (1,) * (p.ndim - 1))
            a += (1.0 - cfg.rho) * g * g
            acc[rows] = a
            p[rows] -= cfg.learning_rate * g / (np.sqrt(a) + cfg.epsilon)
            continue
        np.clip(g, -CLIP_LIMIT, CLIP_LIMIT, out=g)
        acc *= cfg.rho
        acc += (1.0 - cfg.rho) * g * g
        p -= cfg.learning_rate * g / (np.sqrt(acc) + cfg.epsilon)


def encode_posts(
    records: list[PostRecord], vocab: Vocabulary, max_len: int, text_field: str
) -> tuple[np.ndarray, np.ndarray]:
    """The posts' `text_field` as (N, max_len) int32 ids, PAD past each post's
    first max_len tokens, and their (N,) token counts, in record order."""
    ids = np.full((len(records), max_len), PAD_ID, dtype=np.int32)
    lengths = np.empty(len(records), dtype=np.int64)
    for i, record in enumerate(records):
        row = encode(tokenize(record.field_text(text_field)), vocab, max_len)
        ids[i, : len(row)] = row
        lengths[i] = len(row)
    return ids, lengths


def encode_dataset(
    ds: LabeledDataset, vocab: Vocabulary, max_len: int, text_field: str = "postText"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`encode_posts` of the dataset's posts plus their (N,) float64
    judgment-mean targets, in dataset order."""
    ids, lengths = encode_posts([record for record, _ in ds], vocab, max_len, text_field)
    return ids, lengths, np.array([judgment.mean for _, judgment in ds], dtype=np.float64)


@dataclass
class EpochStats:
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
    """Mini-batch training from the (V, d) `embeddings`; returns the model
    from the best-validation epoch.

    Epoch 0 in the history is the untrained model, so the checkpointing rule
    (return the minimum-validation-MSE state) can never hand back something
    worse than the initialization.
    """
    if len(train) == 0 or len(valid) == 0:
        raise ValueError("train and valid datasets must be non-empty")
    if embeddings.shape[1] != cfg.d:
        raise ValueError(f"embedding dim {embeddings.shape[1]} != configured d {cfg.d}")

    train_ids, train_lengths, train_targets = encode_dataset(
        train, vocab, cfg.max_len, cfg.text_field
    )
    valid_ids, valid_lengths, valid_targets = encode_dataset(
        valid, vocab, cfg.max_len, cfg.text_field
    )

    # train on a private copy: updates must never leak into the caller's table
    model = init_model(embeddings.copy(), cfg.h, cfg.seed)
    shuffle_rng = named_rng(cfg.seed, "shuffle")
    dropout_rng = named_rng(cfg.seed, "dropout")
    opt_state = RmsPropState()

    def checkpoint_row(epoch: int) -> EpochStats:
        row = EpochStats(
            epoch,
            mse_loss(predict_batch(model, train_ids, train_lengths), train_targets),
            mse_loss(predict_batch(model, valid_ids, valid_lengths), valid_targets),
        )
        if not math.isfinite(row.valid_mse):
            raise NumericError(f"validation MSE non-finite at epoch {epoch}: {row.valid_mse}")
        return row

    history = [checkpoint_row(0)]
    best = copy_model(model)
    best_valid = history[0].valid_mse

    n = len(train_ids)
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            masks = make_dropout_masks(model, cfg, train_lengths[batch], cfg.max_len, dropout_rng)
            _, grads = backprop(
                model, train_ids[batch], train_lengths[batch], train_targets[batch], masks=masks
            )
            rmsprop_update(model, grads, opt_state, cfg)
        row = checkpoint_row(epoch)
        history.append(row)
        if row.valid_mse < best_valid:
            best_valid = row.valid_mse
            best = copy_model(model)
    return best, history


def write_history(history: list[EpochStats], out: IO[str]) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["epoch", "train_mse", "valid_mse"])
    for row in history:
        writer.writerow([row.epoch, repr(row.train_mse), repr(row.valid_mse)])
