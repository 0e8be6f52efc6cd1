"""Bidirectional GRU score regressor.

One GRU reads the token sequence left to right, a second reads it right to
left, and the final state of each direction is concatenated and fed to a
single sigmoid unit. All forward code here is shared by inference and by the
manual backward pass in `train`.

Gate algebra per step (elementwise *):

    r = sigmoid(W_r x + U_r h_prev + b_r)
    z = sigmoid(W_z x + U_z h_prev + b_z)
    c = tanh(W_h x + r * (U_h h_prev) + b_h)
    h = (1 - z) * h_prev + z * c

The new state is a convex combination of h_prev and c, so states stay in
[-1, 1] from a zero start.

Batches run packed and time-major (`pack_batch`): rows are stable-sorted by
length, longest first, so the rows still reading at step t are a prefix of
that order, and each real token owns one packed row. A step projects only
those rows, with the three gates stacked per call into one input and one
recurrent weight stack (`stack_gates`), so it costs two matmul calls and no
PAD work. `GruParams` keeps the nine named arrays that checkpoints store.
"""

import copy
import json
import struct
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from .errors import DataError
from .ingest import TEXT_FIELDS
from .rng import named_rng
from .text import EmbeddingTable, Vocabulary

CHECKPOINT_MAGIC = b"CBGRUCKPT1\n"
CHECKPOINT_FORMAT = "cbgru-checkpoint"
CHECKPOINT_VERSION = 1
HEADER_KEYS = (
    "d", "h", "max_len", "text_field", "dropout_embed", "dropout_gru_in", "dropout_gru_out",
    "trainable_embedding", "vocab_tokens", "arrays",
)
# a header is the vocabulary plus about 2 KiB; a corrupt length must not size a read
MAX_HEADER_BYTES = 1 << 28


def sigmoid(x):
    # exp overflow for very negative x saturates to inf, giving the exact limit 0
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


@dataclass
class GruParams:
    """Weights of one GRU direction: input, recurrent, and bias per gate."""

    W_r: np.ndarray
    W_z: np.ndarray
    W_h: np.ndarray
    U_r: np.ndarray
    U_z: np.ndarray
    U_h: np.ndarray
    b_r: np.ndarray
    b_z: np.ndarray
    b_h: np.ndarray

    @property
    def h(self) -> int:
        return int(self.W_r.shape[0])


@dataclass
class DenseSigmoid:
    w: np.ndarray
    b: np.ndarray  # shape (1,)


@dataclass
class Model:
    embedding: EmbeddingTable
    fwd: GruParams
    bwd: GruParams
    head: DenseSigmoid
    dropout_embed: float = 0.0
    dropout_gru_in: float = 0.0
    dropout_gru_out: float = 0.0

    @property
    def d(self) -> int:
        return self.embedding.d

    @property
    def h(self) -> int:
        return self.fwd.h

    @property
    def dtype(self):
        return self.embedding.matrix.dtype


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)


def init_gru_params(d: int, h: int, rng: np.random.Generator, dtype=np.float32) -> GruParams:
    """Input matrices uniform +-sqrt(6/(d+h)), recurrent matrices orthogonal, zero biases."""
    scale = np.sqrt(6.0 / (d + h))

    def w():
        return rng.uniform(-scale, scale, size=(h, d)).astype(dtype)

    def u():
        return _orthogonal(rng, h).astype(dtype)

    return GruParams(
        W_r=w(), W_z=w(), W_h=w(),
        U_r=u(), U_z=u(), U_h=u(),
        b_r=np.zeros(h, dtype=dtype),
        b_z=np.zeros(h, dtype=dtype),
        b_h=np.zeros(h, dtype=dtype),
    )


def init_model(
    embedding: EmbeddingTable,
    h: int,
    seed: int,
    dropout_embed: float = 0.0,
    dropout_gru_in: float = 0.0,
    dropout_gru_out: float = 0.0,
) -> Model:
    for rate in (dropout_embed, dropout_gru_in, dropout_gru_out):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    dtype = embedding.matrix.dtype
    d = embedding.d
    rng = named_rng(seed, "init")
    fwd = init_gru_params(d, h, rng, dtype)
    bwd = init_gru_params(d, h, rng, dtype)
    head_scale = np.sqrt(6.0 / (2 * h + 1))
    head = DenseSigmoid(
        w=rng.uniform(-head_scale, head_scale, size=2 * h).astype(dtype),
        b=np.zeros(1, dtype=dtype),
    )
    return Model(
        embedding=embedding,
        fwd=fwd,
        bwd=bwd,
        head=head,
        dropout_embed=dropout_embed,
        dropout_gru_in=dropout_gru_in,
        dropout_gru_out=dropout_gru_out,
    )


GRU_FIELDS = ("W_r", "W_z", "W_h", "U_r", "U_z", "U_h", "b_r", "b_z", "b_h")


def parameter_arrays(m: Model) -> dict[str, np.ndarray]:
    """Learnable arrays by stable name; the optimizer and checkpoints key off these."""
    params = {"embedding": m.embedding.matrix}
    for prefix, gru in (("fwd", m.fwd), ("bwd", m.bwd)):
        for name in GRU_FIELDS:
            params[f"{prefix}.{name}"] = getattr(gru, name)
    params["head.w"] = m.head.w
    params["head.b"] = m.head.b
    return params


# --- forward ------------------------------------------------------------------


def inverted_dropout_mask(shape, rate: float, rng: np.random.Generator, dtype) -> np.ndarray:
    """Keep mask scaled by 1/(1-rate) so expectations match inference."""
    keep = rng.random(shape) >= rate
    return keep.astype(dtype) / dtype.type(1.0 - rate)


@dataclass
class DropoutMasks:
    """Pre-drawn inverted-dropout masks for one batch; any entry may be None."""

    embed: np.ndarray | None = None  # (B, T, d)
    gru_in: np.ndarray | None = None  # (B, 1, d), shared across timesteps
    out: np.ndarray | None = None  # (B, 2h)


def make_dropout_masks(m: Model, batch_size: int, max_len: int, rng: np.random.Generator) -> DropoutMasks:
    dtype = m.dtype
    embed = gru_in = out = None
    if m.dropout_embed > 0.0:
        embed = inverted_dropout_mask((batch_size, max_len, m.d), m.dropout_embed, rng, dtype)
    if m.dropout_gru_in > 0.0:
        gru_in = inverted_dropout_mask((batch_size, 1, m.d), m.dropout_gru_in, rng, dtype)
    if m.dropout_gru_out > 0.0:
        out = inverted_dropout_mask((batch_size, 2 * m.h), m.dropout_gru_out, rng, dtype)
    return DropoutMasks(embed=embed, gru_in=gru_in, out=out)


def stack_gates(p: GruParams):
    """One direction's gates stacked on a leading gate axis for batched GEMMs.

    Returns W (3, d, h) holding W_r, W_z, W_h transposed, U (3, h, h)
    holding U_h, U_r, U_z transposed, and b (3, 1, h) holding b_r, b_z,
    b_h. x @ W and h_prev @ U are then one matmul each, with every gate's
    result a contiguous block; U's gate order is that of `GruTape.gates`.
    """
    return (
        np.stack([p.W_r.T, p.W_z.T, p.W_h.T]),
        np.stack([p.U_h.T, p.U_r.T, p.U_z.T]),
        np.stack([p.b_r, p.b_z, p.b_h])[:, None, :],
    )


@dataclass
class Packing:
    """Time-major packed layout of the real tokens of a (B, T) id batch.

    Sorted row i is batch row order[i]; rows are stable-sorted by length,
    longest first. Step t covers sorted rows 0..counts[t]-1 (the rows longer
    than t) and owns packed rows offsets[t] .. offsets[t] + counts[t]. Packed
    row k holds position steps[k] of batch row rows[k].
    """

    order: np.ndarray  # (B,) batch row of each sorted row
    counts: list[int]  # per step t < longest length
    offsets: list[int]  # len(counts) + 1 entries; the last is the token count
    rows: np.ndarray  # (N,) batch row of each packed token
    steps: np.ndarray  # (N,) position of each packed token

    @property
    def live(self) -> np.ndarray:
        """Batch rows with at least one token, in sorted order."""
        return self.order[: self.counts[0]] if self.counts else self.order[:0]


def pack_batch(lengths: np.ndarray, width: int) -> Packing:
    """Packing for rows of the given lengths, each cut to `width` steps."""
    lengths = np.clip(np.asarray(lengths), 0, width)
    order = np.argsort(-lengths, kind="stable")
    sorted_len = lengths[order]
    longest = int(sorted_len[0]) if sorted_len.size else 0
    active = sorted_len[None, :] > np.arange(longest)[:, None]  # (steps, B)
    steps, sorted_rows = np.nonzero(active)  # row-major: time-major packing
    counts = active.sum(axis=1)
    return Packing(
        order=order,
        counts=counts.tolist(),
        offsets=[0, *np.cumsum(counts).tolist()],
        rows=order[sorted_rows],
        steps=steps,
    )


@dataclass
class GruTape:
    """Per-token values of one direction that BPTT reads back, in packed rows.

    `gates` holds U_h h_prev, r, z and c for every token, one (N, h) block
    per gate. The backward pass overwrites the blocks with the gradients
    d(U_h h_prev), d a_r, d a_z and d a_c, a being the gate pre-activations.
    """

    h_prev: np.ndarray  # (N, h) state entering the step
    gates: np.ndarray  # (4, N, h)

    @classmethod
    def empty(cls, n: int, h: int, dtype) -> "GruTape":
        return cls(h_prev=np.empty((n, h), dtype=dtype), gates=np.empty((4, n, h), dtype=dtype))


@dataclass
class ForwardCache:
    """What the backward pass reuses from one batched forward run.

    Token-level arrays are in the packed time-major order of `pack`; only
    real tokens are stored, never PAD positions. The predictions and the
    dropout masks are not kept: `backprop` holds both already.
    """

    pack: Packing
    tokens: np.ndarray  # (N,) embedding row of each packed token
    X: np.ndarray  # (N, d) packed inputs after input dropout
    fwd: GruTape
    bwd: GruTape
    u_drop: np.ndarray  # (B, 2h) summary after output dropout


def _run_gru_batch(p: GruParams, X, pack: Packing, reverse: bool, tape: GruTape | None):
    """Final states (live rows, h) of one direction, in sorted row order.

    The forward direction starts every live row at step 0; the reverse one
    starts a row at step length - 1. Either way the rows a step updates are
    a prefix of the sorted rows, so `h` is updated in place on that prefix.
    Fills `tape` when given; without one, each step's gates reuse the front
    rows of one step-sized buffer.
    """
    W, U, b = stack_gates(p)
    h = np.zeros((len(pack.live), p.h), dtype=X.dtype)
    gates = tape.gates if tape is not None else np.empty((4, len(h), p.h), dtype=X.dtype)
    order = range(len(pack.counts))
    # exp overflow for very negative pre-activations saturates the gate to exactly 0
    with np.errstate(over="ignore"):
        for t in reversed(order) if reverse else order:
            n = pack.counts[t]
            s = slice(pack.offsets[t], pack.offsets[t] + n)
            g = gates[:, s] if tape is not None else gates[:, :n]
            h_prev = h[:n]
            np.matmul(h_prev, U, out=g[:3])  # U_h h, U_r h, U_z h
            a = X[s] @ W
            rz = g[1:3]
            rz += a[:2]
            rz += b[:2]
            # rz = sigmoid(rz), in place
            np.negative(rz, out=rz)
            np.exp(rz, out=rz)
            rz += 1.0
            np.reciprocal(rz, out=rz)
            c = g[3]
            np.multiply(g[1], g[0], out=c)
            c += a[2]
            c += b[2]
            np.tanh(c, out=c)
            if tape is not None:
                tape.h_prev[s] = h_prev
            # h = (1 - z) * h_prev + z * c, written over h_prev
            z = g[2]
            keep = 1.0 - z
            keep *= h_prev
            np.multiply(z, c, out=h_prev)
            h_prev += keep
    return h


def forward_batch(
    m: Model,
    ids: np.ndarray,
    lengths: np.ndarray,
    masks: DropoutMasks | None = None,
    want_cache: bool = False,
) -> tuple[np.ndarray, ForwardCache | None]:
    """Predictions for a (B, T) id batch; PAD steps beyond each length are skipped.

    With `masks` None this is inference; `tests/oracle.py` recomputes each
    row with scalar loops. `want_cache` also returns what `train.backprop`
    reads back.
    """
    ids = np.asarray(ids)
    B, T = ids.shape
    pack = pack_batch(lengths, T)
    tokens = ids[pack.rows, pack.steps]
    X = m.embedding.matrix[tokens]
    if masks is not None and masks.embed is not None:
        X *= masks.embed[pack.rows, pack.steps]
    if masks is not None and masks.gru_in is not None:
        X *= masks.gru_in[pack.rows, 0]
    tapes = [GruTape.empty(len(tokens), m.h, X.dtype) if want_cache else None for _ in range(2)]
    u = np.zeros((B, 2 * m.h), dtype=X.dtype)
    u[pack.live, : m.h] = _run_gru_batch(m.fwd, X, pack, False, tapes[0])
    u[pack.live, m.h :] = _run_gru_batch(m.bwd, X, pack, True, tapes[1])
    if masks is not None and masks.out is not None:
        u = u * masks.out
    preds = sigmoid(u @ m.head.w + m.head.b[0])
    if not want_cache:
        return preds, None
    return preds, ForwardCache(
        pack=pack, tokens=tokens, X=X, fwd=tapes[0], bwd=tapes[1], u_drop=u
    )


def predict_batch(m: Model, ids: np.ndarray, lengths: np.ndarray, chunk: int = 512) -> np.ndarray:
    """Scores for the rows of an (N, T) id array, in row order, `chunk` rows per batch."""
    out = np.empty(len(ids), dtype=np.float64)
    for start in range(0, len(ids), chunk):
        part = slice(start, start + chunk)
        preds, _ = forward_batch(m, ids[part], lengths[part])
        out[part] = preds
    return out


# --- checkpointing ------------------------------------------------------------


def save_model(
    m: Model,
    vocab: Vocabulary,
    out: BinaryIO,
    max_len: int,
    text_field: str = "postText",
) -> None:
    """Write a self-describing binary checkpoint with deterministic bytes."""
    arrays = parameter_arrays(m)
    manifest = [
        {
            "name": name,
            "dtype": arr.dtype.newbyteorder("<").str,
            "shape": list(arr.shape),
        }
        for name, arr in arrays.items()
    ]
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "d": m.d,
        "h": m.h,
        "max_len": max_len,
        "text_field": text_field,
        "dropout_embed": m.dropout_embed,
        "dropout_gru_in": m.dropout_gru_in,
        "dropout_gru_out": m.dropout_gru_out,
        "trainable_embedding": True,
        "vocab_tokens": vocab.id_to_token[2:],
        "arrays": manifest,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    out.write(CHECKPOINT_MAGIC)
    out.write(struct.pack("<Q", len(blob)))
    out.write(blob)
    for arr in arrays.values():
        out.write(np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<")).tobytes())


def _array_shapes(vocab_size: int, d: int, h: int) -> dict[str, tuple[int, ...]]:
    """Shape of every checkpoint array by name, in the order save_model writes them."""
    gate_shapes = {"W": (h, d), "U": (h, h), "b": (h,)}
    shapes = {"embedding": (vocab_size, d)}
    for prefix in ("fwd", "bwd"):
        for name in GRU_FIELDS:
            shapes[f"{prefix}.{name}"] = gate_shapes[name[0]]
    shapes["head.w"] = (2 * h,)
    shapes["head.b"] = (1,)
    return shapes


def _read_header(inp: BinaryIO) -> dict:
    """The JSON header after the magic bytes, with every key load_model reads."""
    prefix = inp.read(8)
    if len(prefix) != 8:
        raise DataError("checkpoint truncated in its header length")
    (header_len,) = struct.unpack("<Q", prefix)
    if header_len > MAX_HEADER_BYTES:
        raise DataError(f"checkpoint header length {header_len} exceeds {MAX_HEADER_BYTES}")
    blob = inp.read(header_len)
    if len(blob) != header_len:
        raise DataError("checkpoint truncated in its header")
    try:
        header = json.loads(blob.decode("utf-8"))
    except (ValueError, RecursionError) as e:  # ValueError covers bad UTF-8 and bad JSON
        raise DataError(f"checkpoint header is not UTF-8 JSON: {e}") from e
    if not isinstance(header, dict):
        raise DataError("checkpoint header is not a JSON object")
    if header.get("format") != CHECKPOINT_FORMAT or header.get("version") != CHECKPOINT_VERSION:
        raise DataError(
            f"unsupported checkpoint format/version: "
            f"{header.get('format')!r} v{header.get('version')!r}"
        )
    missing = [key for key in HEADER_KEYS if key not in header]
    if missing:
        raise DataError(f"checkpoint header lacks {', '.join(missing)}")
    if not all(type(header[key]) is int and header[key] >= 1 for key in ("d", "h", "max_len")):
        raise DataError("checkpoint d, h and max_len must be positive integers")
    tokens = header["vocab_tokens"]
    if not isinstance(tokens, list) or set(map(type, tokens)) - {str}:
        raise DataError("checkpoint vocab_tokens must be a list of strings")
    if header["text_field"] not in TEXT_FIELDS:
        raise DataError(
            f"checkpoint text_field {header['text_field']!r} is not one of {TEXT_FIELDS}"
        )
    if header["trainable_embedding"] is not True:
        raise DataError("checkpoint trainable_embedding must be true")
    return header


def load_model(inp: BinaryIO) -> tuple[Model, Vocabulary, dict]:
    """Read a checkpoint; bit-exact inverse of save_model.

    A checkpoint that is cut short or runs on past its last array, whose
    header is not the v1 JSON, or whose arrays are not the ones save_model
    writes for the header's d, h and vocabulary, in one dtype and finite,
    raises DataError.
    """
    magic = inp.read(len(CHECKPOINT_MAGIC))
    if magic != CHECKPOINT_MAGIC:
        raise DataError("not a model checkpoint (bad magic bytes)")
    header = _read_header(inp)
    shapes = _array_shapes(len(header["vocab_tokens"]) + 2, header["d"], header["h"])
    entries = header["arrays"] if isinstance(header["arrays"], list) else []
    names = [entry.get("name") if isinstance(entry, dict) else None for entry in entries]
    if names != list(shapes):
        absent = [name for name in shapes if name not in names]
        raise DataError(
            f"checkpoint arrays are not the saved model's in order: "
            f"{len(names)} listed, missing {absent}"
        )
    arrays = {}
    for entry in entries:
        name, shape = entry["name"], shapes[entry["name"]]
        if entry.get("shape") != list(shape):
            raise DataError(
                f"checkpoint array {name!r} has shape {entry.get('shape')}, not {list(shape)}"
            )
        if entry.get("dtype") not in ("<f4", "<f8"):
            raise DataError(
                f"checkpoint array {name!r} has dtype {entry.get('dtype')!r}, not <f4 or <f8"
            )
        if entry["dtype"] != entries[0]["dtype"]:
            raise DataError(
                f"checkpoint array {name!r} has dtype {entry['dtype']!r}, unlike 'embedding'"
            )
        dtype = np.dtype(entry["dtype"])
        count = int(np.prod(shape))
        data = inp.read(count * dtype.itemsize)
        if len(data) != count * dtype.itemsize:
            raise DataError(f"checkpoint truncated while reading {name!r}")
        arrays[name] = np.frombuffer(data, dtype=dtype).reshape(shape).copy()
        if not np.isfinite(arrays[name]).all():
            raise DataError(f"checkpoint array {name!r} holds a non-finite value")
    if inp.read(1):
        raise DataError("checkpoint has bytes after its last array")

    vocab = Vocabulary.from_tokens(header["vocab_tokens"])
    embedding = EmbeddingTable(matrix=arrays["embedding"])

    def gru(prefix: str) -> GruParams:
        return GruParams(**{name: arrays[f"{prefix}.{name}"] for name in GRU_FIELDS})

    model = Model(
        embedding=embedding,
        fwd=gru("fwd"),
        bwd=gru("bwd"),
        head=DenseSigmoid(w=arrays["head.w"], b=arrays["head.b"]),
        dropout_embed=header["dropout_embed"],
        dropout_gru_in=header["dropout_gru_in"],
        dropout_gru_out=header["dropout_gru_out"],
    )
    meta = {
        "d": header["d"],
        "h": header["h"],
        "max_len": header["max_len"],
        "text_field": header["text_field"],
    }
    return model, vocab, meta


def copy_model(m: Model) -> Model:
    """Deep copy of all parameter arrays (used for best-epoch snapshots)."""
    return copy.deepcopy(m)
