"""Bidirectional GRU score regressor.

One GRU reads the token sequence left to right, a second reads it right to
left, and the final state of each direction is concatenated and fed to a
single sigmoid unit. All forward code here is shared by inference and by the
manual backward pass in `train`.

Gate algebra per step (elementwise *):

    r = sigmoid(W_r x + U_r h_prev + b_r)
    z = sigmoid(W_z x + U_z h_prev + b_z)
    c = tanh(W_h x + r * (U_h h_prev) + b_h)
    h = (1 - z) * h_prev + z * c = h_prev + z * (c - h_prev)

The new state is a convex combination of h_prev and c, so states stay in
[-1, 1] from a zero start. A step takes r and z as sigmoid(a) =
0.5 * tanh(a / 2) + 0.5, which holds exactly and costs one tanh pass in
place of an exp and a reciprocal; the 1/2 is folded into the gate stacks.

Batches run packed and time-major (`pack_batch`): rows are stable-sorted by
length, longest first, so the rows still reading at step t are a prefix of
that order, and each real token owns one packed row; at step t the reverse
direction reads a row's token length - 1 - t, through `Packing.flip`. The
three gates are stacked into one input and one recurrent weight stack
(`stack_gates`), built once per `forward_batch` or `predict_batch` call.
Each direction projects its inputs, x W + b, in one matmul before its step
loop; at inference, where no dropout applies, it projects each distinct
token id once. A step then costs one recurrent matmul over the
rows still reading (none on step 0 of either direction, from h = 0) and no
PAD work.

The model is a plain dict of named arrays (`Model`), the names and order
being those of the checkpoint; it carries no training settings.
"""

import json
import struct
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from .errors import DataError
from .rng import named_rng
from .text import Vocabulary

CHECKPOINT_MAGIC = b"CBGRUCKPT1\n"
CHECKPOINT_FORMAT = "cbgru-checkpoint"
CHECKPOINT_VERSION = 1
# the training settings a header records, beside its vocabulary and array manifest
DROPOUT_RATES = ("dropout_embed", "dropout_gru_in", "dropout_gru_out")
SETTINGS = ("d", "h", "max_len", *DROPOUT_RATES)
# a header is the vocabulary plus about 2 KiB; a corrupt length must not size a read
MAX_HEADER_BYTES = 1 << 28
# longest token cutoff; the (N, max_len) id arrays scale with it (the paper uses 32)
MAX_LEN_LIMIT = 1024
# widest embedding (d) or GRU state (h) to train; every weight array scales with them
# (32x the paper's h = 128)
WIDTH_LIMIT = 4096


def check_settings(settings) -> None:
    """Raise ValueError naming the first of the `SETTINGS` in `settings` that
    no model may have; `train.TrainConfig` and `load_model` both apply it."""
    for name, limit in (("d", WIDTH_LIMIT), ("h", WIDTH_LIMIT), ("max_len", MAX_LEN_LIMIT)):
        value = settings[name]
        if isinstance(value, bool) or not isinstance(value, int) or not 1 <= value <= limit:
            raise ValueError(f"{name} must be an integer in [1, {limit}], got {value!r}")
    for name in DROPOUT_RATES:
        rate = settings[name]
        if isinstance(rate, bool) or not isinstance(rate, (int, float)) or not 0.0 <= rate < 1.0:
            raise ValueError(f"{name} must be a number in [0, 1), got {rate!r}")


def sigmoid(x):
    # exp overflow for very negative x saturates to inf, giving the exact limit 0
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


Model = dict[str, np.ndarray]
"""The weights by checkpoint name, in checkpoint order (`_array_shapes`):
"embedding" (V, d), then per direction "fwd."/"bwd." followed by W_r, W_z,
W_h (h, d), U_r, U_z, U_h (h, h) and b_r, b_z, b_h (h,), then "head.w" (2h,)
and "head.b" (1,). The optimizer, the gradients and checkpoints use the
same names."""

GRU_FIELDS = ("W_r", "W_z", "W_h", "U_r", "U_z", "U_h", "b_r", "b_z", "b_h")


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)


def init_model(embedding: np.ndarray, h: int, seed: int) -> Model:
    """Model around the (V, d) `embedding`, which it holds, not copies, in its dtype.

    Per direction, input matrices uniform +-sqrt(6/(d+h)), recurrent
    matrices orthogonal, zero biases; head weights uniform
    +-sqrt(6/(2h+1)), zero head bias.
    """
    dtype = embedding.dtype
    d = embedding.shape[1]
    rng = named_rng(seed, "init")
    scale = np.sqrt(6.0 / (d + h))
    m = {"embedding": embedding}
    for prefix in ("fwd", "bwd"):
        for gate in "rzh":
            m[f"{prefix}.W_{gate}"] = rng.uniform(-scale, scale, size=(h, d)).astype(dtype)
        for gate in "rzh":
            m[f"{prefix}.U_{gate}"] = _orthogonal(rng, h).astype(dtype)
        for gate in "rzh":
            m[f"{prefix}.b_{gate}"] = np.zeros(h, dtype=dtype)
    head_scale = np.sqrt(6.0 / (2 * h + 1))
    m["head.w"] = rng.uniform(-head_scale, head_scale, size=2 * h).astype(dtype)
    m["head.b"] = np.zeros(1, dtype=dtype)
    return m


# --- forward ------------------------------------------------------------------


@dataclass
class DropoutMasks:
    """Pre-drawn inverted-dropout masks for one batch; either may be None.

    `x` multiplies the packed inputs: each token's embedding mask times its
    post's GRU-input mask. `out` multiplies the summary.
    """

    x: np.ndarray | None = None  # (N, d)
    out: np.ndarray | None = None  # (B, 2h)


def stack_gates(m: Model, prefix: str):
    """The gates of direction `prefix` stacked on a leading gate axis for batched GEMMs.

    Returns W (3, d, h) holding W_r / 2, W_z / 2, W_h transposed, U (3, h, h)
    holding U_h, U_r / 2, U_z / 2 transposed, and b (3, 1, h) holding b_r / 2,
    b_z / 2, b_h. x @ W and h_prev @ U are then one matmul each, with every
    gate's result a contiguous block; U's gate order is that of
    `GruTape.gates`. The r and z blocks are halved so that a step takes
    their sigmoid as 0.5 * tanh(a / 2) + 0.5 with no scaling pass; halving is
    exact, so the r and z blocks hold a / 2 bit for bit. W and U are made
    C-contiguous: OpenBLAS runs the per-step products up to 2x slower on the
    F-ordered blocks that stacked transposes give.
    """
    W_r, W_z, W_h, U_r, U_z, U_h, b_r, b_z, b_h = (m[f"{prefix}.{n}"] for n in GRU_FIELDS)
    return (
        np.ascontiguousarray(np.stack([0.5 * W_r.T, 0.5 * W_z.T, W_h.T])),
        np.ascontiguousarray(np.stack([U_h.T, 0.5 * U_r.T, 0.5 * U_z.T])),
        np.stack([0.5 * b_r, 0.5 * b_z, b_h])[:, None, :],
    )


@dataclass
class Packing:
    """Time-major packed layout of the real tokens of a (B, T) id batch.

    Sorted row i is batch row order[i]; rows are stable-sorted by length,
    longest first. Step t covers sorted rows 0..counts[t]-1 (the rows longer
    than t) and owns packed rows offsets[t] .. offsets[t] + counts[t]. Packed
    row k holds position steps[k] of batch row rows[k], and packed row flip[k]
    (flip is its own inverse) position length - 1 - steps[k] of that row.
    """

    order: np.ndarray  # (B,) batch row of each sorted row
    counts: list[int]  # per step t < longest length
    offsets: list[int]  # len(counts) + 1 entries; the last is the token count
    rows: np.ndarray  # (N,) batch row of each packed token
    steps: np.ndarray  # (N,) position of each packed token
    flip: np.ndarray  # (N,) packed row the reverse direction reads at each packed row

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
    offsets = np.cumsum([0, *counts])
    return Packing(
        order=order,
        counts=counts.tolist(),
        offsets=offsets.tolist(),
        rows=order[sorted_rows],
        steps=steps,
        flip=offsets[sorted_len[sorted_rows] - 1 - steps] + sorted_rows,
    )


@dataclass
class GruTape:
    """Per-token values of one direction that BPTT reads back, in packed rows.

    The forward direction's tape row k belongs to packed token k, the
    reverse direction's to packed token `Packing.flip[k]`. `gates` holds
    U_h h_prev, r, z and c for every token, one (N, h) block per gate. The
    forward pass first fills the r, z and c blocks with the input
    projections of `stack_gates`, x W + b for c and half of it for r and
    z, and each step completes its rows in place. Every row starts step 0
    from h = 0, so step 0's rows have U_h h_prev and h_prev zero. The
    backward pass overwrites the blocks with the gradients d(U_h h_prev),
    d a_r, d a_z and d a_c, a being the gate pre-activations.
    """

    h_prev: np.ndarray  # (N, h) state entering the step
    gates: np.ndarray  # (4, N, h)

    @classmethod
    def empty(cls, n: int, h: int, dtype) -> "GruTape":
        return cls(h_prev=np.empty((n, h), dtype=dtype), gates=np.empty((4, n, h), dtype=dtype))


@dataclass
class ForwardCache:
    """What the backward pass reuses from one batched forward run.

    Token-level arrays are in the packed time-major order of `pack` (the
    reverse tape flipped, see `GruTape`); only real tokens are stored, never
    PAD positions. The predictions and the dropout masks are not kept:
    `backprop` holds both already.
    """

    pack: Packing
    tokens: np.ndarray  # (N,) embedding row of each packed token
    X: np.ndarray  # (N, d) packed inputs after input dropout
    fwd: GruTape
    bwd: GruTape
    u_drop: np.ndarray  # (B, 2h) summary after output dropout


def _run_gru_batch(gates, X, pack: Packing, tape: GruTape | None, src):
    """Final states (live rows, h) of the direction whose `stack_gates` are `gates`,
    in sorted row order.

    All rows of `X` are projected, x W + b, in one matmul before the step
    loop. With `tape`, `X` has one row per packed token, and the projections
    fill the tape's r, z and c blocks, which each step completes in place.
    Without one, `X` has one row per distinct input, packed token k reading
    row src[k], and each step gathers its rows' projections.

    The reverse direction runs the same steps on its inputs in `Packing.flip`
    order. The rows a step updates are a prefix of the sorted rows, so `h` is
    updated in place on that prefix; every row starts step 0 from h = 0.
    """
    W, U, b = gates
    h = np.zeros((len(pack.live), U.shape[1]), dtype=X.dtype)
    proj = tape.gates[1:] if tape is not None else np.empty((3, len(X), h.shape[1]), X.dtype)
    np.matmul(X, W, out=proj)
    proj += b
    hu = np.empty((3, *h.shape), dtype=X.dtype)  # U_h h, U_r h, U_z h on the front rows
    picked = np.empty_like(hu) if tape is None else None
    for t, n in enumerate(pack.counts):
        s = slice(pack.offsets[t], pack.offsets[t] + n)
        if tape is not None:
            a = proj[:, s]
        else:  # src is in range; any mode but "raise" writes straight into out
            a = np.take(proj, src[s], axis=1, out=picked[:, :n], mode="clip")
        h_prev = h[:n]
        u = hu[:, :n]
        rz = a[:2]
        if t:  # step 0 has h_prev = 0: no U terms
            np.matmul(h_prev, U, out=u)
            rz += u[1:]
        # rz = sigmoid(2 rz) = 0.5 tanh(rz) + 0.5, the r and z gates, in place
        np.tanh(rz, out=rz)
        rz *= 0.5
        rz += 0.5
        c = a[2]
        if t:
            np.multiply(a[0], u[0], out=u[1])
            c += u[1]
        np.tanh(c, out=c)
        if tape is not None:
            tape.gates[0, s] = u[0] if t else 0.0
            tape.h_prev[s] = h_prev
        z = a[1]
        if t:  # h = h_prev + z * (c - h_prev), written over h_prev
            delta = np.subtract(c, h_prev, out=u[1])
            delta *= z
            h_prev += delta
        else:
            np.multiply(z, c, out=h_prev)
    return h


def forward_batch(
    m: Model,
    ids: np.ndarray,
    lengths: np.ndarray,
    masks: DropoutMasks | None = None,
    stacks=None,
) -> tuple[np.ndarray, ForwardCache | None]:
    """Predictions for a (B, T) id batch; PAD steps beyond each length are skipped.

    With `masks` None this is inference and returns no cache: equal ids give
    equal inputs, so each direction projects each distinct id once, and
    `tests/oracle.py` recomputes each row with scalar loops. With `masks`,
    `DropoutMasks()` for none, every token is projected into its tape and the
    `ForwardCache` that `train.backprop` reads is returned; `masks.x` multiplies
    the packed inputs row for row, so it must be drawn for these `lengths` and width T.
    `stacks` is both directions' `stack_gates`, as `predict_batch` builds them once
    for all its chunks; None builds them here.
    """
    ids = np.asarray(ids)
    B, T = ids.shape
    pack = pack_batch(lengths, T)
    tokens = ids[pack.rows, pack.steps]
    if masks is None:
        rows, src = np.unique(tokens, return_inverse=True)
        X = m["embedding"][rows]
        X_bwd, src_bwd = X, src[pack.flip]
    else:
        X, src = m["embedding"][tokens], None
        if masks.x is not None:
            X *= masks.x
        X_bwd, src_bwd = X[pack.flip], None
    h = len(m["fwd.b_r"])
    tapes = [GruTape.empty(len(tokens), h, X.dtype) if src is None else None for _ in range(2)]
    u = np.zeros((B, 2 * h), dtype=X.dtype)
    if stacks is None:
        stacks = stack_gates(m, "fwd"), stack_gates(m, "bwd")
    u[pack.live, :h] = _run_gru_batch(stacks[0], X, pack, tapes[0], src)
    u[pack.live, h:] = _run_gru_batch(stacks[1], X_bwd, pack, tapes[1], src_bwd)
    if masks is not None and masks.out is not None:
        u = u * masks.out
    preds = sigmoid(u @ m["head.w"] + m["head.b"][0])
    if masks is None:
        return preds, None
    return preds, ForwardCache(
        pack=pack, tokens=tokens, X=X, fwd=tapes[0], bwd=tapes[1], u_drop=u
    )


def predict_batch(m: Model, ids: np.ndarray, lengths: np.ndarray, chunk: int = 512) -> np.ndarray:
    """Scores for the rows of an (N, T) id array, in row order, `chunk` rows per batch.

    Rows are batched longest first (stable in row order), so each step of a
    batch runs on nearly all of its rows; the scores go back to row order. The
    gate stacks are built once per call, for a non-empty array only, and
    shared by every batch.
    """
    by_length = np.argsort(-np.minimum(lengths, ids.shape[1]), kind="stable")
    out = np.empty(len(ids), dtype=np.float64)
    if not len(ids):
        return out
    stacks = stack_gates(m, "fwd"), stack_gates(m, "bwd")
    for start in range(0, len(ids), chunk):
        part = by_length[start : start + chunk]
        preds, _ = forward_batch(m, ids[part], lengths[part], stacks=stacks)
        out[part] = preds
    return out


# --- checkpointing ------------------------------------------------------------


def save_model(m: Model, vocab: Vocabulary, cfg, out: BinaryIO) -> None:
    """Write a self-describing binary checkpoint with deterministic bytes.

    `cfg` is the `train.TrainConfig` the model was trained with; the header
    (`_header`) records its max_len and dropout rates, d and h as the
    model's arrays have them, and postText as the text field the model reads.
    The arrays go out in `_array_shapes` order, whatever the order of `m`, in
    the embedding's dtype.
    """
    h, d = m["fwd.W_r"].shape
    dtype = m["embedding"].dtype.newbyteorder("<").str
    header = _header(vars(cfg) | {"d": d, "h": h}, vocab.id_to_token[2:], dtype)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    out.write(CHECKPOINT_MAGIC)
    out.write(struct.pack("<Q", len(blob)))
    out.write(blob)
    for entry in header["arrays"]:
        out.write(np.ascontiguousarray(m[entry["name"]], dtype=dtype).tobytes())


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


def _header(settings, tokens: list[str], dtype: str) -> dict:
    """The whole v1 header: the `SETTINGS` of `settings`, the text field the
    model reads (always postText), the vocabulary after PAD and UNK, and every
    array's name, `dtype` and shape. save_model writes it; load_model requires
    each of its keys equal in the file's header, rebuilt from that header's
    settings, tokens and first dtype."""
    shapes = _array_shapes(len(tokens) + 2, settings["d"], settings["h"])
    return {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        **{key: settings[key] for key in SETTINGS},
        "text_field": "postText",
        "trainable_embedding": True,
        "vocab_tokens": tokens,
        "arrays": [
            {"name": name, "dtype": dtype, "shape": list(shape)} for name, shape in shapes.items()
        ],
    }


def _same_json(a, b) -> bool:
    """Whether `a` and `b` are the same JSON text: unlike ==, 1, 1.0 and true differ."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _read_header(inp: BinaryIO) -> dict:
    """The JSON header after the magic bytes, as `_header` rebuilds it."""
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
    # the keys `_header` is rebuilt from, then the values it can be built from
    missing = [key for key in (*SETTINGS, "vocab_tokens", "arrays") if key not in header]
    if missing:
        raise DataError(f"checkpoint header lacks {', '.join(missing)}")
    try:  # `_header` copies the settings as they are, so check them here
        check_settings(header)
    except ValueError as e:
        raise DataError(f"checkpoint {e}") from e
    tokens = header["vocab_tokens"]
    if not isinstance(tokens, list) or set(map(type, tokens)) - {str}:
        raise DataError("checkpoint vocab_tokens must be a list of strings")
    arrays = header["arrays"]
    first = arrays[0] if isinstance(arrays, list) and arrays else None
    dtype = first.get("dtype") if isinstance(first, dict) else None
    if dtype not in ("<f4", "<f8"):
        raise DataError(f"checkpoint array dtype {dtype!r} is not <f4 or <f8")

    expected = _header(header, tokens, dtype)
    for key, want in expected.items():
        got = header.get(key)
        if got is want or _same_json(got, want):  # vocab_tokens is the header's own list
            continue
        if key not in header:
            raise DataError(f"checkpoint header lacks {key}")
        if key == "arrays" and isinstance(got, list):
            # name the first entry that differs by the array save_model writes there
            for i, entry in enumerate(want):
                listed = got[i] if i < len(got) else None
                if not _same_json(listed, entry):
                    key, got, want = f"array {entry['name']!r}", listed, entry
                    break
        raise DataError(f"checkpoint {key} is {got!r}, not {want!r}")
    return expected


def load_model(inp: BinaryIO) -> tuple[Model, Vocabulary, dict]:
    """Read a checkpoint: the model, its vocabulary, and its header's d, h
    and max_len. Every array is bit-exact as save_model wrote it:
    `inp.readinto` fills each array's own buffer in place, with no bytes copy.

    A checkpoint that is cut short or runs on past its last array, whose
    header is not the one `_header` builds from its own settings, vocabulary
    and dtype (a text_field other than postText among them), or repeats a
    vocabulary token, or whose arrays are not all finite, raises DataError.
    """
    magic = inp.read(len(CHECKPOINT_MAGIC))
    if magic != CHECKPOINT_MAGIC:
        raise DataError("not a model checkpoint (bad magic bytes)")
    header = _read_header(inp)
    tokens = header["vocab_tokens"]
    vocab = Vocabulary.from_tokens(tokens)
    if len(vocab.token_to_id) != len(tokens):
        # the dict keeps a repeated token's last id; its earlier ids could never be looked up
        repeated = next(tok for i, tok in enumerate(tokens, 2) if vocab.token_to_id[tok] != i)
        raise DataError(f"checkpoint vocab_tokens repeat {repeated!r}")
    arrays = {}
    for entry in header["arrays"]:
        name, shape = entry["name"], entry["shape"]
        try:
            arrays[name] = np.empty(shape, dtype=entry["dtype"])
        except (MemoryError, ValueError) as e:  # ValueError: its byte count overflows
            raise DataError(
                f"checkpoint array {name!r} of shape {shape} is too large to allocate"
            ) from e
        if inp.readinto(memoryview(arrays[name]).cast("B")) != arrays[name].nbytes:
            raise DataError(f"checkpoint truncated while reading {name!r}")
        if not np.isfinite(arrays[name]).all():
            raise DataError(f"checkpoint array {name!r} holds a non-finite value")
    if inp.read(1):
        raise DataError("checkpoint has bytes after its last array")

    meta = {key: header[key] for key in ("d", "h", "max_len")}
    return arrays, vocab, meta


def copy_model(m: Model) -> Model:
    """Copy of every array (used for best-epoch snapshots)."""
    return {name: arr.copy() for name, arr in m.items()}
