"""Straightforward scalar re-implementations the fast paths must agree with.

`naive_predict` is the model forward pass and deliberately shares no code
with the package: plain Python loops over list indices, math.exp/math.tanh,
no vectorized operations. Slow and only suitable for tiny models.

`naive_glove` is the line-by-line GloVe loader that `text.load_glove`
replaced: every line split, each matched component parsed with `float()`.
It shares only the OOV rows' random stream with the package, so that whole
matrices compare bitwise.

`naive_tokenize` is the chunk-by-chunk tokenizer that `text.tokenize`'s
single regex replaced: split on whitespace, then peel punctuation off each
chunk's ends one character at a time.

`naive_parse_instances` and `naive_parse_truth` are the JSONL parsers that
`ingest`'s typed-tuple ones replaced: every line through `json.loads`, each
judgment level found by a nearest-level search (`naive_snap_to_level`), each
class by calling the `Label` enum, each record built by keyword. They build
the package's record types, so results compare with `==`. They predate the
lone-surrogate rule, so they accept text that `ingest.read_objects` rejects.
Like it, they strip only JSON's four whitespace characters from a line, accept
only a string or a non-bool integer id (an integer read as its decimal
string), and reject a repeated id after the caller's own checks on its line.

`naive_evaluate` is the per-example loop that `metrics.evaluate`'s array
version replaced: Python floats, labels compared one by one, the median
absolute error from `statistics.median_low`. It builds the package's
`EvalReport`, so every field but the runtime compares with `==`.
"""

import json
import math
import statistics
import string
import time

import numpy as np

from clickbait_gru.errors import DataError, ParseError
from clickbait_gru.ingest import (
    CLICKBAIT_CUTOFF,
    JUDGMENT_LEVELS,
    LEVEL_TOLERANCE,
    Judgment,
    Label,
    PostRecord,
    finite_number,
)
from clickbait_gru.metrics import EvalReport
from clickbait_gru.rng import named_rng
from clickbait_gru.text import OOV_INIT_SCALE


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _step(params, x, h_prev):
    """One GRU update computed element by element."""
    W_r, W_z, W_h, U_r, U_z, U_h, b_r, b_z, b_h = params
    n = len(h_prev)
    d = len(x)
    r = [0.0] * n
    z = [0.0] * n
    for i in range(n):
        ar = b_r[i]
        az = b_z[i]
        for j in range(d):
            ar += W_r[i][j] * x[j]
            az += W_z[i][j] * x[j]
        for j in range(n):
            ar += U_r[i][j] * h_prev[j]
            az += U_z[i][j] * h_prev[j]
        r[i] = _sigmoid(ar)
        z[i] = _sigmoid(az)
    h_new = [0.0] * n
    for i in range(n):
        ah = b_h[i]
        for j in range(d):
            ah += W_h[i][j] * x[j]
        uh = 0.0
        for j in range(n):
            uh += U_h[i][j] * h_prev[j]
        cand = math.tanh(ah + r[i] * uh)
        h_new[i] = (1.0 - z[i]) * h_prev[i] + z[i] * cand
    return h_new


def _gru_params_as_lists(model, prefix):
    return tuple(
        model[f"{prefix}.{name}"].tolist()
        for name in ("W_r", "W_z", "W_h", "U_r", "U_z", "U_h", "b_r", "b_z", "b_h")
    )


def naive_predict(model, token_ids, length) -> float:
    """Score for one sequence: read both ways, concatenate, sigmoid head.

    `model` maps the checkpoint array names ("embedding", "fwd.W_r", ...,
    "head.b") to arrays.
    """
    emb = model["embedding"].tolist()
    xs = [emb[int(token_ids[t])] for t in range(length)]
    h = len(model["fwd.b_r"])

    if length == 0:
        summary = [0.0] * (2 * h)
    else:
        fwd = _gru_params_as_lists(model, "fwd")
        state = [0.0] * h
        for x in xs:
            state = _step(fwd, x, state)
        forward_summary = state

        bwd = _gru_params_as_lists(model, "bwd")
        state = [0.0] * h
        for x in reversed(xs):
            state = _step(bwd, x, state)
        backward_summary = state
        summary = forward_summary + backward_summary

    a = float(model["head.b"][0])
    w = model["head.w"].tolist()
    for k in range(2 * h):
        a += w[k] * summary[k]
    return _sigmoid(a)


def naive_glove(stream, vocab, d: int, seed: int = 0):
    """(float32 (vocab.size, d) matrix, matched count) of a GloVe text stream."""
    matrix = np.zeros((vocab.size, d), dtype=np.float64)
    found = np.zeros(vocab.size, dtype=bool)
    matched = 0
    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n")
        if not line:
            continue
        parts = line.split(" ")
        if len(parts) - 1 != d:
            raise ParseError(
                f"expected {d} vector components, found {len(parts) - 1}",
                line=lineno,
            )
        token_id = vocab.token_to_id.get(parts[0])
        if token_id is None or found[token_id]:
            continue
        try:
            matrix[token_id] = [float(x) for x in parts[1:]]
        except ValueError as exc:
            raise ParseError(f"bad vector component: {exc}", line=lineno) from exc
        found[token_id] = True
        matched += 1

    rng = named_rng(seed, "glove-oov")
    for token_id in range(1, vocab.size):  # PAD row stays zero
        if not found[token_id]:
            matrix[token_id] = rng.uniform(-OOV_INIT_SCALE, OOV_INIT_SCALE, size=d)
    return matrix.astype(np.float32), matched


def naive_tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, peel leading/trailing ASCII punctuation,
    each peeled character its own token, in text order."""
    tokens: list[str] = []
    for chunk in text.lower().split():
        i, j = 0, len(chunk)
        lead = []
        while i < j and chunk[i] in string.punctuation:
            lead.append(chunk[i])
            i += 1
        trail = []
        while j > i and chunk[j - 1] in string.punctuation:
            trail.append(chunk[j - 1])
            j -= 1
        tokens.extend(lead)
        if i < j:
            tokens.append(chunk[i:j])
        tokens.extend(reversed(trail))
    return tokens


def naive_read_objects(stream):
    """(line number, id, object) for each non-blank line; ParseError for a line
    that is not a JSON object with a string or non-bool integer "id", and,
    once the caller has taken it, for a line repeating an earlier line's id."""
    seen = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip(" \t\n\r")
        if not line:
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"invalid JSON ({getattr(exc, 'msg', exc)})", line=lineno) from exc
        if not isinstance(obj, dict):
            raise ParseError(f"expected a JSON object, got {type(obj).__name__}", line=lineno)
        if "id" not in obj:
            raise ParseError("missing 'id'", line=lineno)
        if isinstance(obj["id"], bool) or not isinstance(obj["id"], (str, int)):
            raise ParseError(
                f"id must be a string or an integer, got {type(obj['id']).__name__}", line=lineno
            )
        rec_id = str(obj["id"])
        yield lineno, rec_id, obj
        if rec_id in seen:
            raise ParseError(f"duplicate id {rec_id!r}", line=lineno)
        seen.append(rec_id)


def _as_str_list(obj: dict, key: str, lineno: int) -> list[str]:
    value = obj.get(key)
    if value is None:
        return []
    if isinstance(value, str):
        return [value]
    if isinstance(value, list):
        return [str(v) for v in value]
    raise ParseError(
        f"{key} must be a string, a list or null, got {type(value).__name__}", line=lineno
    )


def _as_str(value) -> str:
    if value is None:
        return ""
    return str(value)


def _text_segments(obj: dict, lineno: int) -> list[str]:
    segments = _as_str_list(obj, "postText", lineno)
    if isinstance(obj.get("postText"), list):
        for value in obj["postText"]:
            if not isinstance(value, str):
                raise ParseError(
                    f"postText items must be strings, got {type(value).__name__}", line=lineno
                )
    return segments


def _text(obj: dict, key: str, lineno: int) -> str:
    value = obj.get(key)
    if value is not None and not isinstance(value, str):
        raise ParseError(f"{key} must be a string or null, got {type(value).__name__}", line=lineno)
    return _as_str(value)


def naive_parse_instances(stream) -> list[PostRecord]:
    """One PostRecord per non-blank instances line: all nine post fields parsed
    and checked in the challenge's field order, then the id and postText kept. Text values
    must be strings: postText a string, a list of strings or null, targetTitle
    and targetDescription a string or null; postMedia, targetParagraphs and
    targetCaptions a string, a list or null."""
    records = []
    for lineno, rec_id, obj in naive_read_objects(stream):
        post_text = _text_segments(obj, lineno)
        _post_timestamp = _as_str(obj.get("postTimestamp"))
        _post_media = _as_str_list(obj, "postMedia", lineno)
        _target_title = _text(obj, "targetTitle", lineno)
        _target_description = _text(obj, "targetDescription", lineno)
        _target_keywords = _as_str(obj.get("targetKeywords"))
        _target_paragraphs = _as_str_list(obj, "targetParagraphs", lineno)
        _target_captions = _as_str_list(obj, "targetCaptions", lineno)
        records.append(PostRecord(id=rec_id, text=" ".join(post_text)))
    return records


def naive_snap_to_level(value: float) -> float:
    """Nearest of the four judgment levels, or DataError if none is within tolerance."""
    nearest = min(JUDGMENT_LEVELS, key=lambda level: abs(level - value))
    if abs(nearest - value) > LEVEL_TOLERANCE:
        raise DataError(f"judgment value {value!r} is not one of the four score levels")
    return nearest


def naive_parse_truth(stream) -> list[tuple[str, Judgment]]:
    """(id, Judgment) per non-blank truth line, each line validated in full."""
    out = []
    for lineno, rec_id, obj in naive_read_objects(stream):
        scores = obj.get("truthJudgments")
        if not isinstance(scores, list) or len(scores) != 5:
            raise ParseError(
                f"expected exactly 5 judgment scores, got {scores!r}", line=lineno
            )
        numbers = tuple(map(finite_number, scores))
        if None in numbers:
            raise ParseError(f"judgment scores must be finite numbers, got {scores!r}", line=lineno)
        scores = numbers
        try:
            for s in scores:
                naive_snap_to_level(s)
        except DataError as exc:
            raise ParseError(str(exc), line=lineno) from exc

        mean = finite_number(obj.get("truthMean"))
        median = finite_number(obj.get("truthMedian"))
        if mean is None or median is None:
            key = "truthMean" if mean is None else "truthMedian"
            raise ParseError(f"{key} must be a finite number, got {obj.get(key)!r}", line=lineno)
        if not abs(mean - sum(scores) / 5.0) <= LEVEL_TOLERANCE:
            raise ParseError(
                f"truthMean {mean!r} inconsistent with scores {scores!r}", line=lineno
            )
        if not abs(median - sorted(scores)[2]) <= LEVEL_TOLERANCE:
            raise ParseError(
                f"truthMedian {median!r} inconsistent with scores {scores!r}",
                line=lineno,
            )
        raw_class = obj.get("truthClass")
        try:
            label = Label(raw_class)
        except ValueError:
            raise ParseError(f"unknown truthClass {raw_class!r}", line=lineno) from None
        out.append((rec_id, Judgment(scores, mean, median, label)))
    return out


def naive_evaluate(preds, truth: list[Judgment]) -> EvalReport:
    """The seven metrics of `metrics.evaluate`, one example at a time."""
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

    tp = fp = fn = tn = 0
    for p, j in zip(preds, truth):
        pred = Label.CLICKBAIT if p >= CLICKBAIT_CUTOFF else Label.NO_CLICKBAIT
        if pred == Label.CLICKBAIT:
            if j.class_label == Label.CLICKBAIT:
                tp += 1
            else:
                fp += 1
        elif j.class_label == Label.CLICKBAIT:
            fn += 1
        else:
            tn += 1
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
