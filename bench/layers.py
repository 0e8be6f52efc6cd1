"""What the traced run wraps, and the per-layer metrics computed from its spans.

Each target is the module attribute the caller looks the function up by, so
the span sits exactly on the boundary between two layers. Probes record
counts at the same boundary; they read only arguments and return values.
"""

import statistics

import numpy as np

PKG = "clickbait_gru."


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_result(args, kwargs, result):
    return {"items": len(result)}


def _count_posts(args, kwargs, result):
    return {"posts": len(_arg(args, kwargs, 1, "seqs"))}


def _encode_probe(args, kwargs, result):
    tokens = _arg(args, kwargs, 0, "tokens")
    return {"truncated": len(tokens) > _arg(args, kwargs, 2, "max_len")}


def _glove_probe(args, kwargs, result):
    return {"matched": int(result[1]), "vocab": _arg(args, kwargs, 1, "vocab").size}


def _nbytes(obj, seen) -> int:
    """Bytes of every array reachable from obj, skipping dropout masks."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(x, seen) for x in obj)
    if hasattr(obj, "__dict__"):
        return sum(_nbytes(v, seen) for k, v in vars(obj).items() if k != "masks")
    return 0


def _forward_probe(args, kwargs, result):
    ids = np.asarray(_arg(args, kwargs, 1, "ids"))
    lengths = np.asarray(_arg(args, kwargs, 2, "lengths"))
    info = {
        "cells": int(ids.size),
        "tokens": int(np.minimum(lengths, ids.shape[1]).sum()),
        "unique_ids": int(np.unique(ids).size),
    }
    cache = result[1] if isinstance(result, tuple) and len(result) > 1 else None
    if cache is not None:
        info["cache_bytes"] = _nbytes(cache, set())
    return info


def _rmsprop_probe(args, kwargs, result):
    params = _arg(args, kwargs, 0, "params")
    # each step reads and writes the parameter, its gradient and its accumulator
    return {"bytes": 3 * sum(p.nbytes for p in params.values())}


# (module:attribute the caller uses, span name, probe)
TARGETS = [
    ("cli:cmd_train", "cli.train", None),
    ("cli:cmd_predict", "cli.predict", None),
    ("cli:cmd_evaluate", "cli.evaluate", None),
    ("cli:cmd_analyze", "cli.analyze", None),
    ("cli:load_dataset", "ingest.load_dataset", None),
    ("ingest:parse_instances", "ingest.parse_instances", _count_result),
    ("cli:parse_instances", "ingest.parse_instances", _count_result),
    ("ingest:parse_truth", "ingest.parse_truth", _count_result),
    ("cli:parse_truth", "ingest.parse_truth", _count_result),
    ("ingest:build_dataset", "ingest.build_dataset", None),
    ("cli:build_dataset", "ingest.build_dataset", None),
    ("cli:build_vocab", "text.build_vocab", None),
    ("cli:tokenize", "text.tokenize", None),
    ("cli:encode", "text.encode", _encode_probe),
    ("train:tokenize", "text.tokenize", None),
    ("train:encode", "text.encode", _encode_probe),
    ("cli:load_glove", "text.load_glove", _glove_probe),
    ("cli:fit", "train.fit", None),
    ("train:encode_dataset", "train.encode_dataset", None),
    ("train:init_model", "nn.init_model", None),
    ("train:make_dropout_masks", "nn.make_dropout_masks", None),
    ("train:backprop", "train.backprop", None),
    ("train:forward_batch", "nn.forward_batch", _forward_probe),
    ("train:rmsprop_update", "train.rmsprop_update", _rmsprop_probe),
    ("train:predict_batch", "nn.predict_batch", _count_posts),
    ("cli:predict_batch", "nn.predict_batch", _count_posts),
    ("nn:forward_batch", "nn.forward_batch", _forward_probe),
    ("train:copy_model", "nn.copy_model", None),
    ("cli:save_model", "nn.save_model", None),
    ("cli:load_model", "nn.load_model", None),
    ("cli:write_history", "train.write_history", None),
    ("cli:evaluate", "metrics.evaluate", None),
    ("cli:write_analytics", "analytics.write_analytics", None),
]


def install(tracer) -> None:
    for target, name, probe in TARGETS:
        tracer.wrap(PKG + target, name, probe)


def _median(values):
    return statistics.median(values) if values else None


def _ratio(num, den):
    return num / den if den else None


def _p95(values):
    """Nearest-rank 95th percentile."""
    if not values:
        return None
    ordered = sorted(values)
    return ordered[max(0, -(-95 * len(ordered) // 100) - 1)]


def per_layer(tracer, cycle: tuple[int, int], glove_lines: int) -> dict[str, tuple[float | None, str]]:
    """Per-layer metrics by name, as (value, unit); None where a span is missing.

    Times come from every traced span. Ratios of counts come from the spans
    of one cycle, `cycle` = (first, end) span index, so they repeat exactly
    whatever the number of cycles a run fits in.
    """
    spans = tracer.spans
    own = tracer.self_seconds()

    by_name: dict[str, list[int]] = {}
    for i, sp in enumerate(spans):
        by_name.setdefault(sp.name, []).append(i)

    def pick(name, site=None, parent=None, span_range=(0, len(spans))):
        lo, hi = span_range
        return [
            i for i in by_name.get(name, [])
            if lo <= i < hi
            and (site is None or spans[i].site == site)
            and (parent is None or (spans[i].parent >= 0 and spans[spans[i].parent].name == parent))
        ]

    def secs(idx):
        return [spans[i].seconds for i in idx]

    def info_sum(idx, key):
        return sum(spans[i].info.get(key, 0) for i in idx)

    def ms(idx):
        m = _median(secs(idx))
        return None if m is None else 1e3 * m

    def s(idx):
        return _median(secs(idx))

    children: dict[int, list[int]] = {}
    for i, sp in enumerate(spans):
        if sp.parent >= 0:
            children.setdefault(sp.parent, []).append(i)

    # every traced training run of a workload builds the same vocabulary
    glove = [i for i in pick("text.load_glove") if "vocab" in spans[i].info]
    vocab_size = spans[glove[-1]].info["vocab"] if glove else None

    out: dict[str, tuple[float | None, str]] = {}
    fwd_train = pick("nn.forward_batch", site="train")
    fwd_cycle = pick("nn.forward_batch", span_range=cycle)
    pb = pick("nn.predict_batch")
    out["nn.forward_batch.train_ms"] = (ms(fwd_train), "ms")
    out["nn.predict_batch.ms_per_kpost"] = (
        _ratio(1e3 * sum(secs(pb)), info_sum(pb, "posts") / 1e3), "ms/kpost")
    out["nn.forward_batch.token_fill"] = (
        _ratio(info_sum(fwd_cycle, "tokens"), info_sum(fwd_cycle, "cells")), "ratio")
    cache = [spans[i].info["cache_bytes"] for i in fwd_train if "cache_bytes" in spans[i].info]
    out["nn.forward_cache_mb"] = (
        None if not cache else _median(cache) / 2**20, "MiB")
    out["nn.make_dropout_masks.ms"] = (ms(pick("nn.make_dropout_masks")), "ms")
    out["nn.copy_model.ms"] = (ms(pick("nn.copy_model")), "ms")
    out["nn.save_model.ms"] = (ms(pick("nn.save_model")), "ms")
    out["nn.load_model.ms"] = (ms(pick("nn.load_model")), "ms")

    bp = pick("train.backprop")
    out["train.backprop.self_ms"] = (
        None if not bp else 1e3 * _median([own[i] for i in bp]), "ms")
    rms = pick("train.rmsprop_update")
    out["train.rmsprop_update.ms"] = (ms(rms), "ms")
    touched = [spans[i].info["unique_ids"] / vocab_size for i in fwd_train
               if vocab_size and "unique_ids" in spans[i].info]
    out["train.embedding_rows_touched"] = (
        None if not touched else sum(touched) / len(touched), "ratio")
    out["train.rmsprop_bytes_per_step"] = (
        _median([spans[i].info["bytes"] for i in rms if "bytes" in spans[i].info]), "bytes")

    # a step is masks + backprop + rmsprop, from the masks' start to the update's end
    steps, fit_self, fit_steps, fit_secs, eval_secs = [], 0.0, 0, 0.0, 0.0
    for f in pick("train.fit"):
        start, n = None, 0
        for c in children.get(f, []):
            if spans[c].name == "nn.make_dropout_masks":
                start = spans[c].start
            elif spans[c].name == "train.rmsprop_update" and start is not None:
                steps.append(spans[c].end - start)
                start, n = None, n + 1
        if n:
            fit_self += own[f]
            fit_steps += n
            fit_secs += spans[f].seconds
            eval_secs += sum(spans[c].seconds for c in children.get(f, [])
                             if spans[c].name == "nn.predict_batch")
    out["train.step_ms.p50"] = (None if not steps else 1e3 * _median(steps), "ms")
    out["train.step_ms.p95"] = (None if not steps else 1e3 * _p95(steps), "ms")
    out["train.step_ms.samples"] = (len(steps), "count")
    out["train.fit.self_ms_per_step"] = (_ratio(1e3 * fit_self, fit_steps), "ms")
    out["train.eval_share"] = (_ratio(eval_secs, fit_secs), "ratio")
    out["train.encode_dataset.s"] = (s(pick("train.encode_dataset")), "s")

    glove_s = s(pick("text.load_glove"))
    out["text.load_glove.s"] = (glove_s, "s")
    out["text.glove_lines_per_s"] = (_ratio(glove_lines, glove_s), "lines/s")
    out["text.glove_match_ratio"] = (
        None if not glove else spans[glove[-1]].info["matched"] / (vocab_size - 2), "ratio")
    out["text.build_vocab.s"] = (s(pick("text.build_vocab")), "s")
    tok = pick("text.tokenize", parent="cli.predict") + pick("text.encode", parent="cli.predict")
    out["text.tokenize_encode.us_per_post"] = (
        _ratio(1e6 * sum(secs(tok)), len(pick("text.encode", parent="cli.predict"))), "us/post")
    enc = pick("text.encode", span_range=cycle)
    out["text.truncated_ratio"] = (_ratio(info_sum(enc, "truncated"), len(enc)), "ratio")

    out["ingest.load_dataset.s"] = (s(pick("ingest.load_dataset")), "s")
    for name in ("parse_instances", "parse_truth"):
        idx = pick("ingest." + name)
        out[f"ingest.{name}.us_per_post"] = (
            _ratio(1e6 * sum(secs(idx)), info_sum(idx, "items")), "us/post")
    out["metrics.evaluate.ms"] = (ms(pick("metrics.evaluate")), "ms")
    out["analytics.write_analytics.ms"] = (ms(pick("analytics.write_analytics")), "ms")
    for cmd in ("train", "predict", "evaluate", "analyze"):
        # calls that parsed no posts (predict of the empty file) are setup, not work
        idx = [i for i in pick("cli." + cmd)
               if cmd != "predict" or any(spans[c].info.get("items") for c in children.get(i, []))]
        out[f"cli.{cmd}.self_ms"] = (
            None if not idx else 1e3 * _median([own[i] for i in idx]), "ms")
    return out


def summary(tracer) -> list[tuple[str, int, float, float]]:
    """(name@site, calls, total s, self s) per wrapped function, by total time."""
    own = tracer.self_seconds()
    rows: dict[str, list] = {}
    for i, sp in enumerate(tracer.spans):
        row = rows.setdefault(f"{sp.name}@{sp.site}", [0, 0.0, 0.0])
        row[0] += 1
        row[1] += sp.seconds
        row[2] += own[i]
    return sorted(((k, *v) for k, v in rows.items()), key=lambda r: -r[2])
