"""Deterministic synthetic inputs for the benchmark workloads.

Every file the program reads during a benchmark run comes from here: labelled
challenge-format corpora (`instances.jsonl` + `truth.jsonl`), an empty
instances file and a GloVe-format text file. The output is a pure function of
(workload, seed); the seed changes which words, lengths and labels appear,
never the sizes, so every seed costs the program the same amount of work.

The generator shares no code with the program, so a later change to the
program's tokenizer, ingest or encoding cannot change the inputs it is
measured on.
"""

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

D = 100
MAX_LEN = 32
GENERATOR_VERSION = 1
ORACLE_POSTS = 3

# Five-decimal judgment levels as the challenge truth files write them.
LEVELS = (0.0, 0.33333, 0.66667, 1.0)
# Share of clickbait posts, as in the public challenge corpus.
BAIT_SHARE = 0.25
# Tokens the tokenizer peels off as separate tokens.
PUNCT = ("?", "!", ":", ",", ".")
SYLLABLES = (
    "ba be bi bo bu ca ce ci co cu da de di do du fa fe fi fo fu ga ge gi go gu "
    "ha he hi ho hu ka ke ki ko ku la le li lo lu ma me mi mo mu na ne ni no nu "
    "pa pe pi po pu ra re ri ro ru sa se si so su ta te ti to tu va ve vi vo vu"
).split()


@dataclass(frozen=True)
class CorpusSpec:
    """Shape of one workload's data; see BENCHMARK.json for why each exists."""

    n_train: int
    n_valid: int
    n_fresh: int  # posts to score, evaluate and analyze
    fresh_shards: int  # files the fresh posts are split into, one CLI call each
    short: bool  # lengths around 10 tokens; else every post >= MAX_LEN
    head_types: int  # Zipf-ranked common words
    tail_pool: int  # rare words drawn uniformly (0 = none)
    tail_share: float  # share of word tokens drawn from the rare tail
    glove_lines_per_type: float  # GloVe file size as a multiple of V
    glove_match: float  # share of vocabulary words the GloVe file covers
    corpus: str  # seeds the train/valid/GloVe draws; equal names give equal files


SHORT = dict(n_train=3072, n_valid=768, short=True, head_types=8000, tail_pool=100000,
             tail_share=0.6, glove_lines_per_type=4.0, glove_match=0.8, corpus="train-short")
SPECS = {
    "train-short": CorpusSpec(n_fresh=4096, fresh_shards=1, **SHORT),
    "train-long": CorpusSpec(
        n_train=2048, n_valid=512, n_fresh=2048, fresh_shards=1, short=False, head_types=2000,
        tail_pool=0, tail_share=0.0, glove_lines_per_type=1.5, glove_match=0.8,
        corpus="train-long",
    ),
    # train-short's corpus and GloVe file, plus many more fresh posts to score,
    # in 10k-post files so that a run holds several timed calls
    "score": CorpusSpec(n_fresh=30000, fresh_shards=3, **SHORT),
}


def word(k: int) -> str:
    """Distinct lowercase pseudo-word for every k >= 0 (bijective base-60)."""
    n = len(SYLLABLES)
    parts = [SYLLABLES[k % n]]
    k //= n
    while k:
        k -= 1
        parts.append(SYLLABLES[k % n])
        k //= n
    parts.append(SYLLABLES[len(parts) % n])  # >= 4 letters
    return "".join(parts)


def _key(name: str) -> int:
    return sum(ord(c) * 31**i for i, c in enumerate(name)) % 2**32


def _lengths(rng, n: int, short: bool) -> np.ndarray:
    if short:
        raw = np.exp(rng.normal(np.log(9.5), 0.45, size=n))
        return np.clip(np.rint(raw), 2, 64).astype(np.int64)
    return rng.integers(MAX_LEN, MAX_LEN + 17, size=n)


def _judgments(n: int, split: str):
    """Judgment rows whose multiset depends only on (n, split), not the seed.

    Holding the label multiset fixed keeps validation MSE comparable across
    seeds; the seed decides which post gets which row.
    """
    rng = np.random.default_rng([GENERATOR_VERSION, n, _key(split)])
    bait = np.arange(n) < int(round(BAIT_SHARE * n))
    cdf = np.where(bait[:, None], np.cumsum([0.05, 0.15, 0.4, 0.4]), np.cumsum([0.45, 0.4, 0.12, 0.03]))
    levels = np.zeros((n, 5), dtype=np.int64)
    todo = np.arange(n)
    while todo.size:  # redraw rows whose median disagrees with their class
        u = rng.random((todo.size, 5))
        drawn = np.sort((u[:, :, None] >= cdf[todo][:, None, :3]).sum(axis=2), axis=1)
        levels[todo] = drawn
        todo = todo[(drawn[:, 2] >= 2) != bait[todo]]
    return [([LEVELS[i] for i in row], bool(b)) for row, b in zip(levels.tolist(), bait)]


class _Words:
    """Seeded word sampler: Zipf head plus a uniform rare tail."""

    def __init__(self, spec: CorpusSpec, rng):
        self.spec = spec
        ranks = np.arange(1, spec.head_types + 1, dtype=np.float64)
        self.head_cdf = np.cumsum(1.0 / ranks)
        self.head_cdf /= self.head_cdf[-1]
        # which pseudo-word sits at each Zipf rank differs per seed
        self.head_ids = rng.permutation(spec.head_types + spec.tail_pool)[: spec.head_types]
        used = np.zeros(spec.head_types + spec.tail_pool, dtype=bool)
        used[self.head_ids] = True
        self.tail_ids = np.flatnonzero(~used)
        # marker words carry the clickbait signal; taken from ranks 20-59
        self.markers = self.head_ids[20:60]
        self._strings: dict[int, str] = {}

    def draw(self, rng, count: int) -> np.ndarray:
        ranks = np.minimum(np.searchsorted(self.head_cdf, rng.random(count)), self.spec.head_types - 1)
        ids = self.head_ids[ranks]
        if self.spec.tail_pool:
            tail = rng.random(count) < self.spec.tail_share
            ids[tail] = self.tail_ids[rng.integers(0, len(self.tail_ids), size=int(tail.sum()))]
        return ids

    def strings(self, ids: np.ndarray) -> list[str]:
        memo = self._strings
        out = []
        for k in ids.tolist():
            s = memo.get(k)
            if s is None:
                s = memo[k] = word(k)
            out.append(s)
        return out


def _posts(words: _Words, rng, n: int, split: str, id_base: int):
    """(instance, truth, token list) triples for one split."""
    judg = _judgments(n, split)
    order = rng.permutation(n)
    lengths = _lengths(rng, n, words.spec.short)
    punct = (rng.random(n) < 0.3) if words.spec.short else np.zeros(n, dtype=bool)
    n_words = lengths - punct
    starts = np.concatenate([[0], np.cumsum(n_words)])
    ids = words.draw(rng, int(starts[-1]))
    bait = np.array([judg[j][1] for j in order])
    marked = np.flatnonzero(bait & (rng.random(n) < 0.7))
    ids[starts[marked] + rng.integers(0, n_words[marked])] = words.markers[
        rng.integers(0, len(words.markers), size=marked.size)
    ]
    flat = words.strings(ids)
    titles = words.strings(words.draw(rng, 8 * n))
    marks = rng.integers(0, len(PUNCT), size=n)
    out = []
    for i in range(n):
        scores, is_bait = judg[order[i]]
        tokens = flat[starts[i] : starts[i + 1]]
        text = " ".join(tokens)
        if punct[i]:
            text += PUNCT[marks[i]]
            tokens.append(PUNCT[marks[i]])
        title = " ".join(titles[8 * i : 8 * i + 8])
        post_id = str(id_base + i)
        instance = {
            "id": post_id,
            "postText": [text],
            "postTimestamp": "Tue Jun 14 12:%02d:%02d +0000 2016" % (i // 60 % 60, i % 60),
            "postMedia": [],
            "targetTitle": title,
            "targetDescription": title,
            "targetKeywords": "",
            "targetParagraphs": [],
            "targetCaptions": [],
        }
        truth = {
            "id": post_id,
            "truthJudgments": scores,
            "truthMean": sum(scores) / 5.0,
            "truthMedian": scores[2],
            "truthClass": "clickbait" if is_bait else "no-clickbait",
        }
        out.append((instance, truth, tokens))
    return out


def _write_split(directory: str, posts) -> None:
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "instances.jsonl"), "w", encoding="utf-8") as f:
        f.writelines(json.dumps(inst) + "\n" for inst, _, _ in posts)
    with open(os.path.join(directory, "truth.jsonl"), "w", encoding="utf-8") as f:
        f.writelines(json.dumps(truth) + "\n" for _, truth, _ in posts)


def _write_glove(path: str, tokens: list[str], rng) -> None:
    # a pool of formatted components: parse cost matches real vectors,
    # writing stays fast
    pool = ["%.5f" % v for v in rng.normal(0.0, 0.4, size=4096)]
    with open(path, "w", encoding="utf-8") as f:
        for start in range(0, len(tokens), 4096):
            part = tokens[start : start + 4096]
            picks = rng.integers(0, len(pool), size=(len(part), D)).tolist()
            f.writelines(tok + " " + " ".join([pool[i] for i in row]) + "\n" for tok, row in zip(part, picks))


def _length_hist(token_lists) -> dict[str, int]:
    edges = (0, 8, 16, 24, 32, 48, 10**9)
    hist = {}
    lengths = np.array([len(t) for t in token_lists])
    for lo, hi in zip(edges, edges[1:]):
        label = f"{lo + 1}-{hi}" if hi < 10**9 else f">{lo}"
        hist[label] = int(((lengths > lo) & (lengths <= hi)).sum())
    return hist


def generate(workload: str, seed: int, root: str) -> dict:
    """Write the workload's inputs under root and return their manifest."""
    spec = SPECS[workload]
    rng = np.random.default_rng([GENERATOR_VERSION, seed, _key(spec.corpus)])
    words = _Words(spec, rng)
    train = _posts(words, rng, spec.n_train, "train", 10**17)
    valid = _posts(words, rng, spec.n_valid, "valid", 2 * 10**17)

    vocab = sorted({tok for _, _, toks in train for tok in toks})
    matched = [tok for tok in vocab if rng.random() < spec.glove_match]
    n_lines = int(spec.glove_lines_per_type * len(vocab))
    vocab_set = set(vocab)
    fillers = []
    k = spec.head_types + spec.tail_pool
    while len(matched) + len(fillers) < n_lines:
        tok = word(k)
        k += 1
        if tok not in vocab_set:
            fillers.append(tok)
    glove_tokens = matched + fillers
    glove_tokens = [glove_tokens[i] for i in rng.permutation(len(glove_tokens))]

    fresh_rng = np.random.default_rng([GENERATOR_VERSION, seed, _key(workload), 1])
    size = spec.n_fresh // spec.fresh_shards
    shards = [_posts(words, fresh_rng, size, "fresh", 3 * 10**17 + i * size)
              for i in range(spec.fresh_shards)]
    fresh = [post for shard in shards for post in shard]

    _write_split(os.path.join(root, "train"), train)
    _write_split(os.path.join(root, "valid"), valid)
    for i, shard in enumerate(shards):
        _write_split(os.path.join(root, f"fresh-{i}"), shard)
    with open(os.path.join(root, "empty.jsonl"), "w", encoding="utf-8"):
        pass
    _write_glove(os.path.join(root, "glove.txt"), glove_tokens, rng)

    train_tokens = [toks for _, _, toks in train]
    fresh_tokens = [toks for _, _, toks in fresh]
    manifest = {
        "workload": workload,
        "seed": seed,
        "generator_version": GENERATOR_VERSION,
        "spec": asdict(spec),
        "vocab_size": len(vocab) + 2,  # + PAD and UNK
        "glove_lines": len(glove_tokens),
        "glove_match_ratio": len(matched) / len(vocab),
        "train_length_hist": _length_hist(train_tokens),
        "train_truncated_ratio": float(np.mean([len(t) > MAX_LEN for t in train_tokens])),
        "fresh_length_hist": _length_hist(fresh_tokens),
        "fresh_truncated_ratio": float(np.mean([len(t) > MAX_LEN for t in fresh_tokens])),
        # per fresh file, the posts the float64 scalar oracle scores again
        "oracle_posts": [[{"id": inst["id"], "tokens": toks} for inst, _, toks in shard[:ORACLE_POSTS]]
                         for shard in shards],
    }
    with open(os.path.join(root, "manifest.json"), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
    return manifest


def ensure(workload: str, seed: int, cache_dir: str) -> tuple[str, dict]:
    """Cached inputs for (workload, seed); generated on first use."""
    root = os.path.join(cache_dir, f"v{GENERATOR_VERSION}-{workload}-s{seed}")
    manifest_path = os.path.join(root, "manifest.json")
    if os.path.exists(manifest_path):  # written last, so its presence means complete
        with open(manifest_path, encoding="utf-8") as f:
            return root, json.load(f)
    return root, generate(workload, seed, root)
