"""Tokenization, vocabulary construction, and GloVe-initialized embeddings."""

import string
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ParseError
from .rng import named_rng

PAD_ID = 0
UNK_ID = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

# Uniform range for embedding rows of tokens absent from the vector file.
OOV_INIT_SCALE = 0.05

_ASCII_PUNCT = frozenset(string.punctuation)


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, peel leading/trailing ASCII punctuation.

    Punctuation inside a chunk (don't, u.s.) is left alone; each peeled
    character becomes its own token, in text order.
    """
    tokens: list[str] = []
    for chunk in text.lower().split():
        i, j = 0, len(chunk)
        lead = []
        while i < j and chunk[i] in _ASCII_PUNCT:
            lead.append(chunk[i])
            i += 1
        trail = []
        while j > i and chunk[j - 1] in _ASCII_PUNCT:
            trail.append(chunk[j - 1])
            j -= 1
        tokens.extend(lead)
        if i < j:
            tokens.append(chunk[i:j])
        tokens.extend(reversed(trail))
    return tokens


@dataclass(frozen=True)
class Vocabulary:
    """Corpus tokens mapped to dense ids; ids 0 and 1 are reserved for PAD/UNK."""

    token_to_id: dict[str, int]
    id_to_token: list[str]

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def lookup(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    @classmethod
    def from_tokens(cls, tokens: list[str]) -> "Vocabulary":
        """Vocabulary whose corpus tokens are `tokens`, in id order from 2."""
        id_to_token = [PAD_TOKEN, UNK_TOKEN] + list(tokens)
        token_to_id = {tok: i + 2 for i, tok in enumerate(tokens)}
        return cls(token_to_id=token_to_id, id_to_token=id_to_token)


def build_vocab(corpus: Iterable[list[str]]) -> Vocabulary:
    """Vocabulary of every token in the corpus.

    Ordering is deterministic: descending frequency, ties broken
    lexicographically.
    """
    counts = Counter()
    for tokens in corpus:
        counts.update(tokens)
    return Vocabulary.from_tokens(sorted(counts, key=lambda tok: (-counts[tok], tok)))


def load_glove(
    stream: Iterable[str],
    vocab: Vocabulary,
    d: int,
    seed: int = 0,
) -> tuple[np.ndarray, int]:
    """Build a float32 (vocab.size, d) embedding matrix from a GloVe-format
    text stream.

    Rows for vocabulary tokens present in the stream are copied verbatim;
    the rest (UNK included) are drawn uniformly from the OOV range with a
    deterministic per-row stream; the PAD row stays zero. The matrix is
    fine-tuned with the rest of the model. Returns the matrix and the
    matched-token count.
    """
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


def encode(tokens: list[str], vocab: Vocabulary, max_len: int) -> list[int]:
    """Ids of the first max_len tokens."""
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    return [vocab.lookup(tok) for tok in tokens[:max_len]]
