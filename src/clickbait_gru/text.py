"""Tokenization, vocabulary construction, and GloVe-initialized embeddings."""

import itertools
import re
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

# Matched GloVe lines parsed per np.loadtxt call. Small blocks bound the
# parse's transient memory: after loading an 80k-line d=100 file the process
# kept about 12 MB beyond the matrix resident with blocks of 4096 lines and
# under 1 MB with 256, at the same speed.
GLOVE_BLOCK_LINES = 256

# a token is one ASCII punctuation character, or a run of non-whitespace
# that neither starts nor ends with one
_PUNCT = re.escape(string.punctuation)
_TOKEN = re.compile(rf"[{_PUNCT}]|[^\s{_PUNCT}](?:\S*[^\s{_PUNCT}])?")


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, peel leading/trailing ASCII punctuation.

    Punctuation inside a chunk (don't, u.s.) is left alone; each peeled
    character becomes its own token, in text order.
    """
    return _TOKEN.findall(text.lower())


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
        token_to_id = dict(zip(tokens, range(2, len(tokens) + 2)))
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

    Each non-blank line is a token and exactly d components, all separated
    by single spaces. Every line is checked for its component count only;
    the first line of each vocabulary token, and no other, is also parsed.
    Its components must be decimal numbers as `np.loadtxt` reads them (not
    `1_0` or non-ASCII digits, which `float()` reads) that stay finite once
    rounded to float32. Any fault raises ParseError with the line number.
    Counts are checked as lines are read and components a block of
    GLOVE_BLOCK_LINES matched lines at a time, so of several faulty lines
    the one reported is the first in that order.

    Rows for vocabulary tokens present in the stream hold their components
    rounded to float32; the rest (UNK included) are drawn uniformly from the
    OOV range, in id order from one seeded stream; the PAD row stays zero.
    The matrix is fine-tuned with the rest of the model. Returns the matrix
    and the matched-token count.
    """
    matrix = np.zeros((vocab.size, d), dtype=np.float32)
    found = np.zeros(vocab.size, dtype=bool)
    vocab_lines = _vocab_lines(stream, vocab, d)
    while block := list(itertools.islice(vocab_lines, GLOVE_BLOCK_LINES)):
        ids, lines, linenos = map(list, zip(*block))
        matrix[ids] = _parse_vectors(lines, linenos, d)
        found[ids] = True

    missing = 1 + np.flatnonzero(~found[1:])  # PAD row stays zero
    rng = named_rng(seed, "glove-oov")
    matrix[missing] = rng.uniform(-OOV_INIT_SCALE, OOV_INIT_SCALE, size=(len(missing), d))
    return matrix, int(found.sum())


def _vocab_lines(stream: Iterable[str], vocab: Vocabulary, d: int):
    """(token id, line, line number) of the first line of each vocabulary
    token in a GloVe stream; a non-blank line without d components raises
    ParseError."""
    unseen = dict(vocab.token_to_id)
    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n")
        if not line:
            continue
        if line.count(" ") != d:
            raise ParseError(
                f"expected {d} vector components, found {line.count(' ')}", line=lineno
            )
        token_id = unseen.pop(line.partition(" ")[0], None)
        if token_id is not None:
            yield token_id, line, lineno


def _parse_vectors(lines: list[str], linenos: list[int], d: int) -> np.ndarray:
    """float32 (len(lines), d) components of GloVe lines, token column
    skipped, each parsed as float64 and rounded once. The first line with a
    component that does not parse or whose float32 is not finite raises
    ParseError with its number in linenos."""
    try:
        rows = np.loadtxt(
            lines, dtype=np.float64, delimiter=" ", comments=None, ndmin=2,
            usecols=range(1, d + 1),
        )
    except ValueError as exc:
        fault = f"bad vector component: {exc}"
    else:
        with np.errstate(over="ignore"):  # a component past the float32 range
            rows = rows.astype(np.float32)
        if np.isfinite(rows).all():
            return rows
        fault = "vector component not finite in float32"
    if len(lines) > 1:  # find the first faulty line
        for i in range(len(lines)):
            _parse_vectors(lines[i : i + 1], linenos[i : i + 1], d)
    raise ParseError(fault, line=linenos[0])


def encode(tokens: list[str], vocab: Vocabulary, max_len: int) -> list[int]:
    """Ids of the first max_len tokens."""
    get = vocab.token_to_id.get
    return [get(tok, UNK_ID) for tok in tokens[:max_len]]
