"""Tokenizer, vocabulary, embedding loading, sequence encoding."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clickbait_gru.errors import ParseError
from clickbait_gru.text import (
    PAD_ID,
    UNK_ID,
    Vocabulary,
    build_vocab,
    load_glove,
    tokenize,
)
from clickbait_gru.train import encode_posts
from conftest import make_record


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("You Won't BELIEVE") == ["you", "won't", "believe"]

    def test_trailing_punctuation_split_off(self):
        assert tokenize("Wow!") == ["wow", "!"]
        assert tokenize("what?!") == ["what", "?", "!"]

    def test_leading_punctuation_split_off(self):
        assert tokenize('"quote') == ['"', "quote"]
        assert tokenize("(really?)") == ["(", "really", "?", ")"]

    def test_internal_punctuation_kept(self):
        assert tokenize("won't u.s. 3.5") == ["won't", "u.s", ".", "3.5"]

    def test_pure_punctuation_token(self):
        assert tokenize("- -- #tag") == ["-", "-", "-", "#", "tag"]

    def test_empty_and_whitespace(self):
        assert tokenize("") == []
        assert tokenize("   \t  ") == []

    @given(st.text(max_size=80))
    @settings(max_examples=150, deadline=None)
    def test_idempotent_under_rejoin(self, s):
        once = tokenize(s)
        assert tokenize(" ".join(once)) == once

    @given(st.text(max_size=80))
    @settings(max_examples=150, deadline=None)
    def test_tokens_never_contain_whitespace(self, s):
        for tok in tokenize(s):
            assert tok and not any(c.isspace() for c in tok)


class TestVocabulary:
    def test_build_orders_by_frequency_then_lexicographic(self):
        corpus = [["b", "a", "b"], ["c", "a", "b"]]
        vocab = build_vocab(corpus)
        # b:3, a:2, c:1 -> ids 2, 3, 4
        assert vocab.lookup("b") == 2
        assert vocab.lookup("a") == 3
        assert vocab.lookup("c") == 4

    def test_tie_broken_lexicographically(self):
        vocab = build_vocab([["zz", "aa"]])
        assert vocab.lookup("aa") == 2
        assert vocab.lookup("zz") == 3

    def test_unknown_token_maps_to_unk(self):
        vocab = build_vocab([["a"]])
        assert vocab.lookup("never-seen") == UNK_ID

    def test_size_includes_reserved_ids(self):
        assert build_vocab([["a", "b"]]).size == 4

    def test_from_tokens_round_trip(self):
        vocab = build_vocab([["x", "y", "x"]])
        again = Vocabulary.from_tokens(vocab.id_to_token[2:])
        assert again == vocab


def encode_texts(texts, vocab, max_len):
    """encode_posts of one post per text."""
    records = [make_record(str(i), text) for i, text in enumerate(texts)]
    return encode_posts(records, vocab, max_len, "postText")


class TestEncode:
    def test_pads_to_max_len(self):
        vocab = build_vocab([["a", "b"]])
        ids, lengths = encode_texts(["a b", "b"], vocab, max_len=5)
        assert lengths.tolist() == [2, 1]
        assert ids.tolist() == [[2, 3, PAD_ID, PAD_ID, PAD_ID], [3, PAD_ID, PAD_ID, PAD_ID, PAD_ID]]
        assert ids.dtype == np.int32

    def test_truncates_to_first_max_len_tokens(self):
        vocab = build_vocab([["a", "b", "c"]])
        ids, lengths = encode_texts(["a b c"], vocab, max_len=2)
        assert lengths.tolist() == [2]
        assert ids.tolist() == [[2, 3]]

    def test_unknown_tokens_become_unk(self):
        vocab = build_vocab([["a"]])
        ids, _ = encode_texts(["a mystery"], vocab, max_len=4)
        assert ids[0, :2].tolist() == [2, UNK_ID]

    def test_empty_tokens(self):
        vocab = build_vocab([["a"]])
        ids, lengths = encode_texts([""], vocab, max_len=3)
        assert lengths.tolist() == [0]
        assert ids.tolist() == [[PAD_ID] * 3]


def glove_stream(rows):
    return io.StringIO("".join(f"{w} {' '.join(map(str, v))}\n" for w, v in rows))


class TestLoadGlove:
    def test_matches_and_counts(self):
        vocab = build_vocab([["cat", "dog"]])
        table, matched = load_glove(
            glove_stream([("cat", [1.0, 2.0]), ("bird", [9.0, 9.0])]), vocab, d=2
        )
        assert matched == 1
        assert table.shape == (4, 2)
        np.testing.assert_array_equal(table[vocab.lookup("cat")], [1.0, 2.0])

    def test_pad_row_stays_zero(self):
        vocab = build_vocab([["cat"]])
        table, _ = load_glove(glove_stream([("cat", [1.0, 2.0])]), vocab, d=2)
        np.testing.assert_array_equal(table[PAD_ID], [0.0, 0.0])

    def test_missing_rows_small_uniform_nonzero(self):
        vocab = build_vocab([["cat", "dog"]])
        table, _ = load_glove(glove_stream([("cat", [1.0, 2.0])]), vocab, d=2, seed=3)
        for row_id in (UNK_ID, vocab.lookup("dog")):
            row = table[row_id]
            assert np.all(np.abs(row) <= 0.05)
            assert np.any(row != 0.0)

    def test_wrong_dimension_reports_line(self):
        vocab = build_vocab([["cat"]])
        stream = glove_stream([("ok", [1.0, 2.0]), ("cat", [1.0, 2.0, 3.0])])
        with pytest.raises(ParseError, match="line 2"):
            load_glove(stream, vocab, d=2)

    def test_deterministic_given_seed(self):
        vocab = build_vocab([["cat", "dog", "emu"]])
        rows = [("cat", [0.5, -0.5])]
        a, _ = load_glove(glove_stream(rows), vocab, d=2, seed=9)
        b, _ = load_glove(glove_stream(rows), vocab, d=2, seed=9)
        np.testing.assert_array_equal(a, b)
        c, _ = load_glove(glove_stream(rows), vocab, d=2, seed=10)
        assert not np.array_equal(a, c)

    def test_duplicate_file_token_first_wins(self):
        vocab = build_vocab([["cat"]])
        stream = glove_stream([("cat", [1.0, 1.0]), ("cat", [2.0, 2.0])])
        table, matched = load_glove(stream, vocab, d=2)
        assert matched == 1
        np.testing.assert_array_equal(table[vocab.lookup("cat")], [1.0, 1.0])

    def test_default_dtype_single_precision(self):
        vocab = build_vocab([["cat"]])
        table, _ = load_glove(glove_stream([("cat", [1.0, 2.0])]), vocab, d=2)
        assert table.dtype == np.float32

