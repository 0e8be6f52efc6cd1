"""Tokenizer, vocabulary, embedding loading, sequence encoding."""

import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clickbait_gru import text
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
from oracle import naive_glove, naive_tokenize


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

    @given(st.text(alphabet=st.sampled_from(" \t\x1c\u2003\u0130-'.!?(aZ5é"), max_size=40)
           | st.text(max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_matches_chunk_peeling_reference(self, s):
        assert tokenize(s) == naive_tokenize(s)


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
    return encode_posts(records, vocab, max_len)


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


# components finite in float32, in the spellings GloVe files and float() share
COMPONENTS = st.one_of(
    st.floats(-3.4e38, 3.4e38).map(repr),
    st.floats(-1e3, 1e3).map(lambda x: f"{x:.25e}"),
    st.floats(-1e3, 1e3).map(lambda x: f"{x:.5f}"),
    st.integers(-(10**20), 10**20).map(str),
    st.from_regex(r"-?[0-9]?\.[0-9]{18,40}([eE][+-]?[0-3]?[0-7])?", fullmatch=True),
    st.sampled_from(["-0", "0", "-0.0", "+1.5", ".5", "5.", "1E-5", "1e-400", "4.9e-324"]),
)


@st.composite
def glove_files(draw):
    """(vocabulary, GloVe text, d): vocabulary and other tokens, repeats and
    blank lines, every line with d finite components."""
    d = draw(st.integers(1, 3))
    words = draw(st.lists(st.text("abcdef", min_size=1, max_size=3), min_size=2, unique=True))
    vocab = Vocabulary.from_tokens(words[: draw(st.integers(1, len(words)))])
    line = st.one_of(
        st.just(""),
        st.tuples(st.sampled_from(words), st.lists(COMPONENTS, min_size=d, max_size=d)).map(
            lambda t: " ".join([t[0], *t[1]])
        ),
    )
    return vocab, "".join(f"{row}\n" for row in draw(st.lists(line, max_size=12))), d


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

    @pytest.mark.parametrize("component", ["nan", "inf", "-inf", "1e999", "-4e38"])
    def test_non_finite_component_reports_line(self, component):
        """Also a finite component that rounds to an infinite float32."""
        vocab = build_vocab([["cat", "dog"]])
        stream = io.StringIO(f"cat 1.0 2.0\nbird nan nan\ndog 0.5 {component}\n")
        with pytest.raises(ParseError, match="line 3: vector component not finite"):
            load_glove(stream, vocab, d=2)

    @pytest.mark.parametrize("component", ["1_0", "\uff11", "0x1p3", "1,0", "", "\t"])
    def test_unparsable_component_reports_line(self, component):
        """Underscores and non-ASCII digits, which float() reads, are refused too."""
        vocab = build_vocab([["cat", "dog"]])
        stream = io.StringIO(f"cat 1.0 2.0\ndog {component} 2.0\n")
        with pytest.raises(ParseError, match="line 2: bad vector component"):
            load_glove(stream, vocab, d=2)

    @pytest.mark.parametrize("line", ["cat ", "cat \r"])
    def test_empty_single_component_reports_line(self, line):
        """np.loadtxt skips a blank line, so the empty component must not reach it alone."""
        vocab = build_vocab([["cat"]])
        with pytest.raises(ParseError, match="line 2: bad vector component"):
            load_glove(io.StringIO(f"\n{line}\n"), vocab, d=1)

    def test_first_faulty_line_of_a_block_reported(self):
        vocab = build_vocab([["a", "b", "c", "d"]])
        stream = io.StringIO("a 1 1\nb 1 nan\nc 1 1\nd x 1\n")
        with pytest.raises(ParseError, match="line 2: vector component not finite"):
            load_glove(stream, vocab, d=2)

    def test_fault_in_a_later_block_reports_its_line(self):
        vocab = build_vocab([["a", "b", "c", "d", "e"]])
        stream = io.StringIO("a 1\nb 2\nc 3\nd 4\ne 5_0\n")
        with mock.patch.object(text, "GLOVE_BLOCK_LINES", 2):
            with pytest.raises(ParseError, match="line 5: bad vector component"):
                load_glove(stream, vocab, d=1)

    def test_count_fault_reported_before_pending_block_is_parsed(self):
        """The count is checked as lines are read, components a block at a time."""
        vocab = build_vocab([["cat"]])
        stream = io.StringIO("cat 1.0 oops\nbird 1.0\n")
        with pytest.raises(ParseError, match="line 2: expected 2 vector components, found 1"):
            load_glove(stream, vocab, d=2)

    def test_more_matched_rows_than_one_block_match_line_by_line_loader(self):
        tokens = [f"w{i}" for i in range(text.GLOVE_BLOCK_LINES + 100)]
        vocab = Vocabulary.from_tokens(tokens + ["never"])
        rng = np.random.default_rng(4)
        stream = "".join(f"{tok} {rng.normal():.9g} {rng.normal()!r}\n" for tok in tokens)
        got = load_glove(io.StringIO(stream), vocab, d=2, seed=5)
        want = naive_glove(io.StringIO(stream), vocab, d=2, seed=5)
        assert got[1] == want[1] == len(tokens)
        assert got[0].tobytes() == want[0].tobytes()

    @given(glove=glove_files(), block_lines=st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_matches_line_by_line_loader(self, glove, block_lines):
        """Bitwise the float32 matrix and the count of the loader that parses
        each matched line with float(), for any block size."""
        vocab, body, d = glove
        with mock.patch.object(text, "GLOVE_BLOCK_LINES", block_lines):
            table, matched = load_glove(io.StringIO(body), vocab, d, seed=7)
        want_table, want_matched = naive_glove(io.StringIO(body), vocab, d, seed=7)
        assert matched == want_matched
        assert table.dtype == want_table.dtype == np.float32
        assert table.tobytes() == want_table.tobytes()
