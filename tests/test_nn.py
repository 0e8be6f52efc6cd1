"""GRU cell, bidirectional encoder, dropout, checkpoint format."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clickbait_gru.errors import DataError
from clickbait_gru.nn import (
    DenseSigmoid,
    GruParams,
    Model,
    encode_post,
    forward_batch,
    gru_step,
    init_gru_params,
    init_model,
    load_model,
    make_dropout_masks,
    pack_batch,
    parameter_arrays,
    predict,
    predict_batch,
    run_direction,
    save_model,
    sigmoid,
)
from clickbait_gru.rng import named_rng
from clickbait_gru.text import EmbeddingTable, TokenSequence, Vocabulary
from conftest import tiny_model
from oracle import naive_predict


def zero_params(h, d, dtype=np.float64):
    return GruParams(
        W_r=np.zeros((h, d), dtype=dtype),
        W_z=np.zeros((h, d), dtype=dtype),
        W_h=np.zeros((h, d), dtype=dtype),
        U_r=np.zeros((h, h), dtype=dtype),
        U_z=np.zeros((h, h), dtype=dtype),
        U_h=np.zeros((h, h), dtype=dtype),
        b_r=np.zeros(h, dtype=dtype),
        b_z=np.zeros(h, dtype=dtype),
        b_h=np.zeros(h, dtype=dtype),
    )


def seq_of(ids, length=None):
    ids = np.asarray(ids, dtype=np.int32)
    return TokenSequence(ids=ids, length=len(ids) if length is None else length)


class TestGruStep:
    def test_zero_params_zero_state(self):
        h, _ = gru_step(zero_params(3, 2), np.zeros(2), np.zeros(3))
        np.testing.assert_array_equal(h, np.zeros(3))

    def test_zero_params_halve_previous_state(self):
        # gates sit at 0.5 and the candidate at 0, so the update halves h
        v = np.array([0.6, -0.2, 0.9])
        h, _ = gru_step(zero_params(3, 2), np.zeros(2), v)
        np.testing.assert_allclose(h, 0.5 * v, rtol=0, atol=1e-15)

    def test_matches_scalar_hand_evaluation(self):
        """Fixed 2x2 weights, every gate written out longhand."""
        p = GruParams(
            W_r=np.array([[0.1, -0.2], [0.3, 0.0]]),
            W_z=np.array([[-0.1, 0.4], [0.2, 0.2]]),
            W_h=np.array([[0.5, 0.1], [-0.3, 0.2]]),
            U_r=np.array([[0.2, 0.1], [0.0, -0.1]]),
            U_z=np.array([[-0.2, 0.3], [0.1, 0.1]]),
            U_h=np.array([[0.4, -0.4], [0.2, 0.3]]),
            b_r=np.array([0.01, -0.02]),
            b_z=np.array([0.03, 0.0]),
            b_h=np.array([-0.01, 0.02]),
        )
        x = [0.5, -1.0]
        hp = [0.2, 0.3]

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        expected = []
        for i in range(2):
            a_r = p.b_r[i] + p.W_r[i][0] * x[0] + p.W_r[i][1] * x[1]
            a_r += p.U_r[i][0] * hp[0] + p.U_r[i][1] * hp[1]
            a_z = p.b_z[i] + p.W_z[i][0] * x[0] + p.W_z[i][1] * x[1]
            a_z += p.U_z[i][0] * hp[0] + p.U_z[i][1] * hp[1]
            r_i, z_i = sig(a_r), sig(a_z)
            uh_i = p.U_h[i][0] * hp[0] + p.U_h[i][1] * hp[1]
            a_h = p.b_h[i] + p.W_h[i][0] * x[0] + p.W_h[i][1] * x[1] + r_i * uh_i
            c_i = math.tanh(a_h)
            expected.append((1.0 - z_i) * hp[i] + z_i * c_i)

        h, _ = gru_step(p, np.array(x), np.array(hp))
        np.testing.assert_allclose(h, expected, rtol=0, atol=1e-14)

    def test_update_gate_forced_closed_keeps_state(self):
        p = zero_params(2, 2)
        p.b_z[:] = -40.0  # z ~ 0
        v = np.array([0.4, -0.7])
        h, _ = gru_step(p, np.ones(2), v)
        np.testing.assert_allclose(h, v, atol=1e-15)

    def test_update_gate_forced_open_takes_candidate(self):
        p = zero_params(2, 2)
        p.b_z[:] = 40.0  # z ~ 1
        p.b_h[:] = 0.3
        h, _ = gru_step(p, np.zeros(2), np.array([0.9, -0.9]))
        np.testing.assert_allclose(h, math.tanh(0.3), atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gru_step(zero_params(3, 2), np.zeros(5), np.zeros(3))

    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.01, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_state_stays_in_unit_interval(self, seed, scale):
        """Convex-combination update never escapes [-1, 1] from zero start."""
        rng = np.random.default_rng(seed)
        h, d = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        draw = lambda *s: rng.normal(0.0, scale, s)
        p = GruParams(
            W_r=draw(h, d), W_z=draw(h, d), W_h=draw(h, d),
            U_r=draw(h, h), U_z=draw(h, h), U_h=draw(h, h),
            b_r=draw(h), b_z=draw(h), b_h=draw(h),
        )
        state = np.zeros(h)
        for _ in range(8):
            state, _ = gru_step(p, draw(d), state)
            assert np.all(state >= -1.0) and np.all(state <= 1.0)


class TestRunDirection:
    def setup_method(self):
        self.p = init_gru_params(3, 4, np.random.default_rng(0), dtype=np.float64)

    def test_single_step_equals_gru_step(self):
        x = np.array([[0.1, -0.2, 0.3]])
        states = run_direction(self.p, x)
        expected, _ = gru_step(self.p, x[0], np.zeros(4))
        np.testing.assert_array_equal(states[0], expected)

    def test_reverse_two_step_composition(self):
        xs = np.array([[0.1, 0.2, 0.3], [-0.1, 0.0, 0.5]])
        states = run_direction(self.p, xs, reverse=True)
        h2, _ = gru_step(self.p, xs[1], np.zeros(4))
        h1, _ = gru_step(self.p, xs[0], h2)
        np.testing.assert_array_equal(states[0], h1)
        np.testing.assert_array_equal(states[1], h2)

    def test_zero_length_gives_single_zero_state(self):
        states = run_direction(self.p, np.zeros((0, 3)))
        assert states.shape == (1, 4)
        np.testing.assert_array_equal(states, 0.0)

    def test_forward_emits_all_prefix_states(self):
        xs = np.array([[0.1, 0.2, 0.3], [-0.1, 0.0, 0.5], [0.7, 0.7, 0.7]])
        states = run_direction(self.p, xs)
        h = np.zeros(4)
        for t in range(3):
            h, _ = gru_step(self.p, xs[t], h)
            np.testing.assert_array_equal(states[t], h)


class TestEncodePost:
    def test_output_length_twice_hidden(self):
        m = tiny_model(h=5)
        u = encode_post(m, seq_of([2, 3, 4]))
        assert u.shape == (10,)

    def test_zero_length_encodes_to_zero(self):
        m = tiny_model()
        u = encode_post(m, seq_of([0, 0, 0], length=0))
        np.testing.assert_array_equal(u, 0.0)

    def test_pad_tail_ignored(self):
        m = tiny_model()
        with_pad = encode_post(m, seq_of([2, 3, 0, 0], length=2))
        without = encode_post(m, seq_of([2, 3], length=2))
        np.testing.assert_array_equal(with_pad, without)

    def test_infer_mode_is_pure(self):
        m = tiny_model()
        a = encode_post(m, seq_of([2, 3, 4]))
        b = encode_post(m, seq_of([2, 3, 4]))
        assert np.array_equal(a, b)

    def test_train_mode_all_rates_zero_equals_infer(self):
        m = tiny_model()
        rng = named_rng(0, "dropout")
        train = encode_post(m, seq_of([2, 3, 4]), mode="train", rng=rng)
        infer = encode_post(m, seq_of([2, 3, 4]))
        np.testing.assert_array_equal(train, infer)

    def test_output_dropout_scales_survivors_by_two(self):
        m = tiny_model(dropout_gru_out=0.5)
        seq = seq_of([2, 3, 4])
        infer = encode_post(m, seq)
        dropped = encode_post(m, seq, mode="train", rng=named_rng(1, "dropout"))
        for got, base in zip(dropped, infer):
            assert got == 0.0 or np.isclose(got, 2.0 * base, rtol=1e-6)

    def test_train_mode_requires_rng(self):
        m = tiny_model(dropout_embed=0.2)
        with pytest.raises(ValueError, match="rng"):
            encode_post(m, seq_of([2, 3]), mode="train")

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            encode_post(tiny_model(), seq_of([2]), mode="test")


class TestPredict:
    def test_zero_head_gives_half(self):
        m = tiny_model()
        m.head.w[:] = 0.0
        m.head.b[:] = 0.0
        assert predict(m, seq_of([2, 3, 4])) == 0.5

    def test_output_strictly_inside_unit_interval(self):
        m = tiny_model(seed=3)
        for ids in ([2], [3, 4, 5], [9, 8, 7, 6]):
            s = predict(m, seq_of(ids))
            assert 0.0 < s < 1.0

    def test_matches_naive_oracle_spot_checks(self):
        m = tiny_model(seed=11)
        for ids, length in (([2, 3, 4], 3), ([5], 1), ([0], 0), ([9, 2, 9, 2, 9], 5)):
            fast = predict(m, seq_of(ids, length=length))
            slow = naive_predict(m, ids, length)
            assert abs(fast - slow) < 1e-12


class TestForwardBatch:
    def test_matches_per_sequence_predict(self):
        m = tiny_model(seed=4)
        seqs = [
            seq_of([2, 3, 4, 0, 0], length=3),
            seq_of([5, 6, 0, 0, 0], length=2),
            seq_of([0, 0, 0, 0, 0], length=0),
            seq_of([7, 8, 9, 2, 3], length=5),
        ]
        ids = np.stack([s.ids for s in seqs])
        lengths = np.array([s.length for s in seqs])
        batched, _ = forward_batch(m, ids, lengths)
        singles = [predict(m, s) for s in seqs]
        np.testing.assert_allclose(batched, singles, rtol=0, atol=1e-12)

    def test_predict_batch_chunking_preserves_order(self):
        m = tiny_model(seed=4)
        same_length = [seq_of([2 + (i % 7), 3, 4], length=3) for i in range(23)]
        mixed_lengths = [
            seq_of([2 + (i % 7), 3, 4, 5, 6], length=(i * 3) % 6) for i in range(23)
        ]
        for seqs in (same_length, mixed_lengths):
            all_at_once = predict_batch(m, seqs, chunk=512)
            chunked = predict_batch(m, seqs, chunk=5)
            np.testing.assert_array_equal(all_at_once, chunked)

    @given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 9), width=st.integers(1, 7))
    @settings(max_examples=60, deadline=None)
    def test_packing_invariance(self, seed, batch, width):
        """Any mix and order of lengths, all-empty batches and full rows included,
        gives per-row `predict` results, and permuting rows permutes them exactly."""
        rng = np.random.default_rng(seed)
        m = tiny_model(seed=seed % 50)
        ids = rng.integers(1, 10, size=(batch, width)).astype(np.int32)
        case = seed % 4
        if case == 0:
            lengths = np.zeros(batch, dtype=np.int64)
        else:
            lengths = rng.integers(0, width + 1, size=batch)
            lengths[rng.integers(batch)] = width
        preds, _ = forward_batch(m, ids, lengths)
        singles = [predict(m, seq_of(row, length=n)) for row, n in zip(ids, lengths)]
        np.testing.assert_allclose(preds, singles, rtol=0, atol=1e-12)
        perm = rng.permutation(batch)
        permuted, _ = forward_batch(m, ids[perm], lengths[perm])
        np.testing.assert_array_equal(permuted, preds[perm])

    def test_dropout_masks_change_training_forward_only(self):
        m = tiny_model(seed=4, dropout_embed=0.3, dropout_gru_in=0.3, dropout_gru_out=0.5)
        ids = np.array([[2, 3, 4]])
        lengths = np.array([3])
        clean, _ = forward_batch(m, ids, lengths)
        masks = make_dropout_masks(m, 1, 3, named_rng(0, "dropout"))
        noisy, _ = forward_batch(m, ids, lengths, masks=masks)
        assert not np.array_equal(clean, noisy)


class TestPackBatch:
    def test_time_major_layout(self):
        pack = pack_batch(np.array([2, 0, 3, 2]), width=4)
        np.testing.assert_array_equal(pack.order, [2, 0, 3, 1])
        assert pack.counts == [3, 3, 1]
        assert pack.offsets == [0, 3, 6, 7]
        np.testing.assert_array_equal(pack.rows, [2, 0, 3, 2, 0, 3, 2])
        np.testing.assert_array_equal(pack.steps, [0, 0, 0, 1, 1, 1, 2])
        np.testing.assert_array_equal(pack.live, [2, 0, 3])

    def test_lengths_cut_to_width_and_empty_batch(self):
        pack = pack_batch(np.array([9, 1]), width=2)
        assert pack.counts == [2, 1]
        empty = pack_batch(np.array([0, 0]), width=3)
        assert empty.counts == [] and empty.offsets == [0]
        assert empty.rows.size == 0 and empty.live.size == 0


class TestInit:
    def test_recurrent_matrices_orthogonal(self):
        p = init_gru_params(6, 8, np.random.default_rng(0), dtype=np.float64)
        for u in (p.U_r, p.U_z, p.U_h):
            np.testing.assert_allclose(u @ u.T, np.eye(8), atol=1e-10)

    def test_input_matrices_bounded(self):
        d, h = 6, 8
        p = init_gru_params(d, h, np.random.default_rng(0))
        bound = math.sqrt(6.0 / (d + h))
        for w in (p.W_r, p.W_z, p.W_h):
            assert np.all(np.abs(w) <= bound)

    def test_biases_zero(self):
        p = init_gru_params(4, 4, np.random.default_rng(0))
        for b in (p.b_r, p.b_z, p.b_h):
            np.testing.assert_array_equal(b, 0.0)

    def test_same_seed_same_model(self):
        emb = EmbeddingTable(matrix=np.ones((5, 4), dtype=np.float32))
        a = init_model(emb, 3, seed=7)
        b = init_model(emb, 3, seed=7)
        for name, arr in parameter_arrays(a).items():
            np.testing.assert_array_equal(arr, parameter_arrays(b)[name])

    def test_different_directions_differ(self):
        m = tiny_model(seed=2)
        assert not np.array_equal(m.fwd.W_r, m.bwd.W_r)

    def test_bad_dropout_rate_rejected(self):
        emb = EmbeddingTable(matrix=np.ones((5, 4), dtype=np.float32))
        with pytest.raises(ValueError):
            init_model(emb, 3, seed=0, dropout_embed=1.0)


class TestCheckpoint:
    def roundtrip(self, m, vocab, max_len=16, text_field="postText"):
        buf = io.BytesIO()
        save_model(m, vocab, buf, max_len=max_len, text_field=text_field)
        buf.seek(0)
        return buf, load_model(buf)

    def test_bit_exact_roundtrip(self):
        m = tiny_model(seed=9, dtype=np.float32, dropout_embed=0.2, dropout_gru_out=0.5)
        vocab = Vocabulary.from_tokens([f"w{i}" for i in range(8)])
        buf, (back, vocab2, meta) = self.roundtrip(m, vocab)
        assert vocab2 == vocab
        assert meta == {"d": 4, "h": 3, "max_len": 16, "text_field": "postText"}
        assert back.dropout_embed == 0.2 and back.dropout_gru_out == 0.5
        for name, arr in parameter_arrays(m).items():
            other = parameter_arrays(back)[name]
            assert arr.dtype == other.dtype
            np.testing.assert_array_equal(arr, other)

    def test_save_is_deterministic(self):
        m = tiny_model(seed=9)
        vocab = Vocabulary.from_tokens(["a", "b"])
        bufs = []
        for _ in range(2):
            buf = io.BytesIO()
            save_model(m, vocab, buf, max_len=8)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]

    def test_loaded_model_predicts_identically(self):
        m = tiny_model(seed=9, dtype=np.float32)
        vocab = Vocabulary.from_tokens([f"w{i}" for i in range(8)])
        _, (back, _, _) = self.roundtrip(m, vocab)
        seq = seq_of([2, 5, 7])
        assert predict(m, seq) == predict(back, seq)

    def test_bad_magic_rejected(self):
        with pytest.raises(DataError, match="magic"):
            load_model(io.BytesIO(b"NOTACKPT" + b"\0" * 64))

    def test_truncated_file_rejected(self):
        m = tiny_model(seed=9)
        vocab = Vocabulary.from_tokens(["a"])
        buf = io.BytesIO()
        save_model(m, vocab, buf, max_len=8)
        cut = buf.getvalue()[:-20]
        with pytest.raises(DataError, match="truncated"):
            load_model(io.BytesIO(cut))


class TestModelInvariants:
    def test_parameter_arrays_cover_model(self):
        m = tiny_model()
        names = set(parameter_arrays(m))
        assert "embedding" in names
        assert {"fwd.W_r", "bwd.U_h", "head.w", "head.b"} <= names
        assert len(names) == 1 + 9 + 9 + 2

    def test_untrainable_embedding_excluded_from_parameters(self):
        m = tiny_model()
        frozen = Model(
            embedding=EmbeddingTable(matrix=m.embedding.matrix, trainable=False),
            fwd=m.fwd, bwd=m.bwd, head=m.head,
        )
        assert "embedding" not in parameter_arrays(frozen)

    def test_sigmoid_saturates_without_warnings(self):
        with np.errstate(over="raise"):
            assert sigmoid(np.array([-1000.0]))[0] == 0.0
            assert sigmoid(np.array([1000.0]))[0] == 1.0
