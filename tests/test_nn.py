"""GRU step algebra, bidirectional encoder, dropout, checkpoint format."""

import hashlib
import io
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clickbait_gru.errors import DataError
from clickbait_gru.nn import (
    CHECKPOINT_MAGIC,
    GRU_FIELDS,
    DropoutMasks,
    _array_shapes,
    forward_batch,
    init_model,
    load_model,
    pack_batch,
    predict_batch,
    save_model,
    sigmoid,
    stack_gates,
)
from clickbait_gru.rng import named_rng
from clickbait_gru.text import Vocabulary
from clickbait_gru.train import TrainConfig, make_dropout_masks
from conftest import (
    checkpoint_header,
    direction_states,
    model_of,
    tiny_model,
    with_dim,
    with_header_blob,
    with_header_edit,
)
from oracle import naive_predict


def zero_params(h, d, dtype=np.float64):
    shapes = {"W": (h, d), "U": (h, h), "b": (h,)}
    return {name: np.zeros(shapes[name[0]], dtype=dtype) for name in GRU_FIELDS}


def rates(embed=0.0, gru_in=0.0, out=0.0, **cfg) -> TrainConfig:
    """Training config with the given dropout rates, zero unless named."""
    return TrainConfig(dropout_embed=embed, dropout_gru_in=gru_in, dropout_gru_out=out, **cfg)


def summary(m, ids, lengths, masks=None):
    """The (B, 2h) summary the head reads, after output dropout when masked."""
    _, cache = forward_batch(m, np.asarray(ids), np.asarray(lengths), masks or DropoutMasks())
    return cache.u_drop


def hand_step(p, x, hp):
    """One GRU update with every gate written out longhand."""

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    out = []
    for i in range(len(hp)):
        a_r = p["b_r"][i] + sum(p["W_r"][i][j] * x[j] for j in range(len(x)))
        a_r += sum(p["U_r"][i][j] * hp[j] for j in range(len(hp)))
        a_z = p["b_z"][i] + sum(p["W_z"][i][j] * x[j] for j in range(len(x)))
        a_z += sum(p["U_z"][i][j] * hp[j] for j in range(len(hp)))
        r_i, z_i = sig(a_r), sig(a_z)
        uh_i = sum(p["U_h"][i][j] * hp[j] for j in range(len(hp)))
        a_h = p["b_h"][i] + sum(p["W_h"][i][j] * x[j] for j in range(len(x))) + r_i * uh_i
        out.append((1.0 - z_i) * hp[i] + z_i * math.tanh(a_h))
    return out


class TestGruStep:
    """The gate algebra of one step, on states read from the forward tape."""

    def test_zero_params_zero_state(self):
        m = model_of(zero_params(3, 2), [[0.4, -0.8], [1.0, 0.5]])
        for states in direction_states(m, [0, 1], 2):
            np.testing.assert_array_equal(states, np.zeros((3, 3)))

    def test_zero_params_halve_previous_state(self):
        # only W_h is set and the second input is zero, so at the second step
        # the gates sit at 0.5 and the candidate at 0: the update halves h
        p = zero_params(3, 2)
        p["W_h"][:] = [[0.6, 0.1], [-0.2, 0.3], [0.9, -0.4]]
        m = model_of(p, [[0.0, 0.0], [1.0, -0.5]])
        fwd, _ = direction_states(m, [1, 0], 2)
        assert np.all(fwd[1] != 0.0)
        np.testing.assert_allclose(fwd[2], 0.5 * fwd[1], rtol=0, atol=1e-15)

    def test_matches_scalar_hand_evaluation(self):
        """Fixed 2x2 weights, two tokens, both reading orders."""
        p = dict(
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
        xa, xb = [0.5, -1.0], [-0.3, 0.8]
        fwd, bwd = direction_states(model_of(p, [xa, xb]), [0, 1], 2)
        h1 = hand_step(p, xa, [0.0, 0.0])
        g1 = hand_step(p, xb, [0.0, 0.0])
        np.testing.assert_allclose(fwd[1:], [h1, hand_step(p, xb, h1)], rtol=0, atol=1e-14)
        np.testing.assert_allclose(bwd[1:], [g1, hand_step(p, xa, g1)], rtol=0, atol=1e-14)

    def test_update_gate_forced_closed_keeps_state(self):
        # the first token opens the update gate, the second shuts it
        p = zero_params(2, 2)
        p["W_z"][:, 0] = 80.0
        p["b_z"][:] = -40.0  # z ~ 1 on [1, 0], z ~ 0 on [0, 1]
        p["b_h"][:] = 0.3
        fwd, _ = direction_states(model_of(p, [[1.0, 0.0], [0.0, 1.0]]), [0, 1], 2)
        np.testing.assert_allclose(fwd[1], math.tanh(0.3), atol=1e-12)
        np.testing.assert_allclose(fwd[2], fwd[1], atol=1e-15)

    def test_update_gate_forced_open_takes_candidate(self):
        p = zero_params(2, 2)
        p["b_z"][:] = 40.0  # z ~ 1
        p["b_h"][:] = 0.3
        m = model_of(p, [[1.0, -1.0], [0.0, 0.0], [0.5, 0.5]])
        for states in direction_states(m, [0, 1, 2], 3):
            np.testing.assert_allclose(states[1:], math.tanh(0.3), atol=1e-12)

    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.01, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_state_stays_in_unit_interval(self, seed, scale):
        """Convex-combination update never escapes [-1, 1] from zero start."""
        rng = np.random.default_rng(seed)
        h, d = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        draw = lambda *s: rng.normal(0.0, scale, s)
        p = dict(
            W_r=draw(h, d), W_z=draw(h, d), W_h=draw(h, d),
            U_r=draw(h, h), U_z=draw(h, h), U_h=draw(h, h),
            b_r=draw(h), b_z=draw(h), b_h=draw(h),
        )
        for states in direction_states(model_of(p, draw(8, d)), np.arange(8), 8):
            assert np.all(states >= -1.0) and np.all(states <= 1.0)


class TestRunDirection:
    """One direction's states, read from the forward tape."""

    def setup_method(self):
        m = init_model(np.zeros((1, 3)), 4, seed=0)
        self.p = {name: m[f"fwd.{name}"] for name in GRU_FIELDS}

    def test_single_step_equals_gru_step(self):
        x = [0.1, -0.2, 0.3]
        expected = hand_step(self.p, x, [0.0] * 4)
        for states in direction_states(model_of(self.p, [x]), [0], 1):
            np.testing.assert_array_equal(states[0], 0.0)
            np.testing.assert_allclose(states[1], expected, rtol=0, atol=1e-15)

    def test_reverse_two_step_composition(self):
        """The reverse direction reads x_1 then x_0: the forward states of the
        reversed post."""
        m = model_of(self.p, [[0.1, 0.2, 0.3], [-0.1, 0.0, 0.5]])
        _, bwd = direction_states(m, [0, 1], 2)
        fwd_reversed, _ = direction_states(m, [1, 0], 2)
        np.testing.assert_array_equal(bwd, fwd_reversed)

    def test_zero_length_gives_single_zero_state(self):
        m = model_of(self.p, [[0.1, 0.2, 0.3]])
        for states in direction_states(m, [0, 0, 0], 0):
            assert states.shape == (1, 4)
            np.testing.assert_array_equal(states, 0.0)

    def test_forward_emits_all_prefix_states(self):
        """The state after t tokens is the final state of the post cut to t."""
        m = model_of(self.p, [[0.1, 0.2, 0.3], [-0.1, 0.0, 0.5], [0.7, 0.7, 0.7]])
        fwd, _ = direction_states(m, [0, 1, 2], 3)
        cut = summary(m, [[0, 1, 2]] * 4, [0, 1, 2, 3])
        np.testing.assert_allclose(fwd, cut[:, :4], rtol=0, atol=1e-15)


class TestEncodePost:
    """The (B, 2h) summary `forward_batch` feeds the head."""

    def test_output_length_twice_hidden(self):
        m = tiny_model(h=5)
        assert summary(m, [[2, 3, 4]], [3]).shape == (1, 10)

    def test_zero_length_encodes_to_zero(self):
        m = tiny_model()
        np.testing.assert_array_equal(summary(m, [[0, 0, 0]], [0]), 0.0)

    def test_pad_tail_ignored(self):
        m = tiny_model()
        with_pad = summary(m, [[2, 3, 0, 0]], [2])
        without = summary(m, [[2, 3]], [2])
        np.testing.assert_array_equal(with_pad, without)

    def test_infer_mode_is_pure(self):
        m = tiny_model()
        a = summary(m, [[2, 3, 4]], [3])
        b = summary(m, [[2, 3, 4]], [3])
        assert np.array_equal(a, b)

    def test_train_mode_all_rates_zero_equals_infer(self):
        m = tiny_model()
        masks = make_dropout_masks(m, rates(), np.array([3]), 3, named_rng(0, "dropout"))
        train = summary(m, [[2, 3, 4]], [3], masks=masks)
        infer = summary(m, [[2, 3, 4]], [3])
        np.testing.assert_array_equal(train, infer)

    def test_output_dropout_scales_survivors_by_two(self):
        m = tiny_model()
        masks = make_dropout_masks(m, rates(out=0.5), np.array([3]), 3, named_rng(1, "dropout"))
        infer = summary(m, [[2, 3, 4]], [3])[0]
        dropped = summary(m, [[2, 3, 4]], [3], masks=masks)[0]
        for got, base in zip(dropped, infer):
            assert got == 0.0 or got == 2.0 * base


class TestPredict:
    def test_zero_head_gives_half(self):
        m = tiny_model()
        m["head.w"][:] = 0.0
        m["head.b"][:] = 0.0
        preds = predict_batch(m, np.array([[2, 3, 4]]), np.array([3]))
        np.testing.assert_array_equal(preds, 0.5)

    def test_output_strictly_inside_unit_interval(self):
        m = tiny_model(seed=3)
        ids = np.array([[2, 0, 0, 0], [3, 4, 5, 0], [9, 8, 7, 6]])
        preds = predict_batch(m, ids, np.array([1, 3, 4]))
        assert np.all((0.0 < preds) & (preds < 1.0))

    def test_matches_naive_oracle_spot_checks(self):
        m = tiny_model(seed=11)
        for ids, length in (([2, 3, 4], 3), ([5], 1), ([0], 0), ([9, 2, 9, 2, 9], 5)):
            fast, _ = forward_batch(m, np.array([ids]), np.array([length]))
            slow = naive_predict(m, ids, length)
            assert abs(fast[0] - slow) < 1e-12


class TestForwardBatch:
    def test_matches_per_sequence_predict(self):
        m = tiny_model(seed=4)
        ids = np.array(
            [[2, 3, 4, 0, 0], [5, 6, 0, 0, 0], [0, 0, 0, 0, 0], [7, 8, 9, 2, 3]], dtype=np.int32
        )
        lengths = np.array([3, 2, 0, 5])
        batched, _ = forward_batch(m, ids, lengths)
        singles = [naive_predict(m, row, n) for row, n in zip(ids, lengths)]
        np.testing.assert_allclose(batched, singles, rtol=0, atol=1e-12)

    def test_predict_batch_chunking_preserves_order(self):
        m = tiny_model(seed=4)
        i = np.arange(23)
        ids = np.tile([0, 3, 4, 5, 6], (23, 1))
        ids[:, 0] = 2 + (i % 7)
        # same length, then mixed lengths
        for width, lengths in ((3, np.full(23, 3)), (5, (i * 3) % 6)):
            all_at_once = predict_batch(m, ids[:, :width], lengths, chunk=512)
            chunked = predict_batch(m, ids[:, :width], lengths, chunk=5)
            np.testing.assert_array_equal(all_at_once, chunked)

    @pytest.mark.parametrize("chunk", [3, 512])
    def test_predict_batch_every_length_matches_oracle(self, chunk):
        """Rows of every length from 0 to one past the width, scored longest
        first, come back in input order with the scalar oracle's scores."""
        rng = np.random.default_rng(12)
        m = tiny_model(seed=12)
        width = 5
        lengths = rng.permutation(np.repeat(np.arange(width + 2), 2))
        ids = rng.integers(1, 10, size=(len(lengths), width)).astype(np.int32)
        preds = predict_batch(m, ids, lengths, chunk=chunk)
        singles = [naive_predict(m, row, min(n, width)) for row, n in zip(ids, lengths)]
        np.testing.assert_allclose(preds, singles, rtol=0, atol=1e-12)

    def test_predict_batch_chunks_run_longest_first(self, monkeypatch):
        """Each `forward_batch` call gets at most `chunk` rows, the clipped
        lengths never rise from one call to the next, and every row is scored
        once, its score returned at its own index."""
        rng = np.random.default_rng(13)
        m = tiny_model(seed=13)
        width, chunk = 4, 4
        lengths = rng.integers(0, width + 3, size=23)
        ids = rng.integers(1, 10, size=(23, width)).astype(np.int32)
        assert len({row.tobytes() for row in ids}) == len(ids)  # rows are told apart by ids
        calls = []

        def spy(m, ids, lengths, masks=None, stacks=None):
            calls.append((ids.copy(), np.minimum(lengths, ids.shape[1])))
            return forward_batch(m, ids, lengths, masks, stacks)

        monkeypatch.setattr("clickbait_gru.nn.forward_batch", spy)
        preds = predict_batch(m, ids, lengths, chunk=chunk)
        assert all(len(batch) <= chunk for batch, _ in calls)
        clipped = np.concatenate([batch_lengths for _, batch_lengths in calls])
        assert np.all(np.diff(clipped) <= 0)
        scored = [row.tobytes() for batch, _ in calls for row in batch]
        assert sorted(scored) == sorted(row.tobytes() for row in ids)
        for i in range(len(ids)):
            alone, _ = forward_batch(m, ids[i : i + 1], lengths[i : i + 1])
            assert abs(preds[i] - alone[0]) < 1e-12

    @given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 9), width=st.integers(1, 7))
    @settings(max_examples=60, deadline=None)
    def test_packing_invariance(self, seed, batch, width):
        """Any mix and order of lengths, all-empty batches and full rows included,
        gives the scalar oracle's per-row results, and permuting rows permutes
        them exactly."""
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
        singles = [naive_predict(m, row, n) for row, n in zip(ids, lengths)]
        np.testing.assert_allclose(preds, singles, rtol=0, atol=1e-12)
        perm = rng.permutation(batch)
        permuted, _ = forward_batch(m, ids[perm], lengths[perm])
        np.testing.assert_array_equal(permuted, preds[perm])

    def test_dropout_masks_change_training_forward_only(self):
        m = tiny_model(seed=4)
        ids = np.array([[2, 3, 4]])
        lengths = np.array([3])
        clean, _ = forward_batch(m, ids, lengths)
        masks = make_dropout_masks(
            m, rates(0.3, 0.3, 0.5), lengths, 3, named_rng(0, "dropout")
        )
        noisy, _ = forward_batch(m, ids, lengths, masks=masks)
        assert not np.array_equal(clean, noisy)

    @pytest.mark.parametrize(
        "ids, lengths",
        [
            ([[5, 5, 5, 5], [5, 5, 0, 0], [5, 5, 5, 0], [5, 0, 0, 0]], [4, 2, 3, 1]),
            ([[1, 1, 7, 1], [1, 1, 1, 0], [2, 1, 1, 1], [1, 0, 0, 0]], [4, 3, 4, 1]),
            ([[0, 0, 0], [0, 0, 0], [0, 0, 0]], [0, 0, 0]),
        ],
        ids=["one-id-everywhere", "unk-heavy", "only-empty-posts"],
    )
    def test_repeated_ids_match_oracle(self, ids, lengths):
        """Inference projects each distinct id once; every token reading a
        shared projection still gets the scalar oracle's result."""
        m = tiny_model(seed=6)
        ids, lengths = np.array(ids, dtype=np.int32), np.array(lengths)
        preds = predict_batch(m, ids, lengths)
        singles = [naive_predict(m, row, n) for row, n in zip(ids, lengths)]
        np.testing.assert_allclose(preds, singles, rtol=0, atol=1e-12)

    def test_cache_keeps_per_token_inputs(self):
        m = tiny_model(seed=4)
        ids = np.array([[2, 2, 3, 0], [3, 2, 0, 0], [1, 1, 1, 1]], dtype=np.int32)
        lengths = np.array([3, 2, 4])
        _, cache = forward_batch(m, ids, lengths, DropoutMasks())
        np.testing.assert_array_equal(cache.tokens, ids[cache.pack.rows, cache.pack.steps])
        np.testing.assert_array_equal(cache.X, m["embedding"][cache.tokens])

    def test_tape_holds_each_tokens_gates(self):
        """After the forward pass each tape row holds U_h h_prev, r, z and c
        of its token, recomputed here from the taped h_prev; the reverse
        tape's row k is the token at packed row `flip[k]`."""
        m = tiny_model(seed=8)
        ids = np.array([[2, 3, 4, 2], [5, 2, 0, 0], [4, 0, 0, 0]], dtype=np.int32)
        _, cache = forward_batch(m, ids, np.array([4, 2, 1]), DropoutMasks())
        flipped = cache.X[cache.pack.flip]
        for prefix, tape, X in (("fwd", cache.fwd, cache.X), ("bwd", cache.bwd, flipped)):
            p = {name: m[f"{prefix}.{name}"] for name in GRU_FIELDS}
            hp = tape.h_prev
            uh = hp @ p["U_h"].T
            r = sigmoid(X @ p["W_r"].T + hp @ p["U_r"].T + p["b_r"])
            z = sigmoid(X @ p["W_z"].T + hp @ p["U_z"].T + p["b_z"])
            c = np.tanh(X @ p["W_h"].T + r * uh + p["b_h"])
            np.testing.assert_allclose(tape.gates, [uh, r, z, c], rtol=0, atol=1e-12)

    def test_gate_stacks_are_c_contiguous(self):
        """Stacked transposes would leave each gate block F-ordered, on which
        OpenBLAS runs the per-step recurrent products slower."""
        for W, U, b in (stack_gates(tiny_model(seed=3), prefix) for prefix in ("fwd", "bwd")):
            assert W.flags.c_contiguous and U.flags.c_contiguous and b.flags.c_contiguous

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gate_stacks_halve_r_and_z(self, dtype):
        """The r and z blocks are the model's arrays times 0.5 bit for bit, so a
        step's tanh reads exactly half of each pre-activation; the h blocks are
        the arrays as they are."""
        m = tiny_model(seed=5, dtype=dtype)
        rng = np.random.default_rng(5)
        for name in [name for name in m if ".b_" in name]:  # init_model's biases are zero
            m[name] = rng.normal(0.0, 1.0, m[name].shape).astype(dtype)
        for prefix in ("fwd", "bwd"):
            W, U, b = stack_gates(m, prefix)
            p = {name: m[f"{prefix}.{name}"] for name in GRU_FIELDS}
            for got, want in (
                (W[0], 0.5 * p["W_r"].T), (W[1], 0.5 * p["W_z"].T), (W[2], p["W_h"].T),
                (U[0], p["U_h"].T), (U[1], 0.5 * p["U_r"].T), (U[2], 0.5 * p["U_z"].T),
                (b[0, 0], 0.5 * p["b_r"]), (b[1, 0], 0.5 * p["b_z"]), (b[2, 0], p["b_h"]),
            ):
                assert got.dtype == dtype
                assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_saturated_gates_are_exactly_zero_and_one(self, dtype):
        """r and z at pre-activations of +-40 and +-1e4 come out exactly 1 and
        0 on every step, and no step raises a floating-point error."""
        p = zero_params(4, 2)
        p["b_r"][:] = p["b_z"][:] = [40.0, -40.0, 1e4, -1e4]
        p["b_h"][:] = 0.3
        p["U_h"][:] = 0.5
        m = model_of(p, [[0.0, 0.0], [1.0, -1.0]])
        m = {name: arr.astype(dtype) for name, arr in m.items()}
        with np.errstate(all="raise"):
            _, cache = forward_batch(m, np.array([[1, 1, 1]]), np.array([3]), DropoutMasks())
        for tape in (cache.fwd, cache.bwd):
            for gate in tape.gates[1:3]:
                assert gate.tolist() == [[1.0, 0.0, 1.0, 0.0]] * 3
        assert np.all(np.abs(cache.u_drop) <= 1.0)

    def test_predict_batch_stacks_gates_once_per_call(self, monkeypatch):
        """Every chunk runs on the stacks built at the top of the call: one
        `stack_gates` call per direction, however many chunks there are, and
        none for no rows."""
        m = tiny_model(seed=6)
        rng = np.random.default_rng(6)
        ids = rng.integers(1, 10, size=(23, 5)).astype(np.int32)
        lengths = rng.integers(0, 7, size=23)
        calls = []

        def counted(m, prefix):
            calls.append(prefix)
            return stack_gates(m, prefix)

        monkeypatch.setattr("clickbait_gru.nn.stack_gates", counted)
        assert len(predict_batch(m, ids[:0], lengths[:0], chunk=4)) == 0
        assert calls == []
        predict_batch(m, ids, lengths, chunk=4)
        assert sorted(calls) == ["bwd", "fwd"]


class TestPackBatch:
    def test_time_major_layout(self):
        lengths = np.array([2, 0, 3, 2])
        pack = pack_batch(lengths, width=4)
        np.testing.assert_array_equal(pack.order, [2, 0, 3, 1])
        assert pack.counts == [3, 3, 1]
        assert pack.offsets == [0, 3, 6, 7]
        np.testing.assert_array_equal(pack.rows, [2, 0, 3, 2, 0, 3, 2])
        np.testing.assert_array_equal(pack.steps, [0, 0, 0, 1, 1, 1, 2])
        np.testing.assert_array_equal(pack.live, [2, 0, 3])
        np.testing.assert_array_equal(pack.flip, [6, 4, 5, 3, 1, 2, 0])
        np.testing.assert_array_equal(pack.flip[pack.flip], np.arange(7))
        np.testing.assert_array_equal(pack.steps[pack.flip], lengths[pack.rows] - 1 - pack.steps)
        np.testing.assert_array_equal(pack.rows[pack.flip], pack.rows)

    def test_lengths_cut_to_width_and_empty_batch(self):
        pack = pack_batch(np.array([9, 1]), width=2)
        assert pack.counts == [2, 1]
        empty = pack_batch(np.array([0, 0]), width=3)
        assert empty.counts == [] and empty.offsets == [0]
        assert empty.rows.size == 0 and empty.live.size == 0
        assert empty.flip.size == 0 and empty.flip.dtype.kind == "i"


class TestInit:
    def test_recurrent_matrices_orthogonal(self):
        m = init_model(np.zeros((5, 6)), 8, seed=0)
        for prefix in ("fwd", "bwd"):
            for u in (m[f"{prefix}.U_{gate}"] for gate in "rzh"):
                np.testing.assert_allclose(u @ u.T, np.eye(8), atol=1e-10)

    def test_input_matrices_bounded(self):
        d, h = 6, 8
        m = init_model(np.zeros((5, d), dtype=np.float32), h, seed=0)
        bound = math.sqrt(6.0 / (d + h))
        for prefix in ("fwd", "bwd"):
            for gate in "rzh":
                assert np.all(np.abs(m[f"{prefix}.W_{gate}"]) <= bound)

    def test_biases_zero(self):
        m = init_model(np.zeros((5, 4), dtype=np.float32), 4, seed=0)
        for name in ("fwd.b_r", "fwd.b_z", "fwd.b_h", "bwd.b_r", "bwd.b_z", "bwd.b_h", "head.b"):
            np.testing.assert_array_equal(m[name], 0.0)

    def test_same_seed_same_model(self):
        emb = np.ones((5, 4), dtype=np.float32)
        a = init_model(emb, 3, seed=7)
        b = init_model(emb, 3, seed=7)
        for name, arr in a.items():
            np.testing.assert_array_equal(arr, b[name])

    def test_different_directions_differ(self):
        m = tiny_model(seed=2)
        assert not np.array_equal(m["fwd.W_r"], m["bwd.W_r"])


# head.b, the last array, declared double precision while the rest stay single
HEAD_B_AS_F8 = with_header_edit(lambda h: h["arrays"][-1].update(dtype="<f8"))
ARRAY_NAMES = list(_array_shapes(10, 4, 3))


def one_byte_short_in(name):
    """Maps checkpoint bytes to the bytes that end one byte before array `name` does."""

    def cut(raw: bytes) -> bytes:
        arrays = checkpoint_header(raw)["arrays"]
        after = arrays[[entry["name"] for entry in arrays].index(name) + 1 :]
        end = len(raw) - sum(
            math.prod(entry["shape"]) * np.dtype(entry["dtype"]).itemsize for entry in after
        )
        return raw[: end - 1]

    return cut


def tiny_checkpoint() -> bytes:
    """A float32 checkpoint: vocabulary of 10, d = 4, h = 3, max_len = 8."""
    buf = io.BytesIO()
    vocab = Vocabulary.from_tokens([f"w{i}" for i in range(8)])
    save_model(tiny_model(seed=9, dtype=np.float32), vocab, TrainConfig(max_len=8), buf)
    return buf.getvalue()


# each setting at and just past its bounds, and in types JSON tells apart
SETTINGS_AT_BOUNDS = [
    *({name: value} for name in ("d", "h") for value in (0, 1, 4096, 4097, True, 1.0)),
    {"max_len": 1024},
    {"max_len": 1025},
    *({"dropout_gru_in": rate} for rate in (0.999, 1.0, math.nan, "x", False)),
]


class TestCheckpoint:
    def roundtrip(self, m, vocab, cfg=TrainConfig(max_len=16)):
        buf = io.BytesIO()
        save_model(m, vocab, cfg, buf)
        buf.seek(0)
        return buf, load_model(buf)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_bit_exact_roundtrip(self, dtype):
        m = tiny_model(seed=9, dtype=dtype)
        vocab = Vocabulary.from_tokens([f"w{i}" for i in range(8)])
        buf, (back, vocab2, meta) = self.roundtrip(m, vocab, rates(0.2, 0.0, 0.5, max_len=16))
        assert vocab2 == vocab
        assert meta == {"d": 4, "h": 3, "max_len": 16}
        header = checkpoint_header(buf.getvalue())
        assert header["dropout_embed"] == 0.2 and header["dropout_gru_out"] == 0.5
        assert list(back) == list(m)
        for name, arr in m.items():
            assert arr.dtype == back[name].dtype
            np.testing.assert_array_equal(arr, back[name])

    def test_v1_bytes_are_pinned(self):
        """Exactly representable arrays, so the bytes do not depend on the numpy
        build; the digest is that of the v1 writer the format was defined by,
        for a model that reads postText."""
        vocab = Vocabulary.from_tokens(["you", "won't", "café"])
        m = {
            name: ((np.arange(math.prod(shape), dtype=np.float32) - 4 * i) / 8).reshape(shape)
            for i, (name, shape) in enumerate(_array_shapes(vocab.size, 3, 2).items())
        }
        buf = io.BytesIO()
        # written from a dict in reverse order: save_model writes the v1 order
        cfg = rates(0.25, 0.125, 0.5, max_len=7)
        save_model(dict(reversed(m.items())), vocab, cfg, buf)
        raw = buf.getvalue()
        assert len(raw) == 1594
        assert hashlib.sha256(raw).hexdigest() == (
            "1aa343fed9adb61aed31fd56a3da437e5f1ad77df8c5ef34e49db0edc3b4e764"
        )

    def test_save_is_deterministic(self):
        m = tiny_model(seed=9)
        vocab = Vocabulary.from_tokens(["a", "b"])
        bufs = []
        for _ in range(2):
            buf = io.BytesIO()
            save_model(m, vocab, TrainConfig(max_len=8), buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]

    def test_loaded_model_predicts_identically(self):
        m = tiny_model(seed=9, dtype=np.float32)
        vocab = Vocabulary.from_tokens([f"w{i}" for i in range(8)])
        _, (back, _, _) = self.roundtrip(m, vocab)
        ids, lengths = np.array([[2, 5, 7]]), np.array([3])
        np.testing.assert_array_equal(
            predict_batch(m, ids, lengths), predict_batch(back, ids, lengths)
        )

    def test_bad_magic_rejected(self):
        with pytest.raises(DataError, match="magic"):
            load_model(io.BytesIO(b"NOTACKPT" + b"\0" * 64))

    def test_truncated_file_rejected(self):
        m = tiny_model(seed=9)
        vocab = Vocabulary.from_tokens([f"w{i}" for i in range(8)])
        buf = io.BytesIO()
        save_model(m, vocab, TrainConfig(max_len=8), buf)
        cut = buf.getvalue()[:-20]
        with pytest.raises(DataError, match="truncated"):
            load_model(io.BytesIO(cut))

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda raw: raw[:15], "truncated in its header length"),
            (lambda raw: raw[:40], "truncated in its header$"),
            (lambda raw: raw[:11] + struct.pack("<Q", 2**62) + raw[19:], "exceeds"),
            (lambda raw: with_header_blob(raw, b'{"d": "\xff"}'), "not UTF-8 JSON"),
            (lambda raw: with_header_blob(raw, b'{"format": "cbgru'), "not UTF-8 JSON"),
            (lambda raw: with_header_blob(raw, b"[1]"), "not a JSON object"),
            (with_header_edit(lambda h: h.update(version=2)), "unsupported .* format/version"),
            (with_header_edit(lambda h: h.update(version=True)), "version is True, not 1$"),
            (with_header_edit(lambda h: h.update(version=1.0)), "version is 1.0, not 1$"),
            (with_header_edit(lambda h: h.pop("h")), "lacks h$"),
            (with_header_edit(lambda h: h.pop("dropout_gru_in")), "lacks dropout_gru_in$"),
            (with_header_edit(lambda h: h.update(d="4")), r"d must be an integer .*, got '4'$"),
            (
                with_header_edit(lambda h: h.update(max_len=10**9)),
                r"max_len must be an integer in \[1, 1024\], got 1000000000$",
            ),
            (with_dim(10**13), r"d must be an integer in \[1, 4096\], got 10000000000000$"),
            (with_dim(2**62), rf"d must be an integer in \[1, 4096\], got {2**62}$"),
            (with_header_edit(lambda h: h["vocab_tokens"].append(3)), "list of strings"),
            (with_header_edit(lambda h: h["vocab_tokens"].__setitem__(5, "w2")), "repeat 'w2'$"),
            (with_header_edit(lambda h: h["arrays"].pop()), "'head.b' is None, not"),
            (with_header_edit(lambda h: h["arrays"][1].update(name="fwd.W_x")), "fwd.W_r"),
            (
                with_header_edit(lambda h: h["arrays"][4].update(shape=[3, 4])),
                r"'fwd.U_r' is .*\[3, 4\]",
            ),
            (with_header_edit(lambda h: h["vocab_tokens"].pop()), r"'embedding' is .*\[10, 4\]"),
            (
                with_header_edit(lambda h: h["arrays"][1].update(shape=[3.0, 4.0])),
                r"'fwd.W_r' is .*\[3\.0, 4\.0\]",
            ),
            (with_header_edit(lambda h: h["arrays"][0].update(dtype="|O")), "dtype"),
            (with_header_edit(lambda h: h.update(trainable_embedding=False)), "trainable"),
            (
                with_header_edit(lambda h: h.update(trainable_embedding=1)),
                "trainable_embedding is 1, not True$",
            ),
            (
                with_header_edit(lambda h: h.update(dropout_embed="x")),
                r"dropout_embed must be a number in \[0, 1\), got 'x'$",
            ),
            (
                with_header_edit(lambda h: h.update(dropout_embed=1.5)),
                r"dropout_embed must be a number in \[0, 1\), got 1.5$",
            ),
            (
                with_header_edit(lambda h: h.update(dropout_gru_out=False)),
                r"dropout_gru_out must be a number in \[0, 1\), got False$",
            ),
            (
                with_header_edit(lambda h: h.pop("trainable_embedding")),
                "lacks trainable_embedding$",
            ),
            (with_header_edit(lambda h: h["arrays"][2].update(order="C")), "'fwd.W_z' is"),
            (
                with_header_edit(lambda h: h.update(text_field="postMedia")),
                "^checkpoint text_field is 'postMedia', not 'postText'$",
            ),
            (
                with_header_edit(lambda h: h.update(text_field="targetTitle")),
                "^checkpoint text_field is 'targetTitle', not 'postText'$",
            ),
            (with_header_edit(lambda h: h.pop("text_field")), "^checkpoint header lacks text_field$"),
            (lambda raw: raw + b"garbage", "bytes after its last array"),
            (lambda raw: raw[:-4] + struct.pack("<f", math.nan), "'head.b' holds a non-finite"),
            (
                lambda raw: HEAD_B_AS_F8(raw)[:-4] + struct.pack("<d", 0.5),
                "'head.b' is {'dtype': '<f8'",
            ),
        ]
        + [(one_byte_short_in(name), f"truncated while reading '{name}'$") for name in ARRAY_NAMES],
        ids=[
            "short-length-prefix", "cut-header", "huge-header-length", "non-utf8-header",
            "non-json-header", "header-not-object", "version-2", "version-true", "version-float",
            "missing-key", "missing-dropout-rate", "d-not-integer", "huge-max-len",
            "huge-d", "d-overflows-size",
            "vocab-not-strings", "vocab-repeats-token", "array-omitted", "array-renamed",
            "shape-differs-from-h", "shape-differs-from-vocab", "shape-of-floats", "dtype-not-float",
            "embedding-not-trainable", "trainable-embedding-int", "dropout-not-number",
            "dropout-out-of-range", "dropout-bool", "missing-trainable-embedding",
            "array-entry-extra-key",
            "unknown-text-field", "other-text-field", "missing-text-field", "trailing-bytes",
            "nan-in-head.b", "mixed-dtypes",
        ]
        + [f"cut-in-{name}" for name in ARRAY_NAMES],
    )
    def test_malformed_checkpoint_rejected(self, damage, message):
        with pytest.raises(DataError, match=message):
            load_model(io.BytesIO(damage(tiny_checkpoint())))

    @pytest.mark.parametrize("error", [MemoryError, ValueError])
    def test_unallocatable_array_is_data_error(self, monkeypatch, error):
        """np.empty raises MemoryError when memory runs out and ValueError when
        a byte count overflows; no header within the settings rule reaches
        either, so both are made to happen here."""

        def fail(shape, dtype):
            raise error("cannot allocate")

        raw = tiny_checkpoint()
        monkeypatch.setattr(np, "empty", fail)
        with pytest.raises(
            DataError,
            match=r"^checkpoint array 'embedding' of shape \[10, 4\] is too large to allocate$",
        ):
            load_model(io.BytesIO(raw))

    @pytest.mark.parametrize("settings", SETTINGS_AT_BOUNDS, ids=repr)
    def test_train_config_and_header_share_one_settings_rule(self, settings):
        """`TrainConfig` rejects a setting exactly when `load_model` rejects a
        header recording it, and with the same message after "checkpoint "."""
        try:
            TrainConfig(**settings)
            want = None
        except ValueError as e:
            want = f"checkpoint {e}"
        header = checkpoint_header(tiny_checkpoint()) | settings
        shapes = _array_shapes(len(header["vocab_tokens"]) + 2, header["d"], header["h"])
        for entry in header["arrays"]:
            entry["shape"] = list(shapes[entry["name"]])
        blob = json.dumps(header).encode("utf-8")
        # no array bytes follow, so a header load_model accepts fails at the first array
        with pytest.raises(DataError) as caught:
            load_model(io.BytesIO(CHECKPOINT_MAGIC + struct.pack("<Q", len(blob)) + blob))
        got = str(caught.value)
        assert (None if got == "checkpoint truncated while reading 'embedding'" else got) == want


class TestModelInvariants:
    def test_init_model_is_the_checkpoint_manifest(self):
        """Names, order and shapes of init_model's arrays are those save_model writes."""
        m = tiny_model(vocab_size=10, d=4, h=3)
        shapes = _array_shapes(10, 4, 3)
        assert list(m) == list(shapes)
        assert {name: arr.shape for name, arr in m.items()} == shapes

    def test_sigmoid_saturates_without_warnings(self):
        with np.errstate(over="raise"):
            assert sigmoid(np.array([-1000.0]))[0] == 0.0
            assert sigmoid(np.array([1000.0]))[0] == 1.0
