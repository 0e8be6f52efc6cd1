"""Loss, BPTT gradients, RMSprop, training loop behavior."""

import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clickbait_gru
from clickbait_gru.errors import NumericError
from clickbait_gru.nn import (
    GRU_FIELDS,
    MAX_LEN_LIMIT,
    WIDTH_LIMIT,
    copy_model,
    forward_batch,
    init_model,
    pack_batch,
    predict_batch,
)
from clickbait_gru.rng import named_rng
from clickbait_gru.train import (
    CLIP_LIMIT,
    RMSPROP_EPSILON,
    RMSPROP_RHO,
    RmsPropState,
    RowSparseGrad,
    TrainConfig,
    backprop,
    encode_dataset,
    fit,
    make_dropout_masks,
    mse_loss,
    rmsprop_update,
    write_history,
)
from conftest import make_judgment, make_record, sigmoid, synth_dataset, tiny_model
from gradcheck import (
    complex_step_check,
    complex_step_gradient,
    dense,
    directional_complex_step_check,
    grad_check,
)


# (ids, lengths, targets), as encode_dataset returns them
SMALL_BATCH = (
    np.array([[2, 3, 4, 0, 0], [5, 6, 0, 0, 0], [7, 8, 9, 2, 3]], dtype=np.int32),
    np.array([3, 2, 5]),
    np.array([0.8, 0.2, 1.0]),
)
DROPOUT = TrainConfig(dropout_embed=0.3, dropout_gru_in=0.3, dropout_gru_out=0.5)


def clip_limit_case(seed: int):
    """(model, batch) whose exact gradient passes CLIP_LIMIT at a small loss.

    Both directions share weights and read a palindrome alike, so a head of
    +100 on one and -100 on the other keeps the prediction at sigmoid of the
    head bias while the summary's gradient is +-25 per unit.
    """
    m = tiny_model(seed=seed)
    for name in GRU_FIELDS:
        m[f"bwd.{name}"] = m[f"fwd.{name}"].copy()
    h = len(m["fwd.b_h"])
    m["head.w"][:] = np.repeat([100.0, -100.0], h)
    return m, (np.array([[2, 3, 2]], dtype=np.int32), np.array([3]), np.array([0.0]))


class TestMseLoss:
    def test_perfect_predictions(self):
        assert mse_loss([0.1, 0.9], [0.1, 0.9]) == 0.0

    def test_single_example(self):
        assert mse_loss([0.5], [1.0]) == 0.25

    def test_opposite_extremes(self):
        assert mse_loss([0.0, 1.0], [1.0, 0.0]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mse_loss([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mse_loss([0.1], [0.1, 0.2])

    @given(
        st.lists(
            st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=30
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_order_invariant_exactly(self, pairs, rnd):
        shuffled = list(pairs)
        rnd.shuffle(shuffled)
        a = mse_loss([p for p, _ in pairs], [t for _, t in pairs])
        b = mse_loss([p for p, _ in shuffled], [t for _, t in shuffled])
        assert a == b  # fsum makes the reduction exactly rounded


class TestDropoutMasks:
    # one row cut to the width, one empty row
    LENGTHS = np.array([3, 0, 7, 1])
    WIDTH = 5

    def test_draws_one_embedding_row_per_real_token(self):
        m = tiny_model()
        d, h = 4, 3
        B, N = len(self.LENGTHS), 3 + 0 + 5 + 1
        rng, twin = named_rng(0, "dropout"), named_rng(0, "dropout")
        masks = make_dropout_masks(m, DROPOUT, self.LENGTHS, self.WIDTH, rng)
        twin.random(N * d + B * d + B * 2 * h)
        assert rng.bit_generator.state == twin.bit_generator.state
        assert masks.x.shape == (N, d)
        assert masks.out.shape == (B, 2 * h)

    def test_gru_input_mask_is_shared_by_a_posts_tokens(self):
        cfg = TrainConfig(dropout_embed=0.0, dropout_gru_in=0.5, dropout_gru_out=0.0)
        masks = make_dropout_masks(tiny_model(), cfg, self.LENGTHS, self.WIDTH, named_rng(1, "d"))
        rows = pack_batch(self.LENGTHS, self.WIDTH).rows
        for b in np.unique(rows):
            post = masks.x[rows == b]
            np.testing.assert_array_equal(post, np.broadcast_to(post[0], post.shape))
        assert masks.out is None

    def test_zero_rates_draw_nothing(self):
        cfg = TrainConfig(dropout_embed=0.0, dropout_gru_in=0.0, dropout_gru_out=0.0)
        rng = named_rng(0, "dropout")
        before = rng.bit_generator.state
        masks = make_dropout_masks(tiny_model(), cfg, self.LENGTHS, self.WIDTH, rng)
        assert masks.x is None and masks.out is None
        assert rng.bit_generator.state == before


class TestBackprop:
    def test_zero_head_bias_gradient_hand_formula(self):
        """With a zero head every prediction is 0.5; db has a closed form."""
        m = tiny_model(seed=0)
        m["head.w"][:] = 0.0
        m["head.b"][:] = 0.0
        targets = SMALL_BATCH[2]
        _, grads = backprop(m, *SMALL_BATCH)
        expected = sum(2.0 * (0.5 - y) * 0.25 for y in targets) / len(targets)
        np.testing.assert_allclose(grads["head.b"], [expected], rtol=1e-12)

    def test_zero_length_batch_touches_only_head(self):
        m = tiny_model(seed=1)
        loss, grads = backprop(m, np.array([[0, 0]]), np.array([0]), np.array([0.9]))
        assert loss > 0.0
        for name, g in grads.items():
            if name == "head.b":
                assert np.any(g != 0.0)
            else:
                np.testing.assert_array_equal(dense(g), 0.0)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            backprop(tiny_model(), np.zeros((0, 3), dtype=np.int32), np.zeros(0), np.zeros(0))

    def test_returns_the_exact_gradient_past_the_clip_limit(self):
        m, batch = clip_limit_case(seed=2)
        _, grads = backprop(m, *batch)
        assert np.abs(grads["fwd.b_h"]).max() > CLIP_LIMIT  # about 27
        # the +-100 head scales the loss's rounding noise by 100; a wider step
        # keeps the difference quotient's share of it well under the tolerance
        report = grad_check(m, *batch, tolerance=1e-4, step=1e-4)
        assert report.passed, report.per_array

    def test_loss_matches_mse_loss(self):
        m = tiny_model(seed=2)
        loss, _ = backprop(m, *SMALL_BATCH)
        ids, lengths, targets = SMALL_BATCH
        preds, _ = forward_batch(m, ids, lengths)
        assert loss == mse_loss(preds, targets)

    def test_batch_order_invariant_loss(self):
        m = tiny_model(seed=2)
        a, _ = backprop(m, *SMALL_BATCH)
        b, _ = backprop(m, *(arr[::-1] for arr in SMALL_BATCH))
        assert a == b

    def test_nonfinite_loss_names_offending_parameter(self):
        m = tiny_model(seed=2)
        m["head.b"][:] = np.nan
        with pytest.raises(NumericError, match="head.b"):
            backprop(m, *SMALL_BATCH)

    def test_nonfinite_gradient_named(self):
        # an inf embedding survives the saturating forward pass but turns
        # into 0 * inf = nan inside the weight gradients
        m = tiny_model(seed=2)
        m["embedding"][2, 0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="fwd."):
            backprop(m, *SMALL_BATCH)

    def test_gradients_cover_every_parameter(self):
        m = tiny_model(seed=2)
        _, grads = backprop(m, *SMALL_BATCH)
        assert set(grads) == set(m)
        for name in m:
            assert grads[name].shape == m[name].shape

    def test_dropout_masks_gradients_match_finite_differences(self):
        """The masked loss is deterministic given fixed masks, so FD applies."""
        m = tiny_model(seed=5)
        ids, lengths, targets = SMALL_BATCH
        masks = make_dropout_masks(m, DROPOUT, lengths, ids.shape[1], named_rng(3, "dropout"))

        def loss_now():
            preds, _ = forward_batch(m, ids, lengths, masks=masks)
            return mse_loss(preds, targets)

        _, grads = backprop(m, ids, lengths, targets, masks=masks)
        step = 1e-6
        rng = np.random.default_rng(0)
        for name, arr in m.items():
            flat = arr.reshape(-1)
            sample = rng.choice(flat.size, size=min(8, flat.size), replace=False)
            for i in sample:
                saved = flat[i]
                flat[i] = saved + step
                plus = loss_now()
                flat[i] = saved - step
                minus = loss_now()
                flat[i] = saved
                numeric = (plus - minus) / (2 * step)
                analytic = dense(grads[name]).reshape(-1)[i]
                assert abs(analytic - numeric) < 1e-6, f"{name}[{i}]"

    def test_embedding_gradient_is_segment_sum_of_token_gradients(self):
        """Repeated ids, within a post and across posts, with dropout masks on.

        Reference: the same model with one embedding row per token occurrence,
        whose row gradients are the per-token gradients; np.add.at folds them
        back onto the shared ids.
        """
        m = tiny_model(seed=6)
        ids = np.array([[2, 5, 2, 7, 0], [5, 5, 3, 0, 0], [2, 0, 0, 0, 0]], dtype=np.int32)
        lengths = np.array([4, 3, 1])
        targets = np.array([0.9, 0.1, 0.6])
        masks = make_dropout_masks(m, DROPOUT, lengths, ids.shape[1], named_rng(4, "dropout"))
        _, grads = backprop(m, ids, lengths, targets, masks=masks)
        g = grads["embedding"]
        assert isinstance(g, RowSparseGrad)
        np.testing.assert_array_equal(g.rows, [2, 3, 5, 7])

        # one private row per occurrence, appended after the shared table
        vocab = m["embedding"].shape[0]
        spread_ids = ids.copy()
        shared = []
        for b, n in enumerate(lengths):
            for t in range(n):
                spread_ids[b, t] = vocab + len(shared)
                shared.append(ids[b, t])
        spread = tiny_model(seed=6)
        spread["embedding"] = np.concatenate([m["embedding"], m["embedding"][shared]])
        _, spread_grads = backprop(spread, spread_ids, lengths, targets, masks=masks)
        per_token = dense(spread_grads["embedding"])[vocab:]

        reference = np.zeros_like(m["embedding"])
        np.add.at(reference, shared, per_token)
        np.testing.assert_allclose(dense(g), reference, rtol=1e-13, atol=1e-16)
        untouched = np.setdiff1d(np.arange(vocab), g.rows)
        np.testing.assert_array_equal(dense(g)[untouched], 0.0)

        # central differences on every touched row
        def loss_now():
            preds, _ = forward_batch(m, ids, lengths, masks=masks)
            return mse_loss(preds, targets)

        step = 1e-6
        full = dense(g)
        for row in g.rows:
            for j in range(m["embedding"].shape[1]):
                saved = m["embedding"][row, j]
                m["embedding"][row, j] = saved + step
                plus = loss_now()
                m["embedding"][row, j] = saved - step
                minus = loss_now()
                m["embedding"][row, j] = saved
                numeric = (plus - minus) / (2 * step)
                assert abs(full[row, j] - numeric) < 1e-6, f"embedding[{row}, {j}]"


class TestGradCheck:
    def test_tiny_model_passes(self):
        m = tiny_model(seed=3)
        report = grad_check(m, *SMALL_BATCH, tolerance=1e-4)
        assert report.passed, report.per_array
        assert set(report.per_array) == set(m)

    def test_repeated_ids_pass(self):
        """The loss side projects each distinct id once, backprop each token."""
        m = tiny_model(seed=5)
        batch = (
            np.array([[2, 2, 2, 2], [1, 2, 1, 1], [1, 1, 0, 0], [0, 0, 0, 0]], dtype=np.int32),
            np.array([4, 4, 2, 0]),
            np.array([0.9, 0.1, 0.6, 0.3]),
        )
        report = grad_check(m, *batch, tolerance=1e-4)
        assert report.passed, report.per_array

    def test_zero_model_at_target_half_has_zero_bias_gradient(self):
        m = tiny_model(seed=3)
        for arr in m.values():
            arr[:] = 0.0
        batch = (np.array([[2, 3]]), np.array([2]), np.array([0.5]))
        _, grads = backprop(m, *batch)
        np.testing.assert_array_equal(grads["head.b"], 0.0)
        assert grad_check(m, *batch).passed

    def test_repeated_runs_identical(self):
        m = tiny_model(seed=3)
        a = grad_check(m, *SMALL_BATCH)
        b = grad_check(m, *SMALL_BATCH)
        assert a.per_array == b.per_array

    def test_single_precision_rejected(self):
        m = tiny_model(seed=3, dtype=np.float32)
        with pytest.raises(ValueError, match="float64"):
            grad_check(m, *SMALL_BATCH)


class TestComplexStep:
    """`backprop` against complex-step derivatives, which need no step tuning."""

    def test_exact_gradient_past_the_clip_limit(self):
        """The +-100 head: seed 2 as in `TestBackprop`, and 3 and 8, where
        central differences at step 1e-5 exceed 1e-4 on correct gradients."""
        for seed in (2, 3, 8):
            m, batch = clip_limit_case(seed)
            report = complex_step_check(m, *batch, tolerance=1e-8)
            assert report.passed, (seed, report.per_array)

    def test_dropout_masks(self):
        m = tiny_model(seed=5)
        ids, lengths, targets = SMALL_BATCH
        masks = make_dropout_masks(m, DROPOUT, lengths, ids.shape[1], named_rng(3, "dropout"))
        assert masks.x is not None and masks.out is not None
        report = complex_step_check(m, ids, lengths, targets, masks=masks, tolerance=1e-8)
        assert report.passed, report.per_array
        assert set(report.per_array) == set(m)

    def test_forward_path_is_analytic(self):
        """A one-token post has a closed-form gradient: h_prev is 0, so each
        direction's state is z * c. An op on the forward path that is not
        analytic (abs, maximum, clip on values) loses or bends the imaginary
        part, and the complex-step result leaves this closed form."""
        m = tiny_model(seed=4)
        ids, lengths, y = np.array([[2, 0]], dtype=np.int32), np.array([1]), 0.2
        x = m["embedding"][2]
        u, d_u = [], []
        for p in ("fwd", "bwd"):
            z = sigmoid(m[f"{p}.W_z"] @ x + m[f"{p}.b_z"])
            c = np.tanh(m[f"{p}.W_h"] @ x + m[f"{p}.b_h"])
            u.append(z * c)
            d_u.append((z * (1.0 - c**2), c * z * (1.0 - z)))  # d state / d b_h, d b_z
        pred = sigmoid(m["head.w"] @ np.concatenate(u) + m["head.b"][0])
        d_a = 2.0 * (pred - y) * pred * (1.0 - pred)  # d loss / d head pre-activation
        got = complex_step_gradient(m, ids, lengths, np.array([y]))
        h = len(m["fwd.b_h"])
        np.testing.assert_allclose(got["head.b"], [d_a], rtol=1e-13)
        np.testing.assert_allclose(got["head.w"], d_a * np.concatenate(u), rtol=1e-13)
        for k, p in enumerate(("fwd", "bwd")):
            w = m["head.w"][k * h:(k + 1) * h]
            np.testing.assert_allclose(got[f"{p}.b_h"], d_a * w * d_u[k][0], rtol=1e-13)
            np.testing.assert_allclose(got[f"{p}.b_z"], d_a * w * d_u[k][1], rtol=1e-13)
            np.testing.assert_array_equal(got[f"{p}.b_r"], 0.0)

    def test_single_precision_rejected(self):
        m = tiny_model(seed=3, dtype=np.float32)
        with pytest.raises(ValueError, match="float64"):
            complex_step_check(m, *SMALL_BATCH)
        with pytest.raises(ValueError, match="float64"):
            directional_complex_step_check(m, *SMALL_BATCH)


@pytest.fixture(scope="module")
def paper_scale_case():
    """A float64 model at the paper's d = 100 and h = 128 over V = 2000, and
    one training batch of B = 64 posts at max_len 32 with real dropout masks.
    Lengths include 0, 1 and 32, and ids come from 50 values, so many
    embedding rows sum gradients from several tokens."""
    rng = np.random.default_rng(11)
    m = init_model(rng.normal(0.0, 0.3, (2000, 100)), 128, seed=11)
    for name, arr in m.items():
        if ".b_" in name or name == "head.b":
            arr[:] = rng.normal(0.0, 0.1, arr.shape)
    lengths = np.concatenate([[0, 1, 32, 32], rng.integers(0, 33, 60)])
    ids = rng.choice(rng.choice(np.arange(2, 2000), 50, replace=False), (64, 32))
    ids[np.arange(32) >= lengths[:, None]] = 0
    targets = rng.uniform(0.0, 1.0, 64)
    masks = make_dropout_masks(m, TrainConfig(), lengths, 32, named_rng(11, "dropout"))
    return m, (ids.astype(np.int32), lengths, targets), masks


class TestDirectionalComplexStep:
    """`backprop` at the shapes the program trains at, one direction per array."""

    def test_paper_scale_gradients(self, paper_scale_case):
        m, batch, masks = paper_scale_case
        report = directional_complex_step_check(m, *batch, masks=masks, tolerance=1e-10)
        assert set(report.per_array) == set(m)
        assert report.passed, report.per_array

    def test_planted_error_fails(self, paper_scale_case):
        """An error of 1e-7 of the largest |g| in one element of one array."""
        m, batch, masks = paper_scale_case
        _, grads = backprop(m, *batch, masks=masks)
        g = grads["fwd.U_z"]
        g.flat[np.argmax(np.abs(g))] += 1e-7 * np.abs(g).max()
        report = directional_complex_step_check(
            m, *batch, masks=masks, tolerance=1e-10, analytic=grads
        )
        assert not report.passed
        assert max(report.per_array, key=report.per_array.get) == "fwd.U_z"


# Prints a digest of every gradient array `backprop` returns for two paper-shape
# float32 batches whose token counts, 777 and 1,015, are not multiples of 64
THREAD_PROBE = """
import hashlib
import numpy as np
from clickbait_gru.nn import init_model
from clickbait_gru.rng import named_rng
from clickbait_gru.train import RowSparseGrad, TrainConfig, backprop, make_dropout_masks

rng = np.random.default_rng(5)
m = init_model(rng.normal(0.0, 0.3, (2000, 100)).astype(np.float32), 128, seed=5)
for tokens in (777, 1015):
    lengths = np.full(64, tokens // 64)
    lengths[: tokens % 64] += 1
    lengths = rng.permutation(lengths)
    ids = rng.integers(2, 2000, (64, 32)).astype(np.int32)
    ids[np.arange(32) >= lengths[:, None]] = 0
    masks = make_dropout_masks(m, TrainConfig(), lengths, 32, named_rng(5, "dropout"))
    _, grads = backprop(m, ids, lengths, rng.uniform(0.0, 1.0, 64), masks)
    for name, g in grads.items():
        data = g.values if isinstance(g, RowSparseGrad) else g
        print(tokens, name, hashlib.sha256(data.tobytes()).hexdigest())
"""


def test_gradients_do_not_depend_on_the_blas_thread_count():
    src = str(Path(clickbait_gru.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = {}
    for threads in (1, 2, 3, 4):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=path)
        digests[threads] = subprocess.run(
            [sys.executable, "-c", THREAD_PROBE], env=env, capture_output=True, text=True,
            check=True,
        ).stdout.splitlines()
    assert len(digests[1]) == 2 * 21
    for threads in (2, 3, 4):
        assert digests[threads] == digests[1], threads


class TestRmsprop:
    def one_param(self, value=1.0, grad=0.1, acc=None):
        params = {"p": np.array([value])}
        grads = {"p": np.array([grad])}
        state = RmsPropState()
        if acc is not None:
            state.acc["p"] = np.array([acc])
        return params, grads, state

    def test_zero_gradient_leaves_params_decays_accumulator(self):
        params, grads, state = self.one_param(grad=0.0, acc=1.0)
        rmsprop_update(params, grads, state, TrainConfig())
        assert params["p"][0] == 1.0
        np.testing.assert_allclose(state.acc["p"], [0.9])

    def test_first_step_closed_form(self):
        cfg = TrainConfig()
        g = 0.3
        params, grads, state = self.one_param(grad=g)
        rmsprop_update(params, grads, state, cfg)
        expected = 1.0 - cfg.learning_rate * g / (
            math.sqrt((1 - RMSPROP_RHO) * g * g) + RMSPROP_EPSILON
        )
        np.testing.assert_allclose(params["p"], [expected], rtol=1e-12)

    def test_constant_gradient_step_approaches_lr(self):
        cfg = TrainConfig()
        params, grads, state = self.one_param(grad=0.25)
        prev = params["p"][0]
        for _ in range(400):
            prev = params["p"][0]
            rmsprop_update(params, grads, state, cfg)
        final_step = prev - params["p"][0]
        # accumulator saturates at g^2, so the step tends to lr * sign(g)
        assert math.isclose(final_step, cfg.learning_rate, rel_tol=0.02)

    def test_positive_accumulator_descends_quadratic(self):
        cfg = TrainConfig()
        theta = np.array([1.0])
        params = {"p": theta}
        state = RmsPropState()
        state.acc["p"] = np.array([1.0])
        loss_before = theta[0] ** 2
        rmsprop_update(params, {"p": np.array([2.0 * theta[0]])}, state, cfg)
        assert theta[0] ** 2 < loss_before

    def test_accumulators_stay_nonnegative(self):
        params, grads, state = self.one_param(grad=-4.0)
        for _ in range(50):
            rmsprop_update(params, grads, state, TrainConfig())
            assert state.acc["p"][0] >= 0.0

    @pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_lazy_sparse_update_matches_dense(self, dtype, rtol):
        """Rows skipped for 1, 3 and 7 steps: after every step the parameters and
        the accumulators of the rows it touched match dense RMSprop on the
        densified gradients. float32 differs from dense only by the rounding of
        one rho**k against k multiplications by rho, a few ulp per step."""
        cfg = TrainConfig()
        rng = np.random.default_rng(0)
        vocab, d, steps = 12, 3, 15
        start = rng.normal(0.0, 1.0, (vocab, d)).astype(dtype)
        lazy_p, dense_p = {"embedding": start.copy()}, {"embedding": start.copy()}
        lazy_state, dense_state = RmsPropState(), RmsPropState()
        # row 0 every step; row 1 every 2nd (skips 1); row 2 every 4th (skips 3);
        # row 3 every 8th (skips 7); rows 4.. now and then; row 11 never
        every = {0: 1, 1: 2, 2: 4, 3: 8}
        for step in range(steps):
            rows = [r for r, k in every.items() if step % k == 0]
            rows += [r for r in range(4, 11) if rng.random() < 0.3]
            rows = np.array(sorted(rows))
            values = rng.normal(0.0, 2.0, (len(rows), d)).astype(dtype)
            g = RowSparseGrad(rows=rows, values=values, shape=(vocab, d))
            rmsprop_update(lazy_p, {"embedding": g}, lazy_state, cfg)
            rmsprop_update(dense_p, {"embedding": dense(g)}, dense_state, cfg)
            np.testing.assert_allclose(lazy_p["embedding"], dense_p["embedding"], rtol=rtol)
            np.testing.assert_allclose(
                lazy_state.acc["embedding"][rows], dense_state.acc["embedding"][rows], rtol=rtol
            )
        np.testing.assert_array_equal(lazy_p["embedding"][11], start[11])
        assert lazy_state.acc["embedding"].dtype == dtype

    def test_gradients_are_clipped_before_the_step(self):
        """Dense and row-sparse gradients of +-1e6 step exactly as +-CLIP_LIMIT
        would, and are left clipped."""
        rng = np.random.default_rng(0)
        start = {"w": rng.normal(size=(2, 3)), "embedding": rng.normal(size=(5, 3))}
        signs = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0]])

        def step(scale):
            params = {name: arr.copy() for name, arr in start.items()}
            grads = {
                "w": scale * signs,
                "embedding": RowSparseGrad(rows=np.array([1, 3]), values=scale * signs,
                                           shape=(5, 3)),
            }
            state = RmsPropState()
            rmsprop_update(params, grads, state, TrainConfig())
            return params, grads, state

        huge, huge_grads, huge_state = step(1e6)
        limit, _, limit_state = step(CLIP_LIMIT)
        for name in start:
            np.testing.assert_array_equal(huge[name], limit[name])
            np.testing.assert_array_equal(huge_state.acc[name], limit_state.acc[name])
        np.testing.assert_array_equal(huge_grads["w"], CLIP_LIMIT * signs)
        np.testing.assert_array_equal(huge_grads["embedding"].values, CLIP_LIMIT * signs)

    def test_shape_mismatch_rejected(self):
        params = {"p": np.zeros(3)}
        grads = {"p": np.zeros(4)}
        with pytest.raises(ValueError):
            rmsprop_update(params, grads, RmsPropState(), TrainConfig())


class TestTrainConfig:
    def test_default_recipe_values(self):
        cfg = TrainConfig()
        assert cfg.batch_size == 64
        assert cfg.d == 100
        assert cfg.h == 128
        assert (cfg.dropout_embed, cfg.dropout_gru_in, cfg.dropout_gru_out) == (0.2, 0.2, 0.5)

    def test_invalid_values_rejected(self):
        for kwargs in (
            {"batch_size": 0},
            {"learning_rate": 0.0},
            {"epochs": -1},
            {"dropout_embed": 1.0},
            {"epochs": "2"},
            {"epochs": 2.0},
            {"batch_size": True},
            {"seed": -1},
            {"h": 0},
            {"d": 0},
            {"max_len": 0},
            {"max_len": MAX_LEN_LIMIT + 1},
            {"max_len": 10**11},
            {"d": WIDTH_LIMIT + 1},
            {"h": 10**9},
            {"learning_rate": "1e-3"},
            {"learning_rate": float("nan")},
            {"dropout_gru_out": None},
        ):
            with pytest.raises(ValueError):
                TrainConfig(**kwargs)


def fit_setup(n=24, d=6, seed=0):
    ds = synth_dataset(n, seed=seed)
    from clickbait_gru.text import build_vocab, tokenize

    vocab = build_vocab(tokenize(r.text) for r, _ in ds)
    rng = np.random.default_rng(seed)
    matrix = rng.normal(0, 0.3, (vocab.size, d)).astype(np.float32)
    matrix[0] = 0.0
    return ds, vocab, matrix


class TestFit:
    def small_cfg(self, **over):
        base = dict(
            batch_size=8, epochs=2, d=6, h=4, max_len=12, seed=1,
            dropout_embed=0.0, dropout_gru_in=0.0, dropout_gru_out=0.0,
        )
        base.update(over)
        return TrainConfig(**base)

    def test_epochs_zero_returns_initialized_model(self):
        ds, vocab, emb = fit_setup()
        cfg = self.small_cfg(epochs=0)
        model, history = fit(ds, ds, cfg, vocab, emb)
        assert len(history) == 1 and history[0].epoch == 0
        fresh = init_model(emb, cfg.h, cfg.seed)
        assert list(model) == list(fresh)
        for name, arr in model.items():
            np.testing.assert_array_equal(arr, fresh[name])

    def test_history_has_row_per_epoch(self):
        ds, vocab, emb = fit_setup()
        _, history = fit(ds, ds, self.small_cfg(epochs=3), vocab, emb)
        assert [row.epoch for row in history] == [0, 1, 2, 3]

    def test_same_seed_reproduces_history_and_params(self):
        ds, vocab, emb = fit_setup()
        cfg = self.small_cfg(epochs=2, dropout_embed=0.2, dropout_gru_out=0.3)
        m1, h1 = fit(ds, ds, cfg, vocab, emb.copy())
        m2, h2 = fit(ds, ds, cfg, vocab, emb.copy())
        assert [(r.train_mse, r.valid_mse) for r in h1] == [
            (r.train_mse, r.valid_mse) for r in h2
        ]
        for name, arr in m1.items():
            np.testing.assert_array_equal(arr, m2[name])

    def test_trains_the_table_it_is_handed(self, monkeypatch):
        ds, vocab, emb = fit_setup()
        start = emb.copy()
        copies = []

        def counting(m):
            copies.append(m)
            return copy_model(m)

        monkeypatch.setattr("clickbait_gru.train.copy_model", counting)
        model, history = fit(ds, ds, self.small_cfg(epochs=2), vocab, emb)
        assert not np.array_equal(emb, start)
        for name, arr in model.items():
            assert not np.shares_memory(arr, emb), name
        # one snapshot, refreshed in place when an epoch beats every earlier one
        assert len(copies) == 1 and min(r.valid_mse for r in history[1:]) < history[0].valid_mse

    def test_returned_model_is_best_validation_epoch(self):
        ds, vocab, emb = fit_setup(n=30)
        valid = synth_dataset(12, seed=9)
        cfg = self.small_cfg(epochs=4, learning_rate=5e-3)
        model, history = fit(ds, valid, cfg, vocab, emb)
        best = min(row.valid_mse for row in history)
        ids, lengths, targets = encode_dataset(valid, vocab, cfg.max_len)
        achieved = mse_loss(predict_batch(model, ids, lengths), targets)
        assert math.isclose(achieved, best, rel_tol=1e-9)
        assert best <= history[0].valid_mse

    def test_training_reduces_loss(self):
        ds, vocab, emb = fit_setup(n=32)
        cfg = self.small_cfg(epochs=10, learning_rate=1e-2)
        _, history = fit(ds, ds, cfg, vocab, emb)
        # valid is ds and there is no dropout: valid_mse is the last epoch's model scored on ds
        assert history[-1].valid_mse < history[0].train_mse * 0.9

    def test_train_mse_is_the_epochs_trained_batch_loss(self):
        ds, vocab, emb = fit_setup(n=30)  # batches of 8, 8, 8 and 6
        cfg = self.small_cfg(epochs=3, dropout_embed=0.2, dropout_gru_in=0.3, dropout_gru_out=0.4)
        _, history = fit(ds, synth_dataset(12, seed=9), cfg, vocab, emb.copy())

        ids, lengths, targets = encode_dataset(ds, vocab, cfg.max_len)
        model = init_model(emb, cfg.h, cfg.seed)
        assert history[0].train_mse == mse_loss(predict_batch(model, ids, lengths), targets)
        shuffle_rng = named_rng(cfg.seed, "shuffle")
        dropout_rng = named_rng(cfg.seed, "dropout")
        state = RmsPropState()
        for row in history[1:]:
            order = shuffle_rng.permutation(len(ids))
            weighted = []
            for start in range(0, len(ids), cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                masks = make_dropout_masks(model, cfg, lengths[batch], cfg.max_len, dropout_rng)
                loss, grads = backprop(model, ids[batch], lengths[batch], targets[batch], masks)
                weighted.append(loss * len(batch))
                rmsprop_update(model, grads, state, cfg)
            assert row.train_mse == math.fsum(weighted) / len(ids)

    def test_scores_the_training_posts_once(self, monkeypatch):
        ds, vocab, emb = fit_setup(n=30)
        valid = synth_dataset(12, seed=9)
        cfg = self.small_cfg(epochs=3)
        train_ids = encode_dataset(ds, vocab, cfg.max_len)[0]
        valid_ids = encode_dataset(valid, vocab, cfg.max_len)[0]
        calls = {"train": 0, "valid": 0}

        def counting(m, ids, lengths):
            for name, expected in (("train", train_ids), ("valid", valid_ids)):
                calls[name] += np.array_equal(ids, expected)
            return predict_batch(m, ids, lengths)

        monkeypatch.setattr("clickbait_gru.train.predict_batch", counting)
        fit(ds, valid, cfg, vocab, emb)
        assert calls == {"train": 1, "valid": 4}

    def test_nonfinite_embeddings_abort_with_diagnostic(self):
        ds, vocab, emb = fit_setup()
        emb[2:, :] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="epoch 0"):
            fit(ds, ds, self.small_cfg(), vocab, emb)

    def test_empty_dataset_rejected(self):
        ds, vocab, emb = fit_setup()
        with pytest.raises(ValueError):
            fit([], ds, self.small_cfg(), vocab, emb)

    def test_dimension_mismatch_rejected(self):
        ds, vocab, emb = fit_setup(d=6)
        with pytest.raises(ValueError, match="dim"):
            fit(ds, ds, self.small_cfg(d=7), vocab, emb)

    def test_targets_are_judgment_means(self):
        ds, vocab, emb = fit_setup()
        _, _, targets = encode_dataset(ds, vocab, 12)
        assert targets.tolist() == [judgment.mean for _, judgment in ds]


class TestWriteHistory:
    def test_csv_round_trips_floats_exactly(self):
        ds, vocab, emb = fit_setup()
        _, history = fit(ds, ds, TrainConfig(
            batch_size=8, epochs=1, d=6, h=4, max_len=12, seed=1,
            dropout_embed=0.0, dropout_gru_in=0.0, dropout_gru_out=0.0,
        ), vocab, emb)
        out = io.StringIO()
        write_history(history, out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "epoch,train_mse,valid_mse"
        assert len(lines) == len(history) + 1
        for row, line in zip(history, lines[1:]):
            epoch, train_mse, valid_mse = line.split(",")
            assert int(epoch) == row.epoch
            assert float(train_mse) == row.train_mse
            assert float(valid_mse) == row.valid_mse
