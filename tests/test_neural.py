"""Classical components: Mish, residual DNN, cross-entropy, AdamW."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import (central_difference, identity_normalizer, logaddexp_mish,
                     logaddexp_mish_grad, mish_grad)
from qpose.data import SCORE_BLOCK_ROWS
from qpose.neural import (
    AdamW,
    DnnConfig,
    DnnModel,
    dnn_backward,
    dnn_forward,
    dnn_init,
    linear_init,
    mish,
    n_params,
    softmax,
    softmax_cross_entropy,
)


class TestMish:
    def test_zero(self):
        assert mish(np.array(0.0)) == 0.0

    def test_large_positive_is_identity(self):
        assert abs(mish(np.array(20.0)) - 20.0) < 1e-6

    def test_large_negative_vanishes(self):
        # high-precision value of -20*tanh(ln(1+e^-20))
        value = mish(np.array(-20.0))
        assert abs(value) < 1e-7
        assert abs(value - (-4.1223072406287614e-08)) < 1e-22

    def test_no_overflow_at_extremes(self):
        out = mish(np.array([-1e4, -750.0, 750.0, 1e4]))
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out[2:], [750.0, 1e4], rtol=1e-12)

    @given(st.floats(-30, 30))
    @settings(max_examples=60)
    def test_gradient_matches_finite_differences(self, x):
        fd = central_difference(lambda v: float(mish(v)[0]), np.array([x]), step=1e-6)
        assert abs(mish_grad(np.array([x]))[0] - fd[0]) < 1e-5


class TestMishOracle:
    """Mish and Mish' with the exp/log1p softplus against their logaddexp forms."""

    FIXED = np.array([0.0, -0.0, 5e-324, -5e-324, 36.0, -36.0, 709.78, -709.78,
                      745.0, -745.0, 1e4, -1e4])

    @staticmethod
    def check(x):
        np.testing.assert_allclose(mish(x), logaddexp_mish(x), rtol=2e-15, atol=0)
        assert (np.signbit(mish(x)) == np.signbit(logaddexp_mish(x))).all()
        np.testing.assert_allclose(mish_grad(x), logaddexp_mish_grad(x), rtol=0, atol=4e-15)

    @given(hnp.arrays(np.float64, st.integers(1, 70), elements=st.floats(-1e4, 1e4)))
    @settings(max_examples=200, deadline=None)
    def test_matches_logaddexp_form(self, x):
        self.check(x)

    def test_fixed_points(self):
        self.check(self.FIXED)
        for v in self.FIXED:  # one element at a time takes the loops' tail path
            self.check(np.array([v]))

    def test_dense_grid(self):
        self.check(np.linspace(-1e4, 1e4, 200_001))
        self.check(np.linspace(-40.0, 40.0, 200_001))

    def test_nonfinite_inputs_give_what_logaddexp_gives(self):
        x = np.array([np.inf, -np.inf, np.nan])
        with np.errstate(invalid="ignore"):
            np.testing.assert_array_equal(mish(x), logaddexp_mish(x))
            np.testing.assert_array_equal(mish_grad(x), logaddexp_mish_grad(x))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss, grad = softmax_cross_entropy(np.zeros((1, 8)), np.array([3]))
        assert abs(loss - np.log(8)) < 1e-12
        np.testing.assert_allclose(grad[0], softmax(np.zeros(8)) - np.eye(8)[3], atol=1e-15)

    def test_saturated_correct_class(self):
        logits = np.zeros((1, 8))
        logits[0, 2] = 1000.0
        loss, _ = softmax_cross_entropy(logits, np.array([2]))
        assert loss < 1e-9

    def test_extreme_logits_stable(self):
        logits = np.full((1, 8), 1e4)
        loss, grad = softmax_cross_entropy(logits, np.array([0]))
        assert np.isfinite(loss) and np.isfinite(grad).all()

    @given(st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_gradient_sums_to_zero(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(0, 5, (3, 8))
        labels = rng.integers(0, 8, 3)
        _, grad = softmax_cross_entropy(logits, labels)
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((1, 8)), np.array([8]))
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((1, 8)), np.array([-1]))


class TestDnn:
    def test_parameter_count(self):
        params = dnn_init(DnnConfig(), seed=0)
        assert n_params(params) == 34_808

    def test_count_breakdown(self):
        params = dnn_init(DnnConfig(), seed=0)
        assert params["in.w"].size + params["in.b"].size == 3_700
        for i in range(3):
            assert params[f"res{i}.w"].size + params[f"res{i}.b"].size == 10_100
        assert params["out.w"].size + params["out.b"].size == 808

    def test_zero_network_returns_output_bias(self):
        params = dnn_init(DnnConfig(), seed=1)
        for k in params:
            params[k] = np.zeros_like(params[k])
        params["out.b"] = np.arange(8.0)
        logits = dnn_forward(params, np.zeros((2, 36)), DnnConfig())
        np.testing.assert_allclose(logits, np.tile(np.arange(8.0), (2, 1)), atol=1e-15)

    def test_residual_blocks_preserve_width(self):
        cfg = DnnConfig()
        params = dnn_init(cfg, seed=2)
        cache = {}
        dnn_forward(params, np.random.default_rng(0).normal(size=(4, 36)), cfg, cache)
        for i in range(cfg.n_blocks):
            assert cache[f"res{i}"][0].shape == (4, 100)
        assert cache["h_out"].shape == (4, 100)

    def test_nonfinite_input_rejected(self):
        m = DnnModel.create(identity_normalizer(), seed=0)
        with pytest.raises(ValueError):
            m.logits(np.array([[np.inf] + [0.0] * 35]))

    def test_gradient_matches_finite_differences(self):
        # small copy of the architecture keeps the probe loop cheap
        cfg = DnnConfig(n_features=5, hidden=7, n_blocks=2, n_classes=4)
        rng = np.random.default_rng(3)
        params = dnn_init(cfg, seed=4)
        x = rng.normal(size=(3, 5))
        labels = np.array([0, 3, 1])

        from qpose.neural import dnn_loss_and_grad

        _, grads = dnn_loss_and_grad(params, x, labels, cfg)
        for name in sorted(params):
            flat = params[name].ravel()
            probes = rng.choice(flat.size, size=min(20, flat.size), replace=False)
            for j in probes:
                def loss_at(v, name=name, j=j):
                    p2 = {k: a.copy() for k, a in params.items()}
                    p2[name].ravel()[j] = v[0]
                    loss, _ = dnn_loss_and_grad(p2, x, labels, cfg)
                    return loss
                fd = central_difference(loss_at, np.array([flat[j]]), step=1e-5)[0]
                rel = abs(grads[name].ravel()[j] - fd) / max(abs(fd), 1e-6)
                assert rel < 1e-5, f"{name}[{j}]: rel={rel}"

    def test_cached_parts_backward_equals_recomputed_mish_grad(self):
        cfg = DnnConfig()
        params = dnn_init(cfg, seed=12)
        rng = np.random.default_rng(13)
        x = rng.normal(0.0, 20.0, size=(203, 36))  # wide pre-activations, odd batch
        labels = rng.integers(0, 8, 203)
        cache = {}
        _, grad_logits = softmax_cross_entropy(dnn_forward(params, x, cfg, cache), labels)
        grads = dnn_backward(params, cache, grad_logits, cfg)
        gh = grad_logits @ params["out.w"].T
        for name in ["res2", "res1", "res0", "in"]:
            h, z = cache[name][:2]
            gz = gh * mish_grad(z)
            assert grads[f"{name}.w"].tobytes() == (h.T @ gz).tobytes(), name
            assert grads[f"{name}.b"].tobytes() == gz.sum(axis=0).tobytes(), name
            if name != "in":
                gh = gh + gz @ params[f"{name}.w"].T

    def test_scoring_forward_equals_training_forward(self):
        # the training forward runs every layer on the whole batch at once:
        # the unblocked oracle of the scoring forward's Mish blocks
        cfg = DnnConfig()
        params = dnn_init(cfg, seed=14)
        x = np.random.default_rng(15).normal(0.0, 20.0, size=(4001, 36))
        for n_rows in (1, SCORE_BLOCK_ROWS - 1, SCORE_BLOCK_ROWS, SCORE_BLOCK_ROWS + 1, 777, 4001):
            scored = dnn_forward(params, x[:n_rows], cfg)
            trained = dnn_forward(params, x[:n_rows], cfg, {})
            assert np.array_equal(scored.view(np.int64), trained.view(np.int64)), n_rows

    def test_scoring_keeps_no_per_layer_cache(self):
        m = DnnModel.create(identity_normalizer(), seed=16)
        x = np.random.default_rng(17).normal(size=(4000, 36))
        m.predict_proba(x[:10])
        tracemalloc.start()
        try:
            m.predict_proba(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the pre-activation and activation buffers (4000 x 100), the
        # normalized input (4000 x 36) and at most eight Mish temporaries of
        # one block of rows
        assert peak <= (2 * 4000 * 100 + 4000 * 36 + 8 * SCORE_BLOCK_ROWS * 100) * 8, peak

    def test_predict_proba_rows_sum_to_one(self):
        m = DnnModel.create(identity_normalizer(), seed=5)
        proba = m.predict_proba(np.random.default_rng(1).normal(size=(6, 36)))
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-12)
        assert (proba >= 0).all()

    def test_linear_init_bounds(self):
        rng = np.random.default_rng(9)
        w, b = linear_init(rng, 64, 10)
        bound = 1 / np.sqrt(64)
        assert (np.abs(w) <= bound).all() and (np.abs(b) <= bound).all()
        assert w.shape == (64, 10) and b.shape == (10,)


class TestAdamW:
    def test_first_step_hand_value(self):
        params = {"p": np.array([0.0])}
        opt = AdamW()
        opt.step(params, {"p": np.array([1.0])})
        # bias-corrected m_hat = v_hat = 1 exactly at t=1
        expected = -0.02 * (1.0 / (1.0 + 1e-8))
        assert abs(params["p"][0] - expected) < 1e-15

    def test_pure_decay_path(self):
        params = {"p": np.array([1.0])}
        opt = AdamW()
        opt.step(params, {"p": np.array([0.0])})
        assert params["p"][0] == 1.0 - 0.02 * 1e-4
        assert abs(params["p"][0] - 0.999998) < 1e-12

    def test_fully_frozen_is_identity(self):
        rng = np.random.default_rng(6)
        params = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=4)}
        before = {k: v.copy() for k, v in params.items()}
        opt = AdamW(frozen=frozenset(params))
        for _ in range(5):
            opt.step(params, {k: rng.normal(size=v.shape) for k, v in params.items()})
        for k in params:
            assert (params[k] == before[k]).all()
            assert k not in opt.m and k not in opt.v

    def test_partial_freeze_leaves_values_and_moments(self):
        rng = np.random.default_rng(7)
        params = {"hot": np.ones(3), "cold": np.ones(3)}
        before_cold = params["cold"].copy()
        opt = AdamW(frozen=frozenset({"cold"}))
        opt.step(params, {"hot": rng.normal(size=3), "cold": rng.normal(size=3)})
        assert (params["cold"] == before_cold).all()
        assert "cold" not in opt.m
        assert not (params["hot"] == 1.0).all()

    @given(shapes=st.lists(st.sampled_from([(1,), (3,), (2, 2)]), min_size=1, max_size=5),
           frozen_mask=st.lists(st.booleans(), min_size=5, max_size=5),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_frozen_untouched_under_arbitrary_gradients(self, shapes, frozen_mask, data):
        finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
        values = lambda shape: data.draw(hnp.arrays(np.float64, shape, elements=finite))
        params = {f"p{i}": values(shape) for i, shape in enumerate(shapes)}
        frozen = frozenset(name for name, cold in zip(params, frozen_mask) if cold)
        before = {name: params[name].copy() for name in frozen}
        opt = AdamW(frozen=frozen)
        for _ in range(data.draw(st.integers(1, 3), label="steps")):
            grads = {name: values(p.shape) for name, p in params.items()}
            # huge gradients may overflow the moments of the trained names
            with np.errstate(over="ignore", invalid="ignore"):
                opt.step(params, grads)
        for name in frozen:
            assert params[name].tobytes() == before[name].tobytes(), name
        assert frozen.isdisjoint(opt.m) and frozen.isdisjoint(opt.v)
        assert set(opt.m) == set(opt.v) == set(params) - frozen

    def test_shape_mismatch_rejected(self):
        opt = AdamW()
        with pytest.raises(ValueError):
            opt.step({"p": np.zeros(3)}, {"p": np.zeros(4)})

    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError):
            AdamW(lr=-0.1)

    def test_zero_lr_allowed_and_is_noop(self):
        params = {"p": np.array([1.5, -2.5])}
        before = params["p"].copy()
        opt = AdamW(lr=0.0)
        opt.step(params, {"p": np.array([3.0, -1.0])})
        assert (params["p"] == before).all()

    def test_step_counter_and_moment_shapes(self):
        params = {"w": np.zeros((4, 2))}
        opt = AdamW()
        for t in range(1, 4):
            opt.step(params, {"w": np.ones((4, 2))})
            assert opt.step_count == t
        assert opt.m["w"].shape == (4, 2) and opt.v["w"].shape == (4, 2)

    def test_loss_decreases_on_separable_toy(self):
        rng = np.random.default_rng(8)
        cfg = DnnConfig(n_features=4, hidden=16, n_blocks=1, n_classes=3)
        params = dnn_init(cfg, seed=10)
        x = np.concatenate([rng.normal(c * 4.0, 0.3, (10, 4)) for c in range(3)])
        labels = np.repeat(np.arange(3), 10)

        from qpose.neural import dnn_loss_and_grad

        opt = AdamW()
        losses = []
        for _ in range(10):
            loss, grads = dnn_loss_and_grad(params, x, labels, cfg)
            losses.append(loss)
            opt.step(params, grads)
        assert losses[-1] < losses[0]
        assert all(np.isfinite(losses))
