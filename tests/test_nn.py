import tracemalloc

import numpy as np
import pytest

from helpers import (
    GRAD_TOL,
    conv_backward_im2col,
    conv_case,
    conv_case_clear,
    conv_forward_im2col,
    draw_until,
    finite_diff,
    rel_error,
)
from mvcodec.nn import (
    ADAM_LR,
    ConvLayer,
    adam_init,
    adam_step,
    conv_backward,
    conv_forward_cached,
    l1_loss,
    sigmoid,
)
from mvcodec.restorer import init_restorer


class TestConvForward:
    def test_one_by_one_affine(self):
        layer = ConvLayer(np.full((1, 1, 1, 1), 2.0), np.array([1.0]), "none")
        out = conv_forward_cached(layer, np.full((1, 4, 4), 3.0))[0]
        assert (out == 7.0).all()

    def test_zero_weights_zero_bias(self):
        rng = np.random.default_rng(0)
        layer = ConvLayer(np.zeros((3, 2, 3, 3)), np.zeros(3), "none")
        assert not conv_forward_cached(layer, rng.normal(size=(2, 6, 6)))[0].any()

    def test_edge_padding_replicates(self):
        # averaging kernel at the corner sees the corner value nine times
        layer = ConvLayer(np.full((1, 1, 3, 3), 1.0 / 9.0), np.zeros(1), "none")
        x = np.zeros((1, 4, 4))
        x[0, 0, 0] = 9.0
        out = conv_forward_cached(layer, x)[0]
        assert out[0, 0, 0] == pytest.approx(4.0)  # 4 clamped copies of the corner

    def test_activation_relu(self):
        layer = ConvLayer(np.full((1, 1, 1, 1), 1.0), np.array([-5.0]), "relu")
        out = conv_forward_cached(layer, np.array([[[1.0, 10.0]]]))[0]
        assert out.tolist() == [[[0.0, 5.0]]]

    def test_channel_mismatch(self):
        layer = ConvLayer(np.zeros((1, 2, 3, 3)), np.zeros(1), "none")
        with pytest.raises(ValueError):
            conv_forward_cached(layer, np.zeros((3, 4, 4)))

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            ConvLayer(np.zeros((1, 1, 2, 2)), np.zeros(1), "none")

    # the restorer's attention maps are 1-channel 7x7 sigmoid convs
    def test_sigmoid_zero_weights_give_half(self):
        layer = ConvLayer(np.zeros((1, 4, 7, 7)), np.zeros(1), "sigmoid")
        out = conv_forward_cached(layer, np.ones((4, 16, 16)))[0]
        assert out.shape == (1, 16, 16)
        assert (out == 0.5).all()

    def test_sigmoid_large_bias_saturates_to_one(self):
        layer = ConvLayer(np.zeros((1, 4, 7, 7)), np.array([20.0]), "sigmoid")
        out = conv_forward_cached(layer, np.ones((4, 16, 16)))[0]
        np.testing.assert_allclose(out, 1.0, atol=1e-8)

    def test_sigmoid_always_in_unit_interval(self):
        rng = np.random.default_rng(3)
        layer = ConvLayer(rng.normal(size=(1, 4, 7, 7)), rng.normal(size=1), "sigmoid")
        for _ in range(100):
            out = conv_forward_cached(layer, rng.normal(size=(4, 12, 12)) * 5)[0]
            assert (out >= 0.0).all() and (out <= 1.0).all()

# (out, in, k) of every conv in the default restorer: the shapes the
# benchmark traces
DEFAULT_CONV_SHAPES = sorted(
    {
        p.shape[:3]
        for name, p in init_restorer().params.items()
        if name.endswith(".w") and name != "gather.w"
    }
)


class TestChannelGroups:
    @pytest.mark.parametrize("size", [32, 64, 128])
    @pytest.mark.parametrize(
        "shape", DEFAULT_CONV_SHAPES + [(3, 5, 1)], ids=lambda s: "x".join(map(str, s))
    )
    def test_groups_equal_the_stacked_input(self, shape, size):
        # the restorer passes stacked inputs as channel groups; padded group
        # by group, they give the bits of the stack.  A 1x1 kernel pads by
        # zero through the same path, so its cache is a copy of the input too
        out_ch, in_ch, k = shape
        rng = np.random.default_rng(out_ch * 1000 + in_ch * 10 + k + size)
        layer = ConvLayer(rng.normal(size=(out_ch, in_ch, k, k)), rng.normal(size=out_ch), "relu")
        x = rng.normal(size=(in_ch, size, size))
        want, want_cache = conv_forward_cached(layer, x)
        assert not np.shares_memory(want_cache.flat, x)
        for groups in (np.split(x, in_ch), np.array_split(x, min(3, in_ch))):
            got, cache = conv_forward_cached(layer, *groups)
            assert np.array_equal(got, want)
            assert np.array_equal(cache.flat, want_cache.flat)
            assert np.array_equal(cache.z, want_cache.z)

    def test_groups_must_share_one_size(self):
        layer = ConvLayer(np.zeros((1, 2, 3, 3)), np.zeros(1), "none")
        with pytest.raises(ValueError, match="one size"):
            conv_forward_cached(layer, np.zeros((1, 4, 4)), np.zeros((1, 4, 5)))
        with pytest.raises(ValueError, match="expects 2"):
            conv_forward_cached(layer, np.zeros((1, 4, 4)), np.zeros((2, 4, 4)))


class TestConvGradients:
    @pytest.mark.parametrize("activation", ["none", "relu", "sigmoid"])
    @pytest.mark.parametrize(
        "seed, shape",
        # (out, in, k): out == in and out > in run im2col, out < in runs kn2row
        [(seed, (2, 2, 3)) for seed in range(4)] + [(4, (1, 3, 7)), (5, (3, 2, 3))],
        ids=["0", "1", "2", "3", "kn2row-1x3x7", "im2col-3x2x3"],
    )
    def test_finite_differences(self, activation, seed, shape):
        layer, x, upstream = draw_until(seed, conv_case(activation, *shape), conv_case_clear)
        dx, dw, db = conv_backward(layer, upstream, conv_forward_cached(layer, x)[1])

        def objective():
            return float((conv_forward_cached(layer, x)[0] * upstream).sum())

        assert rel_error(dx, finite_diff(objective, x)) < GRAD_TOL
        assert rel_error(dw, finite_diff(objective, layer.weights)) < GRAD_TOL
        assert rel_error(db, finite_diff(objective, layer.bias)) < GRAD_TOL

    @pytest.mark.parametrize("shape", DEFAULT_CONV_SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_matches_im2col_gemm(self, shape):
        # every conv shape of the default restorer, on whichever side of the
        # kn2row/im2col rule it falls
        out_ch, in_ch, k = shape
        rng = np.random.default_rng(in_ch * 100 + out_ch * 10 + k)
        layer = ConvLayer(rng.normal(size=(out_ch, in_ch, k, k)), rng.normal(size=out_ch), "none")
        x = rng.normal(size=(in_ch, 19, 24))
        oracle = conv_forward_im2col(layer, x)
        np.testing.assert_allclose(conv_forward_cached(layer, x)[0], oracle, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("activation", ["none", "relu", "sigmoid"])
    @pytest.mark.parametrize(
        "shape, size",
        # (out, in, k), (h, w): the forward runs kn2row when out < in, the
        # input gradient's correlation (transposed kernel) when out > in,
        # and the rest take columns
        [
            ((1, 16, 7), (13, 9)),
            ((8, 40, 3), (9, 14)),
            ((18, 8, 3), (11, 7)),
            ((8, 1, 3), (6, 10)),
            ((3, 5, 1), (7, 4)),
            ((5, 3, 1), (4, 7)),
            ((2, 2, 5), (1, 6)),
        ],
        ids=["1x16x7", "8x40x3", "18x8x3", "8x1x3", "k1-out<in", "k1-out>in", "one-row"],
    )
    def test_backward_matches_im2col_oracle(self, activation, shape, size):
        out_ch, in_ch, k = shape
        rng = np.random.default_rng(out_ch * 1000 + in_ch * 10 + k)
        layer = ConvLayer(
            rng.normal(size=(out_ch, in_ch, k, k)), rng.normal(size=out_ch), activation
        )
        x = rng.normal(size=(in_ch, *size))
        upstream = rng.normal(size=(out_ch, *size))
        got = conv_backward(layer, upstream, conv_forward_cached(layer, x)[1])
        for name, g, want in zip(("d_input", "d_weights", "d_bias"), got,
                                 conv_backward_im2col(layer, upstream, x)):
            assert g.shape == want.shape, name
            np.testing.assert_allclose(g, want, rtol=1e-12, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("activation", ["none", "relu", "sigmoid"])
    @pytest.mark.parametrize("shape", DEFAULT_CONV_SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_weight_only_backward_matches(self, shape, activation):
        out_ch, in_ch, k = shape
        rng = np.random.default_rng(out_ch * 1000 + in_ch * 10 + k)
        layer = ConvLayer(
            rng.normal(size=(out_ch, in_ch, k, k)), rng.normal(size=out_ch), activation
        )
        cache = conv_forward_cached(layer, rng.normal(size=(in_ch, 19, 24)))[1]
        upstream = rng.normal(size=(out_ch, 19, 24))
        _, dw, db = conv_backward(layer, upstream, cache)
        d_input, dw_only, db_only = conv_backward(layer, upstream, cache, input_grad=False)
        assert d_input is None
        assert np.array_equal(dw_only, dw) and np.array_equal(db_only, db)

    def test_backward_builds_no_input_column_buffer(self):
        # 1x16x7 at 32x32: im2col columns of the padded input would be one
        # (16 * 7 * 7) x (32 * 32) float64 buffer; the per-tap weight GEMMs
        # and the one-channel side of the input correlation stay below it
        rng = np.random.default_rng(3)
        layer = ConvLayer(rng.normal(size=(1, 16, 7, 7)), rng.normal(size=1), "sigmoid")
        x = rng.normal(size=(16, 32, 32))
        upstream = rng.normal(size=(1, 32, 32))
        _, cache = conv_forward_cached(layer, x)
        conv_backward(layer, upstream, cache)  # warm up numpy's caches
        tracemalloc.start()
        try:
            conv_backward(layer, upstream, cache)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 7 * 7 * 32 * 32 * 8

    def test_upstream_must_match_cached_output(self):
        rng = np.random.default_rng(77)
        layer, x, upstream = conv_case("relu")(rng)
        _, cache = conv_forward_cached(layer, x)
        for bad in (upstream[:, :-1], upstream[:1], upstream[None]):
            with pytest.raises(ValueError, match="upstream shape"):
                conv_backward(layer, bad, cache)


class TestSigmoid:
    def test_range_and_midpoint(self):
        z = np.linspace(-40, 40, 401)
        s = sigmoid(z)
        assert (s >= 0).all() and (s <= 1).all()
        assert sigmoid(np.zeros(1))[0] == 0.5

    def test_no_overflow_for_large_negatives(self):
        assert sigmoid(np.array([-800.0]))[0] == 0.0


class TestL1Loss:
    def test_zero_for_identical(self):
        x = np.arange(12.0).reshape(3, 4)
        assert l1_loss(x, x)[0] == 0.0

    def test_constant_offset(self):
        x = np.zeros((4, 4))
        assert l1_loss(x + 2.0, x)[0] == 2.0

    def test_gradient_sign_rule(self):
        pred = np.array([[1.0, -3.0, 5.0]])
        target = np.array([[0.0, -3.0, 9.0]])
        grad = l1_loss(pred, target)[1]
        assert grad.tolist() == [[1.0 / 3.0, 0.0, -1.0 / 3.0]]

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        pred = rng.normal(size=(5, 5)) * 3.0
        target = rng.normal(size=(5, 5)) * 3.0
        assert np.abs(pred - target).min() > 1e-3  # away from the corner
        grad = l1_loss(pred, target)[1]
        fd = finite_diff(lambda: l1_loss(pred, target)[0], pred)
        assert rel_error(grad, fd) < GRAD_TOL

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            l1_loss(np.zeros((2, 2)), np.zeros((3, 3)))


class TestAdam:
    def _params(self):
        return np.array([1.0, -2.0, 3.0, 0.5])

    def test_zero_gradients_fresh_state_is_a_noop(self):
        params = self._params()
        before = params.copy()
        state = adam_init(params)
        adam_step(params, np.zeros_like(params), state)
        assert np.array_equal(params, before)
        assert not state.m.any() and not state.v.any()

    def test_moments_decay_under_zero_gradient(self):
        params = self._params()
        state = adam_init(params)
        state.m[:2] = 1.0
        state.v[:2] = 2.0
        adam_step(params, np.zeros_like(params), state)
        np.testing.assert_allclose(state.m, [0.9, 0.9, 0.0, 0.0])
        np.testing.assert_allclose(state.v, [2.0 * 0.999, 2.0 * 0.999, 0.0, 0.0])

    def test_first_step_magnitude_is_learning_rate(self):
        params = np.array([1.0, 1.0])
        state = adam_init(params)
        grads = np.array([0.7, -2.3])
        adam_step(params, grads, state)
        step = params - 1.0
        np.testing.assert_allclose(step, -ADAM_LR * np.sign(grads), rtol=1e-6)

    def test_two_runs_are_bit_identical(self):
        trajectories = []
        for _ in range(2):
            params = np.linspace(-1, 1, 10)
            state = adam_init(params)
            g_rng = np.random.default_rng(123)
            for _ in range(25):
                adam_step(params, g_rng.normal(size=10), state)
            trajectories.append(params.copy())
        assert np.array_equal(trajectories[0], trajectories[1])

    def test_gradient_of_another_shape_rejected(self):
        params = self._params()
        with pytest.raises(ValueError, match="gradient shape"):
            adam_step(params, np.zeros(3), adam_init(params))
