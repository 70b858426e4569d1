import dataclasses
import tracemalloc

import numpy as np
import pytest

from helpers import (
    GRAD_TOL,
    bilinear_sample,
    deformable_gather_direct,
    deformable_gather_reference,
    draw_until,
    finite_diff,
    gather_case,
    gather_case_clear,
    gather_scatter_one_bincount,
    global_shift_pair,
    offset_gather,
    offset_gather_backward,
    predictor_case,
    predictor_case_clear,
    rel_error,
    tap_coords,
)
from mvcodec.alignment import (
    deformable_gather_backward,
    deformable_gather_cached,
    kernel_grid,
    rasterize_motion,
    warp_mv,
    warp_mv_backward,
)
from mvcodec.codec import CodecConfig, decode_sequence, encode_sequence
from mvcodec.nn import ConvLayer, conv_forward_cached


class TestBilinearSample:
    def test_integer_coordinates_are_exact(self):
        rng = np.random.default_rng(0)
        fmap = rng.normal(size=(2, 6, 7))
        assert bilinear_sample(fmap, 3.0, 5.0, 1) == fmap[1, 5, 3]

    def test_midpoint_between_columns(self):
        fmap = np.zeros((1, 2, 2))
        fmap[0, :, 0] = 10.0
        fmap[0, :, 1] = 20.0
        assert bilinear_sample(fmap, 0.5, 0.0) == 15.0

    def test_out_of_range_clamps(self):
        rng = np.random.default_rng(1)
        fmap = rng.normal(size=(1, 4, 4))
        assert bilinear_sample(fmap, -5.0, 0.0) == fmap[0, 0, 0]
        assert bilinear_sample(fmap, 10.0, 10.0) == fmap[0, 3, 3]

    def test_continuity_bound(self):
        # |sample(x+e) - sample(x)| <= e * max adjacent difference
        rng = np.random.default_rng(2)
        fmap = rng.uniform(0, 255, (1, 8, 8))
        max_adj = max(
            np.abs(np.diff(fmap[0], axis=0)).max(),
            np.abs(np.diff(fmap[0], axis=1)).max(),
        )
        for _ in range(200):
            x = rng.uniform(0, 7)
            y = rng.uniform(0, 7)
            eps = rng.uniform(0, 0.3)
            a = bilinear_sample(fmap, x, y)
            b = bilinear_sample(fmap, min(x + eps, 7.0), y)
            assert abs(b - a) <= eps * max_adj + 1e-12


class TestWarp:
    @pytest.fixture()
    def coded_pair(self):
        ref, cur = global_shift_pair(shift=(2, 3))
        data = encode_sequence([ref, cur], CodecConfig(qp=8))
        _, sides = decode_sequence(data)
        return ref, cur, sides[1]

    def test_zero_motion_is_identity(self, coded_pair):
        _, _, side = coded_pair
        rng = np.random.default_rng(3)
        fmap = rng.normal(size=(2, 64, 64))
        still = dataclasses.replace(side, motion=np.zeros_like(side.motion))
        assert np.array_equal(warp_mv(fmap, rasterize_motion(still)), fmap)

    def test_global_shift_aligns_interior(self, coded_pair):
        ref, cur, side = coded_pair
        warped = warp_mv(ref.as_float()[None], rasterize_motion(side))
        interior = (slice(8, 56), slice(8, 56))
        assert np.array_equal(warped[0][interior], cur.as_float()[interior])

    def test_constant_map_unchanged(self, coded_pair):
        _, _, side = coded_pair
        fmap = np.full((1, 64, 64), 3.25)
        assert np.array_equal(warp_mv(fmap, rasterize_motion(side)), fmap)

    def test_backward_is_adjoint(self, coded_pair):
        # <warp(x), y> == <x, warp_backward(y)> for random x, y
        _, _, side = coded_pair
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 64, 64))
        y = rng.normal(size=(2, 64, 64))
        lhs = float((warp_mv(x, rasterize_motion(side)) * y).sum())
        rhs = float((x * warp_mv_backward(y, rasterize_motion(side))).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_rasterize_motion_planes(self, coded_pair):
        _, _, side = coded_pair
        planes = rasterize_motion(side)
        assert planes.shape == (2, 64, 64)
        interior = (slice(8, 56), slice(8, 56))
        assert (planes[0][interior] == 2).all()
        assert (planes[1][interior] == 3).all()


def _zero_offsets(k, h, w):
    return np.zeros((2 * k * k, h, w))


class TestDeformableGatherForward:
    def test_zero_offsets_identity_kernel(self):
        rng = np.random.default_rng(6)
        fmap = rng.normal(size=(1, 6, 6))
        weights = np.zeros((1, 1, 3, 3))
        weights[0, 0, 1, 1] = 1.0
        out = deformable_gather_cached(fmap, _zero_offsets(3, 6, 6), weights)[0]
        np.testing.assert_allclose(out, fmap, atol=1e-12)

    def test_constant_offset_is_a_shift(self):
        rng = np.random.default_rng(7)
        fmap = rng.normal(size=(1, 5, 8))
        weights = np.zeros((1, 1, 3, 3))
        weights[0, 0, 1, 1] = 1.0
        offsets = _zero_offsets(3, 5, 8)
        offsets[0::2] = 1.0  # every tap shifted one column right
        out = deformable_gather_cached(fmap, offsets, weights)[0]
        shifted = fmap[:, :, np.minimum(np.arange(8) + 1, 7)]
        np.testing.assert_allclose(out, shifted, atol=1e-12)

    def test_zero_offsets_equal_plain_convolution(self):
        rng = np.random.default_rng(8)
        for shape in ((1, 5, 5), (3, 8, 6), (2, 16, 16)):
            fmap = rng.normal(size=shape)
            weights = rng.normal(size=(2, shape[0], 3, 3))
            out = deformable_gather_cached(fmap, _zero_offsets(3, *shape[1:]), weights)[0]
            layer = ConvLayer(weights, np.zeros(2), "none")
            np.testing.assert_allclose(out, conv_forward_cached(layer, fmap)[0], atol=1e-12)

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(9)
        fmap = rng.normal(size=(1, 5, 5))
        offsets = rng.uniform(-1.5, 1.5, (18, 5, 5))
        weights = rng.normal(size=(2, 1, 3, 3))
        out = deformable_gather_cached(fmap, offsets, weights)[0]
        oracle = deformable_gather_direct(fmap, 3, offsets, weights)
        np.testing.assert_allclose(out, oracle, atol=1e-12)

    def test_shape_validation(self):
        weights = np.zeros((1, 1, 3, 3))
        with pytest.raises(ValueError):
            deformable_gather_cached(np.zeros((1, 5, 5)), np.zeros((4, 5, 5)), weights)
        with pytest.raises(ValueError):
            deformable_gather_cached(np.zeros((2, 5, 5)), np.zeros((18, 5, 5)), weights)

    @pytest.mark.parametrize("size", [32, 48, 64, 96, 128])
    def test_banded_gather_equals_the_cached_gather(self, size):
        # without a cache the gather runs alignment.GATHER_BAND (32) output
        # rows at a time; 48 and 96 px end in a short band
        rng = np.random.default_rng(size)
        fmap = rng.normal(size=(8, size, size))
        offsets = rng.normal(scale=3.0, size=(18, size, size))
        weights = rng.normal(size=(8, 8, 3, 3))
        want = deformable_gather_cached(fmap, offsets, weights)[0]
        got, cache = deformable_gather_cached(fmap, offsets, weights, False)
        assert cache is None
        assert np.array_equal(got, want)




class TestGatherCornerConstruction:
    """The in-place corner stage against the one built array by array."""

    @staticmethod
    def assert_matches_reference(fmap, k, offsets, weights):
        out, cache = deformable_gather_cached(fmap, offsets, weights)
        ref_out, ref_cache = deformable_gather_reference(fmap, k, offsets, weights)
        assert np.array_equal(out, ref_out)
        for name in cache._fields:
            got, want = getattr(cache, name), getattr(ref_cache, name)
            assert got.shape == want.shape and got.dtype == want.dtype, name
            assert np.array_equal(got, want), name
        return cache

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("h, w", [(1, 1), (1, 7), (7, 1), (2, 2), (3, 5), (33, 17)])
    def test_random_offsets_match_reference(self, h, w, k):
        rng = np.random.default_rng(h * 1000 + w * 10 + k)
        fmap = rng.normal(size=(2, h, w))
        offsets = rng.normal(scale=3.0, size=(2 * k * k, h, w))
        weights = rng.normal(size=(3, 2, k, k))
        self.assert_matches_reference(fmap, k, offsets, weights)

    @pytest.mark.parametrize("shift", [(-20, 0), (20, 0), (0, -20), (0, 20), (-20, 20), (20, -20)])
    def test_offsets_saturating_every_side_match_reference(self, shift):
        rng = np.random.default_rng(17)
        fmap = rng.normal(size=(2, 5, 6))
        offsets = rng.uniform(-0.5, 0.5, (18, 5, 6))
        offsets[0::2] += shift[0]
        offsets[1::2] += shift[1]
        weights = rng.normal(size=(2, 2, 3, 3))
        cache = self.assert_matches_reference(fmap, 3, offsets, weights)
        for sat, s in ((cache.sat_x, shift[0]), (cache.sat_y, shift[1])):
            assert sat.all() or not s

    @pytest.mark.parametrize("h, w", [(1, 1), (1, 6), (6, 1), (5, 6)])
    def test_points_on_the_first_and_last_pixel_do_not_saturate(self, h, w):
        # integer offsets put many taps exactly on column 0 or w - 1 (row 0
        # or h - 1); those are in range, so the clamp does not saturate there
        rng = np.random.default_rng(h * 10 + w)
        fmap = rng.normal(size=(1, h, w))
        offsets = rng.integers(-2, 3, (18, h, w)).astype(np.float64)
        weights = rng.normal(size=(1, 1, 3, 3))
        cache = self.assert_matches_reference(fmap, 3, offsets, weights)
        px, py = tap_coords(3, offsets, h, w)
        for p, sat, last in ((px, cache.sat_x, w - 1), (py, cache.sat_y, h - 1)):
            on_edge = (p == 0.0) | (p == last)
            assert on_edge.any()
            assert not sat[on_edge].any()
            assert np.array_equal(sat, (p < 0.0) | (p > last))


class TestDeformableGatherGradients:
    @pytest.mark.parametrize("seed", range(6))
    def test_finite_difference_all_three(self, seed):
        fmap, offsets, weights, upstream = draw_until(seed, gather_case, gather_case_clear)
        _, cache = deformable_gather_cached(fmap, offsets, weights)
        d_map, d_off, d_w = deformable_gather_backward(upstream, weights, cache)

        def objective():
            return float((deformable_gather_cached(fmap, offsets, weights)[0] * upstream).sum())

        assert rel_error(d_map, finite_diff(objective, fmap)) < GRAD_TOL
        assert rel_error(d_off, finite_diff(objective, offsets)) < GRAD_TOL
        assert rel_error(d_w, finite_diff(objective, weights)) < GRAD_TOL

    def test_zero_upstream_zeroes_everything(self):
        rng = np.random.default_rng(33)
        fmap, offsets, weights, _ = gather_case(rng)
        _, cache = deformable_gather_cached(fmap, offsets, weights)
        d_map, d_off, d_w = deformable_gather_backward(np.zeros((2, 5, 6)), weights, cache)
        assert not d_map.any() and not d_off.any() and not d_w.any()

    def test_lattice_tap_concentrates_input_gradient(self):
        # a tap exactly on an integer lattice point touches one pixel only
        fmap = np.zeros((1, 5, 5))
        weights = np.zeros((1, 1, 3, 3))
        weights[0, 0, 0, 0] = 1.0  # only tap 0, nominal offset (-1, -1)
        offsets = _zero_offsets(3, 5, 5)
        upstream = np.zeros((1, 5, 5))
        upstream[0, 2, 2] = 1.0  # output position (2,2); tap lands on (1,1)
        _, cache = deformable_gather_cached(fmap, offsets, weights)
        d_map, _, _ = deformable_gather_backward(upstream, weights, cache)
        expected = np.zeros((1, 5, 5))
        expected[0, 1, 1] = 1.0
        assert np.array_equal(d_map, expected)

    def test_saturated_taps_have_zero_coordinate_gradient(self):
        rng = np.random.default_rng(41)
        fmap = rng.normal(size=(1, 5, 5))
        weights = rng.normal(size=(1, 1, 3, 3))
        offsets = _zero_offsets(3, 5, 5)
        offsets[0::2] = -20.0  # push every tap far off the left edge
        upstream = rng.normal(size=(1, 5, 5))
        _, cache = deformable_gather_cached(fmap, offsets, weights)
        _, d_off, _ = deformable_gather_backward(upstream, weights, cache)
        assert not d_off[0::2].any()

    @pytest.mark.parametrize("c, h, w", [(2, 5, 6), (8, 12, 9), (1, 1, 7)])
    def test_map_gradient_equals_one_bincount_scatter(self, c, h, w):
        rng = np.random.default_rng(c * 100 + h * 10 + w)
        fmap = rng.normal(size=(c, h, w))
        offsets = rng.normal(scale=2.0, size=(18, h, w))
        weights = rng.normal(size=(3, c, 3, 3))
        upstream = rng.normal(size=(3, h, w))
        _, cache = deformable_gather_cached(fmap, offsets, weights)
        d_map = deformable_gather_backward(upstream, weights, cache)[0]
        d_sampled = (weights.reshape(3, c * 9).T @ upstream.reshape(3, h * w)).reshape(c, -1)
        oracle = gather_scatter_one_bincount(cache.index, cache.corner_w, d_sampled, h, w)
        assert np.array_equal(d_map, oracle)

    def test_backward_copies_no_per_channel_corner_arrays(self):
        # a scatter that copies the (4, taps * h * w) corner index and weights
        # for every channel holds at least one (c, 4 * taps * h * w) float64
        # array; the per-channel scatter stays below that
        c, h, w = 8, 32, 32
        rng = np.random.default_rng(5)
        fmap = rng.normal(size=(c, h, w))
        offsets = rng.normal(scale=2.0, size=(18, h, w))
        weights = rng.normal(size=(c, c, 3, 3))
        upstream = rng.normal(size=(c, h, w))
        _, cache = deformable_gather_cached(fmap, offsets, weights)
        deformable_gather_backward(upstream, weights, cache)  # warm up numpy's caches
        tracemalloc.start()
        try:
            deformable_gather_backward(upstream, weights, cache)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < c * 4 * 9 * h * w * 8

    def test_upstream_must_match_cached_output(self):
        rng = np.random.default_rng(33)
        fmap, offsets, weights, upstream = gather_case(rng)
        _, cache = deformable_gather_cached(fmap, offsets, weights)
        for bad in (upstream[:, :-1], upstream[:1], upstream[None]):
            with pytest.raises(ValueError, match="upstream must be"):
                deformable_gather_backward(bad, weights, cache)




class TestPredictOffsets:
    """The restorer's offset convs (``off_hidden``, ``off_out``) composed
    with the gather, as one neighbour's alignment."""

    @pytest.mark.parametrize("seed", range(4))
    def test_gradients_through_predictor_and_gather(self, seed):
        case = draw_until(seed + 100, predictor_case, predictor_case_clear)
        feat_t, feat_prev, motion, hidden, out, gather_w, upstream = case

        def objective():
            return float((offset_gather(*case[:6])[0] * upstream).sum())

        d_ft, d_prev, d_gw, (dw_h, db_h, dw_o, db_o) = offset_gather_backward(
            upstream, hidden, out, gather_w, offset_gather(*case[:6])[1]
        )
        assert rel_error(d_ft, finite_diff(objective, feat_t)) < GRAD_TOL
        assert rel_error(d_prev, finite_diff(objective, feat_prev)) < GRAD_TOL
        assert rel_error(d_gw, finite_diff(objective, gather_w)) < GRAD_TOL
        assert rel_error(dw_h, finite_diff(objective, hidden.weights)) < GRAD_TOL
        assert rel_error(db_h, finite_diff(objective, hidden.bias)) < GRAD_TOL
        assert rel_error(dw_o, finite_diff(objective, out.weights)) < GRAD_TOL
        assert rel_error(db_o, finite_diff(objective, out.bias)) < GRAD_TOL


class TestKernelGrid:
    def test_three_by_three(self):
        gx, gy = kernel_grid(3)
        assert gx.tolist() == [-1, 0, 1, -1, 0, 1, -1, 0, 1]
        assert gy.tolist() == [-1, -1, -1, 0, 0, 0, 1, 1, 1]

    def test_even_size_rejected(self):
        with pytest.raises(ValueError):
            kernel_grid(4)
