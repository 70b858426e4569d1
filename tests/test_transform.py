import numpy as np
import pytest

from helpers import dct2d_direct, inverse_zigzag
from mvcodec.transform import (
    LEVEL_LIMIT,
    QuantTable,
    coeff_bounds,
    dct2d,
    dequantize,
    idct2d,
    quant_step,
    quantize,
    round_half_away,
    zigzag,
)


class TestQuantStep:
    def test_reference_points(self):
        assert quant_step(4) == 1.0
        assert quant_step(10) == 2.0
        assert quant_step(16) == 4.0

    def test_doubling_every_six_is_exact(self):
        for qp in range(0, 46):
            assert quant_step(qp + 6) == 2.0 * quant_step(qp)

    def test_range_check(self):
        with pytest.raises(ValueError):
            quant_step(52)
        with pytest.raises(ValueError):
            QuantTable(-1)


class TestDct:
    def test_constant_block_concentrates_in_dc(self):
        coeffs = dct2d(np.full((4, 4), 100.0))
        assert coeffs[0, 0] == pytest.approx(400.0, abs=1e-9)
        coeffs[0, 0] = 0.0
        assert np.abs(coeffs).max() < 1e-9

    def test_zero_block(self):
        assert np.abs(dct2d(np.zeros((4, 4)))).max() == 0.0

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(42)
        for size in (4, 8):
            block = rng.uniform(-128, 128, (size, size))
            np.testing.assert_allclose(dct2d(block), dct2d_direct(block), atol=1e-9)

    def test_energy_preserved(self):
        rng = np.random.default_rng(7)
        block = rng.uniform(-200, 200, (8, 8))
        e_in = float((block**2).sum())
        e_out = float((dct2d(block) ** 2).sum())
        assert e_out == pytest.approx(e_in, rel=1e-9)

    def test_linearity(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(8, 8))
        y = rng.normal(size=(8, 8))
        lhs = dct2d(2.5 * x - 1.25 * y)
        rhs = 2.5 * dct2d(x) - 1.25 * dct2d(y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_inverse_pair(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(1000):
            block = rng.uniform(-255, 255, (4, 4))
            worst = max(worst, float(np.abs(idct2d(dct2d(block)) - block).max()))
        assert worst < 1e-9

    def test_dc_only_inverse(self):
        coeffs = np.zeros((4, 4))
        coeffs[0, 0] = 400.0
        np.testing.assert_allclose(idct2d(coeffs), np.full((4, 4), 100.0), atol=1e-9)

    def test_unsupported_size(self):
        with pytest.raises(ValueError):
            dct2d(np.zeros((16, 16)))
        with pytest.raises(ValueError):
            idct2d(np.zeros((5, 5)))


class TestQuantize:
    def test_nearest_integer(self):
        # coeff/step = 2.7 rounds to level 3
        levels = quantize(np.array([[5.4]]), QuantTable(10))  # step 2.0
        assert levels[0, 0] == 3

    def test_ties_round_away_from_zero(self):
        qt = QuantTable(4)  # step 1.0
        levels = quantize(np.array([[2.5, -2.5], [0.5, -0.5]]), qt)
        assert levels.tolist() == [[3, -3], [1, -1]]

    def test_zero_maps_to_zero(self):
        for qp in (0, 4, 24, 51):
            assert quantize(np.zeros((4, 4)), QuantTable(qp)).max() == 0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            quantize(np.array([[np.nan]]), QuantTable(10))

    def test_overflow_detected(self):
        with pytest.raises(ValueError, match="16-bit"):
            quantize(np.array([[1e9]]), QuantTable(0))

    def test_dequantize_then_quantize_is_identity(self):
        qt = QuantTable(10)  # step 2.0
        levels = np.arange(-1000, 1001, dtype=np.int32).reshape(-1, 1)
        round_trip = quantize(dequantize(levels, qt), qt)
        assert np.array_equal(round_trip, levels)

    def test_dequantize_scales_by_step(self):
        qt = QuantTable(10)
        assert dequantize(np.array([[3]]), qt)[0, 0] == 6.0
        assert dequantize(np.array([[0]]), qt)[0, 0] == 0.0


class TestCoeffBounds:
    def test_half_step_interval(self):
        qt = QuantTable(10)  # step 2.0
        lower, upper = coeff_bounds(np.array([[3]]), qt)
        assert lower[0, 0] == 5.0 and upper[0, 0] == 7.0

    def test_zero_coefficient_interval(self):
        qt = QuantTable(10)
        lower, upper = coeff_bounds(np.array([[0]]), qt)
        assert lower[0, 0] == -1.0 and upper[0, 0] == 1.0

    def test_matches_dequantized_plus_minus_half_step(self):
        rng = np.random.default_rng(5)
        for qp in (0, 7, 25, 51):
            qt = QuantTable(qp)
            levels = rng.integers(-500, 500, (8, 8))
            d = dequantize(levels, qt)
            lower, upper = coeff_bounds(levels, qt)
            np.testing.assert_allclose(lower, d - qt.step / 2, rtol=1e-12)
            np.testing.assert_allclose(upper, d + qt.step / 2, rtol=1e-12)
            assert (lower <= upper).all()

    @pytest.mark.parametrize("qp", range(0, 52))
    def test_every_level_matches_the_dequantized_round_trip(self, qp):
        # bounds read from the levels equal, bit for bit, the ones recovered
        # from dequantized values with rint(decoded / step)
        qt = QuantTable(qp)
        levels = np.arange(-LEVEL_LIMIT, LEVEL_LIMIT + 1, dtype=np.int32)
        recovered = np.rint(dequantize(levels, qt) / qt.step)
        lower, upper = coeff_bounds(levels, qt)
        assert np.array_equal(lower, (recovered - 0.5) * qt.step)
        assert np.array_equal(upper, (recovered + 0.5) * qt.step)

    def test_containment_sweep_all_qps(self):
        # the load-bearing property: e always lands inside its interval, exactly
        rng = np.random.default_rng(123)
        coeffs = rng.uniform(-2000.0, 2000.0, 100_000)
        for qp in range(0, 52):
            qt = QuantTable(qp)
            lower, upper = coeff_bounds(quantize(coeffs, qt), qt)
            assert (lower <= coeffs).all() and (coeffs <= upper).all()


class TestRounding:
    def test_round_half_away(self):
        x = np.array([0.5, -0.5, 1.4999, -1.4999, 2.5, -2.5, 0.0])
        assert round_half_away(x).tolist() == [1.0, -1.0, 1.0, -1.0, 3.0, -3.0, 0.0]


class TestZigzag:
    def test_known_prefix_8x8(self):
        block = np.arange(64).reshape(8, 8)
        assert zigzag(block)[:10].tolist() == [0, 1, 8, 16, 9, 2, 3, 10, 17, 24]

    def test_round_trip(self):
        rng = np.random.default_rng(9)
        for size in (4, 8):
            block = rng.integers(-100, 100, (size, size))
            assert np.array_equal(inverse_zigzag(zigzag(block), size), block)
