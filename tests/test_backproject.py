import numpy as np
import pytest

from helpers import preclip_reconstruction, residual_coeffs
from mvcodec.backproject import back_project, back_project_frame, projection_report
from mvcodec.transform import dequantize


class TestResidualCoeffs:
    def test_prediction_candidate_gives_zero(self, coded_texture_qp24):
        _, _, _, sides = coded_texture_qp24
        side = sides[1]
        coeffs = residual_coeffs(side.prediction.as_float(), side)
        assert np.abs(coeffs).max() < 1e-9

    def test_preclip_reconstruction_recovers_levels(self, coded_texture_qp24):
        _, _, _, sides = coded_texture_qp24
        side = sides[2]
        coeffs = residual_coeffs(preclip_reconstruction(side), side)
        np.testing.assert_allclose(coeffs, dequantize(side.levels, side.qp), atol=1e-9)

    def test_linearity(self, coded_texture_qp24):
        _, _, _, sides = coded_texture_qp24
        side = sides[1]
        rng = np.random.default_rng(4)
        shape = side.prediction.pixels.shape
        c1 = rng.uniform(0, 255, shape)
        c2 = rng.uniform(0, 255, shape)
        pred = side.prediction.as_float()
        lhs = residual_coeffs(c1 + c2 - pred, side)
        a = residual_coeffs(c1, side)
        b = residual_coeffs(c2, side)
        z = residual_coeffs(pred, side)
        np.testing.assert_allclose(lhs, a + b - z, atol=1e-9)

    def test_dimension_mismatch(self, coded_texture_qp24):
        _, _, _, sides = coded_texture_qp24
        with pytest.raises(ValueError):
            back_project(np.zeros((16, 16)), sides[0])


class TestBackProjection:
    def test_decoded_preclip_is_exact_fixed_point(self, coded_texture_qp24):
        _, _, _, sides = coded_texture_qp24
        for side in sides[:3]:
            pre = preclip_reconstruction(side)
            assert np.array_equal(back_project(pre, side), pre)

    def test_original_frame_survives_projection(self, coded_texture_qp24, texture_frames):
        # truth containment means the original's coefficients are never clamped
        _, _, _, sides = coded_texture_qp24
        for orig, side in zip(texture_frames, sides):
            projected = back_project_frame(orig.as_float(), side)
            assert np.array_equal(projected.pixels, orig.pixels)

    def test_idempotent_before_rounding(self, coded_texture_qp24):
        _, _, decoded, sides = coded_texture_qp24
        rng = np.random.default_rng(17)
        side = sides[1]
        for _ in range(20):
            candidate = decoded[1].as_float() + rng.uniform(-40, 40, decoded[1].pixels.shape)
            once = back_project(candidate, side)
            twice = back_project(once, side)
            assert np.abs(twice - once).max() < 1e-9

    def test_projection_never_hurts_mse(self, coded_texture_qp24, texture_frames):
        _, _, decoded, sides = coded_texture_qp24
        rng = np.random.default_rng(29)
        for t in (1, 3):
            for _ in range(25):
                candidate = decoded[t].as_float() + rng.uniform(-30, 30, (64, 64))
                truth = texture_frames[t].as_float()
                mse_before = np.mean((candidate - truth) ** 2)
                mse_after = np.mean((back_project(candidate, sides[t]) - truth) ** 2)
                assert mse_after <= mse_before + 1e-9

    def test_report_counts_clamps(self, coded_texture_qp24):
        _, _, decoded, sides = coded_texture_qp24
        side = sides[1]
        pre = preclip_reconstruction(side)
        quiet = projection_report(pre, side)
        assert quiet.coefficients_clamped == 0
        loud = projection_report(pre + 80.0 * np.sign(np.sin(np.arange(4096)).reshape(64, 64)), side)
        assert loud.coefficients_clamped > 0
        assert loud.max_clamp_magnitude > 0.0

    def test_rounding_clip_applied_last(self, coded_texture_qp24):
        _, _, decoded, sides = coded_texture_qp24
        side = sides[1]
        out = back_project_frame(decoded[1].as_float() + 0.2, side)
        assert out.pixels.dtype == np.uint8

    def test_final_clip_is_non_expansive_toward_pixel_range(self):
        # clipping to [0, 255] never moves a value away from any truth in range
        rng = np.random.default_rng(31)
        truth = rng.integers(0, 256, 4096).astype(np.float64)
        x = rng.uniform(-200.0, 500.0, 4096)
        clipped = np.clip(x, 0.0, 255.0)
        assert (np.abs(clipped - truth) <= np.abs(x - truth)).all()
