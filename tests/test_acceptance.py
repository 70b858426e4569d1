"""Acceptance gate: one test per release criterion, each printing a PASS line.

Criterion 7 trains the restorer through the real CLI with its default
settings; everything it needs is generated by the seeded fixture generator,
so the whole suite runs from a clean checkout.
"""

import time

import numpy as np
import pytest

from helpers import (
    GRAD_TOL,
    conv_case,
    conv_case_clear,
    draw_until,
    finite_diff,
    fuse_case,
    gather_case,
    gather_case_clear,
    offset_gather,
    offset_gather_backward,
    predictor_case,
    predictor_case_clear,
    preclip_reconstruction,
    reconstruct_from_side_info,
    rel_error,
    residual_coeffs,
    zero_restorer,
)
from mvcodec import fixtures
from mvcodec.alignment import deformable_gather_backward, deformable_gather_cached
from mvcodec.backproject import back_project
from mvcodec.bitio import BitReader, BitWriter
from mvcodec.cli import main
from mvcodec.codec import (
    CodecConfig,
    decode_sequence,
    encode_sequence,
    encode_with_reconstruction,
)
from mvcodec.frames import load_sequence, psnr
from mvcodec.nn import ConvLayer, conv_backward, conv_forward_cached, l1_loss, l1_loss_grad
from mvcodec.restorer import (
    build_aux_planes,
    fuse,
    fuse_backward,
    padded_window,
    restorer_forward,
)
from mvcodec.transform import coeff_bounds


@pytest.fixture(scope="module")
def both_fixtures():
    return {
        "texture": fixtures.translating_texture(6, seed=7),
        "checker": fixtures.deforming_checker(6, seed=3),
    }


def _coded(frames, qp):
    data = encode_sequence(frames, CodecConfig(qp=qp))
    decoded, sides = decode_sequence(data)
    return data, decoded, sides


def test_criterion_1_backprojection_non_expansiveness(both_fixtures):
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    for name, frames in both_fixtures.items():
        candidates_checked = 0
        for qp in (8, 24, 40):
            _, decoded, sides = _coded(frames, qp)
            per_pair = -(-1000 // (3 * len(frames)))  # >= 1000 per fixture overall
            for orig, dec, side in zip(frames, decoded, sides):
                truth = orig.as_float()
                e = residual_coeffs(truth, side)
                lower, upper = coeff_bounds(side.levels, side.qp)
                for _ in range(per_pair):
                    candidate = dec.as_float() + rng.uniform(-30, 30, truth.shape)
                    c = residual_coeffs(candidate, side)
                    f = np.clip(c, lower, upper)
                    assert (np.abs(f - e) <= np.abs(c - e)).all()
                    projected = back_project(candidate, side)
                    mse_before = float(np.mean((candidate - truth) ** 2))
                    mse_after = float(np.mean((projected - truth) ** 2))
                    assert mse_after <= mse_before + 1e-9
                    candidates_checked += 1
        assert candidates_checked >= 1000, name
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"
    print(f"\nPASS criterion 1: per-coefficient non-expansiveness and MSE decrease "
          f"({elapsed:.1f}s)")


def test_criterion_2_truth_containment(both_fixtures):
    for name, frames in both_fixtures.items():
        for qp in (8, 16, 24, 32, 40):
            _, _, sides = _coded(frames, qp)
            for orig, side in zip(frames, sides):
                e = residual_coeffs(orig.as_float(), side)
                lower, upper = coeff_bounds(side.levels, side.qp)
                assert (lower <= e).all() and (e <= upper).all(), (name, qp)
    print("\nPASS criterion 2: true residual coefficients inside [L, U], exact")


def test_criterion_3_fixed_point_and_idempotence(both_fixtures):
    rng = np.random.default_rng(7)
    for frames in both_fixtures.values():
        _, decoded, sides = _coded(frames, 24)
        for dec, side in zip(decoded, sides):
            pre = preclip_reconstruction(side)
            assert np.array_equal(back_project(pre, side), pre)  # exact fixed point
        side = sides[2]
        for _ in range(15):
            candidate = decoded[2].as_float() + rng.uniform(-40, 40, (64, 64))
            once = back_project(candidate, side)
            assert np.abs(back_project(once, side) - once).max() < 1e-9
    print("\nPASS criterion 3: decoded pre-clip fixed point exact, projection idempotent")


def test_criterion_4_gradient_correctness():
    started = time.monotonic()
    seeds = range(20)

    for activation in ("none", "relu", "sigmoid"):
        for seed in seeds:
            layer, x, up = draw_until(seed, conv_case(activation), conv_case_clear)
            dx, dw, db = conv_backward(layer, up, conv_forward_cached(layer, x)[1])
            obj = lambda: float((conv_forward_cached(layer, x)[0] * up).sum())
            assert rel_error(dx, finite_diff(obj, x)) < GRAD_TOL
            assert rel_error(dw, finite_diff(obj, layer.weights)) < GRAD_TOL
            assert rel_error(db, finite_diff(obj, layer.bias)) < GRAD_TOL

    for seed in seeds:  # sigmoid attention layer
        rng = np.random.default_rng(3000 + seed)
        layer = ConvLayer(rng.normal(size=(1, 4, 7, 7)) * 0.2, rng.normal(size=1) * 0.2, "sigmoid")
        fv = rng.normal(size=(2, 8, 8))
        fa = rng.normal(size=(2, 8, 8))
        up = rng.normal(size=(1, 8, 8))
        x = np.concatenate([fv, fa], axis=0)
        dx, dw, db = conv_backward(layer, up, conv_forward_cached(layer, x)[1])
        obj = lambda: float((conv_forward_cached(layer, x)[0] * up).sum())
        assert rel_error(dx, finite_diff(obj, x)) < GRAD_TOL
        assert rel_error(dw, finite_diff(obj, layer.weights)) < GRAD_TOL
        assert rel_error(db, finite_diff(obj, layer.bias)) < GRAD_TOL

    for seed in seeds:  # fusion gating; the conv loop above covers the agg convs
        fv, fa, fl, ma, ml = fuse_case(np.random.default_rng(4000 + seed))
        up = np.random.default_rng(seed).normal(size=(3 * fv.shape[0],) + fv.shape[1:])
        obj = lambda: float((np.concatenate(fuse(fv, fa, fl, ma, ml)) * up).sum())
        d_fv, d_fa, d_fl, d_ma, d_ml = fuse_backward(up, fv, fa, fl, ma, ml)
        assert rel_error(d_fv, finite_diff(obj, fv)) < GRAD_TOL
        assert rel_error(d_fa, finite_diff(obj, fa)) < GRAD_TOL
        assert rel_error(d_fl, finite_diff(obj, fl)) < GRAD_TOL
        assert rel_error(d_ma, finite_diff(obj, ma)) < GRAD_TOL
        assert rel_error(d_ml, finite_diff(obj, ml)) < GRAD_TOL

    for seed in seeds:  # bilinear / deformable gather
        fmap, offsets, weights, up = draw_until(5000 + seed, gather_case, gather_case_clear)
        _, gather_cache = deformable_gather_cached(fmap, 3, offsets, weights)
        d_map, d_off, d_w = deformable_gather_backward(up, weights, gather_cache)
        obj = lambda: float((deformable_gather_cached(fmap, 3, offsets, weights)[0] * up).sum())
        assert rel_error(d_map, finite_diff(obj, fmap)) < GRAD_TOL
        assert rel_error(d_off, finite_diff(obj, offsets)) < GRAD_TOL
        assert rel_error(d_w, finite_diff(obj, weights)) < GRAD_TOL

    for seed in seeds:  # offset convs composed with the gather
        case = draw_until(6000 + seed, predictor_case, predictor_case_clear)
        feat_t, feat_prev, motion, hidden, out, gather_w, up = case
        obj = lambda: float((offset_gather(*case[:6])[0] * up).sum())
        d_ft, d_prev, _, (dw_h, db_h, dw_o, db_o) = offset_gather_backward(
            up, hidden, out, gather_w, offset_gather(*case[:6])[1]
        )
        assert rel_error(d_ft, finite_diff(obj, feat_t)) < GRAD_TOL
        assert rel_error(d_prev, finite_diff(obj, feat_prev)) < GRAD_TOL
        assert rel_error(dw_h, finite_diff(obj, hidden.weights)) < GRAD_TOL
        assert rel_error(db_h, finite_diff(obj, hidden.bias)) < GRAD_TOL
        assert rel_error(dw_o, finite_diff(obj, out.weights)) < GRAD_TOL
        assert rel_error(db_o, finite_diff(obj, out.bias)) < GRAD_TOL

    for seed in seeds:  # L1 loss
        rng = np.random.default_rng(7000 + seed)
        pred = rng.normal(size=(6, 6)) * 4
        target = rng.normal(size=(6, 6)) * 4
        if np.abs(pred - target).min() < 1e-3:
            pred = pred + 0.01
        grad = l1_loss_grad(pred, target)
        fd = finite_diff(lambda: l1_loss(pred, target), pred)
        assert rel_error(grad, fd) < GRAD_TOL

    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"criterion 4 took {elapsed:.1f}s"
    print(f"\nPASS criterion 4: all gradients match finite differences ({elapsed:.1f}s)")


def test_criterion_5_codec_soundness(both_fixtures):
    for name, frames in both_fixtures.items():
        config = CodecConfig(qp=24)
        data1, recons = encode_with_reconstruction(frames, config)
        data2 = encode_sequence(frames, config)
        assert data1 == data2, name  # bit determinism
        decoded, sides = decode_sequence(data1)
        for a, b in zip(recons, decoded):
            assert np.array_equal(a.pixels, b.pixels), name  # closed loop
        for dec, side in zip(decoded, sides):
            rebuilt = reconstruct_from_side_info(side)
            assert np.array_equal(rebuilt.pixels, dec.pixels), name  # side-info invariant

    writer = BitWriter()
    for v in range(100_001):
        writer.write_ue(v)
    reader = BitReader(writer.getvalue())
    for v in range(100_001):
        assert reader.read_ue() == v
    print("\nPASS criterion 5: bit-deterministic codec, exact closed loop, "
          "exp-Golomb round trip over [0, 1e5]")


def test_criterion_6_rate_distortion_monotonicity(both_fixtures):
    for name, frames in both_fixtures.items():
        bits = []
        psnrs = []
        pixels = frames[0].width * frames[0].height * len(frames)
        for qp in (8, 16, 24, 32, 40):
            data, decoded, _ = _coded(frames, qp)
            bits.append(8 * len(data) / pixels)
            psnrs.append(float(np.mean([psnr(o, d) for o, d in zip(frames, decoded)])))
        assert all(a > b for a, b in zip(bits, bits[1:])), (name, bits)
        assert all(a > b for a, b in zip(psnrs, psnrs[1:])), (name, psnrs)
    print("\nPASS criterion 6: bpp and decoded PSNR strictly decreasing in QP")


def test_criterion_8_reduction_identities(both_fixtures):
    rng = np.random.default_rng(88)
    # zero-offset gather == plain convolution with clamp padding
    for shape in ((1, 5, 5), (3, 8, 6), (2, 16, 16), (4, 7, 9)):
        fmap = rng.normal(size=shape)
        weights = rng.normal(size=(3, shape[0], 3, 3))
        offsets = np.zeros((18,) + shape[1:])
        plain = conv_forward_cached(ConvLayer(weights, np.zeros(3), "none"), fmap)[0]
        assert np.abs(deformable_gather_cached(fmap, 3, offsets, weights)[0] - plain).max() < 1e-12

    # zero-weight restorer is the identity on decoded frames
    frames = both_fixtures["texture"]
    _, decoded, sides = _coded(frames, 36)
    model = zero_restorer()
    for t in (0, 2, 5):
        window = padded_window(decoded, t, model.half_window)
        out = restorer_forward(window, sides[t], build_aux_planes(sides[t]), model)
        assert np.array_equal(out, decoded[t].as_float())

    # zero attention maps sever the auxiliary gradient path exactly
    fv, fa, fl, ma, ml = fuse_case(rng)
    zero = np.zeros_like(ma)
    up = rng.normal(size=(3 * fv.shape[0],) + fv.shape[1:])
    _, d_fa, _, _, _ = fuse_backward(up, fv, fa, fl, zero, ml)
    _, _, d_fl, _, _ = fuse_backward(up, fv, fa, fl, ma, zero)
    assert not d_fa.any() and not d_fl.any()
    print("\nPASS criterion 8: zero-offset, zero-weight and zero-attention reductions")


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """cmd_train with its defaults (seed 1, 2000 iterations, qp 36)."""
    root = tmp_path_factory.mktemp("acceptance")
    manifests = fixtures.write_fixture_tree(root)
    model_path = root / "model.mvdr"
    started = time.monotonic()
    assert main(["train", str(manifests["dataset"]), "-o", str(model_path)]) == 0
    train_seconds = time.monotonic() - started
    return root, manifests, model_path, train_seconds


def test_criterion_7_toy_restoration_gain(trained_run):
    root, manifests, model_path, train_seconds = trained_run
    started = time.monotonic()

    held_manifest = manifests["heldout"]
    stream = root / "held.mvc"
    assert main(["encode", str(held_manifest), "--qp", "36", "-o", str(stream)]) == 0
    assert main(["restore", str(stream), "--model", str(model_path), "-o", str(root / "bp")]) == 0
    assert main([
        "restore", str(stream), "--model", str(model_path),
        "--no-backprojection", "-o", str(root / "raw"),
    ]) == 0

    held = load_sequence(held_manifest)
    decoded, _ = decode_sequence(stream.read_bytes())
    restored_bp = load_sequence(root / "bp" / "manifest.txt")
    restored_raw = load_sequence(root / "raw" / "manifest.txt")

    p_dec = [psnr(o, f) for o, f in zip(held, decoded)]
    p_bp = [psnr(o, f) for o, f in zip(held, restored_bp)]
    p_raw = [psnr(o, f) for o, f in zip(held, restored_raw)]

    gain = float(np.mean(p_bp)) - float(np.mean(p_dec))
    assert gain >= 0.1, f"restoration gain {gain:.4f} dB below 0.1 dB"
    for t, (a, b) in enumerate(zip(p_bp, p_raw)):
        assert a >= b - 0.01, f"frame {t}: projection cost {b - a:.4f} dB"
    assert float(np.mean(p_bp)) > float(np.mean(p_raw)), "projection did not improve the mean"

    total = train_seconds + (time.monotonic() - started)
    assert total < 900.0, f"criterion 7 took {total / 60:.1f} min"
    print(f"\nPASS criterion 7: restored +{gain:.3f} dB over decoded on held-out data; "
          f"projection never hurts and improves the mean ({total / 60:.1f} min)")


def test_loss_trace_descends_at_window_scale(trained_run):
    """Fifty-iteration averages of the default training loss keep descending.

    Consecutive iterations see different mini-batches, so raw losses and
    sliding averages wobble; disjoint 50-iteration windows each cover every
    training sample exactly once (epoch == 50 iterations by construction).
    Near convergence the window means still jitter by a fraction of a
    percent, so descent is asserted up to a 0.2%-of-start allowance; any
    real divergence rises orders of magnitude past that.
    """
    root, _, model_path, _ = trained_run
    rows = (root / (model_path.name + ".loss.csv")).read_text().strip().splitlines()[1:]
    losses = np.array([float(r.split(",")[1]) for r in rows])
    assert losses.size == 2000
    window_means = losses.reshape(-1, 50).mean(axis=1)
    diffs = np.diff(window_means)
    noise_allowance = 2e-3 * window_means[0]
    assert (diffs <= noise_allowance).all(), f"window-mean rise {diffs.max():.6f}"
    assert window_means[-1] < window_means[0]
    print("\nPASS: training loss descends at 50-iteration window scale")
