import dataclasses
import tracemalloc

import numpy as np
import pytest

from helpers import (
    GRAD_TOL,
    finite_diff,
    fuse_case,
    padded_input,
    reconstruct_from_side_info,
    rel_error,
    zero_restorer,
)
from mvcodec import fixtures
from mvcodec.codec import CodecConfig, decode_sequence, encode_sequence
from mvcodec.frames import Frame
from mvcodec.nn import ConvLayer, l1_loss
from mvcodec.restorer import (
    HALF_WINDOW,
    MODEL_HEADER,
    PARAM_COUNT,
    SCHEDULE,
    WINDOW,
    TrainConfig,
    build_aux_planes,
    build_training_samples,
    crop_side_info,
    fuse,
    fuse_backward,
    init_restorer,
    load_model,
    padded_window,
    param_views,
    restore_sequence,
    restorer_backward,
    restorer_forward,
    restorer_forward_cached,
    save_model,
    train_restorer,
)


@pytest.fixture(scope="module")
def tiny_coded():
    """Short coded sequence at a coarse QP plus its training samples."""
    frames = fixtures.translating_texture(6, seed=7)
    decoded, sides = decode_sequence(encode_sequence(frames, CodecConfig(qp=36)))
    samples = build_training_samples(frames, decoded, sides, half_window=2)
    return frames, decoded, sides, samples


class TestFuse:
    def test_zero_attention_equals_zeroed_aux_channels(self):
        rng = np.random.default_rng(1)
        fv, fa, fl, _, _ = fuse_case(rng)
        zeros = np.zeros((1, 6, 6))
        gated = np.concatenate(fuse(fv, fa, fl, zeros, zeros))
        manual = np.concatenate(
            fuse(fv, np.zeros_like(fa), np.zeros_like(fl), zeros + 1.0, zeros + 1.0)
        )
        assert np.array_equal(gated, manual)

    def test_unit_attention_passes_features_through(self):
        rng = np.random.default_rng(2)
        fv, fa, fl, _, _ = fuse_case(rng)
        ones = np.ones((1, 6, 6))
        out = np.concatenate(fuse(fv, fa, fl, ones, ones))
        assert np.array_equal(out, np.concatenate([fv, fa, fl], axis=0))

    def test_zero_attention_severs_gradients_exactly(self):
        rng = np.random.default_rng(4)
        fv, fa, fl, _, ml = fuse_case(rng)
        ma = np.zeros((1, 6, 6))
        upstream = rng.normal(size=(6, 6, 6))
        d_fv, d_fa, d_fl, d_ma, d_ml = fuse_backward(upstream, fv, fa, fl, ma, ml)
        assert not d_fa.any()  # exact zeros, not merely small
        assert d_fl.any()

    @pytest.mark.parametrize("seed", range(3))
    def test_gradients(self, seed):
        fv, fa, fl, ma, ml = fuse_case(np.random.default_rng(900 + seed))
        upstream = np.random.default_rng(seed).normal(size=(6, 6, 6))

        def objective():
            return float((np.concatenate(fuse(fv, fa, fl, ma, ml)) * upstream).sum())

        d_fv, d_fa, d_fl, d_ma, d_ml = fuse_backward(upstream, fv, fa, fl, ma, ml)
        assert rel_error(d_fv, finite_diff(objective, fv)) < GRAD_TOL
        assert rel_error(d_fa, finite_diff(objective, fa)) < GRAD_TOL
        assert rel_error(d_fl, finite_diff(objective, fl)) < GRAD_TOL
        assert rel_error(d_ma, finite_diff(objective, ma)) < GRAD_TOL
        assert rel_error(d_ml, finite_diff(objective, ml)) < GRAD_TOL


class TestAuxPlanes:
    def test_planes_shapes_and_ranges(self, tiny_coded):
        _, decoded, sides, _ = tiny_coded
        aux = build_aux_planes(sides[1])
        assert aux.shape == (3, 64, 64)
        prediction, _, qp_plane = aux
        # the forward builds the structure planes; auxl1's cache holds them
        # edge-padded by one pixel
        model = init_restorer(seed=5)
        window = padded_window(decoded, 1, HALF_WINDOW)
        _, cache = restorer_forward_cached(window, sides[1], aux, model)
        _, layer, conv_cache = cache["convs"]["auxl1"]
        structure = padded_input(layer, conv_cache)[:, 1:-1, 1:-1]
        assert structure.shape == (2, 64, 64)
        leaf_size = structure[1]
        assert (qp_plane == 36 / 51).all()
        assert leaf_size.min() >= 4 / 16 and leaf_size.max() <= 1.0
        assert (prediction >= 0).all() and (prediction <= 1).all()

    def test_residual_plane_matches_reconstruction(self, tiny_coded):
        _, decoded, sides, _ = tiny_coded
        side = sides[2]
        prediction, residual, _ = build_aux_planes(side)
        # prediction + residual, rounded and clipped, is the decoded frame
        recon = 255.0 * (prediction + residual)
        from mvcodec.transform import round_half_away

        rebuilt = np.clip(round_half_away(recon), 0, 255).astype(np.uint8)
        assert np.array_equal(rebuilt, decoded[2].pixels)

    @pytest.mark.parametrize("qp", [16, 36, 44])
    @pytest.mark.parametrize("kind", ["texture", "checker"])
    def test_crop_planes_equal_the_crop_of_frame_planes(self, kind, qp):
        make = {"texture": fixtures.translating_texture, "checker": fixtures.deforming_checker}
        frames = make[kind](3)
        decoded, sides = decode_sequence(encode_sequence(frames, CodecConfig(qp=qp)))
        samples = iter(build_training_samples(frames, decoded, sides, half_window=1, crop=32))
        for side in sides:
            planes = build_aux_planes(side)
            for y0 in (0, 32):
                for x0 in (0, 32):
                    tile = planes[:, y0 : y0 + 32, x0 : x0 + 32]
                    window = np.s_[y0 : y0 + 32, x0 : x0 + 32]
                    assert np.array_equal(build_aux_planes(crop_side_info(side, window)), tile)
                    assert np.array_equal(next(samples).aux, tile)
            crop = crop_side_info(side, np.s_[16:48, 16:48])
            assert np.array_equal(build_aux_planes(crop), planes[:, 16:48, 16:48])


class TestRestorerForward:
    def test_zero_weight_model_is_identity(self, tiny_coded):
        _, _, _, samples = tiny_coded
        model = zero_restorer()
        for s in samples[:3]:
            out = restorer_forward(s.window, s.side, s.aux, model)
            assert np.array_equal(out, s.window[HALF_WINDOW].as_float())

    def test_output_shape_and_determinism(self, tiny_coded):
        _, _, _, samples = tiny_coded
        model = init_restorer(seed=5)
        s = samples[2]
        a = restorer_forward(s.window, s.side, s.aux, model)
        b = restorer_forward(s.window, s.side, s.aux, model)
        assert a.shape == (64, 64)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("size", [32, 64])
    @pytest.mark.parametrize("kind", ["texture", "checker"])
    def test_inference_is_the_cached_composition(self, kind, size):
        make = {"texture": fixtures.translating_texture, "checker": fixtures.deforming_checker}
        decoded, sides = decode_sequence(
            encode_sequence(make[kind](4, size=size), CodecConfig(qp=36))
        )
        model = init_restorer(seed=5)
        for t in (0, 2):
            window = padded_window(decoded, t, HALF_WINDOW)
            aux = build_aux_planes(sides[t])
            out, cache = restorer_forward_cached(window, sides[t], aux, model)
            assert cache["convs"] and cache["neighbors"]
            assert np.array_equal(restorer_forward(window, sides[t], aux, model), out)

    def test_every_conv_of_the_schedule_is_recorded(self, tiny_coded):
        _, _, _, samples = tiny_coded
        model = init_restorer(seed=5)
        s = samples[2]
        _, cache = restorer_forward_cached(s.window, s.side, s.aux, model)
        convs = cache["convs"]
        # every parameter with a bias belongs to a conv; gather.w has none
        layers = {name[:-2] for name, _ in SCHEDULE if name.endswith(".b")}
        assert {name for name, _, _ in convs.values()} == layers
        n = HALF_WINDOW
        neighbours = [j for j in range(WINDOW) if j != n]
        assert set(convs) == (
            {f"feat{j}" for j in range(WINDOW)}
            | {f"{name}{j}" for name in ("off_hidden", "off_out") for j in neighbours}
            | (layers - {"feat", "off_hidden", "off_out"})
        )
        for name, layer, _ in convs.values():
            assert layer.weights is model.params[f"{name}.w"], name
            assert layer.bias is model.params[f"{name}.b"], name

    def test_window_length_validated(self, tiny_coded):
        _, _, _, samples = tiny_coded
        model = init_restorer(seed=5)
        s = samples[2]
        with pytest.raises(ValueError, match="window"):
            restorer_forward(s.window[:3], s.side, s.aux, model)

    def test_padded_window_repeats_edges(self, tiny_coded):
        _, decoded, _, _ = tiny_coded
        w0 = padded_window(decoded, 0, 2)
        assert [id(f) for f in w0[:3]] == [id(decoded[0])] * 3
        wlast = padded_window(decoded, len(decoded) - 1, 2)
        assert [id(f) for f in wlast[-3:]] == [id(decoded[-1])] * 3


def _param_subsample(model, rng, per_tensor=4):
    picks = []
    for name, p in sorted(model.params.items()):
        flat = p.reshape(-1)
        idx = rng.choice(flat.size, size=min(per_tensor, flat.size), replace=False)
        picks.append((name, np.sort(idx)))
    return picks


def _freeze(obj) -> int:
    """Mark every array reachable from a cache read-only; returns their count."""
    if isinstance(obj, np.ndarray):
        obj.flags.writeable = False
        return 1
    if isinstance(obj, dict):
        obj = list(obj.values())
    elif dataclasses.is_dataclass(obj):
        obj = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    if isinstance(obj, (list, tuple)):
        return sum(_freeze(item) for item in obj)
    return 0


class TestRestorerGradients:
    def test_full_model_against_finite_differences(self):
        # tiny frames; parameters subsampled per tensor
        frames = [Frame(f.pixels[:16, :16]) for f in fixtures.translating_texture(5, seed=9, patch=12)]
        decoded, sides = decode_sequence(encode_sequence(frames, CodecConfig(qp=30)))
        samples = build_training_samples(frames, decoded, sides, half_window=HALF_WINDOW)
        # sample 0's window (f0, f0, f0, f1, f2) repeats the centre frame, so
        # its first two neighbours and the centre share one feat conv and its cache
        relu_layers = ("feat", "off_hidden", "vmix", "vres", "auxa1", "auxa2",
                       "auxl1", "auxl2", "agg1", "agg2", "rec1")
        for s in (samples[2], samples[0]):
            # constructed kink-free point: every relu unit is pushed active by a
            # bias lift (locally linear), offsets sit mid-cell, weights stay small
            # so finite-difference perturbations cannot reach any corner; the
            # first init seed from 1000 up whose point is kink-free is checked
            for seed in range(1000, 1020):
                model = init_restorer(seed=seed)
                for name in model.params:
                    if name.endswith(".w"):
                        model.params[name] *= 0.3
                for name in relu_layers:
                    model.params[f"{name}.b"] += 0.7
                model.params["off_out.b"] += 0.4
                out, cache = restorer_forward_cached(s.window, s.side, s.aux, model)
                # every relu pre-activation, all in the one conv registry
                convs = cache["convs"]
                relu_z = [cc.z for _, layer, cc in convs.values() if layer.activation == "relu"]
                assert len(relu_z) == 18  # 5 feat, 4 off_hidden, 9 single layers
                min_z = min(float(np.abs(z).min()) for z in relu_z)
                # the offset layer is linear, so its pre-activation is the offset field
                offs = np.concatenate(
                    [convs[f"off_out{j}"][2].z.ravel() for j, _ in cache["neighbors"]]
                )
                frac = np.abs(offs - np.round(offs))
                if min_z > 0.05 and frac.min() > 0.1 and np.abs(offs).max() < 0.9:
                    break
            assert min_z > 0.05, "pre-activations not clear of relu corners"
            assert frac.min() > 0.1 and np.abs(offs).max() < 0.9, "offsets not mid-cell"

            rng = np.random.default_rng(0)
            upstream = rng.normal(size=out.shape)
            grads = param_views(restorer_backward(upstream, cache, model))

            # the constant center-frame skip term is subtracted to keep the
            # objective small; otherwise float cancellation drowns the quotient
            center = s.window[HALF_WINDOW].as_float()

            def objective():
                out_now = restorer_forward(s.window, s.side, s.aux, model)
                return float(((out_now - center) * upstream).sum())

            # a composition this deep needs a larger step than the per-op checks:
            # cancellation noise scales as 1/h while every kink sits far away,
            # and the off_* gradients (about 1e-5) need h = 1e-3 to clear it
            h = 1e-3
            for name, idx in _param_subsample(model, rng):
                flat = model.params[name].reshape(-1)
                analytic = grads[name].reshape(-1)[idx]
                numeric = np.empty(len(idx))
                for k, i in enumerate(idx):
                    orig = flat[i]
                    flat[i] = orig + h
                    fp = objective()
                    flat[i] = orig - h
                    fm = objective()
                    flat[i] = orig
                    numeric[k] = (fp - fm) / (2.0 * h)
                assert rel_error(analytic, numeric) < GRAD_TOL, name

    def test_backward_only_reads_shared_edge_caches(self, tiny_coded):
        frames, decoded, sides, _ = tiny_coded
        # a cropped edge sample: its window (f0, f0, f0, f1, f2) repeats the
        # crop of f0 as one Frame object
        s = build_training_samples(frames, decoded, sides, half_window=2, crop=32)[0]
        assert s.window[0] is s.window[1] is s.window[2]
        model = init_restorer(seed=6)
        out, cache = restorer_forward_cached(s.window, s.side, s.aux, model)
        convs, neighbors = cache["convs"], dict(cache["neighbors"])
        assert convs["feat0"] is convs["feat1"] is convs["feat2"]
        assert convs["off_hidden0"] is convs["off_hidden1"]
        assert convs["off_out0"] is convs["off_out1"]
        assert neighbors[0] is neighbors[1]
        upstream = np.random.default_rng(2).normal(size=out.shape)
        writable = restorer_backward(upstream, restorer_forward_cached(
            s.window, s.side, s.aux, model)[1], model)
        assert _freeze(cache) > 50
        frozen = restorer_backward(upstream, cache, model)
        assert np.array_equal(frozen, writable)


def _dataset_loss(model, samples):
    total = 0.0
    for s in samples:
        out = restorer_forward(s.window, s.side, s.aux, model)
        total += l1_loss(out, s.target.as_float())[0]
    return total / len(samples)


class TestTraining:
    def test_loss_decreases_on_toy_set(self, tiny_coded):
        frames, decoded, sides, _ = tiny_coded
        samples = build_training_samples(frames, decoded, sides, half_window=2, crop=32)
        config = TrainConfig(iterations=150, batch_size=2, seed=1)
        before = _dataset_loss(init_restorer(seed=config.seed), samples)
        model, losses = train_restorer(samples, config)
        assert len(losses) == 150
        assert _dataset_loss(model, samples) < before

    def test_identical_seeds_identical_traces(self, tiny_coded):
        _, _, _, samples = tiny_coded
        config = TrainConfig(iterations=12, batch_size=2, seed=3)
        m1, l1 = train_restorer(samples, config)
        m2, l2 = train_restorer(samples, config)
        assert l1 == l2
        for name in m1.params:
            assert np.array_equal(m1.params[name], m2.params[name])

    def test_perfect_dataset_keeps_identity_reachable(self, tiny_coded):
        frames, _, sides, _ = tiny_coded
        # decoded == original pairs: the skip connection is already optimal
        samples = build_training_samples(frames, frames, sides, half_window=2)
        config = TrainConfig(iterations=40, batch_size=2, seed=2)
        _, losses = train_restorer(samples, config)
        assert losses[-1] <= losses[0]

    def test_zero_iterations_return_the_initial_parameters(self, tiny_coded):
        _, _, _, samples = tiny_coded
        model, losses = train_restorer(samples, TrainConfig(iterations=0, seed=3))
        assert losses == []
        initial = init_restorer(seed=3)
        for name in initial.params:
            assert np.array_equal(model.params[name], initial.params[name]), name

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train_restorer([], TrainConfig(iterations=1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_aborts_with_diagnostic(self, tiny_coded, monkeypatch):
        # deliberately overflow the forward pass; the resulting non-finite
        # loss must abort with the dedicated exception
        _, _, _, samples = tiny_coded
        from mvcodec import restorer

        model = init_restorer(seed=1)
        model.params["rec2.w"][:] = 1e300
        model.params["vmix.w"][:] = 1e300
        monkeypatch.setattr(restorer, "init_restorer", lambda seed: model)
        with pytest.raises(FloatingPointError, match="non-finite at iteration 0"):
            train_restorer(samples, TrainConfig(iterations=2, batch_size=1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)

    def test_config_holds_only_the_loop_settings(self):
        names = [f.name for f in dataclasses.fields(TrainConfig)]
        assert names == ["batch_size", "iterations", "seed"]


def traced_peak(call) -> int:
    """tracemalloc's peak over one call, after a warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingSet:
    def test_inference_forward_peak_at_128_px(self):
        # 30.2 MiB when the gather built its full-frame index, weights and
        # samples and every stacked conv input was built before its padding
        frames = fixtures.translating_texture(3, size=128)
        decoded, sides = decode_sequence(encode_sequence(frames, CodecConfig(qp=36)))
        model = init_restorer(seed=1)
        window = padded_window(decoded, 1, HALF_WINDOW)
        aux = build_aux_planes(sides[1])
        peak = traced_peak(lambda: restorer_forward(window, sides[1], aux, model))
        assert peak <= 23 * 2**20

    def test_training_keeps_one_sample_alive(self, tiny_coded):
        # 21.1 MiB while the previous sample's output and cache lived through
        # the next sample's forward
        frames, decoded, sides, _ = tiny_coded
        samples = build_training_samples(frames, decoded, sides, half_window=2, crop=32)
        peak = traced_peak(lambda: train_restorer(samples, TrainConfig(iterations=8, seed=1)))
        assert peak <= 15 * 2**20


class TestCrops:
    def test_crop_side_info_preserves_reconstruction(self, tiny_coded):
        _, decoded, sides, _ = tiny_coded
        side = sides[2]
        for x0, y0 in ((0, 0), (32, 0), (16, 16)):
            cropped = crop_side_info(side, np.s_[y0 : y0 + 32, x0 : x0 + 32])
            rebuilt = reconstruct_from_side_info(cropped)
            assert np.array_equal(
                rebuilt.pixels, decoded[2].pixels[y0 : y0 + 32, x0 : x0 + 32]
            )

    def test_unaligned_crop_rejected(self, tiny_coded):
        _, _, sides, _ = tiny_coded
        with pytest.raises(ValueError):
            crop_side_info(sides[0], np.s_[0:32, 8:40])

    def test_crop_planes_are_slices_of_the_frame_planes(self, tiny_coded):
        _, _, sides, _ = tiny_coded
        # one side whose intra and motion planes vary everywhere, so a crop
        # that slices any plane in the wrong place shows
        rng = np.random.default_rng(4)
        mixed = dataclasses.replace(
            sides[2],
            intra=rng.random(sides[2].intra.shape) < 0.5,
            motion=rng.integers(-8, 9, sides[2].motion.shape, dtype=np.int16),
        )
        for side in [*sides, mixed]:
            for x0, y0 in ((0, 0), (32, 0), (16, 16), (32, 32)):
                window = np.s_[y0 : y0 + 32, x0 : x0 + 32]
                crop = crop_side_info(side, window)
                assert np.array_equal(crop.sizes, side.sizes[window])
                assert np.array_equal(crop.motion, side.motion[(slice(None), *window)])
                assert np.array_equal(crop.intra, side.intra[window])
                assert np.array_equal(crop.levels, side.levels[window])
                assert np.array_equal(crop.prediction.pixels, side.prediction.pixels[window])

    def test_crop_outside_the_frame_rejected(self, tiny_coded):
        _, _, sides, _ = tiny_coded
        for x0, y0 in ((48, 0), (0, 48), (-16, 0)):
            with pytest.raises(ValueError, match="inside the frame"):
                crop_side_info(sides[1], np.s_[y0 : y0 + 32, x0 : x0 + 32])

    def test_build_with_crop_multiplies_samples(self, tiny_coded):
        frames, decoded, sides, samples = tiny_coded
        cropped = build_training_samples(frames, decoded, sides, half_window=2, crop=32)
        assert len(cropped) == 4 * len(samples)
        assert cropped[0].window[0].width == 32

    def test_build_with_crop_crops_each_frame_once_per_tile(self, tiny_coded):
        frames, decoded, sides, _ = tiny_coded
        cropped = build_training_samples(frames, decoded, sides, half_window=2, crop=32)
        crops = {}
        for i, s in enumerate(cropped):
            t, tile = divmod(i, 4)
            for f, source in zip(s.window, padded_window(list(range(len(decoded))), t, 2)):
                assert crops.setdefault((tile, source), f) is f
        assert len({id(f) for f in crops.values()}) == 4 * len(decoded)
        for (tile, source), f in crops.items():
            y0, x0 = 32 * (tile // 2), 32 * (tile % 2)
            assert np.array_equal(f.pixels, decoded[source].pixels[y0 : y0 + 32, x0 : x0 + 32])

    @pytest.mark.parametrize("crop", [24, 128, 0, -16])
    def test_crop_that_tiles_no_aligned_square_rejected(self, tiny_coded, crop):
        frames, decoded, sides, _ = tiny_coded
        with pytest.raises(ValueError, match="crop must be positive"):
            build_training_samples(frames, decoded, sides, half_window=2, crop=crop)

    def test_unequal_list_lengths_rejected(self, tiny_coded):
        frames, decoded, sides, _ = tiny_coded
        for args in ((frames[:-1], decoded, sides), (frames, decoded, sides[:-1])):
            with pytest.raises(ValueError, match="equal lengths"):
                build_training_samples(*args, half_window=2)

    def test_whole_frame_samples_of_a_non_square_clip(self):
        # 64 wide, 32 tall: the one tile of a frame is the whole frame
        frames = [Frame(f.pixels[:32]) for f in fixtures.translating_texture(4, seed=7)]
        decoded, sides = decode_sequence(encode_sequence(frames, CodecConfig(qp=36)))
        samples = build_training_samples(frames, decoded, sides, half_window=2)
        assert len(samples) == len(frames)
        for t, s in enumerate(samples):
            assert np.array_equal(s.aux, build_aux_planes(sides[t]))
            for name in ("sizes", "motion", "intra", "levels"):
                assert np.array_equal(getattr(s.side, name), getattr(sides[t], name))
            assert np.array_equal(s.side.prediction.pixels, sides[t].prediction.pixels)
            assert np.array_equal(s.target.pixels, frames[t].pixels)
            for f, source in zip(s.window, padded_window(decoded, t, 2)):
                assert np.array_equal(f.pixels, source.pixels)


class TestRestoreSequence:
    def test_zero_model_with_projection_reproduces_decoded(self, tiny_coded):
        _, decoded, sides, _ = tiny_coded
        out = restore_sequence(decoded, sides, zero_restorer())
        for a, b in zip(out, decoded):
            assert np.array_equal(a.pixels, b.pixels)

    def test_fewer_side_infos_than_frames_rejected(self, tiny_coded):
        _, decoded, sides, _ = tiny_coded
        with pytest.raises(ValueError, match="equal lengths"):
            restore_sequence(decoded, sides[:-1], zero_restorer())

    def test_motion_is_rasterized_once_per_frame(self, tiny_coded, monkeypatch):
        _, decoded, sides, _ = tiny_coded
        from mvcodec import restorer

        calls = []
        real = restorer.rasterize_motion

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(restorer, "rasterize_motion", counted)
        restore_sequence(decoded, sides, init_restorer(seed=4))
        assert len(calls) == len(decoded)

    def test_repeated_window_frames_are_worked_on_once(self, tiny_coded, monkeypatch):
        _, decoded, sides, _ = tiny_coded
        decoded, sides = decoded[:4], sides[:4]
        from mvcodec import restorer

        model = init_restorer(seed=4)
        calls = {"gather": 0, "off_hidden": 0, "feat": 0}

        def counted(key, real, counts=lambda *args: True):
            def call(*args):
                calls[key] += counts(*args)
                return real(*args)
            return call

        def conv_of(name):
            return lambda layer, *groups: layer.weights is model.params[f"{name}.w"]

        monkeypatch.setattr(restorer, "deformable_gather_cached",
                            counted("gather", restorer.deformable_gather_cached))
        conv = counted("off_hidden", restorer.conv_forward_cached, conv_of("off_hidden"))
        monkeypatch.setattr(restorer, "conv_forward_cached",
                            counted("feat", conv, conv_of("feat")))
        restore_sequence(decoded, sides, model)

        n = HALF_WINDOW
        windows = [padded_window(decoded, t, n) for t in range(len(decoded))]

        def distinct(frames):
            return len({f.pixels.tobytes() for f in frames})

        aligned = sum(distinct(w[:n] + w[n + 1 :]) for w in windows)
        assert (aligned, sum(len(w) - 1 for w in windows)) == (12, 16)
        assert calls["gather"] == calls["off_hidden"] == aligned
        assert calls["feat"] == sum(distinct(w) for w in windows) == 14

    def test_equal_pixel_copies_change_work_never_results(self, tiny_coded, monkeypatch):
        _, decoded, sides, _ = tiny_coded
        from mvcodec import restorer

        model = init_restorer(seed=6)
        shared = padded_window(decoded, 0, HALF_WINDOW)
        copies = [Frame(f.pixels) for f in shared]
        aux = build_aux_planes(sides[0])
        gathers = []
        real = restorer.deformable_gather_cached

        def counted(*args):
            gathers.append(1)
            return real(*args)

        monkeypatch.setattr(restorer, "deformable_gather_cached", counted)
        upstream = np.random.default_rng(2).normal(size=(64, 64))
        runs = []
        for window in (shared, copies):
            gathers.clear()
            out, cache = restorer_forward_cached(window, sides[0], aux, model)
            runs.append((len(gathers), out, restorer_backward(upstream, cache, model)))
        (gathers_shared, out_shared, grads_shared), (gathers_copies, out_copies, grads_copies) = runs
        assert (gathers_shared, gathers_copies) == (3, 4)
        assert np.array_equal(out_copies, out_shared)
        assert np.array_equal(grads_copies, grads_shared)

    @pytest.mark.parametrize("back_projection", [True, False])
    def test_overflowing_model_names_the_frame(self, tiny_coded, back_projection):
        # finite parameters whose forward overflows to inf: back projection
        # would clip that to a valid-looking frame, so restore stops first
        _, decoded, sides, _ = tiny_coded
        model = init_restorer(seed=4)
        model.params["rec2.w"][...] = 1e300
        model.params["vmix.w"][...] = 1e300
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="frame 0 is not finite"):
                restore_sequence(decoded, sides, model, back_projection)

    def test_both_projection_modes_produce_full_sequences(self, tiny_coded):
        _, decoded, sides, _ = tiny_coded
        model = init_restorer(seed=4)
        with_bp = restore_sequence(decoded, sides, model)
        without = restore_sequence(decoded, sides, model, back_projection=False)
        assert len(with_bp) == len(without) == len(decoded)
        for a, b in zip(with_bp, without):
            assert a.width == 64 and a.height == 64
            assert b.width == 64 and b.height == 64


class TestModelIO:
    def test_round_trip_is_bit_exact(self, tmp_path):
        model = init_restorer(seed=11)
        path = tmp_path / "m.mvdr"
        save_model(model, path)
        loaded = load_model(path)
        assert list(loaded.params) == list(model.params)
        for name in model.params:
            assert np.array_equal(loaded.params[name], model.params[name])

    def test_params_are_views_of_the_saved_vector(self, tmp_path):
        model = init_restorer(seed=11)
        assert model.vector.shape == (PARAM_COUNT,)
        assert list(model.params) == [name for name, _ in SCHEDULE]
        for name, view in model.params.items():
            assert np.shares_memory(view, model.vector), name
        # rec2.b closes the schedule, so an edit through its view alone is
        # the last float of the file
        assert SCHEDULE[-1][0] == "rec2.b"
        model.params["rec2.b"] += 0.25
        path = tmp_path / "m.mvdr"
        save_model(model, path)
        data = path.read_bytes()
        header = 4 + 6 + len(MODEL_HEADER)  # magic, version and length, header
        assert data[10:header] == MODEL_HEADER
        assert len(data) == header + 8 * PARAM_COUNT
        assert data[header:] == model.vector.astype("<f8").tobytes()
        assert np.frombuffer(data[-8:], "<f8")[0] == 0.25

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.mvdr"
        path.write_bytes(b"NOPE" + bytes(32))
        with pytest.raises(ValueError, match="magic"):
            load_model(path)

    def test_truncation_rejected(self, tmp_path):
        model = init_restorer(seed=11)
        path = tmp_path / "m.mvdr"
        save_model(model, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 16])
        with pytest.raises(ValueError, match="truncated"):
            load_model(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["rec2.b", "gather.w"])
    def test_non_finite_parameter_rejected(self, tmp_path, name, value):
        model = init_restorer(seed=2)
        model.params[name].flat[-1] = value
        path = tmp_path / "m.mvdr"
        save_model(model, path)
        with pytest.raises(ValueError, match=f"parameter '{name}' is not finite"):
            load_model(path)

    def test_save_is_deterministic(self, tmp_path):
        a = tmp_path / "a.mvdr"
        b = tmp_path / "b.mvdr"
        save_model(init_restorer(seed=11), a)
        save_model(init_restorer(seed=11), b)
        assert a.read_bytes() == b.read_bytes()
