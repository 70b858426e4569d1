import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest

from helpers import (
    encode_per_leaf,
    global_shift_pair,
    motion_search_direct,
    predict_frame,
    preclip_reconstruction,
    reconstruct_from_side_info,
    side_of,
    write_scan,
)
from mvcodec import fixtures
from mvcodec.bitio import BitReader, BitstreamError, BitWriter
from mvcodec.cli import main
from mvcodec.codec import (
    HEADER_SIZE,
    CodecConfig,
    Leaf,
    _pack_header,
    _parse_frame,
    decode_sequence,
    encode_sequence,
    encode_with_reconstruction,
    motion_search,
    parse_header,
    side_info_to_json,
    tiles,
    transform_frame,
)
from mvcodec.frames import Frame, psnr
from mvcodec.transform import dct2d, idct2d, round_half_away, zigzag

CLIPS = {"texture": fixtures.translating_texture, "checker": fixtures.deforming_checker}


def _const(value, size=64):
    return Frame(np.full((size, size), value, dtype=np.uint8))


def _leaf_search(current, reference, leaf, radius):
    """The vector the frame search finds for one leaf."""
    vectors = motion_search(current.pixels, reference.pixels, radius)[leaf.size]
    dx, dy = vectors[leaf.y // leaf.size][leaf.x // leaf.size]
    return dx, dy


def _assert_matches_per_leaf_oracle(current, reference, radius):
    """Every block vector of the frame search is the per-leaf oracle's."""
    found = motion_search(current.pixels, reference.pixels, radius)
    assert set(found) == {16, 8, 4}
    height, width = reference.pixels.shape
    for size, vectors in found.items():
        assert vectors.shape == (height // size, width // size, 2)
        for i, line in enumerate(vectors):
            for j, (dx, dy) in enumerate(line):
                leaf = Leaf(j * size, i * size, size)
                assert (dx, dy) == motion_search_direct(current, reference, leaf, radius), leaf


class TestMotionSearch:
    def test_global_shift_recovered_on_interior_leaves(self):
        ref, cur = global_shift_pair(shift=(2, 3))
        for leaf in (Leaf(16, 16, 16), Leaf(32, 16, 16), Leaf(32, 32, 8)):
            assert _leaf_search(cur, ref, leaf, radius=8) == (2, 3)

    def test_identical_frames_give_zero(self):
        ref, _ = global_shift_pair()
        for leaf in (Leaf(0, 0, 16), Leaf(48, 48, 16)):
            assert _leaf_search(ref, ref, leaf, radius=8) == (0, 0)

    def test_constant_frames_resolve_ties_to_zero(self):
        a = _const(33)
        assert _leaf_search(a, a, Leaf(16, 16, 16), radius=4) == (0, 0)

    def test_tie_break_prefers_small_then_dy_then_dx(self):
        # two-pixel-wide frame of identical columns: any dx ties, dy breaks rows
        px = np.tile(np.arange(64, dtype=np.uint8)[:, None], (1, 64))
        f = Frame(px)
        # all rows distinct, columns identical: best dy is 0; dx all tie -> 0
        assert _leaf_search(f, f, Leaf(16, 16, 16), radius=3) == (0, 0)

    @pytest.mark.parametrize("radius", [0, 3, 8, 40])
    @pytest.mark.parametrize("clip", ["texture", "checker"])
    def test_row_search_matches_per_leaf_oracle(self, clip, radius):
        # 32x32 frames: at radius 40 every candidate beyond the frame is an
        # edge clamp, and the SAD ties there exercise the tie-break order
        make = {"texture": fixtures.translating_texture, "checker": fixtures.deforming_checker}
        ref, cur = make[clip](2, size=32)
        for a, b in ((cur, ref), (ref, cur)):
            _assert_matches_per_leaf_oracle(a, b, radius)

    @pytest.mark.parametrize("height", [64, 80, 144])
    def test_search_bands_match_per_leaf_oracle(self, height):
        # one whole band, then frames whose last band is partial; the checker
        # wobbles everywhere, across the band boundaries at rows 64 and 128 too
        ref, cur = (Frame(f.pixels[:, :16]) for f in fixtures.deforming_checker(2, size=height))
        for a, b in ((cur, ref), (ref, cur)):
            _assert_matches_per_leaf_oracle(a, b, radius=5)


class TestPartitionMapInvariants:
    """The ``sizes`` plane is the partition map: side info accepts only a
    plane that tiles the frame with aligned 16, 8 and 4 pixel leaves."""

    def test_misaligned_leaf_rejected(self):
        sizes = np.full((16, 16), 4, np.uint8)
        sizes[0:8, 4:12] = 8
        with pytest.raises(ValueError, match="aligned"):
            side_of(sizes, intra=True)

    def test_hole_rejected(self):
        sizes = np.full((16, 32), 16, np.uint8)
        sizes[:, 16:] = 0
        with pytest.raises(ValueError, match="leaf sizes"):
            side_of(sizes, intra=True)

    @pytest.mark.parametrize("value", [2, 32, 255])
    def test_size_outside_the_leaf_sizes_rejected(self, value):
        sizes = np.full((32, 32), 16, np.uint8)
        sizes[16:] = value
        with pytest.raises(ValueError, match="leaf sizes"):
            side_of(sizes, intra=True)

    def test_wrong_shaped_motion_or_intra_plane_rejected(self):
        side = side_of(np.full((32, 32), 16), intra=False)
        for motion in (np.zeros((2, 32, 16), np.int16), np.zeros((32, 32), np.int16),
                       np.zeros((3, 32, 32), np.int16)):
            with pytest.raises(ValueError, match="motion plane"):
                dataclasses.replace(side, motion=motion)
        for intra in (np.zeros((16, 32), bool), np.zeros((1, 32, 32), bool)):
            with pytest.raises(ValueError, match="intra plane"):
                dataclasses.replace(side, intra=intra)

    def test_mixed_tiling_accepted_and_planes_read_only(self):
        sizes = np.full((32, 32), 16, np.uint8)
        sizes[:16, 16:] = 8
        sizes[:8, 24:] = 4
        side = side_of(sizes, intra=False, motion=(1, -2))
        assert list(side.leaves())[:6] == [
            Leaf(0, 0, 16), Leaf(16, 0, 8), Leaf(24, 0, 4), Leaf(28, 0, 4),
            Leaf(24, 4, 4), Leaf(28, 4, 4),
        ]
        for plane in (side.sizes, side.motion, side.intra, side.levels):
            assert not plane.flags.writeable


class TestPredictFrame:
    def test_intra_first_leaf_is_128(self):
        side = side_of(np.full((64, 64), 16), intra=True)
        pred = predict_frame(True, None, side, _const(50))
        assert (pred.pixels[:16, :16] == 128).all()

    def test_intra_uses_decoded_neighbor_mean(self):
        side = side_of(np.full((64, 64), 16), intra=True)
        pred = predict_frame(True, None, side, _const(50))
        # every non-first leaf sees decoded neighbors that are all 50
        assert (pred.pixels[16:, :] == 50).all() and (pred.pixels[:, 16:] == 50).all()

    def test_inter_zero_mv_copies_reference(self, texture_frames):
        ref = texture_frames[0]
        side = side_of(np.full((64, 64), 16), intra=False)
        pred = predict_frame(False, ref, side, _const(0))
        assert np.array_equal(pred.pixels, ref.pixels)

    def test_inter_needs_reference(self):
        side = side_of(np.full((16, 16), 16), intra=False, motion=(1, 0))
        with pytest.raises(ValueError, match="reference"):
            predict_frame(False, None, side, _const(0, 16))

    def test_matches_decoder_prediction(self, coded_texture_qp24):
        _, _, decoded, sides = coded_texture_qp24
        for t, side in enumerate(sides):
            ref = decoded[t - 1] if t > 0 else None
            intra = bool(side.intra.all())
            again = predict_frame(intra, ref, side, decoded[t])
            assert np.array_equal(again.pixels, side.prediction.pixels)


class TestTransformFrame:
    @pytest.fixture()
    def mixed_side(self, coded_texture_qp24):
        # the third frame splits into 16, 8 and 4 leaves
        return coded_texture_qp24[3][2]

    def test_matches_per_tile_transforms(self, mixed_side):
        side = mixed_side
        assert {leaf.size for leaf in side.leaves()} == {16, 8, 4}
        rng = np.random.default_rng(12)
        plane = rng.uniform(-255, 255, side.levels.shape)
        for fn in (dct2d, idct2d):
            expected = np.empty_like(plane)
            for leaf in side.leaves():
                t = min(leaf.size, 8)
                for y in range(leaf.y, leaf.y + leaf.size, t):
                    for x in range(leaf.x, leaf.x + leaf.size, t):
                        expected[y : y + t, x : x + t] = fn(plane[y : y + t, x : x + t])
            assert np.array_equal(transform_frame(plane, side.sizes, fn), expected)

    def test_tiles_is_a_raster_view(self):
        plane = np.arange(16 * 32).reshape(16, 32)
        view = tiles(plane, 8)
        assert view.shape == (2, 4, 8, 8)
        assert np.array_equal(view[1, 2], plane[8:16, 16:24])
        view[0, 1] = -1
        assert (plane[0:8, 8:16] == -1).all()

    def test_sizes_plane_is_painted_leaf_sizes(self, mixed_side):
        side = mixed_side
        expected = np.zeros(side.sizes.shape, np.uint8)
        for leaf in side.leaves():
            expected[leaf.y : leaf.y + leaf.size, leaf.x : leaf.x + leaf.size] = leaf.size
        assert set(np.unique(expected)) == {4, 8, 16}
        assert side.sizes.dtype == np.uint8
        assert np.array_equal(side.sizes, expected)
        assert not side.sizes.flags.writeable
        with pytest.raises(ValueError):
            side.sizes[0, 0] = 4

    def test_side_info_rejects_levels_plane_of_wrong_shape(self, mixed_side):
        side = mixed_side
        for levels in (side.levels[:-1], side.levels.T[:, :16], np.zeros(4, np.int32)):
            with pytest.raises(ValueError, match="levels plane"):
                dataclasses.replace(side, levels=levels)


class TestEncodeDecode:
    def test_encode_is_deterministic(self, texture_frames):
        config = CodecConfig(qp=24)
        assert encode_sequence(texture_frames, config) == encode_sequence(
            texture_frames, config
        )

    def test_decode_matches_encoder_loop(self, coded_texture_qp24):
        _, recons, decoded, _ = coded_texture_qp24
        for a, b in zip(recons, decoded):
            assert np.array_equal(a.pixels, b.pixels)

    def test_constant_frames_lossless_at_qp0(self):
        frames = [_const(90), _const(90), _const(90)]
        data = encode_sequence(frames, CodecConfig(qp=0))
        decoded, _ = decode_sequence(data)
        for orig, dec in zip(frames, decoded):
            assert np.array_equal(orig.pixels, dec.pixels)

    def test_rate_and_distortion_ordering(self, texture_frames):
        lo = encode_sequence(texture_frames, CodecConfig(qp=20))
        hi = encode_sequence(texture_frames, CodecConfig(qp=40))
        assert len(hi) < len(lo)
        dec_lo, _ = decode_sequence(lo)
        dec_hi, _ = decode_sequence(hi)
        p_lo = np.mean([psnr(o, d) for o, d in zip(texture_frames, dec_lo)])
        p_hi = np.mean([psnr(o, d) for o, d in zip(texture_frames, dec_hi)])
        assert p_hi < p_lo

    def test_bad_magic(self, coded_texture_qp24):
        data, _, _, _ = coded_texture_qp24
        with pytest.raises(BitstreamError, match="magic"):
            decode_sequence(b"XXXX" + data[4:])

    def test_truncated_payload(self, coded_texture_qp24):
        data, _, _, _ = coded_texture_qp24
        with pytest.raises(BitstreamError, match="truncated"):
            decode_sequence(data[: HEADER_SIZE + 4])

    def test_trailing_garbage_rejected(self, coded_texture_qp24):
        data, _, _, _ = coded_texture_qp24
        with pytest.raises(BitstreamError, match="trailing"):
            decode_sequence(data + b"\x00\x00")

    def test_header_round_trip(self, coded_texture_qp24, texture_frames):
        data, _, _, _ = coded_texture_qp24
        header = parse_header(data)
        assert header.width == 64 and header.height == 64
        assert header.frame_count == len(texture_frames)
        assert header.qp == 24
        assert header.search_radius == 8
        assert header.split_threshold == 6.0

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            encode_sequence([], CodecConfig(qp=24))

    def test_frames_of_two_sizes_rejected(self, texture_frames):
        mixed = [texture_frames[0], Frame(texture_frames[1].pixels[:32])]
        with pytest.raises(ValueError, match="share dimensions"):
            encode_sequence(mixed, CodecConfig(qp=24))

    @pytest.mark.parametrize("radius", [0, 40])
    def test_round_trip_at_search_radius(self, radius):
        frames = fixtures.translating_texture(4, size=32, shift=(3, 2), patch=12)
        data, recons = encode_with_reconstruction(frames, CodecConfig(qp=16, search_radius=radius))
        assert parse_header(data).search_radius == radius
        decoded, sides = decode_sequence(data)
        for t, (recon, frame, side) in enumerate(zip(recons, decoded, sides)):
            assert np.array_equal(recon.pixels, frame.pixels)
            assert np.abs(side.motion).max() <= radius
            ref = decoded[t - 1] if t > 0 else None
            again = predict_frame(t == 0, ref, side, frame)
            assert np.array_equal(again.pixels, side.prediction.pixels)
        found = {tuple(v) for side in sides for v in side.motion[:, ~side.intra].T.tolist()}
        if radius == 0:
            assert found == {(0, 0)}
        else:
            assert (3, 2) in found

    def test_gop_forces_periodic_intra(self, texture_frames):
        data = encode_sequence(texture_frames, CodecConfig(qp=24, intra_period=2))
        sides = decode_sequence(data)[1]
        for t, side in enumerate(sides):
            expect_intra = t % 2 == 0
            assert (side.intra == expect_intra).all()


class TestSideInfo:
    def test_reconstruction_invariant(self, coded_texture_qp24):
        _, _, decoded, sides = coded_texture_qp24
        for frame, side in zip(decoded, sides):
            rebuilt = reconstruct_from_side_info(side)
            assert np.array_equal(rebuilt.pixels, frame.pixels)

    def test_qp_field_matches_config(self, coded_texture_qp24):
        _, _, _, sides = coded_texture_qp24
        assert all(side.qp == 24 for side in sides)

    def test_intra_frame_flags(self, coded_texture_qp24):
        _, _, _, sides = coded_texture_qp24
        assert sides[0].intra.all()
        assert not sides[1].intra.any()

    def test_motion_field_of_global_shift(self):
        ref, cur = global_shift_pair(shift=(2, 3))
        data = encode_sequence([ref, cur], CodecConfig(qp=8))
        sides = decode_sequence(data)[1]
        interior = [
            leaf
            for leaf in sides[1].leaves()
            if 8 <= leaf.x and leaf.x + leaf.size <= 56 and 8 <= leaf.y and leaf.y + leaf.size <= 56
        ]
        assert interior
        for leaf in interior:
            assert sides[1].motion[:, leaf.y, leaf.x].tolist() == [2, 3], f"leaf {leaf}"

    def test_json_dump_schema(self, coded_texture_qp24):
        _, _, _, sides = coded_texture_qp24
        doc = side_info_to_json(sides)
        assert len(doc["frames"]) == len(sides)
        for fr, side in zip(doc["frames"], sides):
            assert fr["qp"] == side.qp
            assert len(fr["leaves"]) == len(list(side.leaves()))
            for leaf in fr["leaves"]:
                assert set(leaf) == {"x", "y", "size", "intra", "mv", "levels"}
                assert len(leaf["levels"]) == leaf["size"] ** 2
                if leaf["intra"]:
                    assert leaf["mv"] is None
                else:
                    dx, dy = leaf["mv"]
                    assert abs(dx) <= 8 and abs(dy) <= 8


    @pytest.mark.parametrize("clip", sorted(CLIPS))
    def test_leaves_follow_the_parsed_leaf_order(self, clip):
        # re-parse every frame's syntax and compare leaf for leaf, with the
        # intra flag and vector each leaf's planes carry
        data = encode_sequence(CLIPS[clip](4), CodecConfig(qp=24, intra_period=3))
        header = parse_header(data)
        reader = BitReader(data, HEADER_SIZE)
        sides = decode_sequence(data)[1]
        for side in sides:
            parsed, _ = _parse_frame(reader, header, reader.read_bit() == 1)
            planes = [
                (x, y, size, int(side.intra[y, x]), *side.motion[:, y, x].tolist())
                for x, y, size in side.leaves()
            ]
            assert planes == [tuple(leaf) for leaf in parsed.tolist()]
        assert {bool(side.intra.all()) for side in sides} == {True, False}


class TestSyntaxRoundTrip:
    def test_reencoding_decoded_output_is_byte_identical(self, coded_texture_qp24, texture_frames):
        # encoding the decoder's own reconstruction stream-side state is the
        # strongest cheap determinism check we have at the syntax level
        data, _, _, _ = coded_texture_qp24
        config = CodecConfig(qp=24)
        again = encode_sequence(texture_frames, config)
        assert again == data

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CodecConfig(qp=60)
        with pytest.raises(ValueError):
            CodecConfig(qp=10, search_radius=-1)
        with pytest.raises(ValueError):
            CodecConfig(qp=10, split_threshold=-0.5)

    @pytest.mark.parametrize("tau", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_split_threshold_rejected(self, tau):
        with pytest.raises(ValueError, match="finite"):
            CodecConfig(qp=10, split_threshold=tau)

    @pytest.mark.parametrize("tau", [6553.55, 1e307, 1e308, sys.float_info.max])
    def test_split_threshold_beyond_the_header_rejected(self, tau):
        with pytest.raises(ValueError, match="too large for the stream header"):
            CodecConfig(qp=10, split_threshold=tau)

    def test_split_threshold_is_used_as_the_header_records_it(self):
        # the header holds tenths, so 6.02 must code exactly as 6.0 does
        assert CodecConfig(qp=30, split_threshold=6.02).split_threshold == 6.0
        frames = fixtures.translating_texture(4, seed=2)
        coded = [
            encode_sequence(frames, CodecConfig(qp=30, split_threshold=tau)) for tau in (6.02, 6.0)
        ]
        assert coded[0] == coded[1]
        assert parse_header(coded[0]).split_threshold == 6.0


class TestEncoderOracle:
    @pytest.mark.parametrize("intra_period", [0, 2])
    @pytest.mark.parametrize("qp", [0, 24, 51])
    @pytest.mark.parametrize("radius", [0, 8, 40])
    @pytest.mark.parametrize("tau", [0.0, 6.0, 6553.5])
    @pytest.mark.parametrize("clip", sorted(CLIPS))
    def test_matches_per_leaf_encoder(self, clip, tau, radius, qp, intra_period):
        # tau 0 splits every block down to 4x4 and 6 mixes sizes; no mean
        # |residual| exceeds 255, so the largest tau the header holds splits none
        frames = CLIPS[clip](4, size=32)
        config = CodecConfig(
            qp=qp, search_radius=radius, split_threshold=tau, intra_period=intra_period
        )
        data, recons = encode_with_reconstruction(frames, config)
        expected_data, expected_recons = encode_per_leaf(frames, config)
        assert data == expected_data
        for got, expected in zip(recons, expected_recons, strict=True):
            assert np.array_equal(got.pixels, expected.pixels)


class TestDecoderRobustness:
    RADIUS = 4

    def _stream(self, inter_leaves, rng, level=None):
        """Two 32x32 frames: an intra frame of 16x16 leaves, then an inter
        frame whose leaves (x, y, size, vector or None for intra) are given
        in coding order.  Returns the stream and the inter frame's tile scans."""
        writer = BitWriter()
        scans = {}

        def leaf(x, y, size, vector):
            writer.write_bit(1 if vector is None else 0)
            if vector is not None:
                writer.write_se(vector[0])
                writer.write_se(vector[1])
            t = min(size, 8)
            for ty in range(y, y + size, t):
                for tx in range(x, x + size, t):
                    scan = [0] * (t * t)
                    for i in range(int(rng.integers(0, 5))):
                        scan[int(rng.integers(0, t * t))] = int(rng.integers(-6, 7))
                    if level is not None:
                        scan[0] = level
                    scans[tx, ty, t] = scan
                    write_scan(writer, scan)

        writer.write_bit(1)
        for y in (0, 16):
            for x in (0, 16):
                writer.write_bit(0)
                leaf(x, y, 16, None)
        scans.clear()
        writer.write_bit(0)
        pending = list(inter_leaves)
        for my in (0, 16):
            for mx in (0, 16):
                # split flags follow from the leaf sizes of each macroblock
                def block(x, y, size):
                    if size > 4:
                        first = pending[0]
                        split = first[2] < size
                        writer.write_bit(int(split))
                        if split:
                            half = size // 2
                            for qy, qx in ((0, 0), (0, half), (half, 0), (half, half)):
                                block(x + qx, y + qy, half)
                            return
                    lx, ly, lsize, vector = pending.pop(0)
                    assert (lx, ly, lsize) == (x, y, size)
                    leaf(x, y, size, vector)

                block(mx, my, 16)
        config = CodecConfig(qp=20, search_radius=self.RADIUS)
        return _pack_header(32, 32, 2, config) + writer.getvalue(), scans

    MIXED = [
        (0, 0, 16, None),
        (16, 0, 8, (2, -1)),
        (24, 0, 4, None),
        (28, 0, 4, (-4, 4)),
        (24, 4, 4, (1, 0)),
        (28, 4, 4, None),
        (16, 8, 8, None),
        (24, 8, 8, (0, 3)),
        (0, 16, 16, (-3, 2)),
        (16, 16, 16, None),
    ]

    def test_intra_leaves_in_an_inter_frame(self):
        data, scans = self._stream(self.MIXED, np.random.default_rng(8))
        decoded, sides = decode_sequence(data)
        side = sides[1]
        got = [
            (x, y, size, None if side.intra[y, x] else tuple(side.motion[:, y, x].tolist()))
            for x, y, size in side.leaves()
        ]
        assert got == self.MIXED
        for (x, y, t), scan in scans.items():
            assert zigzag(side.levels[y : y + t, x : x + t]).tolist() == scan
        pred = predict_frame(False, decoded[0], side, decoded[1])
        assert np.array_equal(pred.pixels, side.prediction.pixels)
        rebuilt = np.clip(round_half_away(preclip_reconstruction(side)), 0, 255)
        assert np.array_equal(rebuilt, decoded[1].pixels)

    def test_all_inter_frame_matches_the_oracles(self):
        leaves = [(x, y, 16, (x // 16 - 1, 2 - y // 8)) for y in (0, 16) for x in (0, 16)]
        data, _ = self._stream(leaves, np.random.default_rng(9))
        decoded, sides = decode_sequence(data)
        side = sides[1]
        pred = predict_frame(False, decoded[0], side, decoded[1])
        assert np.array_equal(pred.pixels, side.prediction.pixels)
        rebuilt = np.clip(round_half_away(preclip_reconstruction(side)), 0, 255)
        assert np.array_equal(rebuilt, decoded[1].pixels)

    def test_vector_beyond_the_header_radius_is_rejected(self):
        leaves = list(self.MIXED)
        leaves[-2] = (0, 16, 16, (self.RADIUS + 1, 0))
        data, _ = self._stream(leaves, np.random.default_rng(8))
        with pytest.raises(BitstreamError, match="exceeds search radius"):
            decode_sequence(data)

    def _assert_rejected(self, data, message, tmp_path):
        with pytest.raises(BitstreamError, match=message):
            decode_sequence(data)
        stream = tmp_path / "bad.mvc"
        stream.write_bytes(data)
        assert main(["decode", str(stream), "-o", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out" / "manifest.txt").exists()

    @staticmethod
    def _one_leaf_intra_frame(vector):
        """A 16x16 one-frame stream: an intra frame of one unsplit leaf, coded
        intra (``vector`` None) or inter, with all-zero levels."""
        writer = BitWriter()
        writer.write_bit(1)  # intra frame
        writer.write_bit(0)  # no split
        writer.write_bit(1 if vector is None else 0)
        if vector is not None:
            writer.write_se(vector[0])
            writer.write_se(vector[1])
        for _ in range(4):  # four 8x8 tiles, each ue(0): no levels
            write_scan(writer, [0] * 64)
        return _pack_header(16, 16, 1, CodecConfig(qp=20)) + writer.getvalue()

    def test_inter_first_frame_is_rejected(self, tmp_path):
        data = bytearray(encode_sequence(CLIPS["texture"](2, size=32), CodecConfig(qp=24)))
        data[HEADER_SIZE] ^= 0x80  # frame 0's intra bit
        self._assert_rejected(bytes(data), "frame 0 is inter but has no reference", tmp_path)

    def test_inter_leaf_in_an_intra_frame_is_rejected(self, tmp_path):
        data = self._one_leaf_intra_frame((0, 0))
        self._assert_rejected(data, "inter leaf in an intra frame", tmp_path)

    def test_nonzero_padding_is_rejected(self, tmp_path):
        # 7 payload bits: the last bit of the one payload byte is padding
        data = self._one_leaf_intra_frame(None)
        assert len(data) == HEADER_SIZE + 1
        decode_sequence(data)
        self._assert_rejected(data[:-1] + bytes([data[-1] | 1]), "nonzero padding", tmp_path)

    @pytest.mark.parametrize("payload", [b"\x00", b"\x80", b"\xff"])
    def test_huge_header_with_a_short_payload_fails_before_allocating(self, payload):
        # 65520x65520 is the largest frame the header can declare; the parse
        # runs out of bits long before any frame-sized plane is needed
        data = _pack_header(65520, 65520, 1, CodecConfig(qp=20)) + payload
        tracemalloc.start()
        try:
            with pytest.raises(BitstreamError):
                decode_sequence(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("level", [-32768, 32768])
    def test_level_beyond_16_bits_is_rejected(self, level):
        data, _ = self._stream(self.MIXED, np.random.default_rng(8), level=level)
        with pytest.raises(BitstreamError, match="overflows signed 16 bits"):
            decode_sequence(data)

    def test_largest_levels_decode(self):
        for level in (-32767, 32767):
            data, scans = self._stream(self.MIXED, np.random.default_rng(8), level=level)
            _, sides = decode_sequence(data)
            assert sides[0].levels[0, 0] == level

    @pytest.mark.parametrize("clip", sorted(CLIPS))
    def test_mutated_and_truncated_streams_raise_only_bitstream_errors(self, clip, tmp_path):
        data = encode_sequence(CLIPS[clip](4, size=32), CodecConfig(qp=24))
        rng = np.random.default_rng(17)
        truncated = [data[:n] for n in sorted(rng.choice(len(data), 16, replace=False))]
        mutated = []
        for i in range(64):
            case = bytearray(data)
            at = int(rng.integers(len(data)))
            # half single-bit flips, half whole-byte replacements
            case[at] = case[at] ^ (1 << int(rng.integers(8))) if i % 2 else int(rng.integers(256))
            mutated.append(bytes(case))
        stream = tmp_path / "case.mvc"
        rejected = 0
        for case in truncated + mutated:
            try:
                decode_sequence(case)
                failed = False
            except BitstreamError:
                failed = True
            assert failed or case in mutated, "a truncated stream decoded"
            rejected += failed
            stream.write_bytes(case)
            code = main(["decode", str(stream), "-o", str(tmp_path / "out")])
            assert code == (2 if failed else 0)
        assert rejected > len(truncated)
