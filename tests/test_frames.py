import numpy as np
import pytest

from mvcodec import fixtures
from mvcodec.frames import (
    Frame,
    SequenceError,
    load_sequence,
    psnr,
    read_pgm,
    ssim,
    write_pgm,
    write_sequence,
)


def _const(value, size=64):
    return Frame(np.full((size, size), value, dtype=np.uint8))


def _frame_paths(manifest):
    """The frame files a manifest names, read from its text."""
    return [manifest.parent / ln for ln in manifest.read_text().splitlines()[1:]]


class TestFrame:
    def test_dimensions_must_be_multiple_of_16(self):
        with pytest.raises(ValueError):
            Frame(np.zeros((60, 64), dtype=np.uint8))
        with pytest.raises(ValueError):
            Frame(np.zeros((0, 0), dtype=np.uint8))

    def test_requires_uint8(self):
        with pytest.raises(ValueError):
            Frame(np.zeros((16, 16), dtype=np.float64))

    def test_immutable(self):
        f = _const(7, 16)
        with pytest.raises(ValueError):
            f.pixels[0, 0] = 1


class TestPgmIO:
    def test_round_trip_is_byte_identical(self, tmp_path):
        frames = fixtures.translating_texture(3, seed=5)
        manifest = write_sequence(tmp_path / "seq", frames)
        originals = {p: p.read_bytes() for p in _frame_paths(manifest)}
        loaded = load_sequence(manifest)
        out = write_sequence(tmp_path / "seq2", loaded)
        for a, b in zip(_frame_paths(manifest), _frame_paths(out)):
            assert originals[a] == b.read_bytes()

    def test_read_accepts_comments_and_whitespace(self, tmp_path):
        raw = b"P5 # comment\n# another\n 16\t16\n255\n" + bytes(range(256))
        p = tmp_path / "c.pgm"
        p.write_bytes(raw)
        frame = read_pgm(p)
        assert frame.width == 16 and frame.pixels[15, 15] == 255

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P2\n16 16\n255\n" + b"0" * 256)
        with pytest.raises(SequenceError, match="bad.pgm"):
            read_pgm(p)

    def test_truncated_raster(self, tmp_path):
        p = tmp_path / "short.pgm"
        p.write_bytes(b"P5\n16 16\n255\n" + bytes(100))
        with pytest.raises(SequenceError, match="short"):
            read_pgm(p)

    @pytest.mark.parametrize("dims", [b"-16 -16", b"16 -16", b"0 16"])
    def test_non_positive_dimensions_name_the_file(self, tmp_path, dims):
        p = tmp_path / "neg.pgm"
        p.write_bytes(b"P5\n" + dims + b"\n255\n" + bytes(256))
        with pytest.raises(SequenceError, match="neg.pgm: PGM dimensions .* not positive"):
            read_pgm(p)


class TestManifest:
    def test_load_sequence_in_order(self, tmp_path):
        frames = fixtures.translating_texture(3, seed=5)
        manifest = write_sequence(tmp_path, frames)
        loaded = load_sequence(manifest)
        assert len(loaded) == 3
        for a, b in zip(frames, loaded):
            assert np.array_equal(a.pixels, b.pixels)

    def test_dimension_mismatch_names_the_file(self, tmp_path):
        write_pgm(tmp_path / "a.pgm", _const(10, 64))
        write_pgm(tmp_path / "b.pgm", _const(10, 48))
        (tmp_path / "manifest.txt").write_text("64 64 25\na.pgm\nb.pgm\n")
        with pytest.raises(SequenceError, match="b.pgm"):
            load_sequence(tmp_path / "manifest.txt")

    def test_missing_file_names_the_path(self, tmp_path):
        (tmp_path / "manifest.txt").write_text("64 64 25\nnope.pgm\n")
        with pytest.raises(FileNotFoundError, match="nope.pgm"):
            load_sequence(tmp_path / "manifest.txt")

    def test_manifest_without_frames_is_rejected(self, tmp_path):
        (tmp_path / "manifest.txt").write_text("64 64 25\n")
        with pytest.raises(SequenceError, match="manifest lists no frames"):
            load_sequence(tmp_path / "manifest.txt")

    def test_malformed_header(self, tmp_path):
        (tmp_path / "manifest.txt").write_text("64 64\n")
        with pytest.raises(SequenceError, match="header"):
            load_sequence(tmp_path / "manifest.txt")

    def test_write_empty_sequence_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="at least one frame"):
            write_sequence(tmp_path / "seq", [])
        assert not (tmp_path / "seq").exists()

    def test_write_frames_of_two_sizes_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="share dimensions: 64x64 vs 48x48"):
            write_sequence(tmp_path / "seq", [_const(0, 64), _const(0, 48)])


class TestPsnr:
    def test_identical_frames_hit_the_cap(self, texture_frames):
        assert psnr(texture_frames[0], texture_frames[0]) == 99.0

    def test_unit_difference(self):
        a = _const(100)
        b = _const(101)
        assert psnr(a, b) == pytest.approx(48.1308, abs=1e-3)

    def test_maximal_difference(self):
        assert psnr(_const(0), _const(255)) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self, texture_frames):
        a, b = texture_frames[0], texture_frames[3]
        assert psnr(a, b) == psnr(b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            psnr(_const(0, 64), _const(0, 48))


class TestSsim:
    def test_self_similarity_is_one(self, texture_frames):
        for f in texture_frames[:3]:
            assert ssim(f, f) == pytest.approx(1.0, abs=1e-9)

    def test_constant_black_vs_white_closed_form(self):
        # all means constant, all variances zero: score reduces to C1/(255^2+C1)
        c1 = (0.01 * 255.0) ** 2
        expected = c1 / (255.0**2 + c1)
        got = ssim(_const(0), _const(255))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_single_flipped_pixel_lowers_score(self, texture_frames):
        a = texture_frames[0]
        px = a.pixels.copy()
        px[20, 20] = 255 - px[20, 20]
        assert ssim(a, Frame(px)) < 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ssim(_const(0, 64), _const(0, 48))
