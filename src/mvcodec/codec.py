"""Deterministic hybrid mini video codec (IPPP, quadtree, integer-pel MC).

The encoder runs a closed loop: every prediction is formed from frames the
decoder will reconstruct identically, so encoder state and decoder output
match bit for bit.  Each frame is coded as a raster scan of 16x16
macroblocks, recursively quadtree-split down to 4x4 while the mean absolute
prediction residual of a block exceeds the split threshold.  Inter leaves
carry one integer motion vector from an exhaustive SAD search run once per
frame, in bands of macroblock rows; intra leaves use DC prediction from
decoded neighbors.
Residuals go through the block DCT and flat quantizer of
:mod:`mvcodec.transform` and an exp-Golomb bitstream.

An inter frame is coded as array programs over the whole frame: every leaf
of it is inter, so prediction, split decisions, transforms and level
codewords need no reconstruction of the frame itself, and only the syntax
walk goes leaf by leaf.  Intra frames are coded leaf by leaf in coding order.
The decoder rebuilds every frame at once and then redoes its intra leaves in
coding order.

Motion convention: a vector (dx, dy) means the block content moved right by
dx and down by dy since the reference, so prediction samples the reference
at (x - dx, y - dy) with clamp-to-edge.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bitio import BitReader, BitstreamError, BitWriter, signed_to_unsigned, unsigned_to_signed
from .frames import MACROBLOCK, Frame, sequence_size
from .transform import (
    LEVEL_LIMIT,
    QP_MAX,
    QP_MIN,
    dct2d,
    dequantize,
    idct2d,
    quant_step,
    quantize,
    round_to_uint8,
    zigzag,
)

MAGIC = b"MVC1"
STREAM_VERSION = 1
_HEADER_FMT = "<4sHHHIBBH"
HEADER_SIZE = struct.calcsize(_HEADER_FMT)

MAX_TRANSFORM = 8
LEAF_SIZES = (16, 8, 4)
SEARCH_BAND = 4 * MACROBLOCK  # rows of one motion-search cost volume


# ---------------------------------------------------------------------------
# Data model
# ---------------------------------------------------------------------------

class Leaf(NamedTuple):
    """One partition leaf: origin in pixels plus side length."""

    x: int
    y: int
    size: int


@dataclass(frozen=True, eq=False)
class SideInfo:
    """Decoder-visible priors of one coded frame, as read-only frame planes.

    ``sizes`` (uint8) is each pixel's leaf size, ``motion`` the integer
    ``(2, H, W)`` (dx, dy) of each pixel's leaf, (0, 0) on intra leaves, and
    ``intra`` (bool) whether that leaf is intra.  The leaves tile the frame as
    macroblock quadtrees, every s x s leaf on the s-aligned grid;
    :meth:`leaves` lists them in coding order.

    ``levels`` is one frame-sized int32 plane holding every transform tile's
    quantized levels in place, tiled as :func:`transform_frame` tiles the
    frame.  Dequantizing it, inverse transforming it tile by tile, adding
    ``prediction`` and rounding/clipping to [0, 255] reproduces the decoded
    frame exactly.
    """

    qp: int
    sizes: np.ndarray
    motion: np.ndarray
    intra: np.ndarray
    prediction: Frame
    levels: np.ndarray

    def __post_init__(self):
        shape = self.prediction.pixels.shape
        for name, want in (
            ("sizes", shape), ("motion", (2, *shape)), ("intra", shape), ("levels", shape)
        ):
            plane = np.asarray(getattr(self, name)).view()
            if plane.shape != want:
                raise ValueError(f"{name} plane must be {want}, got {plane.shape}")
            plane.flags.writeable = False
            object.__setattr__(self, name, plane)
        # every s-pixel leaf is one aligned s x s tile, and the leaves cover the frame
        covered = 0
        for size in LEAF_SIZES:
            cover = tiles(self.sizes == size, size)
            whole = cover.all(axis=(2, 3))
            if (cover.any(axis=(2, 3)) != whole).any():
                raise ValueError(f"{size}-pixel leaves are not aligned {size}x{size} tiles")
            covered += int(whole.sum()) * size * size
        if covered != self.sizes.size:
            raise ValueError(f"leaf sizes must be one of {LEAF_SIZES}")

    def leaves(self) -> Iterator[Leaf]:
        """Every leaf of the frame, in coding order."""
        cells = self.sizes[::4, ::4].tolist()
        height, width = self.sizes.shape
        walk = _quadtree(width, height, lambda x, y, size: cells[y // 4][x // 4] < size)
        return map(Leaf._make, walk)


@dataclass(frozen=True)
class CodecConfig:
    """Encoder settings; qp is required, the rest have sane defaults.

    intra_period 0 means only the first frame is intra.
    """

    qp: int
    search_radius: int = 8
    split_threshold: float = 6.0
    intra_period: int = 0

    def __post_init__(self):
        quant_step(self.qp)  # range check
        if not 0 <= self.search_radius <= 127:
            raise ValueError(f"search radius {self.search_radius} outside [0, 127]")
        if not 0 <= self.split_threshold < np.inf:
            raise ValueError("split threshold must be finite and non-negative")
        # the stream header stores tenths, so the encoder uses the value it records;
        # tenths from 0xFFFF + 0.5 up (inf among them) round past 16 bits
        tenths = self.split_threshold * 10
        if tenths >= 0xFFFF + 0.5:
            raise ValueError("split threshold too large for the stream header")
        object.__setattr__(self, "split_threshold", round(tenths) / 10)
        if self.intra_period < 0:
            raise ValueError("intra period must be non-negative")


@dataclass(frozen=True)
class StreamHeader:
    width: int
    height: int
    frame_count: int
    qp: int
    search_radius: int
    split_threshold: float


# ---------------------------------------------------------------------------
# Transform tiling
# ---------------------------------------------------------------------------

def tiles(plane: np.ndarray, t: int) -> np.ndarray:
    """Raster ``(rows, cols, t, t)`` view of the t x t tiles of a plane.

    The result is a view, also for a slice of a larger plane, so assigning
    to it writes the tiles in place.
    """
    h, w = plane.shape
    return plane.reshape(h // t, t, w // t, t).swapaxes(1, 2)


def _upsample(cells: np.ndarray, k: int) -> np.ndarray:
    """Every entry of the last two axes repeated into a k x k block."""
    return cells.repeat(k, axis=-2).repeat(k, axis=-1)


def _leaf_tiles(block: np.ndarray) -> np.ndarray:
    """Transform tiles of one leaf: 8x8 tiles, or the whole leaf when smaller."""
    return tiles(block, min(block.shape[0], MAX_TRANSFORM))


def _coding_order(plane: np.ndarray, t: int) -> np.ndarray:
    """``(n, t, t)`` copy of every t x t tile of a plane, in coding order.

    Coding order is macroblock raster order, then quadrants top-left,
    top-right, bottom-left, bottom-right down to the tile size; a leaf's
    tiles are therefore consecutive, in the order the bitstream carries them.
    """
    h, w = plane.shape
    depth = (MACROBLOCK // t).bit_length() - 1
    quads = (2,) * depth
    view = plane.reshape((h // MACROBLOCK, *quads, t, w // MACROBLOCK, *quads, t))
    axes = [axis for level in range(depth + 2) for axis in (level, depth + 2 + level)]
    return view.transpose(axes).reshape(-1, t, t)


def _is_coded_tile(leaf_sizes: np.ndarray, t: int) -> np.ndarray:
    """Whether the t x t tile in a leaf of each given size is a transform
    tile: a leaf is tiled by transforms of its own side, at most 8."""
    return np.minimum(leaf_sizes, MAX_TRANSFORM) == t


def _coded_tiles(plane: np.ndarray, sizes: np.ndarray, t: int) -> np.ndarray:
    """The t x t tiles of a plane that are transform tiles, in coding order."""
    return _coding_order(plane, t)[_is_coded_tile(_coding_order(sizes, t)[:, 0, 0], t)]


def transform_frame(plane: np.ndarray, sizes: np.ndarray, fn) -> np.ndarray:
    """Apply ``dct2d`` or ``idct2d`` to every transform tile of a frame.

    ``sizes`` is the uint8 plane of each pixel's leaf size
    (``SideInfo.sizes``).  ``fn`` runs once per tile size, 8 then 4, on the
    stacked tiles of that size in raster order.
    """
    out = np.empty(plane.shape)
    for t in (MAX_TRANSFORM, MAX_TRANSFORM // 2):
        coded = _is_coded_tile(sizes[::t, ::t], t)
        tiles(out, t)[coded] = fn(tiles(plane, t)[coded])
    return out


# ---------------------------------------------------------------------------
# Prediction and reconstruction
# ---------------------------------------------------------------------------

def source_index(motion: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Flat index of every pixel's motion-compensated source, clamped to edge.

    ``motion`` holds the (dx, dy) planes of an ``shape`` frame as a
    ``(2, H, W)`` array of whole pixels; pixel (x, y) reads (x - dx, y - dy)
    with both coordinates clamped to the frame.
    """
    h, w = shape
    if motion.shape != (2, h, w):
        raise ValueError(f"motion planes {motion.shape} do not match a {w}x{h} map")
    dx, dy = motion.astype(np.intp, copy=False)
    index = np.arange(h)[:, None] - dy
    np.clip(index, 0, h - 1, out=index)
    index *= w
    src_x = np.arange(w) - dx
    index += np.clip(src_x, 0, w - 1, out=src_x)
    return index.ravel()


def _compensate(reference: np.ndarray, motion: np.ndarray) -> np.ndarray:
    """Motion-compensated prediction plane: one gather of the reference."""
    return reference.ravel()[source_index(motion, reference.shape)].reshape(reference.shape)


def _dc_predict(recon: np.ndarray, x: int, y: int, size: int) -> int:
    """DC intra prediction: mean of decoded left-column / top-row neighbors."""
    total = 0
    count = 0
    if x > 0:
        col = recon[y : y + size, x - 1]
        total += int(col.sum())
        count += size
    if y > 0:
        row = recon[y - 1, x : x + size]
        total += int(row.sum())
        count += size
    if count == 0:
        return 128
    # total / count rounded half up, exactly: total >= 0 and count is a power of two
    return (2 * total + count) // (2 * count)


def motion_search(
    current: np.ndarray, reference: np.ndarray, radius: int
) -> dict[int, np.ndarray]:
    """Exhaustive integer-pel SAD search over [-radius, radius]^2 of every
    16/8/4 block of a frame: ``result[size][i, j]`` is the ``(dx, dy)`` of
    the block at ``(j * size, i * size)``.

    Ties resolve to the smallest |dx|+|dy|, then smaller dy, then smaller dx.
    The cost volume is built ``SEARCH_BAND`` rows at a time, which bounds its
    memory: one pass over the displacements computes a band's 4x4 SADs, and
    the 8x8 and 16x16 SADs are their exact 2x2 sums."""
    h, w = reference.shape
    n = 2 * radius + 1
    # the (dy, dx) grid in tie-break order, so the first minimum wins
    dys, dxs = np.indices((n, n)).reshape(2, -1) - radius
    order = np.lexsort((dxs, dys, np.abs(dxs) + np.abs(dys)))
    found: dict[int, list[np.ndarray]] = {size: [] for size in LEAF_SIZES}
    for top in range(0, h, SEARCH_BAND):
        rows = min(SEARCH_BAND, h - top)
        block = current[top : top + rows].astype(np.int16)
        ys = np.clip(np.arange(top - radius, top + rows + radius), 0, h - 1)
        window = np.pad(reference[ys].astype(np.int16), ((0, 0), (radius, radius)), mode="edge")
        # shifted[i, dx + radius] is window row i read at columns x - dx + radius
        shifted = sliding_window_view(window, w, axis=1)[:, ::-1]
        diff = np.empty((rows, n, w), dtype=np.int16)
        # 4x4 SADs per (dy, dx, block row, block column); at most 4080
        sad4 = np.empty((n, n, rows // 4, w // 4), dtype=np.int16)
        for k in range(n):  # dy = k - radius reads window rows radius - dy onward
            np.subtract(shifted[2 * radius - k :][:rows], block[:, None], out=diff)
            np.abs(diff, out=diff)
            quads = np.add.reduce(diff.reshape(-1, 4, n, w), axis=1, dtype=np.int16)
            sad = quads[..., 0::4] + quads[..., 1::4] + quads[..., 2::4] + quads[..., 3::4]
            sad4[k] = sad.transpose(1, 0, 2)
        sad = sad4.reshape(n * n, rows // 4, w // 4)[order]
        for size in (4, 8, 16):
            if size > 4:
                sad = np.add(sad[:, :, 0::2], sad[:, :, 1::2], dtype=np.int32)
                sad = sad[:, 0::2] + sad[:, 1::2]
            best = order[sad.argmin(axis=0)]
            found[size].append(np.stack([dxs[best], dys[best]], axis=-1))
    return {size: np.concatenate(bands) for size, bands in found.items()}


def residual_plane(levels: np.ndarray, sizes: np.ndarray, qp: int) -> np.ndarray:
    """Dequantized, inverse-transformed residual of a whole frame's levels plane."""
    return transform_frame(dequantize(levels, qp), sizes, idct2d)


# ---------------------------------------------------------------------------
# Level (coefficient) coding
# ---------------------------------------------------------------------------
#
# Levels are scanned in zigzag order.  Each value maps to an unsigned code
# (0, -1, 1, ... -> 0, 1, 2, ...) shifted up by one and written as ue(v);
# the spare ue(0) codeword "1" is the end-of-block marker, emitted only when
# nonzero coefficients end before the scan does.

# ue(v) of a level v is the unsigned code plus one; the largest legal v
MAX_LEVEL_CODE = signed_to_unsigned(LEVEL_LIMIT) + 1


def _level_codewords(scans: np.ndarray) -> tuple[list[int], list[int], list[int]]:
    """Codewords of zigzag-scanned tiles ``(n_tiles, n)``, tile after tile.

    Returns ``(values, counts, ends)``: tile i's codewords are
    ``values[ends[i]:ends[i + 1]]``, each written in ``counts[...]`` bits.
    """
    n_tiles, n = scans.shape
    nonzero = scans != 0
    # coefficients up to the last nonzero one are coded, then the EOB
    # unless that reached the end of the scan
    coded = n - np.argmax(nonzero[:, ::-1], axis=1)
    coded[~nonzero.any(axis=1)] = 0
    # ue(c) writes c + 1 in 2 * bit_length(c + 1) - 1 bits; the EOB is ue(0)
    value = np.ones((n_tiles, n + 1), dtype=np.int64)
    value[:, :n] += signed_to_unsigned(scans) + 1
    count = 2 * np.frexp(value)[1] - 1
    used = np.arange(n + 1) < coded[:, None]
    used[:, n] = coded < n
    ends = np.zeros(n_tiles + 1, dtype=np.int64)
    np.cumsum(used.sum(axis=1), out=ends[1:])
    return value[used].tolist(), count[used].tolist(), ends.tolist()


def _levels_from_runs(sizes: np.ndarray, runs: dict[int, list[list[int]]]) -> np.ndarray:
    """Levels plane from the ue runs of every transform tile, in coding order.

    ``runs[t]`` lists the codes of each t x t tile.  They fill a stack of
    zigzag scans, which one scatter per tile size places in the plane.
    """
    h, w = sizes.shape
    index = np.arange(h * w, dtype=np.int32).reshape(h, w)
    levels = np.zeros(h * w, dtype=np.int32)
    for t, tile_runs in runs.items():
        codes = list(chain.from_iterable(tile_runs))
        worst = max(codes, default=0)
        if worst > MAX_LEVEL_CODE:
            value = unsigned_to_signed(worst - 1)
            raise BitstreamError(f"coefficient level {value} overflows signed 16 bits")
        lengths = np.fromiter(map(len, tile_runs), dtype=np.intp, count=len(tile_runs))
        unsigned = np.fromiter(codes, dtype=np.int32, count=len(codes)) - 1
        scans = np.zeros((lengths.size, t * t), dtype=np.int32)
        scans[np.arange(t * t) < lengths[:, None]] = unsigned_to_signed(unsigned)
        levels[zigzag(_coded_tiles(index, sizes, t))] = scans
    return levels.reshape(h, w)


# ---------------------------------------------------------------------------
# Stream header
# ---------------------------------------------------------------------------

def _pack_header(width, height, frame_count, config: CodecConfig) -> bytes:
    return struct.pack(
        _HEADER_FMT,
        MAGIC,
        STREAM_VERSION,
        width,
        height,
        frame_count,
        config.qp,
        config.search_radius,
        round(config.split_threshold * 10),
    )


def parse_header(data: bytes) -> StreamHeader:
    if len(data) < HEADER_SIZE:
        raise BitstreamError("stream shorter than its header")
    magic, version, width, height, frame_count, qp, radius, tau10 = struct.unpack_from(
        _HEADER_FMT, data
    )
    if magic != MAGIC:
        raise BitstreamError(f"bad magic {magic!r}")
    if version != STREAM_VERSION:
        raise BitstreamError(f"unsupported stream version {version}")
    if width == 0 or height == 0 or width % MACROBLOCK or height % MACROBLOCK:
        raise BitstreamError(f"illegal dimensions {width}x{height}")
    if qp > QP_MAX:
        raise BitstreamError(f"qp {qp} outside [{QP_MIN}, {QP_MAX}]")
    if frame_count == 0:
        raise BitstreamError("stream carries no frames")
    return StreamHeader(width, height, frame_count, qp, radius, tau10 / 10.0)


# ---------------------------------------------------------------------------
# Quadtree walk
# ---------------------------------------------------------------------------

def _quadtree(width: int, height: int, split) -> Iterator[tuple[int, int, int]]:
    """Every leaf ``(x, y, size)`` of a frame's macroblock quadtrees, in
    coding order.

    ``split(x, y, size)`` decides each block larger than 4x4 when the walk
    reaches it, after every leaf before it was yielded, so a decoder can
    read a split flag and an encoder can write one or reconstruct first.
    """
    for my in range(0, height, MACROBLOCK):
        for mx in range(0, width, MACROBLOCK):
            stack = [(mx, my, MACROBLOCK)]
            while stack:
                x, y, size = stack.pop()
                if size > 4 and split(x, y, size):
                    half = size // 2
                    # pushed in reverse, so the top-left quadrant comes first
                    stack += [
                        (x + half, y + half, half),
                        (x, y + half, half),
                        (x + half, y, half),
                        (x, y, half),
                    ]
                else:
                    yield x, y, size


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def _code_intra_frame(
    cur: np.ndarray, config: CodecConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Leaf sizes, levels and reconstruction of an intra frame.

    Leaf by leaf in coding order, because DC prediction reads the
    reconstruction of the leaves before it.
    """
    height, width = cur.shape
    sizes = np.empty((height, width), dtype=np.uint8)
    levels = np.empty((height, width), dtype=np.int32)
    recon = np.zeros((height, width), dtype=np.uint8)

    def split(x: int, y: int, size: int) -> bool:
        """Split the block, or code it as one leaf; a 4x4 block is a leaf."""
        pred = _dc_predict(recon, x, y, size)
        resid = cur[y : y + size, x : x + size] - pred
        if size > 4 and float(np.abs(resid).mean()) > config.split_threshold:
            return True
        block = levels[y : y + size, x : x + size]
        _leaf_tiles(block)[...] = quantize(dct2d(_leaf_tiles(resid.astype(np.float64))), config.qp)
        leaf_resid = np.empty((size, size))
        _leaf_tiles(leaf_resid)[...] = idct2d(dequantize(_leaf_tiles(block), config.qp))
        recon[y : y + size, x : x + size] = round_to_uint8(pred + leaf_resid)
        sizes[y : y + size, x : x + size] = size
        return False

    # a block the split test keeps whole is coded in that test, before the
    # walk goes on; 4x4 leaves have no split test, so the walk codes them
    for x, y, size in _quadtree(width, height, split):
        if size == 4:
            split(x, y, size)
    return sizes, levels, recon


def _code_inter_frame(
    cur: np.ndarray, ref: np.ndarray, config: CodecConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, np.ndarray]]:
    """Leaf sizes, levels, reconstruction and per-size vectors of an inter frame.

    Every leaf of an inter frame is inter, and a block's vector, prediction
    and split decision read only ``cur``, ``ref`` and the block, never the
    frame being reconstructed.  So each size is predicted over the whole
    frame at once, the splits are masks, and one transform, quantization
    and inverse cover the frame.
    """
    height, width = cur.shape
    vectors = motion_search(cur, ref, config.search_radius)
    sizes = np.full((height, width), MACROBLOCK, dtype=np.uint8)
    split = np.ones((height // MACROBLOCK, width // MACROBLOCK), dtype=bool)
    for size in LEAF_SIZES:
        block_pred = _compensate(ref, _upsample(vectors[size].transpose(2, 0, 1), size))
        # blocks split further are predicted again at the next size
        pred = block_pred if size == MACROBLOCK else np.where(sizes == size, block_pred, pred)
        if size > 4:
            # the mean of an integer block is its exact sum over its count
            mean = tiles(np.abs(cur - block_pred), size).mean(axis=(2, 3))
            split &= mean > config.split_threshold
            sizes[_upsample(split, size)] = size // 2
            split = _upsample(split, 2)
    levels = quantize(transform_frame((cur - pred).astype(np.float64), sizes, dct2d), config.qp)
    recon = round_to_uint8(pred + residual_plane(levels, sizes, config.qp))
    return sizes, levels, recon, vectors


def _write_frame(
    writer: BitWriter,
    sizes: np.ndarray,
    levels: np.ndarray,
    vectors: dict[int, np.ndarray] | None,
) -> None:
    """Write a frame's syntax: per macroblock, its quadtree of split flags,
    and per leaf the intra flag, an inter leaf's vector and the level
    codewords of its transform tiles.  ``vectors`` is None for an intra
    frame."""
    height, width = sizes.shape
    leaf_size = sizes[::4, ::4].tolist()
    mv = None if vectors is None else {size: v.tolist() for size, v in vectors.items()}
    codes = {t: _level_codewords(zigzag(_coded_tiles(levels, sizes, t))) for t in (8, 4)}
    next_tile = {8: 0, 4: 0}

    def split(x: int, y: int, size: int) -> bool:
        flag = leaf_size[y // 4][x // 4] < size
        writer.write_bit(int(flag))
        return flag

    for x, y, size in _quadtree(width, height, split):
        writer.write_bit(1 if mv is None else 0)
        if mv is not None:
            dx, dy = mv[size][y // size][x // size]
            writer.write_se(dx)
            writer.write_se(dy)
        t = min(size, MAX_TRANSFORM)
        values, counts, ends = codes[t]
        first = next_tile[t]
        next_tile[t] = last = first + (size // t) ** 2
        writer.write_codes(values[ends[first] : ends[last]], counts[ends[first] : ends[last]])


def encode_with_reconstruction(
    frames: list[Frame], config: CodecConfig
) -> tuple[bytes, list[Frame]]:
    """Encode and also return the encoder's closed-loop reconstructions."""
    width, height = sequence_size(frames)
    if width > 0xFFFF or height > 0xFFFF:
        raise ValueError(f"frame size {width}x{height} too large for the stream header")
    writer = BitWriter()
    recons: list[Frame] = []

    for t, frame in enumerate(frames):
        intra = t == 0 or (config.intra_period > 0 and t % config.intra_period == 0)
        writer.write_bit(1 if intra else 0)
        cur = frame.pixels.astype(np.int32)
        if intra:
            sizes, levels, recon = _code_intra_frame(cur, config)
            vectors = None
        else:
            sizes, levels, recon, vectors = _code_inter_frame(cur, recons[-1].pixels, config)
        _write_frame(writer, sizes, levels, vectors)
        recons.append(Frame(recon))

    header = _pack_header(width, height, len(frames), config)
    return header + writer.getvalue(), recons


def encode_sequence(frames: list[Frame], config: CodecConfig) -> bytes:
    """Encode a sequence to a self-contained bitstream."""
    return encode_with_reconstruction(frames, config)[0]


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

def _parse_frame(
    reader: BitReader, header: StreamHeader, intra_frame: bool
) -> tuple[np.ndarray, dict[int, list[list[int]]]]:
    """Read one frame's syntax: an ``(n, 6)`` array of every leaf's x, y,
    size, intra flag, dx and dy in coding order, and the ue run of every
    transform tile, keyed by tile size."""
    leaves: list[tuple[int, ...]] = []
    runs: dict[int, list[list[int]]] = {8: [], 4: []}
    radius = header.search_radius
    for x, y, size in _quadtree(header.width, header.height, lambda x, y, size: reader.read_bit()):
        if reader.read_bit():
            leaves.append((x, y, size, 1, 0, 0))
        else:
            if intra_frame:
                raise BitstreamError("inter leaf in an intra frame")
            dx = reader.read_se()
            dy = reader.read_se()
            if abs(dx) > radius or abs(dy) > radius:
                raise BitstreamError(f"motion vector ({dx},{dy}) exceeds search radius")
            leaves.append((x, y, size, 0, dx, dy))
        t = min(size, MAX_TRANSFORM)
        for _ in range((size // t) ** 2):
            runs[t].append(reader.read_ue_run(t * t))
    return np.array(leaves), runs


def _leaf_cells(leaves: np.ndarray, height: int, width: int) -> np.ndarray:
    """``(4, H / 4, W / 4)`` int16 planes of each 4x4 cell's leaf size, intra
    flag, dx and dy, from the parsed leaves: one scatter per leaf size."""
    cells = np.empty((4, height // 4, width // 4), dtype=np.int16)
    for size in LEAF_SIZES:
        of_size = leaves[leaves[:, 2] == size]
        k = np.arange(size // 4)
        rows = (of_size[:, 1] // 4)[:, None, None] + k[:, None]
        cols = (of_size[:, 0] // 4)[:, None, None] + k
        cells[:, rows, cols] = of_size[:, 2:].T[:, :, None, None]
    return cells


def decode_sequence(data: bytes) -> tuple[list[Frame], list[SideInfo]]:
    """Decode a bitstream into frames plus per-frame side information.

    Each frame's syntax is parsed first, and its planes are built from what
    was parsed.  The whole frame is then rebuilt at once from its
    motion-compensated prediction (zeros in an intra frame) plus its
    residual, and every intra leaf is redone in coding order with DC
    prediction from the running reconstruction.  That is exact: an intra
    leaf reads only its top row and left column, which belong to earlier
    leaves, and inter leaves never read the frame being decoded.
    """
    header = parse_header(data)
    reader = BitReader(data, HEADER_SIZE)
    width, height = header.width, header.height
    frames: list[Frame] = []
    sides: list[SideInfo] = []
    prev: np.ndarray | None = None

    for t in range(header.frame_count):
        intra_frame = reader.read_bit() == 1
        if prev is None and not intra_frame:
            raise BitstreamError(f"frame {t} is inter but has no reference")
        leaves, runs = _parse_frame(reader, header, intra_frame)
        cells = _leaf_cells(leaves, height, width)
        sizes = _upsample(cells[0].astype(np.uint8), 4)
        motion = _upsample(cells[2:], 4)
        levels = _levels_from_runs(sizes, runs)
        resid = residual_plane(levels, sizes, header.qp)
        pred = (
            np.zeros((height, width), dtype=np.uint8) if intra_frame else _compensate(prev, motion)
        )
        recon = round_to_uint8(pred + resid)
        for x, y, size in leaves[leaves[:, 3] == 1, :3].tolist():
            block = np.s_[y : y + size, x : x + size]
            pred[block] = _dc_predict(recon, x, y, size)
            recon[block] = round_to_uint8(pred[block] + resid[block])

        frames.append(Frame(recon))
        sides.append(
            SideInfo(
                qp=header.qp,
                sizes=sizes,
                motion=motion,
                intra=_upsample(cells[1] != 0, 4),
                prediction=Frame(pred),
                levels=levels,
            )
        )
        prev = recon

    # only zero padding bits of the final byte may remain
    if not reader.padding_is_clean():
        raise BitstreamError("nonzero padding at end of payload")
    tail = len(data) - reader.bytes_consumed()
    if tail > 0:
        raise BitstreamError(f"{tail} trailing bytes after payload")
    return frames, sides


def side_info_to_json(sides: list[SideInfo]) -> dict:
    """JSON-ready dump: frames -> {qp, leaves:[{x,y,size,intra,mv,levels}]}.

    Levels are listed transform tile by transform tile, each in zigzag order.
    """
    out = []
    for side in sides:
        leaves = []
        for x, y, size in side.leaves():
            intra = bool(side.intra[y, x])
            leaves.append(
                {
                    "x": x,
                    "y": y,
                    "size": size,
                    "intra": intra,
                    "mv": None if intra else side.motion[:, y, x].tolist(),
                    "levels": zigzag(_leaf_tiles(side.levels[y : y + size, x : x + size]))
                    .ravel()
                    .tolist(),
                }
            )
        out.append({"qp": side.qp, "leaves": leaves})
    return {"frames": out}
