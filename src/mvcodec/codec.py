"""Deterministic hybrid mini video codec (IPPP, quadtree, integer-pel MC).

The encoder runs a closed loop: every prediction is formed from frames the
decoder will reconstruct identically, so encoder state and decoder output
match bit for bit.  Each frame is coded as a raster scan of 16x16
macroblocks, recursively quadtree-split down to 4x4 while the mean absolute
prediction residual of a block exceeds the split threshold.  Inter leaves
carry one integer motion vector from an exhaustive SAD search run once per
macroblock row; intra leaves use DC prediction from decoded neighbors.
Residuals go through the block DCT and flat quantizer of
:mod:`mvcodec.transform` and an exp-Golomb bitstream.

Motion convention: a vector (dx, dy) means the block content moved right by
dx and down by dy since the reference, so prediction samples the reference
at (x - dx, y - dy) with clamp-to-edge.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bitio import BitReader, BitstreamError, BitWriter, signed_to_unsigned, unsigned_to_signed
from .frames import MACROBLOCK, Frame
from .transform import (
    LEVEL_LIMIT,
    QuantTable,
    dct2d,
    dequantize,
    idct2d,
    inverse_zigzag,
    quantize,
    round_half_away,
    zigzag,
)

MAGIC = b"MVC1"
STREAM_VERSION = 1
_HEADER_FMT = "<4sHHHIBBH"
HEADER_SIZE = struct.calcsize(_HEADER_FMT)

MAX_TRANSFORM = 8
LEAF_SIZES = (16, 8, 4)


# ---------------------------------------------------------------------------
# Data model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Leaf:
    """One partition leaf: origin in pixels plus side length."""

    x: int
    y: int
    size: int


@dataclass(frozen=True)
class LeafMotion:
    """Motion of one leaf; intra leaves have no vector."""

    intra: bool
    dx: int = 0
    dy: int = 0


@dataclass(frozen=True)
class PartitionMap:
    """Quadtree tiling of the macroblock grid, leaves in coding order.

    Coding order is macroblock raster order with quadrants visited
    top-left, top-right, bottom-left, bottom-right; that order guarantees a
    leaf's top row and left column are decoded before the leaf itself.
    ``sizes`` is the read-only (height, width) uint8 plane of each pixel's
    leaf size, painted once while the tiling is validated.
    """

    width: int
    height: int
    leaves: tuple[Leaf, ...]
    sizes: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.width % MACROBLOCK or self.height % MACROBLOCK:
            raise ValueError("partition dimensions must be multiples of 16")
        sizes = np.zeros((self.height, self.width), dtype=np.uint8)
        for leaf in self.leaves:
            if leaf.size not in LEAF_SIZES:
                raise ValueError(f"illegal leaf size {leaf.size}")
            if leaf.x % leaf.size or leaf.y % leaf.size:
                raise ValueError(f"leaf origin ({leaf.x},{leaf.y}) not aligned to {leaf.size}")
            if leaf.x + leaf.size > self.width or leaf.y + leaf.size > self.height:
                raise ValueError("leaf extends outside the frame")
            patch = sizes[leaf.y : leaf.y + leaf.size, leaf.x : leaf.x + leaf.size]
            if patch.any():
                raise ValueError(f"leaf at ({leaf.x},{leaf.y}) overlaps another leaf")
            patch[:] = leaf.size
        if not sizes.all():
            raise ValueError("leaves do not tile the frame")
        sizes.flags.writeable = False
        object.__setattr__(self, "sizes", sizes)


@dataclass(frozen=True)
class MotionField:
    """Per-leaf motion, parallel to ``PartitionMap.leaves``."""

    vectors: tuple[LeafMotion, ...]


@dataclass(frozen=True)
class SideInfo:
    """Decoder-visible priors of one coded frame.

    ``levels`` is one frame-sized int32 plane holding every transform tile's
    quantized levels in place, tiled as :func:`transform_frame` tiles the
    frame.  Dequantizing it, inverse transforming it tile by tile, adding
    ``prediction`` and rounding/clipping to [0, 255] reproduces the decoded
    frame exactly.
    """

    frame_index: int
    qp: int
    partition: PartitionMap
    motion: MotionField
    prediction: Frame
    levels: np.ndarray

    def __post_init__(self):
        shape = (self.partition.height, self.partition.width)
        if np.shape(self.levels) != shape:
            raise ValueError(f"levels plane must be {shape}, got {np.shape(self.levels)}")
        if len(self.motion.vectors) != len(self.partition.leaves):
            raise ValueError("need exactly one motion entry per partition leaf")


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
        QuantTable(self.qp)  # range check
        if not 0 <= self.search_radius <= 127:
            raise ValueError(f"search radius {self.search_radius} outside [0, 127]")
        if self.split_threshold < 0:
            raise ValueError("split threshold must be non-negative")
        if not 0 <= round(self.split_threshold * 10) <= 0xFFFF:
            raise ValueError("split threshold too large for the stream header")
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


def _leaf_tiles(block: np.ndarray) -> np.ndarray:
    """Transform tiles of one leaf: 8x8 tiles, or the whole leaf when smaller."""
    return tiles(block, min(block.shape[0], MAX_TRANSFORM))


def transform_frame(plane: np.ndarray, partition: PartitionMap, fn) -> np.ndarray:
    """Apply ``dct2d`` or ``idct2d`` to every transform tile of a frame.

    Leaves of 8 and 16 pixels are tiled by 8x8 transforms, and 4x4 leaves
    only come from splitting an 8x8 block, so every 8x8 block of the frame
    is either one 8x8 tile or four 4x4 tiles.  ``fn`` runs once per tile
    size on the stacked tiles.
    """
    split = partition.sizes[::MAX_TRANSFORM, ::MAX_TRANSFORM] < MAX_TRANSFORM
    split_small = split.repeat(2, axis=0).repeat(2, axis=1)
    small = MAX_TRANSFORM // 2
    out = np.empty(plane.shape)
    tiles(out, MAX_TRANSFORM)[~split] = fn(tiles(plane, MAX_TRANSFORM)[~split])
    tiles(out, small)[split_small] = fn(tiles(plane, small)[split_small])
    return out


# ---------------------------------------------------------------------------
# Prediction primitives
# ---------------------------------------------------------------------------

def _mc_block(
    padded: np.ndarray, pad: int, x: int, y: int, size: int, dx: int, dy: int
) -> np.ndarray:
    """Motion-compensated block with clamp-to-edge, sliced from a reference
    that ``np.pad(ref, pad, mode="edge")`` padded, where |dx|, |dy| <= pad."""
    top, left = y - dy + pad, x - dx + pad
    return padded[top : top + size, left : left + size]


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
    return int(round_half_away(total / count))


def motion_search(
    current: Frame | np.ndarray,
    reference: Frame | np.ndarray,
    row: int,
    radius: int,
) -> dict[int, list[list[list[int]]]]:
    """Exhaustive integer-pel SAD search over [-radius, radius]^2 of every
    16/8/4 block of macroblock row ``row``: ``result[size][i][j]`` is the
    ``[dx, dy]`` of the block at ``(j * size, 16 * row + i * size)``.

    Ties resolve to the smallest |dx|+|dy|, then smaller dy, then smaller dx.
    One pass over the displacements computes the row's 4x4 SADs; the 8x8
    and 16x16 SADs are their exact 2x2 sums."""
    cur = current.pixels if isinstance(current, Frame) else current
    ref = reference.pixels if isinstance(reference, Frame) else reference
    h, w = ref.shape
    n = 2 * radius + 1
    block = cur[row * MACROBLOCK : (row + 1) * MACROBLOCK].astype(np.int16)
    ys = np.clip(np.arange(row * MACROBLOCK - radius, (row + 1) * MACROBLOCK + radius), 0, h - 1)
    window = np.pad(ref[ys].astype(np.int16), ((0, 0), (radius, radius)), mode="edge")
    # shifted[i, dx + radius] is window row i read at columns x - dx + radius
    shifted = sliding_window_view(window, w, axis=1)[:, ::-1]
    diff = np.empty((MACROBLOCK, n, w), dtype=np.int16)
    # 4x4 SADs per (dy, dx, block row, block column); at most 4080
    sad4 = np.empty((n, n, MACROBLOCK // 4, w // 4), dtype=np.int16)
    for k in range(n):  # dy = k - radius reads window rows radius - dy onward
        np.subtract(shifted[2 * radius - k :][:MACROBLOCK], block[:, None], out=diff)
        np.abs(diff, out=diff)
        bands = np.add.reduce(diff.reshape(-1, 4, n, w), axis=1, dtype=np.int16)
        sad = bands[..., 0::4] + bands[..., 1::4] + bands[..., 2::4] + bands[..., 3::4]
        sad4[k] = sad.transpose(1, 0, 2)
    # the (dy, dx) grid in tie-break order, so the first minimum wins
    dys, dxs = np.indices((n, n)).reshape(2, -1) - radius
    order = np.lexsort((dxs, dys, np.abs(dxs) + np.abs(dys)))
    sad = sad4.reshape(n * n, MACROBLOCK // 4, w // 4)[order]
    result = {}
    for size in (4, 8, 16):
        if size > 4:
            sad = np.add(sad[:, :, 0::2], sad[:, :, 1::2], dtype=np.int32)
            sad = sad[:, 0::2] + sad[:, 1::2]
        best = order[sad.argmin(axis=0)]
        result[size] = np.stack([dxs[best], dys[best]], axis=-1).tolist()
    return result


def _reconstruct_block(pred: np.ndarray, levels: np.ndarray, qt: QuantTable) -> np.ndarray:
    """Dequantize + inverse transform + prediction of one leaf, rounded and clipped."""
    resid = np.empty(levels.shape)
    _leaf_tiles(resid)[...] = idct2d(dequantize(_leaf_tiles(levels), qt))
    recon = round_half_away(pred.astype(np.float64) + resid)
    return np.clip(recon, 0, 255).astype(np.int32)


def residual_plane(side: SideInfo) -> np.ndarray:
    """Dequantized, inverse-transformed residual of a whole coded frame."""
    return transform_frame(dequantize(side.levels, QuantTable(side.qp)), side.partition, idct2d)


def reconstruct_from_side_info(side: SideInfo) -> Frame:
    """Rebuild the decoded frame from side information alone."""
    recon = round_half_away(side.prediction.as_float() + residual_plane(side))
    return Frame(np.clip(recon, 0, 255).astype(np.uint8))


# ---------------------------------------------------------------------------
# Level (coefficient) coding
# ---------------------------------------------------------------------------
#
# Levels are scanned in zigzag order.  Each value maps to an unsigned code
# (0, -1, 1, ... -> 0, 1, 2, ...) shifted up by one and written as ue(v);
# the spare ue(0) codeword "1" is the end-of-block marker, emitted only when
# nonzero coefficients end before the scan does.

def _write_levels(writer: BitWriter, levels: np.ndarray) -> None:
    zz = zigzag(levels)
    nz = np.nonzero(zz)[0]
    last = int(nz[-1]) if nz.size else -1
    for v in zz[: last + 1]:
        writer.write_ue(signed_to_unsigned(int(v)) + 1)
    if last + 1 < zz.size:
        writer.write_ue(0)


def _read_levels(reader: BitReader, size: int) -> np.ndarray:
    count = size * size
    zz = np.zeros(count, dtype=np.int32)
    for i in range(count):
        code = reader.read_ue()
        if code == 0:
            break
        value = unsigned_to_signed(code - 1)
        if abs(value) > LEVEL_LIMIT:
            raise BitstreamError(f"coefficient level {value} overflows signed 16 bits")
        zz[i] = value
    return inverse_zigzag(zz, size)


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
    if qp > 51:
        raise BitstreamError(f"qp {qp} outside [0, 51]")
    if frame_count == 0:
        raise BitstreamError("stream carries no frames")
    return StreamHeader(width, height, frame_count, qp, radius, tau10 / 10.0)


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def encode_with_reconstruction(
    frames: list[Frame], config: CodecConfig
) -> tuple[bytes, list[Frame]]:
    """Encode and also return the encoder's closed-loop reconstructions."""
    if not frames:
        raise ValueError("need at least one frame")
    width, height = frames[0].width, frames[0].height
    for f in frames[1:]:
        if f.width != width or f.height != height:
            raise ValueError("all frames must share dimensions")
    qt = QuantTable(config.qp)
    radius = config.search_radius
    writer = BitWriter()
    recons: list[Frame] = []

    for t, frame in enumerate(frames):
        intra = t == 0 or (config.intra_period > 0 and t % config.intra_period == 0)
        writer.write_bit(1 if intra else 0)
        cur = frame.pixels.astype(np.int32)
        ref = None if intra else recons[-1]
        padded = None if intra else np.pad(ref.pixels.astype(np.int32), radius, mode="edge")
        recon = np.zeros((height, width), dtype=np.int32)

        def code_block(x: int, y: int, size: int) -> None:
            if intra:
                pred = np.full((size, size), _dc_predict(recon, x, y, size), dtype=np.int32)
            else:
                dx, dy = vectors[size][y % MACROBLOCK // size][x // size]
                pred = _mc_block(padded, radius, x, y, size, dx, dy)
            resid = cur[y : y + size, x : x + size] - pred
            if size > 4:
                do_split = float(np.abs(resid).mean()) > config.split_threshold
                writer.write_bit(1 if do_split else 0)
                if do_split:
                    half = size // 2
                    code_block(x, y, half)
                    code_block(x + half, y, half)
                    code_block(x, y + half, half)
                    code_block(x + half, y + half, half)
                    return
            writer.write_bit(1 if intra else 0)
            if not intra:
                writer.write_se(dx)
                writer.write_se(dy)
            levels = np.empty((size, size), dtype=np.int32)
            _leaf_tiles(levels)[...] = quantize(dct2d(_leaf_tiles(resid.astype(np.float64))), qt)
            for row in _leaf_tiles(levels):
                for tile in row:
                    _write_levels(writer, tile)
            recon[y : y + size, x : x + size] = _reconstruct_block(pred, levels, qt)

        for my in range(0, height, MACROBLOCK):
            if not intra:
                # a block's best vector depends only on cur, ref and the block,
                # so one search per row serves every split decision in it
                vectors = motion_search(cur, ref, my // MACROBLOCK, radius)
            for mx in range(0, width, MACROBLOCK):
                code_block(mx, my, MACROBLOCK)
        recons.append(Frame(recon.astype(np.uint8)))

    header = _pack_header(width, height, len(frames), config)
    return header + writer.getvalue(), recons


def encode_sequence(frames: list[Frame], config: CodecConfig) -> bytes:
    """Encode a sequence to a self-contained bitstream."""
    return encode_with_reconstruction(frames, config)[0]


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

def decode_sequence(data: bytes) -> tuple[list[Frame], list[SideInfo]]:
    """Decode a bitstream into frames plus per-frame side information."""
    header = parse_header(data)
    qt = QuantTable(header.qp)
    reader = BitReader(data, HEADER_SIZE)
    width, height = header.width, header.height
    frames: list[Frame] = []
    sides: list[SideInfo] = []
    prev: np.ndarray | None = None

    for t in range(header.frame_count):
        intra_frame = reader.read_bit() == 1
        if prev is None and not intra_frame:
            raise BitstreamError(f"frame {t} is inter but has no reference")
        padded = None if intra_frame else np.pad(prev, header.search_radius, mode="edge")
        recon = np.zeros((height, width), dtype=np.int32)
        pred_frame = np.zeros((height, width), dtype=np.int32)
        levels = np.zeros((height, width), dtype=np.int32)
        leaves: list[Leaf] = []
        vectors: list[LeafMotion] = []

        def decode_block(x: int, y: int, size: int) -> None:
            if size > 4 and reader.read_bit():
                half = size // 2
                decode_block(x, y, half)
                decode_block(x + half, y, half)
                decode_block(x, y + half, half)
                decode_block(x + half, y + half, half)
                return
            intra_leaf = reader.read_bit() == 1
            if intra_leaf:
                vec = LeafMotion(intra=True)
                pred = np.full((size, size), _dc_predict(recon, x, y, size), dtype=np.int32)
            else:
                if padded is None:
                    raise BitstreamError("inter leaf in an intra frame")
                dx = reader.read_se()
                dy = reader.read_se()
                if abs(dx) > header.search_radius or abs(dy) > header.search_radius:
                    raise BitstreamError(
                        f"motion vector ({dx},{dy}) exceeds search radius"
                    )
                vec = LeafMotion(intra=False, dx=dx, dy=dy)
                pred = _mc_block(padded, header.search_radius, x, y, size, dx, dy)
            block = levels[y : y + size, x : x + size]
            for row in _leaf_tiles(block):
                for tile in row:
                    tile[...] = _read_levels(reader, tile.shape[0])
            pred_frame[y : y + size, x : x + size] = pred
            recon[y : y + size, x : x + size] = _reconstruct_block(pred, block, qt)
            leaves.append(Leaf(x, y, size))
            vectors.append(vec)

        for my in range(0, height, MACROBLOCK):
            for mx in range(0, width, MACROBLOCK):
                decode_block(mx, my, MACROBLOCK)

        frames.append(Frame(recon.astype(np.uint8)))
        sides.append(
            SideInfo(
                frame_index=t,
                qp=header.qp,
                partition=PartitionMap(width, height, tuple(leaves)),
                motion=MotionField(tuple(vectors)),
                prediction=Frame(pred_frame.astype(np.uint8)),
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


def extract_side_info(data: bytes) -> list[SideInfo]:
    """Side information only; identical to the second decode output."""
    return decode_sequence(data)[1]


def side_info_to_json(sides: list[SideInfo]) -> dict:
    """JSON-ready dump: frames -> {qp, leaves:[{x,y,size,intra,mv,levels}]}.

    Levels are listed transform tile by transform tile, each in zigzag order.
    """
    out = []
    for side in sides:
        leaves = []
        for leaf, vec in zip(side.partition.leaves, side.motion.vectors):
            block = side.levels[leaf.y : leaf.y + leaf.size, leaf.x : leaf.x + leaf.size]
            leaves.append(
                {
                    "x": leaf.x,
                    "y": leaf.y,
                    "size": leaf.size,
                    "intra": vec.intra,
                    "mv": None if vec.intra else [vec.dx, vec.dy],
                    "levels": zigzag(_leaf_tiles(block)).ravel().tolist(),
                }
            )
        out.append({"qp": side.qp, "leaves": leaves})
    return {"frames": out}
