"""Shared test utilities: finite-difference gradients and independent oracles.

The oracles here are deliberately slow and dumb (direct summation, scalar
sampling loops) so they stay independent of the vectorized implementations
they check.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from mvcodec.alignment import GatherCache, kernel_grid
from mvcodec.bitio import (
    BitReader,
    BitstreamError,
    BitWriter,
    signed_to_unsigned,
    unsigned_to_signed,
)
from mvcodec.codec import SideInfo, _pack_header, motion_search, residual_plane, transform_frame
from mvcodec.fixtures import _texture
from mvcodec.frames import Frame
from mvcodec.nn import sigmoid
from mvcodec.restorer import RestorerModel, init_restorer
from mvcodec.transform import (
    dct2d,
    dequantize,
    idct2d,
    quantize,
    round_half_away,
    round_to_uint8,
    zigzag,
    zigzag_indices,
)

FD_STEP = 1e-5
GRAD_TOL = 1e-4


def finite_diff(f, x, h: float = FD_STEP) -> np.ndarray:
    """Central finite-difference gradient of scalar ``f()`` w.r.t. ``x``.

    ``x`` is perturbed in place and restored; ``f`` must read it fresh on
    every call.
    """
    grad = np.zeros(x.shape)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max-norm relative disagreement between two gradient arrays."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0), 1e-8)
    return float(np.abs(analytic - numeric).max(initial=0.0) / scale)


def draw_until(seed: int, build, acceptable, limit: int = 64):
    """Deterministically redraw a random case until it avoids kinks.

    Finite differences are meaningless within h of a ReLU corner, a bilinear
    lattice line, or a clamp boundary, so test cases are rejected until all
    their nonsmooth points are comfortably far away.
    """
    for attempt in range(limit):
        case = build(np.random.default_rng(seed * 1009 + attempt))
        if acceptable(case):
            return case
    raise AssertionError(f"no kink-free case found for seed {seed}")


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def ue_golomb(value: int) -> str:
    """Order-0 exp-Golomb codeword for an unsigned value, as a bit string.

    value+1 takes k+1 significant bits; the codeword is k zeros followed by
    those bits, so 0 -> "1", 1 -> "010", 4 -> "00101".
    """
    if value < 0:
        raise ValueError(f"ue_golomb needs a non-negative value, got {value}")
    bits = bin(value + 1)[2:]
    return "0" * (len(bits) - 1) + bits


def ue_golomb_decode(bits: str, pos: int = 0) -> tuple[int, int]:
    """Decode one unsigned exp-Golomb codeword; returns (value, next position)."""
    zeros = 0
    n = len(bits)
    while pos < n and bits[pos] == "0":
        zeros += 1
        pos += 1
    if pos >= n or pos + zeros + 1 > n:
        raise BitstreamError("truncated exp-Golomb codeword")
    value = int(bits[pos : pos + zeros + 1], 2) - 1
    return value, pos + zeros + 1


def se_golomb(value: int) -> str:
    """Signed exp-Golomb codeword."""
    return ue_golomb(signed_to_unsigned(value))


def se_golomb_decode(bits: str, pos: int = 0) -> tuple[int, int]:
    code, pos = ue_golomb_decode(bits, pos)
    return unsigned_to_signed(code), pos


def read_bits(reader: BitReader, count: int) -> int:
    """The next ``count`` bits of ``reader`` MSB-first, one ``read_bit`` at a time."""
    value = 0
    for _ in range(count):
        value = (value << 1) | reader.read_bit()
    return value


def motion_search_direct(current, reference, leaf, radius: int) -> tuple[int, int]:
    """Exhaustive integer-pel SAD search of one leaf over [-radius, radius]^2.

    Every candidate window of the clamp-to-edge reference is scored on its
    own, and one lexsort ranks them by SAD, then |dx|+|dy|, then dy, then dx.
    """
    cur = current.pixels if isinstance(current, Frame) else current
    ref = reference.pixels if isinstance(reference, Frame) else reference
    h, w = ref.shape
    block = cur[leaf.y : leaf.y + leaf.size, leaf.x : leaf.x + leaf.size].astype(np.int32)
    ys = np.clip(np.arange(leaf.y - radius, leaf.y + leaf.size + radius), 0, h - 1)
    xs = np.clip(np.arange(leaf.x - radius, leaf.x + leaf.size + radius), 0, w - 1)
    window = ref[np.ix_(ys, xs)].astype(np.int32)
    candidates = sliding_window_view(window, (leaf.size, leaf.size))
    sad = np.abs(candidates - block).sum(axis=(2, 3))
    # candidate at window offset (i, j) corresponds to (dy, dx) = (r - i, r - j)
    disp = radius - np.arange(2 * radius + 1)
    dys = np.broadcast_to(disp[:, None], sad.shape)
    dxs = np.broadcast_to(disp[None, :], sad.shape)
    order = np.lexsort(
        (dxs.ravel(), dys.ravel(), (np.abs(dxs) + np.abs(dys)).ravel(), sad.ravel())
    )
    best = order[0]
    return int(dxs.ravel()[best]), int(dys.ravel()[best])


def side_of(sizes, intra, motion=(0, 0)) -> SideInfo:
    """Side info of a leaf-size plane with one intra flag (a bool or an
    (H, W) plane) and one (dx, dy) for every pixel, zero prediction and levels."""
    sizes = np.asarray(sizes, dtype=np.uint8)
    shape = sizes.shape
    return SideInfo(
        qp=0,
        sizes=sizes,
        motion=np.broadcast_to(np.reshape(motion, (2, 1, 1)), (2, *shape)),
        intra=np.broadcast_to(intra, shape),
        prediction=Frame(np.zeros(shape, dtype=np.uint8)),
        levels=np.zeros(shape, dtype=np.int32),
    )


def predict_frame(intra_frame: bool, reference, side, decoded) -> Frame:
    """Assemble the prediction frame of a coded frame, leaf by leaf.

    Each leaf of ``side.leaves()`` reads its intra flag and vector at its
    origin.  Inter leaves copy the reference at (x - dx, y - dy) through
    clipped index vectors; intra leaves take the rounded mean of the decoded
    left-column and top-row neighbors, or 128 without any.  Leaves never
    change once reconstructed, so the finished ``decoded`` frame gives the
    same neighbor values the in-progress decoder state did.
    """
    if intra_frame and not side.intra.all():
        raise ValueError("intra frames must have every leaf flagged intra")
    dec = decoded.pixels.astype(np.int32)
    pred = np.zeros_like(dec)
    h, w = dec.shape
    for x, y, size in side.leaves():
        if side.intra[y, x]:
            value = dc_value(dec, x, y, size)
        else:
            if reference is None:
                raise ValueError("inter leaf needs a reference frame")
            dx, dy = side.motion[:, y, x].tolist()
            ys = np.clip(np.arange(y - dy, y - dy + size), 0, h - 1)
            xs = np.clip(np.arange(x - dx, x - dx + size), 0, w - 1)
            value = reference.pixels[np.ix_(ys, xs)]
        pred[y : y + size, x : x + size] = value
    return Frame(pred.astype(np.uint8))


def reconstruct_from_side_info(side) -> Frame:
    """Rebuild the decoded frame from side information alone."""
    residual = residual_plane(side.levels, side.sizes, side.qp)
    return Frame(round_to_uint8(side.prediction.pixels + residual))


def residual_coeffs(candidate: np.ndarray, side) -> np.ndarray:
    """Residual DCT coefficient plane of a candidate against the coded prediction."""
    return transform_frame(candidate - side.prediction.as_float(), side.sizes, dct2d)


def zero_restorer() -> RestorerModel:
    """All-zero parameters: the identity restorer."""
    model = init_restorer()
    model.vector[:] = 0.0
    return model


def inverse_zigzag(seq: np.ndarray, size: int) -> np.ndarray:
    """Rebuild a square block from its zigzag flattening."""
    seq = np.asarray(seq)
    rows, cols = zigzag_indices(size)
    block = np.empty((size, size), dtype=seq.dtype)
    block[rows, cols] = seq
    return block


def preclip_reconstruction(side) -> np.ndarray:
    """Decoded frame before rounding/clipping: prediction + dequantized residual.

    Walks every leaf's transform tiles itself (8x8, or the whole leaf when
    smaller), so it stays independent of the codec's batched tiling.
    """
    out = side.prediction.as_float()
    for leaf in side.leaves():
        tile = min(leaf.size, 8)
        for y in range(leaf.y, leaf.y + leaf.size, tile):
            for x in range(leaf.x, leaf.x + leaf.size, tile):
                out[y : y + tile, x : x + tile] += idct2d(
                    dequantize(side.levels[y : y + tile, x : x + tile], side.qp)
                )
    return out


def dc_value(recon: np.ndarray, x: int, y: int, size: int) -> int:
    """Rounded mean of the decoded left-column and top-row neighbors, or 128."""
    neighbors = []
    if x > 0:
        neighbors.append(recon[y : y + size, x - 1])
    if y > 0:
        neighbors.append(recon[y - 1, x : x + size])
    if not neighbors:
        return 128
    return int(round_half_away(np.concatenate(neighbors).sum() / (size * len(neighbors))))


def write_scan(writer: BitWriter, scan: list[int]) -> None:
    """Level syntax of one transform tile from its zigzag scan: ue(code + 1)
    per level up to the last nonzero one, then ue(0) unless that ended the
    scan."""
    last = max((i for i, v in enumerate(scan) if v), default=-1)
    for v in scan[: last + 1]:
        writer.write_ue(signed_to_unsigned(v) + 1)
    if last + 1 < len(scan):
        writer.write_ue(0)


def encode_per_leaf(frames: list[Frame], config) -> tuple[bytes, list[Frame]]:
    """The closed-loop encoder written leaf by leaf, with every leaf predicted,
    split-tested, transformed, coded and reconstructed on its own.

    Inter blocks copy an edge-padded reference at (x - dx, y - dy) with the
    vector the frame's motion search found for their size; each level of each
    transform tile is written with its own ``write_ue``.  The codec's
    frame-level inter path must produce the same bytes and reconstructions.
    """
    width, height = frames[0].width, frames[0].height
    radius = config.search_radius
    writer = BitWriter()
    recons: list[Frame] = []

    for t, frame in enumerate(frames):
        intra = t == 0 or (config.intra_period > 0 and t % config.intra_period == 0)
        writer.write_bit(1 if intra else 0)
        cur = frame.pixels.astype(np.int32)
        padded = None if intra else np.pad(recons[-1].pixels.astype(np.int32), radius, mode="edge")
        recon = np.zeros((height, width), dtype=np.int32)
        vectors = None

        def code_block(x: int, y: int, size: int) -> None:
            if intra:
                pred = np.full((size, size), dc_value(recon, x, y, size), dtype=np.int32)
            else:
                dx, dy = vectors[size][y // size][x // size]
                top, left = y - dy + radius, x - dx + radius
                pred = padded[top : top + size, left : left + size]
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
            tile = min(size, 8)
            coded = np.empty((size, size))
            for ty in range(0, size, tile):
                for tx in range(0, size, tile):
                    part = np.s_[ty : ty + tile, tx : tx + tile]
                    levels = quantize(dct2d(resid[part].astype(np.float64)), config.qp)
                    write_scan(writer, zigzag(levels).tolist())
                    coded[part] = idct2d(dequantize(levels, config.qp))
            rebuilt = np.clip(round_half_away(pred.astype(np.float64) + coded), 0, 255)
            recon[y : y + size, x : x + size] = rebuilt

        if not intra:
            found = motion_search(cur, recons[-1].pixels, radius)
            vectors = {size: v.tolist() for size, v in found.items()}
        for my in range(0, height, 16):
            for mx in range(0, width, 16):
                code_block(mx, my, 16)
        recons.append(Frame(recon.astype(np.uint8)))

    return _pack_header(width, height, len(frames), config) + writer.getvalue(), recons


def dct2d_direct(block: np.ndarray) -> np.ndarray:
    """O(N^4) orthonormal DCT-II straight from the definition."""
    n = block.shape[0]
    out = np.zeros((n, n))
    for u in range(n):
        for v in range(n):
            total = 0.0
            for i in range(n):
                for j in range(n):
                    total += (
                        block[i, j]
                        * math.cos(math.pi * (2 * i + 1) * u / (2 * n))
                        * math.cos(math.pi * (2 * j + 1) * v / (2 * n))
                    )
            cu = math.sqrt(1.0 / n) if u == 0 else math.sqrt(2.0 / n)
            cv = math.sqrt(1.0 / n) if v == 0 else math.sqrt(2.0 / n)
            out[u, v] = cu * cv * total
    return out


def bilinear_sample(fmap: np.ndarray, x: float, y: float, channel: int = 0) -> float:
    """Bilinear interpolation at a single (x, y), clamped to the map."""
    _, h, w = fmap.shape
    cx = min(max(float(x), 0.0), w - 1.0)
    cy = min(max(float(y), 0.0), h - 1.0)
    x0 = min(int(np.floor(cx)), max(w - 2, 0))
    y0 = min(int(np.floor(cy)), max(h - 2, 0))
    x1 = min(x0 + 1, w - 1)
    y1 = min(y0 + 1, h - 1)
    fx = cx - x0
    fy = cy - y0
    plane = fmap[channel]
    top = (1.0 - fx) * plane[y0, x0] + fx * plane[y0, x1]
    bottom = (1.0 - fx) * plane[y1, x0] + fx * plane[y1, x1]
    return float((1.0 - fy) * top + fy * bottom)


def deformable_gather_direct(
    fmap: np.ndarray, kernel_size: int, offsets: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Direct-summation deformable gather built on the scalar sampler."""
    out_ch = weights.shape[0]
    in_ch, h, w = fmap.shape
    gx, gy = kernel_grid(kernel_size)
    out = np.zeros((out_ch, h, w))
    for o in range(out_ch):
        for y in range(h):
            for x in range(w):
                acc = 0.0
                for t in range(kernel_size * kernel_size):
                    sx = x + gx[t] + offsets[2 * t, y, x]
                    sy = y + gy[t] + offsets[2 * t + 1, y, x]
                    for c in range(in_ch):
                        ky, kx = divmod(t, kernel_size)
                        acc += weights[o, c, ky, kx] * bilinear_sample(fmap, sx, sy, c)
                out[o, y, x] = acc
    return out


def tap_coords(kernel_size: int, offsets: np.ndarray, h: int, w: int):
    """(px, py): the unclamped sampling point of every tap and position,
    each ``(taps, h, w)``."""
    gx, gy = kernel_grid(kernel_size)
    xs = np.arange(w, dtype=np.float64)[None, None, :]
    ys = np.arange(h, dtype=np.float64)[None, :, None]
    px = xs + gx[:, None, None] + offsets[0::2]
    py = ys + gy[:, None, None] + offsets[1::2]
    return px, py


def bilinear_corners(px: np.ndarray, py: np.ndarray, h: int, w: int):
    """Flat indices and weights of the four clamped corners of every point,
    each corner built on its own from the clamped coordinates.

    Returns ``(index, corner_w, fx, fy, sat_x, sat_y)``: ``index`` and
    ``corner_w`` are ``(4, px.size)`` in corner order 00, 01, 10, 11 (row,
    column); the fractions and the saturation masks keep ``px``'s shape.
    """
    cx = np.clip(px, 0.0, w - 1.0)
    cy = np.clip(py, 0.0, h - 1.0)
    x0 = np.minimum(np.floor(cx).astype(np.intp), max(w - 2, 0))
    y0 = np.minimum(np.floor(cy).astype(np.intp), max(h - 2, 0))
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = cx - x0
    fy = cy - y0
    index = np.stack([y0 * w + x0, y0 * w + x1, y1 * w + x0, y1 * w + x1]).reshape(4, -1)
    gx, gy = 1.0 - fx, 1.0 - fy
    corner_w = np.stack([gx * gy, fx * gy, gx * fy, fx * fy]).reshape(4, -1)
    sat_x = (px < 0.0) | (px > w - 1.0)
    sat_y = (py < 0.0) | (py > h - 1.0)
    return index, corner_w, fx, fy, sat_x, sat_y


def deformable_gather_reference(
    fmap: np.ndarray, kernel_size: int, offsets: np.ndarray, weights: np.ndarray
):
    """``(output, GatherCache)`` of the deformable gather with its corner
    stage built by :func:`tap_coords` and :func:`bilinear_corners`, then the
    same corner sums and GEMM: the gather must match it bit for bit."""
    c, h, w = fmap.shape
    taps = kernel_size * kernel_size
    index, corner_w, fx, fy, sat_x, sat_y = bilinear_corners(
        *tap_coords(kernel_size, offsets, h, w), h, w
    )
    flat = fmap.reshape(c, h * w)
    sampled = np.take(flat, index[0], axis=1) * corner_w[0]
    for k in range(1, 4):
        sampled += np.take(flat, index[k], axis=1) * corner_w[k]
    out = weights.reshape(weights.shape[0], c * taps) @ sampled.reshape(c * taps, h * w)
    cache = GatherCache(
        flat, index, corner_w, fx, fy, sat_x, sat_y, sampled.reshape(c, taps, h, w)
    )
    return out.reshape(weights.shape[0], h, w), cache


def im2col(x: np.ndarray, k: int) -> np.ndarray:
    """(C*k*k, out_h*out_w) columns of every k x k window, rows in (c,i,j) order."""
    win = sliding_window_view(x, (k, k), axis=(1, 2))  # (C, oh, ow, k, k)
    c, oh, ow = win.shape[:3]
    return win.transpose(0, 3, 4, 1, 2).reshape(c * k * k, oh * ow)


def padded_input(layer, cache) -> np.ndarray:
    """The edge-padded input a conv forward cached, as an ``(in, h + k - 1,
    w + k - 1)`` view of the cache's flat rows."""
    d = layer.weights.shape[2] - 1
    _, h, w = cache.z.shape
    return cache.flat[:, : (h + d) * (w + d)].reshape(-1, h + d, w + d)


def conv_forward_im2col(layer, x: np.ndarray) -> np.ndarray:
    """Pre-activation of a clamp-padded conv as one im2col GEMM."""
    out_ch, _, k, _ = layer.weights.shape
    _, h, w = x.shape
    xp = np.pad(x, ((0, 0), (k // 2,) * 2, (k // 2,) * 2), mode="edge")
    z = (layer.weights.reshape(out_ch, -1) @ im2col(xp, k)).reshape(out_ch, h, w)
    return z + layer.bias[:, None, None]


def conv_backward_im2col(layer, upstream: np.ndarray, x: np.ndarray):
    """(d_input, d_weights, d_bias) of a clamp-padded conv from im2col columns.

    The weight gradient correlates the upstream gradient with the padded
    input's columns; the input gradient is the full correlation of the
    zero-padded upstream gradient with the flipped kernel, with the padded
    border folded back onto the edge pixels.
    """
    out_ch, in_ch, k, _ = layer.weights.shape
    _, h, w = x.shape
    pad = k // 2
    z = conv_forward_im2col(layer, x)
    if layer.activation == "relu":
        dz = upstream * (z > 0.0)
    elif layer.activation == "sigmoid":
        s = sigmoid(z)
        dz = upstream * s * (1.0 - s)
    else:
        dz = upstream
    dz_mat = dz.reshape(out_ch, h * w)
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)), mode="edge")
    d_weights = (dz_mat @ im2col(xp, k).T).reshape(layer.weights.shape)
    dz_full = np.pad(dz, ((0, 0), (k - 1, k - 1), (k - 1, k - 1)))
    w_flip = layer.weights[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(in_ch, -1)
    g_padded = (w_flip @ im2col(dz_full, k)).reshape(in_ch, h + 2 * pad, w + 2 * pad)
    d_input = np.zeros((in_ch, h, w))
    for y in range(h + 2 * pad):
        for x_ in range(w + 2 * pad):
            sy = min(max(y - pad, 0), h - 1)
            sx = min(max(x_ - pad, 0), w - 1)
            d_input[:, sy, sx] += g_padded[:, y, x_]
    return d_input, d_weights, dz_mat.sum(axis=1)


def gather_scatter_one_bincount(
    index: np.ndarray, corner_w: np.ndarray, d_sampled: np.ndarray, h: int, w: int
) -> np.ndarray:
    """(c, h, w) input gradient of the deformable gather as one bincount.

    ``index``/``corner_w`` are the gather cache's ``(4, taps*h*w)`` corners and
    ``d_sampled`` the ``(c, taps*h*w)`` gradient of the bilinear samples; every
    channel's index and weights are copied into one flat scatter.
    """
    c = d_sampled.shape[0]
    idx = (index.ravel() + h * w * np.arange(c)[:, None]).ravel()
    weights = (corner_w * d_sampled[:, None]).ravel()
    return np.bincount(idx, weights=weights, minlength=c * h * w).reshape(c, h, w)


def global_shift_pair(
    size: int = 64, seed: int = 11, shift: tuple[int, int] = (2, 3)
) -> tuple[Frame, Frame]:
    """(reference, current) where current is reference moved by (dx, dy).

    Both frames crop the same oversized texture, so the shift is exact
    everywhere, including what enters at the edges.
    """
    dx, dy = shift
    margin = max(abs(dx), abs(dy)) + 4
    rng = np.random.default_rng(seed)
    base = round_to_uint8(_texture(rng, size + 2 * margin, size + 2 * margin, 20.0, 235.0))
    ref = base[margin : margin + size, margin : margin + size]
    cur = base[margin - dy : margin - dy + size, margin - dx : margin - dx + size]
    return Frame(ref), Frame(cur)


def coords_clear(raw: np.ndarray, dim: int, margin: float = 0.05) -> bool:
    """True when sampling coordinates sit away from every bilinear kink.

    A coordinate is fine if it is saturated well beyond the clamp boundary
    (derivative identically zero on both sides) or comfortably interior and
    away from the integer lattice.
    """
    deep_out = (raw < -margin) | (raw > dim - 1 + margin)
    interior = (raw > margin) & (raw < dim - 1 - margin)
    off_lattice = np.abs(raw - np.round(raw)) > margin
    return bool(np.all(deep_out | (interior & off_lattice)))


# ---------------------------------------------------------------------------
# Shared gradient-check case builders (kink-free by construction/rejection)
# ---------------------------------------------------------------------------

def conv_case(activation, out_ch: int = 2, in_ch: int = 2, k: int = 3):
    from mvcodec.nn import ConvLayer

    def build(rng):
        layer = ConvLayer(
            rng.normal(size=(out_ch, in_ch, k, k)) * 0.7,
            rng.normal(size=out_ch) * 0.3,
            activation,
        )
        x = rng.normal(size=(in_ch, 6, 6))
        upstream = rng.normal(size=(out_ch, 6, 6))
        return layer, x, upstream

    return build


def conv_case_clear(case):
    from mvcodec.nn import conv_forward_cached

    layer, x, _ = case
    if layer.activation != "relu":
        return True
    _, cache = conv_forward_cached(layer, x)
    return float(np.abs(cache.z).min()) > 1e-3


def gather_case(rng):
    # integer part + mid-cell fraction keeps every sampling coordinate at
    # least 0.2 away from the bilinear lattice and the clamp boundaries
    c_in, c_out, h, w, k = 2, 2, 5, 6, 3
    fmap = rng.normal(size=(c_in, h, w))
    shape = (2 * k * k, h, w)
    offsets = rng.integers(-2, 3, shape).astype(float) + rng.uniform(0.2, 0.8, shape)
    weights = rng.normal(size=(c_out, c_in, k, k))
    upstream = rng.normal(size=(c_out, h, w))
    return fmap, offsets, weights, upstream


def gather_case_clear(case):
    fmap, offsets, weights, _ = case
    px, py = tap_coords(3, offsets, fmap.shape[1], fmap.shape[2])
    return coords_clear(px, fmap.shape[2]) and coords_clear(py, fmap.shape[1])


def predictor_case(rng):
    # the out-layer bias pins each offset channel mid-cell; the conv part is
    # scaled small enough that coordinates stay clear of bilinear kinks
    from mvcodec.nn import ConvLayer

    c, hidden_ch, k, h, w = 2, 3, 3, 5, 5
    feat_t = rng.normal(size=(c, h, w))
    feat_prev = rng.normal(size=(c, h, w))
    motion = rng.uniform(-2, 2, (2, h, w))
    out_bias = rng.choice([-1.0, 1.0], 2 * k * k) * rng.uniform(0.3, 0.7, 2 * k * k)
    out_bias += rng.integers(-1, 2, 2 * k * k)
    hidden = ConvLayer(rng.normal(size=(hidden_ch, 2 * c + 2, 3, 3)) * 0.1,
                       rng.normal(size=hidden_ch) * 0.1, "relu")
    out = ConvLayer(rng.normal(size=(2 * k * k, hidden_ch, 3, 3)) * 0.02, out_bias, "none")
    gather_w = rng.normal(size=(c, c, k, k))
    upstream = rng.normal(size=(c, h, w))
    return feat_t, feat_prev, motion, hidden, out, gather_w, upstream


def offset_gather(feat_t, feat_prev, motion, hidden, out, gather_w):
    """One neighbour's alignment as the restorer composes it: the ``hidden``
    and ``out`` convs predict offsets from ``concat(feat_t, feat_prev,
    motion)``, and the gather samples ``feat_prev`` with them.

    Returns the aligned map and the caches of both convs and the gather.
    """
    from mvcodec.alignment import deformable_gather_cached
    from mvcodec.nn import conv_forward_cached

    hidden_map, hidden_cache = conv_forward_cached(
        hidden, np.concatenate([feat_t, feat_prev, motion])
    )
    offsets, out_cache = conv_forward_cached(out, hidden_map)
    aligned, gather_cache = deformable_gather_cached(feat_prev, offsets, gather_w)
    return aligned, (hidden_cache, out_cache, gather_cache)


def offset_gather_backward(upstream, hidden, out, gather_w, caches):
    """Gradients of :func:`offset_gather` from the caches it returned:
    ``(d_feat_t, d_feat_prev, d_gather_w, (dw_hidden, db_hidden, dw_out,
    db_out))``."""
    from mvcodec.alignment import deformable_gather_backward
    from mvcodec.nn import conv_backward

    hidden_cache, out_cache, gather_cache = caches
    d_prev, d_offsets, d_gather_w = deformable_gather_backward(upstream, gather_w, gather_cache)
    d_hidden, dw_out, db_out = conv_backward(out, d_offsets, out_cache)
    d_cat, dw_hidden, db_hidden = conv_backward(hidden, d_hidden, hidden_cache)
    c = d_prev.shape[0]
    return d_cat[:c], d_prev + d_cat[c : 2 * c], d_gather_w, (dw_hidden, db_hidden, dw_out, db_out)


def predictor_case_clear(case):
    feat_t = case[0]
    _, (hidden_cache, out_cache, _) = offset_gather(*case[:6])
    if np.abs(hidden_cache.z).min() < 1e-3:
        return False
    # the offset conv is linear, so its pre-activation is the offset field;
    # parameter perturbations of size h move the coordinates by O(h * |x|),
    # far less than the 0.05 kink margin coords_clear demands
    px, py = tap_coords(3, out_cache.z, feat_t.shape[1], feat_t.shape[2])
    return coords_clear(px, feat_t.shape[2]) and coords_clear(py, feat_t.shape[1])


def fuse_case(rng, c=2, h=6, w=6):
    fv = rng.normal(size=(c, h, w))
    fa = rng.normal(size=(c, h, w))
    fl = rng.normal(size=(c, h, w))
    ma = rng.uniform(0.05, 0.95, (1, h, w))
    ml = rng.uniform(0.05, 0.95, (1, h, w))
    return fv, fa, fl, ma, ml
