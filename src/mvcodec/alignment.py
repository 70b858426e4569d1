"""Motion-guided warping and offset-augmented bilinear gathering.

Feature maps are (channels, height, width) float64 arrays.  An offset field
for a k x k sampling grid has 2*k*k channels: channel 2t is the horizontal
and channel 2t+1 the vertical displacement of tap t, taps in row-major grid
order.  All sampling clamps coordinates to the map; the coordinate gradient
is zero wherever the clamp saturates.  The gather builds its sampling
coordinates, corner indices and weights in place, in the arrays its cache
keeps; a gather that keeps no cache builds them one band of output rows at
a time.

The warp follows the codec's motion convention: a leaf with vector (dx, dy)
reads its content from (x - dx, y - dy) in the map being warped.

The offsets themselves come from two plain conv layers of the restorer
(``off_hidden`` and ``off_out`` in :mod:`mvcodec.restorer`).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .codec import SideInfo, source_index


def _check_map(fmap: np.ndarray) -> np.ndarray:
    fmap = np.asarray(fmap, dtype=np.float64)
    if fmap.ndim != 3:
        raise ValueError(f"feature map must be (channels, h, w), got {fmap.shape}")
    return fmap


# ---------------------------------------------------------------------------
# Motion rasterization and MV-guided warping
# ---------------------------------------------------------------------------

def rasterize_motion(side: SideInfo) -> np.ndarray:
    """Dense (2, H, W) float planes of per-pixel (dx, dy) from the covering leaf."""
    return side.motion.astype(np.float64)


def warp_mv(fmap: np.ndarray, mv_planes: np.ndarray) -> np.ndarray:
    """Read every pixel from the map displaced by its motion vector.

    ``mv_planes`` are the (dx, dy) planes of :func:`rasterize_motion`.
    """
    fmap = _check_map(fmap)
    c, h, w = fmap.shape
    return fmap.reshape(c, h * w)[:, source_index(mv_planes, (h, w))].reshape(c, h, w)


def warp_mv_backward(upstream: np.ndarray, mv_planes: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`warp_mv` (scatter-add along the same index map)."""
    upstream = _check_map(upstream)
    c, h, w = upstream.shape
    idx = (source_index(mv_planes, (h, w)) + h * w * np.arange(c)[:, None]).ravel()
    return np.bincount(idx, weights=upstream.ravel(), minlength=c * h * w).reshape(c, h, w)


# ---------------------------------------------------------------------------
# Deformable gathering
# ---------------------------------------------------------------------------

def kernel_grid(kernel_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Nominal (gx, gy) tap displacements of a k x k grid, row-major."""
    if kernel_size % 2 == 0 or kernel_size < 1:
        raise ValueError("kernel size must be odd and positive")
    half = kernel_size // 2
    ky, kx = np.divmod(np.arange(kernel_size * kernel_size), kernel_size)
    return (kx - half).astype(np.float64), (ky - half).astype(np.float64)


class GatherCache(NamedTuple):
    """All that :func:`deformable_gather_backward` reads of its forward.

    The four bilinear corners of every tap are shared by all channels, so the
    cache holds one flat index and one weight per corner and tap position,
    not the gathered corner values; the backward re-reads those from ``flat``.
    Corner 00 is the floor of the clamped point, capped at ``w - 2`` and
    ``h - 2``, so corners 01, 10 and 11 are always one column, one row and
    both further on (the same pixel along a side of length 1).  ``fx`` and
    ``fy`` are the arrays the forward clamped its coordinates in.
    """

    flat: np.ndarray  # (c, h * w) input map
    index: np.ndarray  # (4, taps * h * w) flat corner indices: 00, 01, 10, 11
    corner_w: np.ndarray  # (4, taps * h * w) bilinear weights of those corners
    fx: np.ndarray  # (taps, h, w) horizontal fraction
    fy: np.ndarray  # (taps, h, w) vertical fraction
    sat_x: np.ndarray  # (taps, h, w) True where the x clamp saturates
    sat_y: np.ndarray  # (taps, h, w) True where the y clamp saturates
    sampled: np.ndarray  # (c, taps, h, w) bilinear samples


# output rows per band of a gather that keeps no cache
GATHER_BAND = 32


def _gather_rows(
    flat: np.ndarray, h: int, w: int, offsets: np.ndarray, wr: np.ndarray, y0: int
) -> tuple[np.ndarray, GatherCache]:
    """Gather output of the rows from ``y0`` that ``offsets`` (``(2 * taps,
    rows, w)``) covers, read from ``flat`` (``(c, h * w)``) with the
    ``(out, c * taps)`` weights ``wr``.

    Returns ``(out, cache)``: the ``(out, rows, w)`` output and the
    :class:`GatherCache` of those rows.
    """
    c = flat.shape[0]
    taps, rows = offsets.shape[0] // 2, offsets.shape[1]
    n = taps * rows * w
    # every tap's sampling point, clamped in place once its saturation is noted
    gx, gy = kernel_grid(math.isqrt(taps))
    px = (np.arange(w, dtype=np.float64) + gx[:, None])[:, None, :] + offsets[0::2]
    py = (np.arange(y0, y0 + rows, dtype=np.float64) + gy[:, None])[:, :, None] + offsets[1::2]
    sat_x = px < 0.0
    sat_x |= px > w - 1.0
    sat_y = py < 0.0
    sat_y |= py > h - 1.0
    np.clip(px, 0.0, w - 1.0, out=px)
    np.clip(py, 0.0, h - 1.0, out=py)
    # corner 00 is the capped floor (see GatherCache); subtracting the floor
    # leaves the fractions in px and py
    index = np.empty((4, n), dtype=np.intp)
    ci = index.reshape(4, taps, rows, w)
    np.floor(py, out=ci[0], casting="unsafe")
    np.minimum(ci[0], max(h - 2, 0), out=ci[0])
    py -= ci[0]
    np.floor(px, out=ci[1], casting="unsafe")
    np.minimum(ci[1], max(w - 2, 0), out=ci[1])
    px -= ci[1]
    ci[0] *= w
    ci[0] += ci[1]
    step_x, step_y = int(w > 1), w * int(h > 1)
    np.add(index[0], step_x, out=index[1])
    np.add(index[0], step_y, out=index[2])
    np.add(index[0], step_x + step_y, out=index[3])
    # bilinear weights; rows 1 and 2 hold 1 - fy and 1 - fx until their
    # products overwrite them
    corner_w = np.empty((4, n))
    cw = corner_w.reshape(4, taps, rows, w)
    np.subtract(1.0, py, out=cw[1])
    np.subtract(1.0, px, out=cw[2])
    np.multiply(cw[2], cw[1], out=cw[0])
    cw[1] *= px
    cw[2] *= py
    np.multiply(px, py, out=cw[3])
    sampled = np.take(flat, index[0], axis=1)
    sampled *= corner_w[0]
    # the other corners go through one channel-sized buffer; every index is
    # in range, and mode="clip" lets take write into it without buffering
    corner = np.empty(n)
    for ch in range(c):
        for k in range(1, 4):
            np.take(flat[ch], index[k], out=corner, mode="clip")
            corner *= corner_w[k]
            sampled[ch] += corner
    out = (wr @ sampled.reshape(c * taps, rows * w)).reshape(-1, rows, w)
    sampled = sampled.reshape(c, taps, rows, w)
    return out, GatherCache(flat, index, corner_w, px, py, sat_x, sat_y, sampled)


def deformable_gather_cached(
    fmap: np.ndarray,
    offsets: np.ndarray,
    weights: np.ndarray,
    _record: bool = True,
) -> tuple[np.ndarray, GatherCache | None]:
    """Convolution whose taps are displaced by per-position offsets.

    With all-zero offsets this is an ordinary cross-correlation with
    clamp-to-edge padding.  ``weights`` is (out_ch, in_ch, k, k) and sets
    the kernel size k; there is no bias term.  Returns ``(output, cache)``;
    the cache is what :func:`deformable_gather_backward` reads.

    The restorer's inference forward passes ``_record`` false: the gather
    then keeps no cache and returns None for it, and it works through
    :data:`GATHER_BAND` output rows at a time, each band with its own
    indices, weights, samples and product, so its working set stays that of
    one band.  The output is bitwise the same either way.
    """
    fmap = _check_map(fmap)
    offsets = np.asarray(offsets, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    c, h, w = fmap.shape
    if weights.ndim != 4 or weights.shape[1:] != (c, weights.shape[2], weights.shape[2]):
        raise ValueError(f"weights must be (out, {c}, k, k), got {weights.shape}")
    k = weights.shape[2]
    taps = k * k
    if offsets.shape != (2 * taps, h, w):
        raise ValueError(
            f"offsets must be ({2 * taps}, {h}, {w}) for kernel {k}, got {offsets.shape}"
        )
    flat = fmap.reshape(c, h * w)
    wr = weights.reshape(weights.shape[0], c * taps)
    if _record:
        return _gather_rows(flat, h, w, offsets, wr, 0)
    out = np.empty((weights.shape[0], h, w))
    for y0 in range(0, h, GATHER_BAND):
        # the band's cache is dropped with the returned tuple
        out[:, y0 : y0 + GATHER_BAND] = _gather_rows(
            flat, h, w, offsets[:, y0 : y0 + GATHER_BAND], wr, y0
        )[0]
    return out, None


def deformable_gather_backward(
    upstream: np.ndarray, weights: np.ndarray, cache: GatherCache
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (d_map, d_offsets, d_weights) of :func:`deformable_gather_cached`.

    ``cache`` is the one that forward returned.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    flat, index, corner_w = cache.flat, cache.index, cache.corner_w
    c, taps, h, w = cache.sampled.shape
    out_ch = weights.shape[0]
    if upstream.shape != (out_ch, h, w):
        raise ValueError(f"upstream must be ({out_ch}, {h}, {w}), got {upstream.shape}")

    up = upstream.reshape(out_ch, h * w)
    wr = weights.reshape(out_ch, c * taps)
    d_weights = (up @ cache.sampled.reshape(c * taps, h * w).T).reshape(weights.shape)
    d_sampled = (wr.T @ up).reshape(c, taps * h * w)

    # input gradient: scatter the four corner weights of every tap, one
    # bincount per channel over the shared corner index
    flat_index = index.ravel()
    weighted = np.empty_like(corner_w)
    d_map = np.empty((c, h * w))
    for ch in range(c):
        np.multiply(corner_w, d_sampled[ch], out=weighted)
        d_map[ch] = np.bincount(flat_index, weights=weighted.ravel(), minlength=h * w)

    # coordinate gradients from the upstream-weighted corner values, zero
    # where the clamp saturates
    a00, a01, a10, a11 = (
        np.einsum("cn,cn->n", d_sampled, np.take(flat, index[k], axis=1)).reshape(taps, h, w)
        for k in range(4)
    )
    fx, fy = cache.fx, cache.fy
    d_px = (1.0 - fy) * (a01 - a00) + fy * (a11 - a10)
    d_py = (1.0 - fx) * (a10 - a00) + fx * (a11 - a01)
    d_px[cache.sat_x] = 0.0
    d_py[cache.sat_y] = 0.0
    d_offsets = np.empty((2 * taps, h, w))
    d_offsets[0::2] = d_px
    d_offsets[1::2] = d_py
    return d_map.reshape(c, h, w), d_offsets, d_weights
