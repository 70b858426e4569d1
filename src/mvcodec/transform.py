"""Orthonormal block DCT, scalar quantization, and quantization-interval bounds.

Residual blocks are transformed with the orthonormal 2-D DCT-II, quantized
with a single flat step per QP, and every level comes with the half-step
interval that is guaranteed to contain the original coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

BLOCK_SIZES = (4, 8)
QP_MIN = 0
QP_MAX = 51
LEVEL_LIMIT = 32767  # levels must stay representable in signed 16 bits

# One sixth-octave of step residuals; scaling by exact powers of two keeps
# step(qp + 6) == 2 * step(qp) bit-exact.
_STEP_RESIDUALS = tuple(2.0 ** ((m - 4) / 6.0) for m in range(6))


def quant_step(qp: int) -> float:
    """Quantization step for a QP: 2**((qp - 4) / 6), doubling every 6 QP."""
    if not QP_MIN <= qp <= QP_MAX:
        raise ValueError(f"qp {qp} outside [{QP_MIN}, {QP_MAX}]")
    return _STEP_RESIDUALS[qp % 6] * float(2 ** (qp // 6))


@dataclass(frozen=True)
class QuantTable:
    """Flat scalar quantizer derived from a QP."""

    qp: int

    def __post_init__(self):
        quant_step(self.qp)  # range check

    @property
    def step(self) -> float:
        return quant_step(self.qp)


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest integer with ties away from zero."""
    x = np.asarray(x, dtype=np.float64)
    return np.trunc(x + np.copysign(0.5, x))


def round_to_uint8(x: np.ndarray) -> np.ndarray:
    """8-bit samples: rounded half away from zero, clipped to [0, 255]."""
    return np.clip(round_half_away(x), 0, 255).astype(np.uint8)


@lru_cache(maxsize=None)
def _dct_basis(size: int) -> np.ndarray:
    n = np.arange(size)
    k = n[:, None]
    basis = np.cos(math.pi * (2 * n[None, :] + 1) * k / (2.0 * size))
    basis[0] *= math.sqrt(1.0 / size)
    basis[1:] *= math.sqrt(2.0 / size)
    basis.setflags(write=False)
    return basis


def _check_block(block: np.ndarray, what: str) -> np.ndarray:
    block = np.asarray(block, dtype=np.float64)
    if block.ndim < 2 or block.shape[-2] != block.shape[-1]:
        raise ValueError(f"{what} must be square blocks (..., n, n), got {block.shape}")
    if block.shape[-1] not in BLOCK_SIZES:
        raise ValueError(f"unsupported block size {block.shape[-1]} (need 4 or 8)")
    return block


def dct2d(block: np.ndarray) -> np.ndarray:
    """Forward orthonormal 2-D DCT-II of a 4x4 or 8x8 block, or a stack of them.

    A ``(..., n, n)`` stack is transformed block by block with one stacked
    matmul, which gives each block the same bits as transforming it alone.
    """
    block = _check_block(block, "block")
    c = _dct_basis(block.shape[-1])
    return c @ block @ c.T


def idct2d(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`dct2d`, for one block or a ``(..., n, n)`` stack."""
    coeffs = _check_block(coeffs, "coefficients")
    c = _dct_basis(coeffs.shape[-1])
    return c.T @ coeffs @ c


def quantize(coeffs: np.ndarray, table: QuantTable) -> np.ndarray:
    """Quantize coefficients to integer levels: round(c / step), ties away from zero.

    A level is nudged by one when float rounding of the quotient would leave
    the coefficient outside [(level - 0.5) * step, (level + 0.5) * step], so
    the interval :func:`coeff_bounds` builds from the level always holds it.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("coefficients must be finite")
    step = table.step
    levels = round_half_away(coeffs / step)
    levels += (coeffs > (levels + 0.5) * step).astype(np.float64)
    levels -= (coeffs < (levels - 0.5) * step).astype(np.float64)
    if np.any(np.abs(levels) > LEVEL_LIMIT):
        raise ValueError(
            f"quantized level exceeds signed 16-bit range at qp={table.qp}"
        )
    return levels.astype(np.int32)


def dequantize(levels: np.ndarray, table: QuantTable) -> np.ndarray:
    """Reconstruct coefficients as level * step."""
    levels = np.asarray(levels)
    return levels.astype(np.float64) * table.step


def coeff_bounds(levels: np.ndarray, table: QuantTable) -> tuple[np.ndarray, np.ndarray]:
    """Half-step interval ``(lower, upper)`` around every quantization level.

    ``lower`` and ``upper`` are ``(levels -/+ 0.5) * step``, the float
    expressions of the containment check inside :func:`quantize`, so every
    coefficient that quantized to a level lies inside its interval exactly.
    """
    step = table.step
    return (levels - 0.5) * step, (levels + 0.5) * step


# ---------------------------------------------------------------------------
# Zigzag coefficient scan
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def zigzag_indices(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column index arrays visiting a size x size block in zigzag order."""
    order = []
    for s in range(2 * size - 1):
        lo = max(0, s - size + 1)
        hi = min(s, size - 1)
        ii = range(lo, hi + 1) if s % 2 else range(hi, lo - 1, -1)
        order.extend((i, s - i) for i in ii)
    rows = np.array([i for i, _ in order])
    cols = np.array([j for _, j in order])
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def zigzag(block: np.ndarray) -> np.ndarray:
    """Flatten a square block, or each block of a ``(..., n, n)`` stack, in zigzag order."""
    rows, cols = zigzag_indices(block.shape[-1])
    return np.asarray(block)[..., rows, cols]
