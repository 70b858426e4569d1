"""Projection of candidate frames onto the quantization-interval constraint set.

Any real-valued candidate reconstruction of a coded frame implies residual
DCT coefficients relative to the frame's prediction.  Each coefficient of
the original frame is known to lie within half a quantization step of its
coded level, so clamping the candidate's coefficients into those intervals
can only move the candidate closer to the truth (the DCT is orthonormal).

One pass is three frame-wide steps on the levels-plane layout of
:class:`~mvcodec.codec.SideInfo`: one forward transform of the candidate's
residual (:func:`~mvcodec.codec.transform_frame`), one ``np.clip`` of the
coefficient plane against the bounds that :func:`~mvcodec.transform.coeff_bounds`
reads straight from ``SideInfo.levels``, and one inverse transform of the
clamp delta, which is added back in the pixel domain.  Candidates that
already satisfy every bound come back bit-for-bit unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import SideInfo, transform_frame
from .frames import Frame
from .transform import coeff_bounds, dct2d, idct2d, round_to_uint8


@dataclass(frozen=True)
class ProjectionReport:
    """What one projection pass did to the candidate's coefficients."""

    coefficients_clamped: int
    max_clamp_magnitude: float


def _project(candidate: np.ndarray, side: SideInfo):
    """One projection pass: (coefficient clamp delta, projection)."""
    arr = np.asarray(candidate, dtype=np.float64)
    if arr.shape != side.prediction.pixels.shape:
        raise ValueError(
            f"candidate shape {arr.shape} does not match coded frame "
            f"{side.prediction.pixels.shape}"
        )
    coeffs = transform_frame(arr - side.prediction.as_float(), side.sizes, dct2d)
    delta = np.clip(coeffs, *coeff_bounds(side.levels, side.qp)) - coeffs
    return delta, arr + transform_frame(delta, side.sizes, idct2d)


def back_project(candidate: np.ndarray, side: SideInfo) -> np.ndarray:
    """One projection pass; returns the corrected frame as unrounded reals."""
    return _project(candidate, side)[1]


def back_project_frame(candidate: np.ndarray, side: SideInfo) -> Frame:
    """Projection followed by the final rounding and clip to [0, 255]."""
    arr = back_project(candidate, side)
    return Frame(round_to_uint8(arr))


def projection_report(candidate: np.ndarray, side: SideInfo) -> ProjectionReport:
    """Run one projection and summarize the clamping it performed."""
    delta = _project(candidate, side)[0]
    clamped = int(np.count_nonzero(delta))
    max_mag = float(np.abs(delta).max()) if clamped else 0.0
    return ProjectionReport(clamped, max_mag)
