"""Frame containers, PGM sequence I/O, and full-reference quality metrics.

Everything downstream works on single-channel 8-bit frames whose sides are
multiples of the 16-pixel macroblock grid.  Sequences are exchanged as a
plain-text manifest (header line ``W H FPS``, one frame path per line)
pointing at binary PGM (P5, maxval 255) files.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

MACROBLOCK = 16
SEQUENCE_FPS = 25  # written manifests' frame rate; bitstreams carry none
PSNR_CAP_DB = 99.0

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


class SequenceError(ValueError):
    """Malformed manifest or PGM input, or frames that do not match it."""


@dataclass(frozen=True, eq=False)
class Frame:
    """A single 8-bit luma image on the macroblock grid.

    The pixel array is copied on construction and frozen, so frames are
    immutable values that can be shared freely.
    """

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.dtype != np.uint8:
            raise ValueError(f"frame samples must be uint8, got {px.dtype}")
        if px.ndim != 2:
            raise ValueError(f"frame must be 2-D, got shape {px.shape}")
        h, w = px.shape
        if h == 0 or w == 0 or h % MACROBLOCK or w % MACROBLOCK:
            raise ValueError(
                f"frame dimensions {w}x{h} must be positive multiples of {MACROBLOCK}"
            )
        px = px.copy()
        px.setflags(write=False)
        object.__setattr__(self, "pixels", px)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def as_float(self) -> np.ndarray:
        """Samples as a fresh float64 array."""
        return self.pixels.astype(np.float64)

    def __repr__(self) -> str:
        return f"Frame({self.width}x{self.height})"


def _require_same_dims(a: Frame, b: Frame) -> None:
    if a.width != b.width or a.height != b.height:
        raise ValueError(
            f"frame dimensions differ: {a.width}x{a.height} vs {b.width}x{b.height}"
        )


# ---------------------------------------------------------------------------
# PGM (P5) reading and writing
# ---------------------------------------------------------------------------

def read_pgm(path: Path | str) -> Frame:
    """Read one binary 8-bit grayscale PGM file."""
    path = Path(path)
    data = path.read_bytes()
    tokens = []
    i = 0
    while len(tokens) < 4:
        if i >= len(data):
            raise SequenceError(f"{path}: truncated PGM header")
        c = data[i]
        if c in b" \t\r\n":
            i += 1
        elif c == ord("#"):
            while i < len(data) and data[i] not in b"\r\n":
                i += 1
        else:
            start = i
            while i < len(data) and data[i] not in b" \t\r\n":
                i += 1
            tokens.append(data[start:i])
    if tokens[0] != b"P5":
        raise SequenceError(f"{path}: not a binary PGM (magic {tokens[0]!r})")
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError as exc:
        raise SequenceError(f"{path}: malformed PGM header") from exc
    if maxval != 255:
        raise SequenceError(f"{path}: unsupported maxval {maxval} (need 255)")
    if width <= 0 or height <= 0:
        raise SequenceError(f"{path}: PGM dimensions {width}x{height} are not positive")
    i += 1  # single whitespace byte separates header from raster
    raster = data[i : i + width * height]
    if len(raster) != width * height:
        raise SequenceError(f"{path}: PGM raster shorter than {width}x{height}")
    px = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    try:
        return Frame(px)
    except ValueError as exc:
        raise SequenceError(f"{path}: {exc}") from exc


def write_atomic(path: Path | str, data: bytes) -> None:
    """Write ``data`` to a temp file beside ``path`` and ``os.replace`` it
    there, so ``path`` never holds a partial write."""
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_pgm(path: Path | str, frame: Frame) -> None:
    """Write a frame as canonical binary PGM."""
    header = f"P5\n{frame.width} {frame.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + frame.pixels.tobytes())


# ---------------------------------------------------------------------------
# Manifest handling
# ---------------------------------------------------------------------------

def load_sequence(path: Path | str) -> list[Frame]:
    """Load every frame named by a manifest file (paths relative to it),
    validating dimensions; a manifest that lists no frames is rejected."""
    path = Path(path)
    lines = [ln.strip() for ln in path.read_text().splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise SequenceError(f"{path}: empty manifest (missing 'W H FPS' header)")
    head = lines[0].split()
    if len(head) != 3:
        raise SequenceError(f"{path}: manifest header must be 'W H FPS'")
    try:
        width, height, _ = (int(tok) for tok in head)  # the frame rate goes unused
    except ValueError as exc:
        raise SequenceError(f"{path}: non-integer manifest header") from exc
    if len(lines) == 1:
        raise SequenceError(f"{path}: manifest lists no frames")
    frames = []
    for p in (path.parent / ln for ln in lines[1:]):
        if not p.exists():
            raise FileNotFoundError(f"frame file missing: {p}")
        frame = read_pgm(p)
        if frame.width != width or frame.height != height:
            raise SequenceError(
                f"{p}: dimensions {frame.width}x{frame.height} do not match "
                f"manifest {width}x{height}"
            )
        frames.append(frame)
    return frames


def write_sequence(directory: Path | str, frames: list[Frame]) -> Path:
    """Write frames as PGM files plus a manifest; returns the manifest path.

    Any earlier manifest in ``directory`` is removed first and the new one is
    written last, atomically, so an interrupted write leaves no manifest
    that loads.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if frames:
        width, height = frames[0].width, frames[0].height
        for f in frames[1:]:
            _require_same_dims(frames[0], f)
    else:
        raise ValueError("cannot write an empty sequence (dimensions unknown)")
    manifest = directory / "manifest.txt"
    manifest.unlink(missing_ok=True)
    names = []
    for i, frame in enumerate(frames):
        name = f"frame_{i:04d}.pgm"
        write_pgm(directory / name, frame)
        names.append(name)
    body = f"{width} {height} {SEQUENCE_FPS}\n" + "".join(n + "\n" for n in names)
    write_atomic(manifest, body.encode("ascii"))
    return manifest


# ---------------------------------------------------------------------------
# Quality metrics
# ---------------------------------------------------------------------------

def psnr(a: Frame, b: Frame) -> float:
    """Peak signal-to-noise ratio in dB, capped at 99.0 so reports stay finite."""
    _require_same_dims(a, b)
    diff = a.as_float() - b.as_float()
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(PSNR_CAP_DB, 10.0 * math.log10(255.0**2 / mse))


def _gaussian_window(size: int, sigma: float) -> np.ndarray:
    half = (size - 1) / 2.0
    g = np.exp(-((np.arange(size) - half) ** 2) / (2.0 * sigma**2))
    kern = np.outer(g, g)
    return kern / kern.sum()


def _windowed_mean(img: np.ndarray, kern: np.ndarray) -> np.ndarray:
    win = sliding_window_view(img, kern.shape)
    return np.einsum("hwij,ij->hw", win, kern, optimize=True)


def ssim(a: Frame, b: Frame) -> float:
    """Mean structural similarity with an 11x11 Gaussian window (sigma 1.5)."""
    _require_same_dims(a, b)
    if a.width < SSIM_WINDOW or a.height < SSIM_WINDOW:
        raise ValueError(
            f"frames must be at least {SSIM_WINDOW}x{SSIM_WINDOW} for SSIM"
        )
    x = a.as_float()
    y = b.as_float()
    kern = _gaussian_window(SSIM_WINDOW, SSIM_SIGMA)
    c1 = (SSIM_K1 * 255.0) ** 2
    c2 = (SSIM_K2 * 255.0) ** 2

    mu_x = _windowed_mean(x, kern)
    mu_y = _windowed_mean(y, kern)
    xx = _windowed_mean(x * x, kern) - mu_x * mu_x
    yy = _windowed_mean(y * y, kern) - mu_y * mu_y
    xy = _windowed_mean(x * y, kern) - mu_x * mu_y

    num = (2.0 * mu_x * mu_y + c1) * (2.0 * xy + c2)
    den = (mu_x * mu_x + mu_y * mu_y + c1) * (xx + yy + c2)
    return float(np.mean(num / den))
