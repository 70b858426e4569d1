"""Seeded synthetic test sequences: no external data needed anywhere.

Two kinds of 64x64 content are generated: a textured patch translating over
a smooth background, and a checkerboard under a slowly deforming warp.  Both
are pure numpy and bit-reproducible for a given seed.

Run ``python -m mvcodec.fixtures OUTDIR`` to dump the bundled sequences.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .frames import Frame, write_sequence
from .transform import round_half_away, round_to_uint8

CHECKER_PERIOD = 8  # cell side of deforming_checker, in pixels
CHECKER_AMPLITUDE = 3.0  # largest displacement of its cell boundaries


def _box_blur(arr: np.ndarray, k: int) -> np.ndarray:
    p = k // 2
    for axis in (0, 1):
        pad = [(p, p) if a == axis else (0, 0) for a in (0, 1)]
        win = sliding_window_view(np.pad(arr, pad, mode="edge"), k, axis=axis)
        arr = win.mean(axis=-1)
    return arr


def _texture(rng: np.random.Generator, h: int, w: int, lo: float, hi: float) -> np.ndarray:
    """Band-limited noise rescaled to [lo, hi]."""
    coarse = _box_blur(_box_blur(rng.uniform(0.0, 1.0, (h, w)), 5), 5)
    fine = _box_blur(rng.uniform(0.0, 1.0, (h, w)), 3)
    mix = 0.6 * coarse + 0.4 * fine
    mix = (mix - mix.min()) / (mix.max() - mix.min())
    return lo + mix * (hi - lo)


def _to_frame(img: np.ndarray) -> Frame:
    return Frame(round_to_uint8(img))


def translating_texture(
    frame_count: int = 12,
    size: int = 64,
    seed: int = 7,
    shift: tuple[int, int] = (1, 1),
    patch: int = 28,
) -> list[Frame]:
    """Textured patch sliding over a low-contrast background."""
    rng = np.random.default_rng(seed)
    background = _texture(rng, size, size, 90.0, 150.0)
    patch_tex = _texture(rng, patch, patch, 20.0, 235.0)
    frames = []
    x0, y0 = 4, 4
    for t in range(frame_count):
        px = min(max(x0 + t * shift[0], 0), size - patch)
        py = min(max(y0 + t * shift[1], 0), size - patch)
        img = background.copy()
        img[py : py + patch, px : px + patch] = patch_tex
        frames.append(_to_frame(img))
    return frames


def deforming_checker(frame_count: int = 8, size: int = 64, seed: int = 3) -> list[Frame]:
    """Checkerboard of CHECKER_PERIOD-pixel cells whose boundaries wobble by
    up to CHECKER_AMPLITUDE pixels over time."""
    rng = np.random.default_rng(seed)
    grain = _texture(rng, size, size, -12.0, 12.0)
    ys, xs = np.mgrid[0:size, 0:size]
    frames = []
    for t in range(frame_count):
        wx = np.sin(2.0 * np.pi * ys / 24.0 + 0.7 * t)
        wy = np.cos(2.0 * np.pi * xs / 24.0 + 0.5 * t)
        wx = round_half_away(CHECKER_AMPLITUDE * wx).astype(int)
        wy = round_half_away(CHECKER_AMPLITUDE * wy).astype(int)
        cells = ((xs + wx) // CHECKER_PERIOD + (ys + wy) // CHECKER_PERIOD) % 2
        img = np.where(cells == 1, 190.0, 60.0) + grain
        frames.append(_to_frame(img))
    return frames


def write_fixture_tree(root: Path | str) -> dict[str, Path]:
    """Dump the bundled sequences plus a training dataset manifest.

    Returns the manifest path of every sequence, keyed by name.
    """
    root = Path(root)
    # 25 training frames -> 100 crop samples: with the default batch size the
    # training epoch is exactly 50 iterations, which keeps 50-iteration loss
    # averages sample-composition-stable
    manifests = {
        "train": write_sequence(root / "train", translating_texture(25, seed=7)),
        "heldout": write_sequence(root / "heldout", translating_texture(12, seed=8)),
        "checker": write_sequence(root / "checker", deforming_checker(8, seed=3)),
    }
    dataset = root / "dataset.txt"
    dataset.write_text(str(manifests["train"].resolve()) + "\n")
    manifests["dataset"] = dataset
    return manifests


if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else "fixtures"
    for name, path in write_fixture_tree(out).items():
        print(f"{name}: {path}")
