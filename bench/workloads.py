"""The benchmark's workloads: seeded inputs, the timed calls and their checks.

Every workload is a closed loop of public ``mvcodec`` entry points, one call
at a time.  Set-up makes all inputs from the workload seed; the timed calls
then run exactly what the ``mvcodec`` CLI runs for the same job.  Calls go
through module attributes (``codec.encode_sequence``, not a local name) so
that the tracer's patches are seen.

The seed picks one of ``VARIANTS`` input variants.  Output checks compare
against values pinned per variant in ``baseline.json``, which
``make_baseline.py`` regenerates.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from mvcodec import codec, fixtures, restorer
from mvcodec.frames import Frame, psnr

VARIANTS = 16
BASELINE_PATH = Path(__file__).resolve().parent / "baseline.json"

# tolerances of the checks that allow float reordering (ROADMAP item 2)
PSNR_TOL_DB = 0.01
LOSS_REL_TOL = 1e-6

RESTORE_QP = 36
TRAIN_QP = 36
TRAIN_HALF_WINDOW = 2


@dataclass(frozen=True)
class Clip:
    """One seeded fixture clip."""

    kind: str  # "texture" (translating texture) or "checker" (deforming checker)
    size: int
    frames: int

    @property
    def label(self) -> str:
        return f"{self.kind}{self.size}"

    def make(self, seed: int) -> list[Frame]:
        if self.kind == "texture":
            return fixtures.translating_texture(self.frames, self.size, seed=seed)
        return fixtures.deforming_checker(self.frames, self.size, seed=seed)


@dataclass(frozen=True)
class Profile:
    """Input sizes of every workload."""

    codec_clips: tuple[Clip, ...]
    codec_qps: tuple[int, ...]
    restore_clips: tuple[Clip, ...]
    train_clip: Clip
    train_crop: int
    train_iters: int


PROFILES = {
    # the measured sizes
    "full": Profile(
        codec_clips=(Clip("texture", 64, 12), Clip("checker", 64, 8), Clip("texture", 256, 3)),
        codec_qps=(16, 36),
        restore_clips=(Clip("texture", 64, 6), Clip("checker", 64, 4), Clip("texture", 128, 2)),
        # the 25-frame training fixture of ``mvcodec.fixtures.write_fixture_tree``
        train_clip=Clip("texture", 64, 25),
        train_crop=32,
        train_iters=8,
    ),
    # smoke-test sizes: every layer still runs, in well under a second
    "tiny": Profile(
        codec_clips=(Clip("texture", 32, 2), Clip("checker", 32, 2), Clip("texture", 48, 2)),
        codec_qps=(16, 36),
        restore_clips=(Clip("texture", 32, 2), Clip("checker", 32, 2), Clip("texture", 48, 1)),
        train_clip=Clip("texture", 32, 2),
        train_crop=16,
        train_iters=1,
    ),
}


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def clip_seed(variant: int, index: int) -> int:
    """Fixture seed of the index-th clip of a workload in a variant."""
    return 1000 * (variant + 1) + index


@dataclass
class Op:
    """One timed call of a workload and the check of its output.

    ``summary`` reduces an output to the value pinned in ``baseline.json``
    under the op's label (a digest, a PSNR or a loss); ``validate`` checks
    what needs no pinned value.  ``stage`` names the user-visible job the
    call does, for the per-stage throughput lines.
    """

    label: str
    stage: str
    pixels: int
    call: Callable[[], object]
    summary: Callable[[object], object]
    validate: Callable[[object], str | None] = lambda output: None
    rel_tol: float = 0.0
    abs_tol: float = 0.0
    pinned: object = None

    def check(self, output) -> str | None:
        """None when the output is right, else the reason it is not."""
        error = self.validate(output)
        if error is not None:
            return f"{self.label}: {error}"
        if self.pinned is None:
            return f"{self.label}: no pinned value in baseline.json"
        got = self.summary(output)
        if isinstance(got, str):
            ok = got == self.pinned
        else:
            ok = math.isclose(got, self.pinned, rel_tol=self.rel_tol, abs_tol=self.abs_tol)
        return None if ok else f"{self.label}: {got!r} is not the pinned {self.pinned!r}"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def frames_sha256(frames: list[Frame]) -> str:
    return sha256(b"".join(f.pixels.tobytes() for f in frames))


def load_pins(profile: str, workload: str, variant: int) -> dict:
    """label -> pinned value for one profile, workload and variant."""
    if not BASELINE_PATH.is_file():
        return {}
    doc = json.loads(BASELINE_PATH.read_text())
    return doc.get(profile, {}).get(workload, {}).get(str(variant), {})


# ---------------------------------------------------------------------------
# codec: encode_sequence, then decode_sequence of its stream, per (clip, QP)
# ---------------------------------------------------------------------------

def codec_items(profile: Profile, variant: int):
    """(label, frames, config) of every (clip, QP) of the codec workload."""
    for i, clip in enumerate(profile.codec_clips):
        frames = clip.make(clip_seed(variant, i))
        for qp in profile.codec_qps:
            yield f"{clip.label}@qp{qp}", frames, codec.CodecConfig(qp=qp)


def setup_codec(profile: Profile, variant: int) -> list[Op]:
    """Two ops per (clip, QP): the encode, then the decode of that stream.

    The decoded frames are checked against the pinned digest of the
    reconstructions ``encode_with_reconstruction`` made on the seed code.
    """
    ops = []
    for label, frames, config in codec_items(profile, variant):
        pixels = frames[0].width * frames[0].height * len(frames)
        stream: dict[str, bytes] = {}

        def encode(frames=frames, config=config, stream=stream):
            stream["data"] = codec.encode_sequence(frames, config)
            return stream["data"]

        def validate(output, count=len(frames)):
            decoded, sides = output
            if len(decoded) != count or len(sides) != count:
                return f"decoded {len(decoded)} frames and {len(sides)} side infos of {count}"
            return None

        ops.append(Op(f"{label}.encode", "encode", pixels, encode, summary=sha256))
        ops.append(Op(
            f"{label}.decode", "decode", pixels,
            call=lambda stream=stream: codec.decode_sequence(stream["data"]),
            summary=lambda output: frames_sha256(output[0]),
            validate=validate,
        ))
    return ops


# ---------------------------------------------------------------------------
# restore: restore_sequence with back projection on decoded QP-36 clips
# ---------------------------------------------------------------------------

def mean_psnr(reference: list[Frame], test: list[Frame]) -> float:
    return float(np.mean([psnr(r, t) for r, t in zip(reference, test)]))


def setup_restore(profile: Profile, variant: int) -> list[Op]:
    model = restorer.init_restorer(seed=variant)
    ops = []
    for i, clip in enumerate(profile.restore_clips):
        originals = clip.make(clip_seed(variant, i))
        decoded, sides = codec.decode_sequence(
            codec.encode_sequence(originals, codec.CodecConfig(qp=RESTORE_QP))
        )

        def validate(output, originals=originals):
            if len(output) != len(originals):
                return f"restored {len(output)} of {len(originals)} frames"
            for t, (frame, ref) in enumerate(zip(output, originals)):
                if frame.pixels.dtype != np.uint8 or frame.pixels.shape != ref.pixels.shape:
                    return f"frame {t} is {frame.pixels.dtype} {frame.pixels.shape}"
            return None

        ops.append(Op(
            label=clip.label,
            stage="restore",
            pixels=clip.size * clip.size * clip.frames,
            call=lambda decoded=decoded, sides=sides: restorer.restore_sequence(
                decoded, sides, model, back_projection=True
            ),
            summary=lambda output, originals=originals: mean_psnr(originals, output),
            validate=validate,
            abs_tol=PSNR_TOL_DB,
        ))
    return ops


# ---------------------------------------------------------------------------
# train: train_restorer runs on the CLI's training dataset
# ---------------------------------------------------------------------------

def setup_train(profile: Profile, variant: int) -> list[Op]:
    clip = profile.train_clip
    originals = clip.make(clip_seed(variant, 0))
    # the dataset exactly as ``mvcodec train`` builds it
    decoded, sides = codec.decode_sequence(
        codec.encode_sequence(originals, codec.CodecConfig(qp=TRAIN_QP))
    )
    samples = restorer.build_training_samples(
        originals, decoded, sides, half_window=TRAIN_HALF_WINDOW, crop=profile.train_crop
    )
    config = restorer.TrainConfig(iterations=profile.train_iters, seed=variant)

    def validate(output):
        _, losses = output
        if len(losses) != config.iterations:
            return f"{len(losses)} losses for {config.iterations} iterations"
        if not all(np.isfinite(losses)):
            return "non-finite loss"
        return None

    return [Op(
        label=f"{clip.label}x{len(samples)}crops",
        stage="train",
        pixels=config.iterations * config.batch_size * profile.train_crop**2,
        call=lambda: restorer.train_restorer(samples, config),
        summary=lambda output: output[1][-1],
        validate=validate,
        rel_tol=LOSS_REL_TOL,
    )]


SETUPS = {
    "codec": setup_codec,
    "restore": setup_restore,
    "train": setup_train,
}
