"""Toy differentiable restorer driven by decoded frames and codec priors.

The network aligns a window of decoded frames to its center frame (motion
warp plus learned deformable sampling), extracts features from two groups of
codec-prior planes, gates those with sigmoid spatial attention maps, fuses
everything, and predicts a residual added to the center decoded frame.  With
all-zero parameters it is exactly the identity on the decoded frame.

The codec planes (prediction, residual, QP) come from :func:`build_aux_planes`;
the forward builds the structure planes (motion magnitude, leaf size) from the
motion planes it rasterizes for the warp.

There is one architecture: its shape is the module constants (``HALF_WINDOW``,
``CHANNELS``, ``KERNEL_SIZE``, ``OFFSET_HIDDEN``, ``ATTN_KERNEL``), its
parameter tensors are :data:`SCHEDULE`, and a model file's header is the one
byte string :data:`MODEL_HEADER` that records them; any other header is
rejected.  The parameters are one float64 vector in :data:`SCHEDULE` order,
whose tensors :func:`param_views` names; a gradient, Adam's moments and a
model file's payload are vectors of that layout.

All layers are plain numpy with hand-written gradients.  The model is a
composition of the units the test suite checks against finite differences:
the conv layers (the offset predictor, each attention map and the fusion
convs among them), the deformable gather and the attention gating.  Each
unit's backward reads only its upstream gradient, its parameters and the
cache its forward returned, so training runs exactly the checked code.

:class:`TrainConfig` holds the loop settings of :func:`train_restorer` (batch
size, iterations, seed); Adam's hyper-parameters are ``nn`` constants.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .alignment import (
    GatherCache,
    deformable_gather_backward,
    deformable_gather_cached,
    rasterize_motion,
    warp_mv,
    warp_mv_backward,
)
from .backproject import back_project_frame
from .codec import SideInfo, residual_plane
from .frames import MACROBLOCK, Frame, write_atomic
from .nn import (
    ConvCache,
    ConvLayer,
    adam_init,
    adam_step,
    conv_backward,
    conv_forward_cached,
    l1_loss,
)
from .transform import QP_MAX, round_to_uint8

MODEL_MAGIC = b"MVDR"
MODEL_VERSION = 1

# prior-plane normalization constants
MV_NORM = 16.0
SIZE_NORM = 16.0
QP_NORM = float(QP_MAX)
PIXEL_NORM = 255.0

AUX_CODEC_CHANNELS = 3  # prediction, residual, qp
AUX_STRUCT_CHANNELS = 2  # |mv|, leaf size

# the one architecture: windows of WINDOW decoded frames, CHANNELS feature
# channels, KERNEL_SIZE x KERNEL_SIZE convs and gather, an OFFSET_HIDDEN-channel
# offset predictor and ATTN_KERNEL x ATTN_KERNEL attention convs
HALF_WINDOW = 2
WINDOW = 2 * HALF_WINDOW + 1
CHANNELS = 8
KERNEL_SIZE = 3
OFFSET_HIDDEN = 8
ATTN_KERNEL = 7


# ---------------------------------------------------------------------------
# Codec prior planes
# ---------------------------------------------------------------------------

def build_aux_planes(side: SideInfo) -> np.ndarray:
    """Normalized ``(3, H, W)`` codec planes of a frame: prediction, residual, QP."""
    return np.stack([
        side.prediction.as_float() / PIXEL_NORM,
        residual_plane(side.levels, side.sizes, side.qp) / PIXEL_NORM,
        np.full(side.sizes.shape, side.qp / QP_NORM),
    ])


# ---------------------------------------------------------------------------
# Attention gating
# ---------------------------------------------------------------------------

def fuse(
    fv: np.ndarray, fa: np.ndarray, fl: np.ndarray, ma: np.ndarray, ml: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gate the two auxiliary feature groups: the channel groups
    ``(fv, fa * ma, fl * ml)`` that the fusion conv reads as one stack."""
    if ma.shape != (1,) + fa.shape[1:] or ml.shape != (1,) + fl.shape[1:]:
        raise ValueError("attention maps must be (1, h, w) matching the features")
    return fv, fa * ma, fl * ml


def fuse_backward(
    upstream: np.ndarray,
    fv: np.ndarray,
    fa: np.ndarray,
    fl: np.ndarray,
    ma: np.ndarray,
    ml: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Gradients ``(d_fv, d_fa, d_fl, d_ma, d_ml)`` of :func:`fuse` at the
    same inputs; ``upstream`` is the gradient of its groups' stack."""
    cv, ca = fv.shape[0], fa.shape[0]
    d_fv = upstream[:cv]
    d_fa = upstream[cv : cv + ca] * ma
    d_fl = upstream[cv + ca :] * ml
    d_ma = (upstream[cv : cv + ca] * fa).sum(axis=0, keepdims=True)
    d_ml = (upstream[cv + ca :] * fl).sum(axis=0, keepdims=True)
    return d_fv, d_fa, d_fl, d_ma, d_ml


# ---------------------------------------------------------------------------
# Model definition
# ---------------------------------------------------------------------------

@dataclass
class RestorerModel:
    """The parameter ``vector`` of the one architecture, and ``params``, its
    views by :data:`SCHEDULE` name.  Edit a view in place (``params[name] *=
    3.0``); an array bound to a name in its place is not part of ``vector``.
    """

    vector: np.ndarray  # (PARAM_COUNT,) float64
    params: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.params = param_views(self.vector)

    def layer(self, name: str, activation: str) -> ConvLayer:
        return ConvLayer(self.params[f"{name}.w"], self.params[f"{name}.b"], activation)


def model_schedule() -> tuple[tuple[str, tuple[int, ...]], ...]:
    """Ordered (name, shape) schedule for every parameter tensor."""
    c = CHANNELS
    sched: list[tuple[str, tuple[int, ...]]] = []

    def conv(name: str, out_ch: int, in_ch: int, ksize: int = KERNEL_SIZE) -> None:
        sched.append((f"{name}.w", (out_ch, in_ch, ksize, ksize)))
        sched.append((f"{name}.b", (out_ch,)))

    conv("feat", c, 1)
    conv("off_hidden", OFFSET_HIDDEN, 2 * c + 2)
    conv("off_out", 2 * KERNEL_SIZE * KERNEL_SIZE, OFFSET_HIDDEN)
    sched.append(("gather.w", (c, c, KERNEL_SIZE, KERNEL_SIZE)))
    conv("vmix", c, WINDOW * c)
    conv("vres", c, c)
    conv("auxa1", c, AUX_CODEC_CHANNELS)
    conv("auxa2", c, c)
    conv("auxl1", c, AUX_STRUCT_CHANNELS)
    conv("auxl2", c, c)
    conv("attn_a", 1, 2 * c, ATTN_KERNEL)
    conv("attn_l", 1, 2 * c, ATTN_KERNEL)
    conv("agg1", c, 3 * c)
    conv("agg2", c, c)
    conv("rec1", c, c)
    conv("rec2", 1, c)
    return tuple(sched)


SCHEDULE = model_schedule()
PARAM_COUNT = sum(math.prod(shape) for _, shape in SCHEDULE)

# the model file header: the architecture and its schedule as canonical JSON
MODEL_HEADER = json.dumps(
    {
        "half_window": HALF_WINDOW,
        "channels": CHANNELS,
        "kernel_size": KERNEL_SIZE,
        "offset_hidden": OFFSET_HIDDEN,
        "attn_kernel": ATTN_KERNEL,
        "schedule": [[name, list(shape)] for name, shape in SCHEDULE],
    },
    sort_keys=True,
    separators=(",", ":"),
).encode("utf-8")


def param_views(vector: np.ndarray) -> dict[str, np.ndarray]:
    """Every tensor of :data:`SCHEDULE` as a view of a parameter-layout vector."""
    if vector.dtype != np.float64 or vector.shape != (PARAM_COUNT,):
        raise ValueError(f"a parameter vector is {PARAM_COUNT} float64 values")
    ends = np.cumsum([math.prod(shape) for _, shape in SCHEDULE])
    parts = np.split(vector, ends[:-1])
    return {name: part.reshape(shape) for (name, shape), part in zip(SCHEDULE, parts)}


def init_restorer(seed: int = 1) -> RestorerModel:
    """Seeded initialization: weights uniform(-a, a) with a = 1/sqrt(fan_in)."""
    rng = np.random.default_rng(seed)
    model = RestorerModel(np.zeros(PARAM_COUNT))
    for name, shape in SCHEDULE:
        if name.endswith(".w"):
            a = 1.0 / np.sqrt(math.prod(shape[1:]))
            model.params[name][...] = rng.uniform(-a, a, shape)
    return model


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

def _check_window(window: list[Frame], side: SideInfo) -> None:
    if len(window) != WINDOW:
        raise ValueError(f"window must hold {WINDOW} frames, got {len(window)}")
    h, w = side.prediction.height, side.prediction.width
    for f in window:
        if f.height != h or f.width != w:
            raise ValueError("window frames must match the coded frame dimensions")


def restorer_forward_cached(
    window: list[Frame],
    side: SideInfo,
    aux: np.ndarray,
    model: RestorerModel,
    *,
    _record: bool = True,
) -> tuple[np.ndarray, dict]:
    """Forward pass returning the raw real-valued frame and the cache.

    ``aux`` holds the codec planes of :func:`build_aux_planes`; the structure
    planes come from the motion planes this pass rasterizes for the warp.

    The cache keeps what each unit's backward reads, so
    :func:`restorer_backward` feeds each backward its upstream gradient, its
    parameters and that cache.  ``cache["convs"]`` maps a key to
    ``(param name, ConvLayer, ConvCache)`` for every conv: ``feat{j}`` per
    window frame, ``off_hidden{j}`` and ``off_out{j}`` per neighbour frame,
    and each other layer under its own name.  ``cache["neighbors"]`` holds
    one ``(j, gather cache)`` per neighbour frame, and ``cache["gates"]`` the
    inputs of :func:`fuse`.

    Each distinct window frame is worked on once.  At a sequence edge
    :func:`padded_window` repeats the first or last frame object: a repeat
    of an earlier window frame shares its ``feat`` conv, and a repeat of an
    earlier neighbour shares its warp, offset convs and gather.  Repeats are
    recorded under their own keys with the shared caches (``feat{j}``,
    ``off_hidden{j}``, ``off_out{j}`` and ``(j, gather cache)``); every
    backward only reads its cache, so :func:`restorer_backward` treats a
    repeat like any other entry.

    :func:`restorer_forward` runs this same composition with ``_record``
    false: the conv registry and the neighbour list then stay empty, so each
    unit's cache is freed as soon as the unit returns, the gather runs in
    row bands and keeps no cache, and the returned cache is empty.
    """
    _check_window(window, side)
    n = HALF_WINDOW
    convs: dict[str, tuple[str, ConvLayer, ConvCache]] = {}

    def conv(
        name: str, activation: str, *groups: np.ndarray, key: str | None = None
    ) -> np.ndarray:
        layer = model.layer(name, activation)
        y, cc = conv_forward_cached(layer, *groups)
        if _record:
            convs[key or name] = (name, layer, cc)
        return y

    first = [window.index(f) for f in window]  # Frame compares by identity
    feats = []
    for j, f in enumerate(window):
        if first[j] < j:
            feats.append(feats[first[j]])
            if _record:
                convs[f"feat{j}"] = convs[f"feat{first[j]}"]
        else:
            feats.append(conv("feat", "relu", (f.as_float() / PIXEL_NORM)[None], key=f"feat{j}"))
    mv_planes = rasterize_motion(side)
    gather_w = model.params["gather.w"]
    gathers: dict[int, GatherCache] = {}  # neighbour -> gather cache
    aligned: dict[int, int] = {}  # first equal frame -> the neighbour aligning it
    slots = list(feats)
    for j in range(WINDOW):
        if j == n:
            continue
        i = aligned.setdefault(first[j], j)
        if i < j:
            slots[j] = slots[i]
            if _record:
                gathers[j] = gathers[i]
                for name in ("off_hidden", "off_out"):
                    convs[f"{name}{j}"] = convs[f"{name}{i}"]
            continue
        warped = warp_mv(feats[j], mv_planes)
        # nested, so the hidden map dies before the gather
        offsets = conv("off_out", "none", conv(
            "off_hidden", "relu", feats[n], warped, mv_planes, key=f"off_hidden{j}",
        ), key=f"off_out{j}")
        slots[j], gather_cache = deformable_gather_cached(warped, offsets, gather_w, _record)
        if _record:
            gathers[j] = gather_cache
        # the offsets and the warped map die here unless the cache keeps
        # them, before the next neighbour builds its own
        del gather_cache, offsets, warped

    fv = conv("vmix", "relu", *slots)
    # the window's features are dead once vmix has read them
    del feats, slots
    fv = conv("vres", "relu", fv)
    structure = np.stack([np.hypot(*mv_planes) / MV_NORM, side.sizes / SIZE_NORM])
    fa = conv("auxa2", "relu", conv("auxa1", "relu", aux))
    fl = conv("auxl2", "relu", conv("auxl1", "relu", structure))
    ma = conv("attn_a", "sigmoid", fv, fa)
    ml = conv("attn_l", "sigmoid", fv, fl)
    fused = conv("agg2", "relu", conv("agg1", "relu", *fuse(fv, fa, fl, ma, ml)))

    resid = conv("rec2", "none", conv("rec1", "relu", fused))
    out = window[n].as_float() + PIXEL_NORM * resid[0]
    if not _record:
        return out, {}
    return out, {
        "mv_planes": mv_planes,
        "convs": convs,
        "neighbors": list(gathers.items()),
        "gates": (fv, fa, fl, ma, ml),
    }


def restorer_forward(
    window: list[Frame],
    side: SideInfo,
    aux: np.ndarray,
    model: RestorerModel,
) -> np.ndarray:
    """Restored frame as unrounded reals (candidate for back projection).

    The same composition as :func:`restorer_forward_cached`, keeping no
    cache, since inference runs no backward.
    """
    return restorer_forward_cached(window, side, aux, model, _record=False)[0]


def restorer_backward(d_out: np.ndarray, cache: dict, model: RestorerModel) -> np.ndarray:
    """Parameter gradient of a cached forward pass, laid out as ``model.vector``."""
    n = HALF_WINDOW
    c = CHANNELS
    grad = np.zeros(PARAM_COUNT)
    grads = param_views(grad)

    def conv_back(key: str, up: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        name, layer, cc = cache["convs"][key]
        dx, dw, db = conv_backward(layer, up, cc, input_grad=input_grad)
        grads[f"{name}.w"] += dw
        grads[f"{name}.b"] += db
        return dx

    d_resid = PIXEL_NORM * np.asarray(d_out, dtype=np.float64)[None]
    d_gated = conv_back("agg1", conv_back("agg2", conv_back("rec1", conv_back("rec2", d_resid))))
    d_fv, d_fa, d_fl, d_ma, d_ml = fuse_backward(d_gated, *cache["gates"])

    d_cat_a = conv_back("attn_a", d_ma)
    d_cat_l = conv_back("attn_l", d_ml)
    d_fv = d_fv + d_cat_a[:c] + d_cat_l[:c]
    # the inputs of feat, auxa1 and auxl1 are pixels and prior planes
    conv_back("auxa1", conv_back("auxa2", d_fa + d_cat_a[c:]), input_grad=False)
    conv_back("auxl1", conv_back("auxl2", d_fl + d_cat_l[c:]), input_grad=False)
    d_stacked = conv_back("vmix", conv_back("vres", d_fv))

    gather_w = model.params["gather.w"]
    d_feats = [np.zeros_like(d_stacked[:c]) for _ in range(WINDOW)]
    d_feats[n] += d_stacked[n * c : (n + 1) * c]
    for j, gather_cache in cache["neighbors"]:
        d_warped, d_offsets, dw_gather = deformable_gather_backward(
            d_stacked[j * c : (j + 1) * c], gather_w, gather_cache
        )
        grads["gather.w"] += dw_gather
        d_cat = conv_back(f"off_hidden{j}", conv_back(f"off_out{j}", d_offsets))
        d_feats[n] += d_cat[:c]
        d_feats[j] += warp_mv_backward(d_warped + d_cat[c : 2 * c], cache["mv_planes"])

    for j, d_feat in enumerate(d_feats):
        conv_back(f"feat{j}", d_feat, input_grad=False)
    return grad


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

class TrainSample(NamedTuple):
    window: list[Frame]
    side: SideInfo
    aux: np.ndarray  # codec planes of build_aux_planes
    target: Frame


def padded_window(frames: list[Frame], center: int, half: int) -> list[Frame]:
    """Sliding window with edge frames repeated at the sequence boundary."""
    count = len(frames)
    return [frames[min(max(center + d, 0), count - 1)] for d in range(-half, half + 1)]


def crop_side_info(side: SideInfo, tile: tuple[slice, slice]) -> SideInfo:
    """Side information restricted to a macroblock-aligned crop.

    ``tile`` is the crop's row and column slices, each with an explicit start
    and stop.  Partition leaves never straddle macroblock boundaries, so the
    planes of a macroblock-aligned crop inside the frame are a valid tiling of
    whole leaves.
    """
    bounds = [(axis.start, axis.stop) for axis in tile]
    if any(edge % MACROBLOCK for edges in bounds for edge in edges):
        raise ValueError(f"crops must be {MACROBLOCK}-aligned")
    if not all(0 <= start and stop <= n for (start, stop), n in zip(bounds, side.sizes.shape)):
        raise ValueError("crop must fit inside the frame")
    return SideInfo(
        qp=side.qp,
        sizes=side.sizes[tile],
        motion=side.motion[(slice(None), *tile)],
        intra=side.intra[tile],
        prediction=Frame(side.prediction.pixels[tile]),
        levels=side.levels[tile],
    )


def build_training_samples(
    originals: list[Frame],
    decoded: list[Frame],
    sides: list[SideInfo],
    half_window: int,
    crop: int | None = None,
) -> list[TrainSample]:
    """Training tuples for a coded sequence, one per frame and tile.

    With ``crop`` set, the tiles are the macroblock-aligned ``crop`` x
    ``crop`` tiles of the frame; smaller tiles keep the training loop fast
    without changing any of the restorer semantics.  Without it, the one
    tile is the whole frame.  A frame's codec planes are built once and
    sliced per tile: an aligned crop covers whole leaves, so its planes equal
    that crop of the frame's.  Each decoded frame is cropped once per tile,
    and every window of a tile is a :func:`padded_window` of that tile's
    crops, so a window repeats a crop as the same object.
    """
    if not (len(originals) == len(decoded) == len(sides)):
        raise ValueError("originals, decoded and side info must have equal lengths")
    if not decoded:
        return []
    height, width = decoded[0].height, decoded[0].width
    rows, cols = (height, width) if crop is None else (crop, crop)
    if rows % MACROBLOCK or cols % MACROBLOCK or not (0 < rows <= height and 0 < cols <= width):
        raise ValueError(f"crop must be positive, {MACROBLOCK}-aligned and fit inside the frame")
    tiles = [
        (slice(y0, y0 + rows), slice(x0, x0 + cols))
        for y0 in range(0, height - rows + 1, rows)
        for x0 in range(0, width - cols + 1, cols)
    ]
    crops = [[Frame(f.pixels[tile]) for f in decoded] for tile in tiles]
    samples = []
    for t in range(len(decoded)):
        aux = build_aux_planes(sides[t])
        for tile, tile_frames in zip(tiles, crops):
            samples.append(TrainSample(
                padded_window(tile_frames, t, half_window),
                crop_side_info(sides[t], tile),
                aux[(slice(None), *tile)],
                Frame(originals[t].pixels[tile]),
            ))
    return samples


@dataclass(frozen=True)
class TrainConfig:
    """Loop settings of :func:`train_restorer`; Adam's are ``nn`` constants."""

    batch_size: int = 2
    iterations: int = 2000
    seed: int = 1

    def __post_init__(self):
        if self.batch_size < 1 or self.iterations < 0:
            raise ValueError("batch size must be >= 1 and iterations >= 0")


def train_restorer(
    dataset: list[TrainSample], config: TrainConfig
) -> tuple[RestorerModel, list[float]]:
    """Seeded, deterministic mini-batch Adam on L1 loss from ``init_restorer``;
    a batch loss that is not finite raises ``FloatingPointError``."""
    if not dataset:
        raise ValueError("training dataset is empty")
    model = init_restorer(seed=config.seed)
    # epoch permutations, concatenated and chunked into batches: a fixed
    # seed-derived order whose windows mix samples evenly (smooth loss trace)
    rng = np.random.default_rng(config.seed)
    need = config.iterations * config.batch_size
    epochs = math.ceil(need / len(dataset))
    order = np.array([rng.permutation(len(dataset)) for _ in range(epochs)], dtype=np.intp)
    batch_schedule = order.reshape(-1)[:need].reshape(config.iterations, config.batch_size)
    state = adam_init(model.vector)
    losses: list[float] = []
    for it in range(config.iterations):
        grads = np.zeros(PARAM_COUNT)
        loss_sum = 0.0
        for idx in batch_schedule[it]:
            sample = dataset[int(idx)]
            out, cache = restorer_forward_cached(
                sample.window, sample.side, sample.aux, model
            )
            sample_loss, upstream = l1_loss(out, sample.target.as_float())
            loss_sum += sample_loss
            grads += restorer_backward(upstream, cache, model)
            # one sample's cache alive at a time
            del out, cache
        loss = loss_sum / config.batch_size
        if not np.isfinite(loss):
            raise FloatingPointError(f"loss became non-finite at iteration {it}")
        losses.append(loss)
        grads /= config.batch_size
        adam_step(model.vector, grads, state)
    return model, losses


# ---------------------------------------------------------------------------
# Inference pipeline
# ---------------------------------------------------------------------------

def restore_sequence(
    decoded: list[Frame],
    sides: list[SideInfo],
    model: RestorerModel,
    back_projection: bool = True,
) -> list[Frame]:
    """Restore every frame of a decoded sequence (sliding padded window).

    Raises ``FloatingPointError`` if the model's output for a frame is not finite.
    """
    if len(decoded) != len(sides):
        raise ValueError("decoded frames and side info must have equal lengths")
    restored = []
    for t, side in enumerate(sides):
        window = padded_window(decoded, t, HALF_WINDOW)
        aux = build_aux_planes(side)
        candidate = restorer_forward(window, side, aux, model)
        if not np.isfinite(candidate).all():
            raise FloatingPointError(f"restored frame {t} is not finite")
        if back_projection:
            restored.append(back_project_frame(candidate, side))
        else:
            restored.append(Frame(round_to_uint8(candidate)))
    return restored


# ---------------------------------------------------------------------------
# Model file I/O
# ---------------------------------------------------------------------------

def save_model(model: RestorerModel, path) -> None:
    """Write magic, version, :data:`MODEL_HEADER`, then the parameter vector
    as little-endian f64."""
    header = MODEL_MAGIC + struct.pack("<HI", MODEL_VERSION, len(MODEL_HEADER)) + MODEL_HEADER
    write_atomic(path, header + model.vector.astype("<f8").tobytes())


def load_model(path) -> RestorerModel:
    """Read a model file; any malformed content, a header other than
    :data:`MODEL_HEADER` or a non-finite parameter included, raises
    ``ValueError``."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MODEL_MAGIC:
            raise ValueError(f"not a restorer model file (magic {magic!r})")
        preamble = fh.read(6)
        if len(preamble) != 6:
            raise ValueError("model file truncated in its preamble")
        version, hlen = struct.unpack("<HI", preamble)
        if version != MODEL_VERSION:
            raise ValueError(f"unsupported model version {version}")
        # the length is checked first, so a huge declared length reads nothing
        if hlen != len(MODEL_HEADER) or fh.read(hlen) != MODEL_HEADER:
            raise ValueError("model header is not the restorer architecture's")
        # one byte past the vector, so a longer file shows
        payload = fh.read(8 * PARAM_COUNT + 1)
    if len(payload) < 8 * PARAM_COUNT:
        raise ValueError("model file truncated in its parameters")
    if len(payload) > 8 * PARAM_COUNT:
        raise ValueError("trailing bytes after model parameters")
    model = RestorerModel(np.frombuffer(payload, "<f8", count=PARAM_COUNT).astype(np.float64))
    for name, p in model.params.items():
        if not np.isfinite(p).all():
            raise ValueError(f"model parameter {name!r} is not finite")
    return model
