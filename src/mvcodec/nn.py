"""Convolution layers with clamp padding, L1 loss, and a deterministic Adam.

Feature maps are float64 arrays shaped (channels, height, width).  The conv
edge-pads its input and then picks one of two GEMM forms from the layer's
shape.  A layer with fewer output than input channels runs kn2row: one
``(k*k*out, in) @ (in, Hp*Wp)`` product over the padded map, then k*k shifted
adds of its rows (Vasudevan et al. 2017), so no ``in*k*k``-row column buffer
is built.  Every other layer runs im2col + GEMM, which is cheaper when the
shifted adds would outweigh the columns.  :func:`conv_backward` reads only
the upstream gradient, the layer and the cache that :func:`conv_forward_cached`
returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

ACTIVATIONS = ("none", "relu", "sigmoid")


@dataclass
class ConvLayer:
    """Cross-correlation with clamp-to-edge padding plus an activation."""

    weights: np.ndarray  # (out_ch, in_ch, k, k)
    bias: np.ndarray  # (out_ch,)
    activation: str = "none"

    def __post_init__(self):
        if self.weights.ndim != 4 or self.weights.shape[2] != self.weights.shape[3]:
            raise ValueError(f"conv weights must be (out, in, k, k), got {self.weights.shape}")
        if self.weights.shape[2] % 2 == 0:
            raise ValueError("kernel size must be odd")
        if self.bias.shape != (self.weights.shape[0],):
            raise ValueError("bias shape must match output channels")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def kernel_size(self) -> int:
        return self.weights.shape[2]


@dataclass
class ConvCache:
    """All that :func:`conv_backward` reads of its forward.

    ``xp`` is the edge-padded input; the backward builds its im2col columns
    from it, whichever form the forward ran.  ``z`` is the pre-activation.
    """

    xp: np.ndarray  # (in_ch, h + k - 1, w + k - 1)
    z: np.ndarray  # (out_ch, h, w)


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _check_input(layer: ConvLayer, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"feature map must be (channels, h, w), got {x.shape}")
    if x.shape[0] != layer.weights.shape[1]:
        raise ValueError(
            f"input has {x.shape[0]} channels, layer expects {layer.weights.shape[1]}"
        )
    return x


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    """(C*k*k, out_h*out_w) columns of every k x k window, rows in (c,i,j) order."""
    win = sliding_window_view(x, (k, k), axis=(1, 2))  # (C, oh, ow, k, k)
    c, oh, ow = win.shape[:3]
    return win.transpose(0, 3, 4, 1, 2).reshape(c * k * k, oh * ow)


def _edge_pad(x: np.ndarray, pad: int) -> np.ndarray:
    if pad == 0:
        return x
    return np.pad(x, ((0, 0), (pad, pad), (pad, pad)), mode="edge")


def _activate(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return np.maximum(z, 0.0)
    if activation == "sigmoid":
        return sigmoid(z)
    return z


def _kn2row(weights: np.ndarray, xp: np.ndarray, h: int, w: int) -> np.ndarray:
    """Cross-correlation of the padded map as one GEMM plus k*k shifted adds.

    Row ``(i, j, o)`` of the product holds every padded pixel's contribution
    to output channel ``o`` through tap ``(i, j)``.  On rows of stride Wp,
    output pixel ``(y, x)`` reads that row at flat ``(y + i) * Wp + x + j``,
    so each tap is one contiguous slice added at offset ``i * Wp + j``.
    """
    out_ch, in_ch, k, _ = weights.shape
    _, hp, wp = xp.shape
    prod = weights.transpose(2, 3, 0, 1).reshape(k * k * out_ch, in_ch) @ xp.reshape(in_ch, -1)
    prod = prod.reshape(k, k, out_ch, hp * wp)
    span = (h - 1) * wp + w  # last output pixel + 1, on the padded row stride
    acc = np.zeros((out_ch, h * wp))
    for i in range(k):
        for j in range(k):
            start = i * wp + j
            acc[:, :span] += prod[i, j, :, start : start + span]
    return acc.reshape(out_ch, h, wp)[:, :, :w]


def conv_forward_cached(layer: ConvLayer, x: np.ndarray) -> tuple[np.ndarray, ConvCache]:
    """Output feature map (same spatial size as the input) and the
    padded-input/pre-activation cache :func:`conv_backward` reads.

    kn2row when the layer has fewer output than input channels, else im2col.
    """
    x = _check_input(layer, x)
    out_ch, in_ch, k, _ = layer.weights.shape
    _, h, w = x.shape
    xp = _edge_pad(x, k // 2)
    if out_ch < in_ch:
        z = _kn2row(layer.weights, xp, h, w) + layer.bias[:, None, None]
    else:
        z = (layer.weights.reshape(out_ch, -1) @ _im2col(xp, k)).reshape(out_ch, h, w)
        z += layer.bias[:, None, None]
    return _activate(z, layer.activation), ConvCache(xp=xp, z=z)


def conv_backward(
    layer: ConvLayer, upstream: np.ndarray, cache: ConvCache
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (d_input, d_weights, d_bias) of the forward that returned ``cache``."""
    upstream = np.asarray(upstream, dtype=np.float64)
    k = layer.kernel_size
    pad = k // 2
    in_ch = layer.weights.shape[1]
    z = cache.z
    out_ch, h, w = z.shape
    if upstream.shape != z.shape:
        raise ValueError(f"upstream shape {upstream.shape} does not match output {z.shape}")
    if layer.activation == "relu":
        dz = upstream * (z > 0.0)
    elif layer.activation == "sigmoid":
        s = sigmoid(z)
        dz = upstream * s * (1.0 - s)
    else:
        dz = upstream

    dz_mat = dz.reshape(out_ch, h * w)
    d_weights = (dz_mat @ _im2col(cache.xp, k).T).reshape(layer.weights.shape)
    d_bias = dz_mat.sum(axis=1)

    # gradient w.r.t. the padded input: full correlation with the flipped kernel
    dz_full = np.pad(dz, ((0, 0), (k - 1, k - 1), (k - 1, k - 1)))
    cols_up = _im2col(dz_full, k)
    w_flip = layer.weights[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(in_ch, -1)
    g_padded = (w_flip @ cols_up).reshape(in_ch, h + 2 * pad, w + 2 * pad)
    # fold the replicated border back onto the edge pixels: one bincount over
    # every channel's clamped flat index
    iy = np.clip(np.arange(h + 2 * pad) - pad, 0, h - 1)
    ix = np.clip(np.arange(w + 2 * pad) - pad, 0, w - 1)
    index = (iy[:, None] * w + ix).ravel() + h * w * np.arange(in_ch)[:, None]
    d_input = np.bincount(index.ravel(), g_padded.ravel(), in_ch * h * w).reshape(in_ch, h, w)
    return d_input, d_weights, d_bias


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

def l1_loss(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean absolute error."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
    return float(np.mean(np.abs(pred - target)))


def l1_loss_grad(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Subgradient of the mean absolute error; sign(0) taken as 0."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
    return np.sign(pred - target) / pred.size


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and loop settings for restorer training."""

    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 2
    iterations: int = 2000
    seed: int = 1

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        if self.batch_size < 1 or self.iterations < 0:
            raise ValueError("batch size must be >= 1 and iterations >= 0")


@dataclass
class AdamState:
    """First/second moment estimates per parameter, plus the step count."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def adam_init(params: dict[str, np.ndarray]) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
        t=0,
    )


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    config: TrainConfig,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected Adam update, applied in place."""
    if set(params) != set(grads):
        raise ValueError("params and grads must have identical keys")
    state.t += 1
    b1, b2 = config.beta1, config.beta2
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape mismatch for {name!r}")
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= config.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + config.eps)
    return params, state
