"""Convolution layers with clamp padding, L1 loss, and a deterministic Adam.

Feature maps are float64 arrays shaped (channels, height, width).  The conv
is implemented as im2col + GEMM; :func:`conv_backward` reads only the upstream
gradient, the layer and the cache that :func:`conv_forward_cached` returned.
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
    """All that :func:`conv_backward` reads of its forward: columns and pre-activation."""

    cols: np.ndarray  # (in_ch * k * k, h * w)
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


def conv_forward_cached(layer: ConvLayer, x: np.ndarray) -> tuple[np.ndarray, ConvCache]:
    """Forward pass that also returns the reusable column/pre-activation cache."""
    x = _check_input(layer, x)
    k = layer.kernel_size
    out_ch = layer.weights.shape[0]
    _, h, w = x.shape
    cols = _im2col(_edge_pad(x, k // 2), k)
    z = (layer.weights.reshape(out_ch, -1) @ cols).reshape(out_ch, h, w)
    z += layer.bias[:, None, None]
    return _activate(z, layer.activation), ConvCache(cols=cols, z=z)


def conv_forward(layer: ConvLayer, x: np.ndarray) -> np.ndarray:
    """Output feature map, same spatial size as the input."""
    return conv_forward_cached(layer, x)[0]


def conv_backward(
    layer: ConvLayer, upstream: np.ndarray, cache: ConvCache
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (d_input, d_weights, d_bias) of the forward that returned ``cache``."""
    upstream = np.asarray(upstream, dtype=np.float64)
    k = layer.kernel_size
    pad = k // 2
    in_ch = layer.weights.shape[1]
    cols, z = cache.cols, cache.z
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
    d_weights = (dz_mat @ cols.T).reshape(layer.weights.shape)
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
