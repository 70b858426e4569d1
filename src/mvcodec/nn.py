"""Convolution layers with clamp padding, L1 loss, and a deterministic Adam.

Feature maps are float64 arrays shaped (channels, height, width).  Every conv
runs on one flat layout: the input is edge-padded into rows of stride
``Wp = w + k - 1``, so tap ``(i, j)`` of output pixel ``(y, x)`` reads flat
element ``y * Wp + x + i * Wp + j`` and each tap is one contiguous slice at
offset ``i * Wp + j``.  An input given as several channel groups is padded
group by group into that one buffer, never stacked first.
:func:`_correlate` picks a GEMM form from the layer's shape.  With fewer
output than input channels it runs kn2row: one ``(k*k*out, in)`` product
over the padded rows, then k*k shifted adds of its rows (Vasudevan et al.
2017), so no ``in*k*k``-row column buffer is built.  Otherwise it copies the
k*k tap slices into columns and runs one GEMM, which is cheaper when the
shifted adds would outweigh the columns.

:func:`conv_backward` reads only the upstream gradient, the layer and the
cache that :func:`conv_forward_cached` returned, and takes the smaller side
too.  Its input gradient is the full correlation of the zero-padded upstream
gradient with the flipped, transposed kernel (:func:`_correlate` again),
folded back from the padded border through an index built once per shape; a
caller that needs no input gradient skips it.  Its weight gradient is one
GEMM per tap on the padded rows, so it builds no column buffer either.

:func:`adam_step` is bias-corrected Adam with one fixed setting, the module
constants: learning rate 1e-4, betas 0.9 and 0.999, epsilon 1e-8.  It updates
one parameter vector in place, and its moments are vectors of that shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

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


@dataclass
class ConvCache:
    """All that :func:`conv_backward` reads of its forward.

    ``flat`` is the edge-padded input on rows of stride ``w + k - 1`` (see
    :func:`_edge_pad`); the backward correlates its tap slices with the
    upstream gradient for the weight gradient.  ``z`` is the pre-activation.
    """

    flat: np.ndarray  # (in_ch, (h + k - 1) * (w + k - 1) + k - 1)
    z: np.ndarray  # (out_ch, h, w)


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _check_input(layer: ConvLayer, groups: tuple[np.ndarray, ...]) -> list[np.ndarray]:
    groups = [np.asarray(g, dtype=np.float64) for g in groups]
    for g in groups:
        if g.ndim != 3:
            raise ValueError(f"feature map must be (channels, h, w), got {g.shape}")
        if g.shape[1:] != groups[0].shape[1:]:
            raise ValueError(
                f"channel groups must share one size, got {g.shape[1:]} and {groups[0].shape[1:]}"
            )
    channels = sum(g.shape[0] for g in groups)
    if channels != layer.weights.shape[1]:
        raise ValueError(
            f"input has {channels} channels, layer expects {layer.weights.shape[1]}"
        )
    return groups


def _edge_pad(groups: list[np.ndarray], pad: int) -> np.ndarray:
    """Clamp-to-edge padding of the channel groups, stacked in order, as flat
    rows of stride ``w + 2 * pad``.

    Each group is padded straight into its channels of the buffer, so no
    stacked copy of the input is built.  The ``2 * pad`` zeros after the last
    row keep every tap's ``h``-row slice inside the buffer.
    """
    c = sum(g.shape[0] for g in groups)
    h, w = groups[0].shape[1:]
    size = (h + 2 * pad) * (w + 2 * pad)
    flat = np.empty((c, size + 2 * pad))
    flat[:, size:] = 0.0
    xp = flat[:, :size].reshape(c, h + 2 * pad, w + 2 * pad)
    start = 0
    for g in groups:
        gp = xp[start : start + g.shape[0], pad : pad + h]
        gp[:, :, pad : pad + w] = g
        gp[:, :, :pad] = g[:, :, :1]
        gp[:, :, pad + w :] = g[:, :, -1:]
        start += g.shape[0]
    xp[:, :pad] = xp[:, pad : pad + 1]
    xp[:, pad + h :] = xp[:, pad + h - 1 : pad + h]
    return flat


def _zero_pad(x: np.ndarray, pad: int, stride: int, slack: int) -> np.ndarray:
    """``x`` at row ``pad``, column ``pad`` of zero rows of ``stride``, as a
    flat ``(c, (h + 2 * pad) * stride + slack)`` buffer."""
    c, h, w = x.shape
    rows = h + 2 * pad
    flat = np.zeros((c, rows * stride + slack))
    flat[:, : rows * stride].reshape(c, rows, stride)[:, pad : pad + h, pad : pad + w] = x
    return flat


def _activate(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return np.maximum(z, 0.0)
    if activation == "sigmoid":
        return sigmoid(z)
    return z


def _columns(flat: np.ndarray, k: int, stride: int, span: int) -> np.ndarray:
    """``(c * k * k, span)`` columns of a map on rows of ``stride``, rows in
    ``(c, i, j)`` order: row ``(c, i, j)`` is ``flat[c]`` from ``i * stride + j``.

    One copy of a read-only ``(c, k, k, span)`` view of the tap slices.
    """
    c, size = flat.shape
    if (k - 1) * (stride + 1) + span > size:
        raise ValueError(f"{k}x{k} taps of span {span} on stride {stride} overrun {size}")
    step = flat.strides[1]
    taps = as_strided(
        flat, (c, k, k, span), (flat.strides[0], stride * step, step, step), writeable=False
    )
    return taps.reshape(c * k * k, span)


def _correlate(
    weights: np.ndarray, flat: np.ndarray, k: int, stride: int, span: int
) -> np.ndarray:
    """Cross-correlation of a map laid on rows of ``stride`` with ``weights``.

    Returns ``(out, span)``: element ``p`` sums every tap ``(i, j)`` of
    ``weights`` (out, in, k, k) against ``flat[:, p + i * stride + j]``.
    kn2row (one GEMM plus k*k shifted adds) when out < in, else columns.
    """
    out_ch, in_ch = weights.shape[:2]
    if out_ch >= in_ch:
        return weights.reshape(out_ch, -1) @ _columns(flat, k, stride, span)
    # row (i, j, o) of the product holds every element's contribution to
    # output channel o through tap (i, j)
    prod = weights.transpose(2, 3, 0, 1).reshape(k * k * out_ch, in_ch) @ flat
    prod = prod.reshape(k, k, out_ch, -1)
    acc = np.zeros((out_ch, span))
    for i in range(k):
        for j in range(k):
            start = i * stride + j
            acc += prod[i, j, :, start : start + span]
    return acc


def conv_forward_cached(
    layer: ConvLayer, x: np.ndarray, *more: np.ndarray
) -> tuple[np.ndarray, ConvCache]:
    """Output feature map (same spatial size as the input) and the
    padded-input/pre-activation cache :func:`conv_backward` reads.

    The input is ``x`` stacked along channels with any further groups in
    ``more``, all of one height and width; the stack is never built.
    """
    groups = _check_input(layer, (x, *more))
    out_ch, _, k, _ = layer.weights.shape
    _, h, w = groups[0].shape
    stride = w + k - 1
    flat = _edge_pad(groups, k // 2)
    z = _correlate(layer.weights, flat, k, stride, h * stride).reshape(out_ch, h, stride)
    z = z[:, :, :w] + layer.bias[:, None, None]
    return _activate(z, layer.activation), ConvCache(flat=flat, z=z)


@lru_cache(maxsize=64)
def _fold_index(channels: int, h: int, w: int, pad: int) -> np.ndarray:
    """Flat index of the input pixel that each element of a ``(channels,
    h + 2 * pad, w + 2 * pad)`` edge-padded map replicates; read-only, since
    every caller shares it."""
    iy = np.clip(np.arange(h + 2 * pad) - pad, 0, h - 1)
    ix = np.clip(np.arange(w + 2 * pad) - pad, 0, w - 1)
    index = ((iy[:, None] * w + ix).ravel() + h * w * np.arange(channels)[:, None]).ravel()
    index.flags.writeable = False
    return index


def conv_backward(
    layer: ConvLayer, upstream: np.ndarray, cache: ConvCache, *, input_grad: bool = True
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients (d_input, d_weights, d_bias) of the forward that returned ``cache``.

    With ``input_grad`` false, d_input is None and is not computed: the
    restorer passes that for the convs whose inputs are pixels or prior
    planes.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    out_ch, in_ch, k, _ = layer.weights.shape
    pad = k // 2
    z = cache.z
    _, h, w = z.shape
    if upstream.shape != z.shape:
        raise ValueError(f"upstream shape {upstream.shape} does not match output {z.shape}")
    if layer.activation == "relu":
        dz = upstream * (z > 0.0)
    elif layer.activation == "sigmoid":
        s = sigmoid(z)
        dz = upstream * s * (1.0 - s)
    else:
        dz = upstream
    d_bias = dz.reshape(out_ch, h * w).sum(axis=1)

    # weight gradient: dz on the padded input's row stride (zero in the
    # k - 1 border columns of each row) against each tap's input slice
    stride = w + k - 1
    span = h * stride
    dz_rows = _zero_pad(dz, 0, stride, 0)
    d_weights = np.empty(layer.weights.shape)
    for i in range(k):
        for j in range(k):
            start = i * stride + j
            d_weights[:, :, i, j] = dz_rows @ cache.flat[:, start : start + span].T
    if not input_grad:
        return None, d_weights, d_bias

    # gradient w.r.t. the padded input: full correlation of dz, zero-padded
    # by k - 1, with the flipped and transposed kernel
    full = w + 2 * (k - 1)
    dz_full = _zero_pad(dz, k - 1, full, k - 1)
    w_flip = layer.weights[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    g_padded = _correlate(w_flip, dz_full, k, full, (h + 2 * pad) * full)
    g_padded = g_padded.reshape(in_ch, h + 2 * pad, full)[:, :, : w + 2 * pad]
    # fold the replicated border back onto the edge pixels: one bincount over
    # every channel's clamped flat index
    index = _fold_index(in_ch, h, w, pad)
    d_input = np.bincount(index, g_padded.ravel(), in_ch * h * w).reshape(in_ch, h, w)
    return d_input, d_weights, d_bias


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

def l1_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean absolute error and its subgradient with respect to ``pred``
    (sign(0) taken as 0)."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
    diff = pred - target
    return float(np.mean(np.abs(diff))), np.sign(diff) / diff.size


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

ADAM_LR = 1e-4
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment estimates of the parameter vector, plus the step count."""

    m: np.ndarray
    v: np.ndarray
    t: int


def adam_init(params: np.ndarray) -> AdamState:
    return AdamState(m=np.zeros_like(params), v=np.zeros_like(params), t=0)


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update of the parameter vector, in place."""
    if grads.shape != params.shape:
        raise ValueError(f"gradient shape {grads.shape} does not match parameters {params.shape}")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    state.m *= b1
    state.m += (1.0 - b1) * grads
    state.v *= b2
    state.v += (1.0 - b2) * grads * grads
    params -= ADAM_LR * (state.m / bc1) / (np.sqrt(state.v / bc2) + ADAM_EPS)
