"""Dense forward/backward kernels for the standard layers.

All operations are pure: inputs are never mutated and outputs are freshly
allocated. Activations and parameters are stored in single precision during
training; every reduction (convolution and fully-connected contractions,
bias sums) accumulates in double precision and the result is cast back to
the working dtype. Passing float64 inputs therefore runs the whole kernel
in double precision, which is what the gradient-check suite does.

Convolution is cross-correlation (no kernel mirroring) with zero padding,
lowered to a GEMM against a channel-major [C*k*k, N*H'*W'] column matrix,
so the product comes out as [O, N, H', W'] and needs one transpose. Conv and
pool outputs and gradients are C-contiguous NCHW arrays.

Max-pooling breaks ties deterministically: the first maximum in a row-major
scan of the window wins, and a window holding NaN yields its first NaN, as
np.argmax does. The pool backward scatter sums overlapping windows in double
precision as well; with non-overlapping windows it only places values.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DimensionError, InputError


def _working_dtype(*arrays) -> np.dtype:
    dt = np.result_type(*arrays)
    return dt if dt == np.float64 else np.dtype(np.float32)


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------

@dataclass
class ConvParams:
    """Weights [out_channels, in_channels, k, k], bias [out_channels]."""

    weights: np.ndarray
    bias: np.ndarray
    stride: int = 1
    pad: int = 0

    def __post_init__(self):
        if self.weights.ndim != 4:
            raise DimensionError(
                f"conv weights must be 4-d [out, in, k, k], got shape {self.weights.shape}")
        out_ch, _, kh, kw = self.weights.shape
        if kh != kw:
            raise DimensionError(f"conv kernels must be square, got {kh}x{kw}")
        if kh % 2 == 0:
            raise DimensionError(
                f"kernel size must be odd (orientation transforms need a center), got {kh}")
        if self.bias.shape != (out_ch,):
            raise DimensionError(
                f"bias shape {self.bias.shape} does not match out_channels {out_ch}")
        if self.stride < 1:
            raise DimensionError(f"stride must be positive, got {self.stride}")
        if self.pad < 0:
            raise DimensionError(f"pad must be non-negative, got {self.pad}")

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def kernel_size(self) -> int:
        return self.weights.shape[2]


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------

def conv_output_size(size: int, k: int, stride: int, pad: int) -> int:
    out = (size + 2 * pad - k) // stride + 1
    if out < 1:
        raise DimensionError(
            f"convolution output would be empty: input {size}, kernel {k}, "
            f"stride {stride}, pad {pad}")
    return out


def _im2col(x: np.ndarray, k: int, stride: int, pad: int):
    """Return ([C*k*k, N*H'*W'] float64 column matrix, H', W').

    Rows are channel-major (c, ki, kj); columns run over (n, i, j), so a
    GEMM against it yields [O, N, H', W'] directly.
    """
    n, c, h, w = x.shape
    h_out = conv_output_size(h, k, stride, pad)
    w_out = conv_output_size(w, k, stride, pad)
    xp = np.zeros((c, n, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    xp[:, :, pad:pad + h, pad:pad + w] = x.transpose(1, 0, 2, 3)
    sc, sn, sh, sw = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp,
        shape=(c, k, k, n, h_out, w_out),
        strides=(sc, sh, sw, sn, sh * stride, sw * stride),
        writeable=False,
    )
    # a single copy gathers the windows and upcasts them
    cols = np.ascontiguousarray(windows, dtype=np.float64)
    return cols.reshape(c * k * k, n * h_out * w_out), h_out, w_out


def conv2d_forward(x: np.ndarray, params: ConvParams) -> np.ndarray:
    """Cross-correlate x [N,C,H,W] with the kernel bank, add bias."""
    if x.ndim != 4:
        raise DimensionError(f"conv input must be 4-d [N,C,H,W], got shape {x.shape}")
    if x.shape[1] != params.in_channels:
        raise DimensionError(
            f"input channel axis has {x.shape[1]} channels, "
            f"weights expect {params.in_channels}")
    n = x.shape[0]
    o = params.out_channels
    cols, h_out, w_out = _im2col(x, params.kernel_size, params.stride, params.pad)
    w_mat = np.asarray(params.weights.reshape(o, -1), dtype=np.float64)
    y = (w_mat @ cols).reshape(o, n, h_out, w_out)
    del cols  # lowers the peak: the output is allocated next
    bias = np.asarray(params.bias, dtype=np.float64)[:, None, None]
    out = np.empty((n, o, h_out, w_out), dtype=_working_dtype(x, params.weights))
    np.add(y.transpose(1, 0, 2, 3), bias, out=out, casting="same_kind")
    return out


def conv2d_backward(grad_out: np.ndarray, x: np.ndarray, params: ConvParams):
    """Gradients of the convolution: (grad_input, grad_weights, grad_bias)."""
    n, c, h, w = x.shape
    o = params.out_channels
    k = params.kernel_size
    stride, pad = params.stride, params.pad
    cols, h_out, w_out = _im2col(x, k, stride, pad)
    if grad_out.shape != (n, o, h_out, w_out):
        raise DimensionError(
            f"grad_out shape {grad_out.shape} does not match forward output "
            f"{(n, o, h_out, w_out)}")
    dt = _working_dtype(x, params.weights)

    g = np.ascontiguousarray(grad_out.transpose(1, 0, 2, 3), dtype=np.float64).reshape(o, -1)
    grad_bias = g.sum(axis=1)
    grad_weights = (g @ cols.T).reshape(params.weights.shape)
    del cols  # lowers the peak: gcols is the same size

    w_mat = np.asarray(params.weights.reshape(o, -1), dtype=np.float64)
    gcols = (w_mat.T @ g).reshape(c, k, k, n, h_out, w_out)
    gx_pad = np.zeros((c, n, h + 2 * pad, w + 2 * pad), dtype=np.float64)
    for i in range(k):
        for j in range(k):
            gx_pad[:, :, i:i + stride * h_out:stride, j:j + stride * w_out:stride] \
                += gcols[:, i, j]
    grad_input = np.empty((n, c, h, w), dtype=dt)
    np.copyto(grad_input, gx_pad[:, :, pad:pad + h, pad:pad + w].transpose(1, 0, 2, 3),
              casting="same_kind")
    return (grad_input,
            grad_weights.astype(dt, copy=False),
            grad_bias.astype(dt, copy=False))


# ---------------------------------------------------------------------------
# Max pooling
# ---------------------------------------------------------------------------

def maxpool2d_forward(x: np.ndarray, window: int, stride: int):
    """Max over sliding windows. Returns (output, argmax_indices).

    argmax_indices holds, per output element, the flat index of the winner
    inside its H*W input plane; first occurrence in row-major window order
    wins on ties, and a window holding NaN yields NaN at its first NaN, as
    np.argmax does.
    """
    if x.ndim != 4:
        raise DimensionError(f"pool input must be 4-d [N,C,H,W], got shape {x.shape}")
    n, c, h, w = x.shape
    if window > h or window > w:
        raise DimensionError(
            f"pool window {window} exceeds input spatial size {h}x{w}")
    h_out = (h - window) // stride + 1
    w_out = (w - window) // stride + 1
    # one strided view per window position, in row-major window order
    views = [x[:, :, a:a + stride * (h_out - 1) + 1:stride,
               b:b + stride * (w_out - 1) + 1:stride]
             for a in range(window) for b in range(window)]
    y = views[0].copy()
    for v in views[1:]:
        np.maximum(y, v, out=y)
    # The winner's position in the window is the number of leading positions
    # that miss the maximum. np.maximum propagates NaN, so in a NaN window a
    # position misses unless it holds NaN.
    nan_out = y != y
    has_nan = bool(nan_out.any())
    local = np.zeros(y.shape, dtype=np.min_scalar_type(window * window - 1))
    missed = np.ones(y.shape, dtype=bool)
    miss = np.empty(y.shape, dtype=bool)
    for v in views[:-1]:
        np.less(v, y, out=miss)
        if has_nan:
            miss |= nan_out & (v == v)
        missed &= miss
        local += missed
    plane_offset = (np.arange(window)[:, None] * w + np.arange(window)).ravel()
    argmax = plane_offset.take(local)
    argmax += (np.arange(h_out)[:, None] * (stride * w)
               + np.arange(w_out)[None, :] * stride)
    return y, argmax


def maxpool2d_backward(grad_out: np.ndarray, argmax_indices: np.ndarray,
                       input_shape) -> np.ndarray:
    """Scatter grad_out to the recorded winner positions, summing in float64
    where windows overlap."""
    n, c, h, w = input_shape
    if grad_out.shape != argmax_indices.shape:
        raise DimensionError(
            f"grad_out shape {grad_out.shape} does not match argmax shape "
            f"{argmax_indices.shape}")
    if argmax_indices.size and (argmax_indices.min() < 0 or argmax_indices.max() >= h * w):
        raise ConsistencyError(
            f"argmax indices out of range for input plane of {h * w} elements; "
            "stale cache?")
    plane = (np.arange(n * c, dtype=np.intp) * (h * w)).reshape(n, c, 1, 1)
    grad_input = np.bincount((plane + argmax_indices).ravel(), weights=grad_out.ravel(),
                             minlength=n * c * h * w)
    return grad_input.astype(grad_out.dtype, copy=False).reshape(n, c, h, w)


# ---------------------------------------------------------------------------
# Fully connected
# ---------------------------------------------------------------------------

def fc_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Affine map: x [N,d] @ weights [out,d].T + bias [out]."""
    if x.ndim != 2:
        raise DimensionError(f"fc input must be 2-d [N,d], got shape {x.shape}")
    if x.shape[1] != weights.shape[1]:
        raise DimensionError(
            f"fc input width {x.shape[1]} does not match weight width {weights.shape[1]}")
    y = (np.asarray(x, dtype=np.float64) @ np.asarray(weights, dtype=np.float64).T
         + np.asarray(bias, dtype=np.float64))
    return y.astype(_working_dtype(x, weights), copy=False)


def fc_backward(grad_out: np.ndarray, x: np.ndarray, weights: np.ndarray):
    """Gradients of the affine map: (grad_input, grad_weights, grad_bias)."""
    if grad_out.shape != (x.shape[0], weights.shape[0]):
        raise DimensionError(
            f"grad_out shape {grad_out.shape} does not match output shape "
            f"{(x.shape[0], weights.shape[0])}")
    dt = _working_dtype(x, weights)
    g = np.asarray(grad_out, dtype=np.float64)
    x64 = np.asarray(x, dtype=np.float64)
    w64 = np.asarray(weights, dtype=np.float64)
    grad_input = (g @ w64).astype(dt, copy=False)
    grad_weights = (g.T @ x64).astype(dt, copy=False)
    grad_bias = g.sum(axis=0).astype(dt, copy=False)
    return grad_input, grad_weights, grad_bias


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu_backward(grad_out: np.ndarray, x: np.ndarray) -> np.ndarray:
    if grad_out.shape != x.shape:
        raise DimensionError(
            f"grad_out shape {grad_out.shape} does not match input shape {x.shape}")
    return grad_out * (x > 0)


def _channel_shape(x: np.ndarray):
    # channel axis is axis 1 for both [N,C,H,W] and [N,d]
    return (1, -1) + (1,) * (x.ndim - 2)


def prelu_forward(x: np.ndarray, slope: np.ndarray) -> np.ndarray:
    if slope.shape != (x.shape[1],):
        raise DimensionError(
            f"prelu slope length {slope.shape} does not match channel count {x.shape[1]}")
    s = slope.reshape(_channel_shape(x))
    return np.where(x > 0, x, (s * x).astype(x.dtype, copy=False))


def prelu_backward(grad_out: np.ndarray, x: np.ndarray, slope: np.ndarray):
    """Returns (grad_input, grad_slope); slope grad sums x*grad over the
    negative side per channel."""
    if grad_out.shape != x.shape:
        raise DimensionError(
            f"grad_out shape {grad_out.shape} does not match input shape {x.shape}")
    s = slope.reshape(_channel_shape(x))
    neg = x <= 0
    grad_input = np.where(neg, (s * grad_out).astype(grad_out.dtype, copy=False), grad_out)
    reduce_axes = tuple(i for i in range(x.ndim) if i != 1)
    contrib = np.where(neg, np.asarray(x, np.float64) * np.asarray(grad_out, np.float64), 0.0)
    grad_slope = contrib.sum(axis=reduce_axes).astype(_working_dtype(x, slope), copy=False)
    return grad_input, grad_slope


# ---------------------------------------------------------------------------
# Softmax cross-entropy
# ---------------------------------------------------------------------------

def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for stability."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    return p.astype(_working_dtype(logits), copy=False)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean negative log-likelihood over the batch.

    Returns (loss, grad_logits) with grad = (softmax - one_hot) / N.
    """
    if logits.ndim != 2:
        raise DimensionError(f"logits must be 2-d [N,K], got shape {logits.shape}")
    n, k = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise DimensionError(
            f"labels shape {labels.shape} does not match batch size {n}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise InputError(f"labels must lie in [0, {k}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1))
    loss = float(np.mean(log_norm - z[np.arange(n), labels]))
    p = np.exp(z - log_norm[:, None])
    p[np.arange(n), labels] -= 1.0
    grad = (p / n).astype(_working_dtype(logits), copy=False)
    return loss, grad
