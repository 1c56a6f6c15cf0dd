"""Dense forward/backward kernels for the standard layers.

All operations are pure: inputs are never mutated and outputs are freshly
allocated. Activations and parameters are stored in single precision during
training; every reduction (convolution and fully-connected contractions,
bias sums) accumulates in double precision and the result is cast back to
the working dtype. Passing float64 inputs therefore runs the whole kernel
in double precision, which is what the gradient-check suite does.

Convolution is cross-correlation (no kernel mirroring) with zero padding,
lowered to a GEMM against a channel-major [C*k*k, n*H'*W'] column matrix,
so the product comes out channel-major, [O, n*H'*W']. Forward and backward
both run over the batch _CHUNK images at a time, which bounds the float64
columns and products whatever the batch size; the weight and bias gradients
are summed over the chunks in double precision.

A conv takes the O stored kernels and orientation banks, one per winner
map. A bank is (filters, index, winners): m ascending filter indices, their
int [m, S, k*k] cell permutations (row 0 the identity), and an int8
[N, m, H', W'] winner map or None. Variant s of filter i is its kernel
gathered through index[i, s]. The expanded kernel matrix holds the stored
kernels in rows 0..O-1, then each bank's variants 1..S-1, variant-major, so
each variant is one contiguous row slab of the product. Per chunk, the
forward adds the bias (and, with banks, casts) in one pass, pools each bank
over its slabs with `_first_max`, and transposes only the stored rows to
NCHW; the backward routes the stored rows' gradient to the winning variants.
The weight and bias gradients are then cast, pulled back through the
inverse permutations and summed over the variants in variant order. Conv
and pool outputs and gradients are C-contiguous NCHW arrays, the stored
filters' for a conv.

Max-pooling breaks ties deterministically: the first maximum in a row-major
scan of the window wins, and a window holding NaN yields its first NaN, as
np.argmax does; `_first_max` is that rule. The pool backward scatter sums
overlapping windows in double precision as well; with non-overlapping
windows it only places values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import conv_output_size
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

# Images per im2col in the conv kernels: bounds the float64 column matrix
# and the GEMM products built from it, which grow with the batch. The
# columns and the product share one float64 workspace per call, sized for
# the first chunk and reused by every chunk, so the peak is one chunk's.
# Fresh arrays per chunk, or two buffers per call, were handed back to the
# system between calls by glibc's malloc and page-faulted in again on every
# call; one workspace measured 10-20% faster on training and sweep calls.
_CHUNK = 64


def _front(buf: np.ndarray, shape) -> np.ndarray:
    """The leading part of the flat buffer `buf`, as a C-contiguous array."""
    return buf[:math.prod(shape)].reshape(shape)


def _im2col(x: np.ndarray, k: int, stride: int, pad: int, buf: np.ndarray) -> np.ndarray:
    """[C*k*k, N*H'*W'] float64 column matrix of x [N,C,H,W], written to the
    front of the flat float64 buffer `buf`.

    Rows are channel-major (c, ki, kj); columns run over (n, i, j), so a
    GEMM against it yields [O, N, H', W'] directly.
    """
    n, c, h, w = x.shape
    h_out = conv_output_size(h, k, stride, pad)
    w_out = conv_output_size(w, k, stride, pad)
    xp = np.zeros((c, n, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    xp[:, :, pad:pad + h, pad:pad + w] = x.transpose(1, 0, 2, 3)
    windows = np.lib.stride_tricks.sliding_window_view(
        xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride].transpose(0, 4, 5, 1, 2, 3)
    # a single copy gathers the windows and upcasts them
    cols = _front(buf, windows.shape)
    np.copyto(cols, windows)
    return cols.reshape(c * k * k, n * h_out * w_out)


def _output_size(x: np.ndarray, params: ConvParams):
    """(H', W') of the convolution of x [N,C,H,W]; checks x against params."""
    if x.ndim != 4:
        raise DimensionError(f"conv input must be 4-d [N,C,H,W], got shape {x.shape}")
    if x.shape[1] != params.in_channels:
        raise DimensionError(
            f"input channel axis has {x.shape[1]} channels, "
            f"weights expect {params.in_channels}")
    k, stride, pad = params.kernel_size, params.stride, params.pad
    return (conv_output_size(x.shape[2], k, stride, pad),
            conv_output_size(x.shape[3], k, stride, pad))


def _expanded(params: ConvParams, banks):
    """The expanded bank's float64 [O_exp, C*k*k] weights and [O_exp] bias."""
    o, c, k, _ = params.weights.shape
    w = params.weights.reshape(o, c, k * k)
    # variant s of filter i is its kernel gathered through index[i, s]
    weights = [w.reshape(o, -1)] + [
        np.take_along_axis(w[f][:, None], index[:, 1:, None], axis=3)
        .swapaxes(0, 1).reshape(-1, c * k * k) for f, index, _ in banks]
    bias = [params.bias] + [np.tile(params.bias[f], index.shape[1] - 1)
                            for f, index, _ in banks]
    return (np.asarray(np.concatenate(weights), dtype=np.float64),
            np.asarray(np.concatenate(bias), dtype=np.float64))


def _slabs(o: int, banks):
    """Each bank as (filters, index, winners, its first variant row)."""
    row = o
    for f, index, winners in banks:
        yield f, index, winners, row
        row += (index.shape[1] - 1) * len(f)


def conv2d_forward(x: np.ndarray, params: ConvParams, banks=()) -> np.ndarray:
    """Cross-correlate x [N,C,H,W] with the stored kernels, add bias.

    Each of `banks` (see above) makes its filters output the first maximum
    over their variants, and writes the winning variant to its map if any.
    """
    h_out, w_out = _output_size(x, params)
    o, k = params.out_channels, params.kernel_size
    dt = _working_dtype(x, params.weights)
    w_mat, bias = _expanded(params, banks)
    o_exp, ckk = w_mat.shape
    out = np.empty((len(x), o, h_out, w_out), dtype=dt)
    width = min(len(x), _CHUNK) * h_out * w_out
    cols_buf, y_buf = np.split(np.empty((ckk + o_exp) * width), [ckk * width])
    # pools compare the cast values, so with banks the cast comes first
    cast_buf = np.empty(o_exp * width, dt) if banks and dt != np.float64 else None
    for a in range(0, len(x), _CHUNK):
        cols = _im2col(x[a:a + _CHUNK], k, params.stride, params.pad, cols_buf)
        y = np.matmul(w_mat, cols, out=_front(y_buf, (o_exp, cols.shape[1])))
        # +bias (and the cast) in one pass over the channel-major product,
        # then each bank pools contiguous variant slabs and only the stored
        # rows are transposed
        yd = y if cast_buf is None else _front(cast_buf, y.shape)
        np.add(y, bias[:, None], out=yd, casting="same_kind")
        for f, index, winners, row in _slabs(o, banks):
            m = len(f)
            best, win = _first_max([yd[f]] + [yd[row + i * m:row + (i + 1) * m]
                                             for i in range(index.shape[1] - 1)],
                                   winners is not None)
            yd[f] = best
            if win is not None:
                winners[a:a + _CHUNK] = win.reshape(m, -1, h_out, w_out).transpose(1, 0, 2, 3)
        out[a:a + _CHUNK] = yd[:o].reshape(o, -1, h_out, w_out).transpose(1, 0, 2, 3)
    return out


def _routed(grad_out: np.ndarray, o_exp: int, banks, a: int, buf: np.ndarray) -> np.ndarray:
    """The float64 channel-major [O_exp, n*H'*W'] gradient of the expanded
    product for the chunk grad_out [n, O, H', W'] that starts at image `a`,
    written to the front of `buf`: each pooled filter's gradient goes to the
    variant that won the position."""
    g_t = grad_out.transpose(1, 0, 2, 3)
    g = _front(buf, (o_exp, g_t[0].size))
    # every row is written once: the stored rows here, each bank's variant
    # rows below
    g[:len(g_t)].reshape(g_t.shape)[...] = g_t
    for f, index, winners, row in _slabs(len(g_t), banks):
        m = len(f)
        win = winners[a:a + len(grad_out)].transpose(1, 0, 2, 3).reshape(m, -1)
        g_f = g[f]
        for i in range(1, index.shape[1]):
            g[row + (i - 1) * m:row + i * m] = np.where(win == i, g_f, 0.0)
        g[f] = np.where(win == 0, g_f, 0.0)
    return g


def _pulled_back(gw: np.ndarray, gb: np.ndarray, o: int, banks):
    """The stored filters' gradients from the expanded ones, gw [O_exp,
    C*k*k] and gb [O_exp]."""
    gw_o, gb_o = gw[:o].copy(), gb[:o].copy()
    for f, index, _, row in _slabs(o, banks):
        m, s, kk = index.shape
        rows = slice(row, row + (s - 1) * m)
        variants = np.concatenate((gw[f][None], gw[rows].reshape(s - 1, m, -1)))
        inverse = np.argsort(index, axis=2).swapaxes(0, 1)[:, :, None]
        gw_o[f] = np.take_along_axis(variants.reshape(s, m, -1, kk), inverse, axis=3) \
            .sum(axis=0).reshape(m, -1)
        # summed as [filter, variant] rows
        gb_o[f] = np.concatenate((gb[f][None], gb[rows].reshape(s - 1, m))).T.copy().sum(axis=1)
    return gw_o, gb_o


def conv2d_backward(grad_out: np.ndarray, x: np.ndarray, params: ConvParams, banks=(),
                    input_grad: bool = True):
    """Gradients of the convolution: (grad_input, grad_weights, grad_bias).

    `banks` are the forward's, whose winner maps route grad_out. Without
    `input_grad`, grad_input is None and its GEMM and col2im are skipped.
    """
    h_out, w_out = _output_size(x, params)
    n, c, h, w = x.shape
    o, k = params.out_channels, params.kernel_size
    stride, pad = params.stride, params.pad
    if grad_out.shape != (n, o, h_out, w_out):
        raise DimensionError(
            f"grad_out shape {grad_out.shape} does not match forward output "
            f"{(n, o, h_out, w_out)}")
    dt = _working_dtype(x, params.weights)
    w_mat = _expanded(params, banks)[0]
    o_exp, ckk = w_mat.shape
    grad_input = np.empty((n, c, h, w), dtype=dt) if input_grad else None
    grad_weights = np.zeros(w_mat.shape)
    grad_bias = np.zeros(o_exp)
    width = min(n, _CHUNK) * h_out * w_out
    cols_buf, g_buf = np.split(np.empty((ckk + o_exp) * width), [ckk * width])
    for a in range(0, n, _CHUNK):
        x_a = x[a:a + _CHUNK]
        cols = _im2col(x_a, k, stride, pad, cols_buf)
        g = _routed(grad_out[a:a + _CHUNK], o_exp, banks, a, g_buf)
        grad_bias += g.sum(axis=1)
        grad_weights += g @ cols.T
        if not input_grad:
            continue
        # the columns are spent, so their buffer takes the column gradient
        gcols = np.matmul(w_mat.T, g, out=cols).reshape(c, k, k, -1, h_out, w_out)
        gx_pad = np.zeros((c, len(x_a), h + 2 * pad, w + 2 * pad))
        for i in range(k):
            for j in range(k):
                gx_pad[:, :, i:i + stride * h_out:stride, j:j + stride * w_out:stride] \
                    += gcols[:, i, j]
        np.copyto(grad_input[a:a + _CHUNK],
                  gx_pad[:, :, pad:pad + h, pad:pad + w].transpose(1, 0, 2, 3),
                  casting="same_kind")
    grad_weights, grad_bias = _pulled_back(grad_weights.astype(dt, copy=False),
                                           grad_bias.astype(dt, copy=False), o, banks)
    return grad_input, grad_weights.reshape(params.weights.shape), grad_bias


# ---------------------------------------------------------------------------
# Max pooling
# ---------------------------------------------------------------------------

def _first_max(views, winners: bool):
    """Elementwise max over equally shaped views and, with `winners`, the
    index of the view that wins it (None otherwise): the first maximum, or
    where a NaN occurs the first NaN, as np.argmax picks. The index dtype is
    the smallest signed integer that holds -len(views). A single view comes
    back as it is, not copied.

    The winner is the number of leading views that miss the maximum.
    np.maximum propagates NaN, so where the maximum is NaN a view misses
    unless it holds NaN. The value is the first maximum under `==`: between
    +0.0 and -0.0 its bytes may be the other zero than the view at the
    reported index.
    """
    best = views[0] if len(views) == 1 else np.maximum(views[0], views[1])
    for v in views[2:]:
        np.maximum(best, v, out=best)
    if not winners:
        return best, None
    nan_out = best != best
    has_nan = bool(nan_out.any())
    win = np.zeros(best.shape, dtype=np.min_scalar_type(-len(views)))
    missed = np.ones(best.shape, dtype=bool)
    miss = np.empty(best.shape, dtype=bool)
    for v in views[:-1]:
        np.less(v, best, out=miss)
        if has_nan:
            miss |= nan_out & (v == v)
        missed &= miss
        win += missed
    return best, win


def maxpool2d_forward(x: np.ndarray, window: int, stride: int, indices: bool = True):
    """Max over sliding windows. Returns (output, argmax_indices).

    argmax_indices holds, per output element, the flat index of the winner
    inside its H*W input plane; first occurrence in row-major window order
    wins on ties, and a window holding NaN yields NaN at its first NaN, as
    np.argmax does. The value is the first maximum under `==`: between +0.0
    and -0.0 its bytes may be the other zero than x at the reported index.
    With indices=False the winner scan is skipped and
    argmax_indices is None; the max is then taken separably, along each
    window row and then across the rows. That combines the window in the
    scan's row-major order, so the output has the same bytes, also where
    np.maximum picks between values that compare equal (+0.0 and -0.0, or
    NaN payloads).
    """
    if x.ndim != 4:
        raise DimensionError(f"pool input must be 4-d [N,C,H,W], got shape {x.shape}")
    n, c, h, w = x.shape
    h_out = conv_output_size(h, window, stride, 0)
    w_out = conv_output_size(w, window, stride, 0)
    if not indices:
        # separable: the max along each window row on all input rows, then
        # across the window's rows
        rows = _first_max([x[..., b:b + stride * (w_out - 1) + 1:stride]
                           for b in range(window)], False)[0]
        y = _first_max([rows[:, :, a:a + stride * (h_out - 1) + 1:stride]
                        for a in range(window)], False)[0]
        return (y.copy() if window == 1 else y), None
    # one strided view per window position, in row-major window order
    views = [x[:, :, a:a + stride * (h_out - 1) + 1:stride,
               b:b + stride * (w_out - 1) + 1:stride]
             for a in range(window) for b in range(window)]
    y, local = _first_max(views, True)
    if window == 1:
        y = y.copy()  # a lone view is a view of x
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
    y = np.asarray(x, dtype=np.float64) @ np.asarray(weights, dtype=np.float64).T
    y += np.asarray(bias, dtype=np.float64)
    return y.astype(_working_dtype(x, weights), copy=False)


def fc_backward(grad_out: np.ndarray, x: np.ndarray, weights: np.ndarray,
                input_grad: bool = True):
    """Gradients of the affine map: (grad_input, grad_weights, grad_bias);
    grad_input is None without `input_grad`."""
    if grad_out.shape != (x.shape[0], weights.shape[0]):
        raise DimensionError(
            f"grad_out shape {grad_out.shape} does not match output shape "
            f"{(x.shape[0], weights.shape[0])}")
    dt = _working_dtype(x, weights)
    g = np.asarray(grad_out, dtype=np.float64)
    x64 = np.asarray(x, dtype=np.float64)
    grad_weights = (g.T @ x64).astype(dt, copy=False)
    grad_bias = g.sum(axis=0).astype(dt, copy=False)
    if not input_grad:
        return None, grad_weights, grad_bias
    del x64  # lowers the peak: the input gradient is the same size
    grad_input = (g @ np.asarray(weights, dtype=np.float64)).astype(dt, copy=False)
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
