"""Brute-force reference implementations, used only by tests and the
gradcheck command.

Everything here favors obviousness over speed: explicit sliding-window
loops, per-coordinate central differences, exhaustive mask enumeration.
None of it shares layout tricks with the main path; comparisons call only
the public forward/backward entry points of the modules under test. The
orientation banks are rebuilt here cell by cell, walking each value along
its square ring, without the layers' `kernel_transforms.bank_index` tables,
so every comparison against the oracle checks those tables too.
"""
from __future__ import annotations

import copy
import functools
import itertools
import math

import numpy as np

from .errors import ConfigError, ConsistencyError, InputError
from .layers import (ConvLayer, DropoutLayer, FcLayer, MaxPoolLayer, Network,
                     NetworkSpec, PReluLayer, ReluLayer, RpcConvLayer, FrpcConvLayer)
from .tensor_core import ConvParams
from .training import backward_training, forward_training

EPSILON_DEFAULT = 1e-3


def relative_error(a, b):
    """|a - b| / max(|a|, |b|, 1e-8), elementwise."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return np.abs(a - b) / denom


# ---------------------------------------------------------------------------
# Reference forward passes
# ---------------------------------------------------------------------------

def naive_conv(x: np.ndarray, params: ConvParams) -> np.ndarray:
    """Direct sliding-window convolution, quadruple loop, double precision."""
    n, c, h, w = x.shape
    o, _, k, _ = params.weights.shape
    stride, pad = params.stride, params.pad
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=np.float64)
    xp[:, :, pad:pad + h, pad:pad + w] = x
    wts = np.asarray(params.weights, dtype=np.float64)
    bias = np.asarray(params.bias, dtype=np.float64)
    h_out = (h + 2 * pad - k) // stride + 1
    w_out = (w + 2 * pad - k) // stride + 1
    if h_out < 1 or w_out < 1:
        raise InputError(f"no output positions for input {h}x{w}, kernel {k}, "
                         f"stride {stride}, pad {pad}")
    y = np.empty((n, o, h_out, w_out), dtype=np.float64)
    for b in range(n):
        for f in range(o):
            for i in range(h_out):
                for j in range(w_out):
                    win = xp[b, :, i * stride:i * stride + k, j * stride:j * stride + k]
                    y[b, f, i, j] = np.sum(win * wts[f]) + bias[f]
    return y


def naive_maxpool(x: np.ndarray, window: int, stride: int):
    """Exhaustive window scan; first maximum in row-major order wins."""
    n, c, h, w = x.shape
    h_out = (h - window) // stride + 1
    w_out = (w - window) // stride + 1
    y = np.empty((n, c, h_out, w_out), dtype=x.dtype)
    arg = np.empty((n, c, h_out, w_out), dtype=int)
    for b in range(n):
        for ch in range(c):
            for i in range(h_out):
                for j in range(w_out):
                    best, best_idx = None, -1
                    for di in range(window):
                        for dj in range(window):
                            r, co = i * stride + di, j * stride + dj
                            v = x[b, ch, r, co]
                            if best is None or v > best:
                                best, best_idx = v, r * w + co
                    y[b, ch, i, j] = best
                    arg[b, ch, i, j] = best_idx
    return y, arg


def _ring_successor(i, j, c):
    """The next cell clockwise after (i, j) on its square ring around the
    center (c, c); the ring runs right along its top edge, down its right,
    left along its bottom and up its left."""
    r = max(abs(i - c), abs(j - c))
    if i == c - r and j < c + r:
        return i, j + 1
    if j == c + r and i < c + r:
        return i + 1, j
    if i == c + r and j > c - r:
        return i, j - 1
    return i - 1, j


def rotate_45(kernel: np.ndarray) -> np.ndarray:
    """One clockwise 45-degree turn of a [..., k, k] kernel (k odd): the
    value in each cell of ring r walks r cells along that ring, one cell at
    a time; the center stays."""
    k = kernel.shape[-1]
    c = k // 2
    out = np.empty_like(kernel)
    for i in range(k):
        for j in range(k):
            ti, tj = i, j
            for _ in range(max(abs(i - c), abs(j - c))):
                ti, tj = _ring_successor(ti, tj, c)
            out[..., ti, tj] = kernel[..., i, j]
    return out


def orientation_variants(kernel: np.ndarray, mode: str) -> list:
    """Every variant of a [..., k, k] kernel under a bank mode, variant 0
    the kernel itself: rotate8 gives 8 turns in 45-degree steps, flip_lr
    and flip_ud the kernel and its `np.flip` mirror."""
    if mode == "rotate8":
        out = [kernel.copy()]
        for _ in range(7):
            out.append(rotate_45(out[-1]))
        return out
    axis = {"flip_lr": -1, "flip_ud": -2}[mode]
    return [kernel.copy(), np.flip(kernel, axis).copy()]


def oriented_banks(layer):
    """(filter index, orientation_variants) per pooled filter of an rpc/frpc
    layer, rebuilt from its current weights: rotated filters first, then
    flipped ones, each in filter index order."""
    out = []
    for f in layer.rotate_set:
        out.append((int(f), orientation_variants(layer.weights[f], "rotate8")))
    for f in layer.flip_set:
        mode = "flip_lr" if layer.flip_axes[int(f)] == "left_right" else "flip_ud"
        out.append((int(f), orientation_variants(layer.weights[f], mode)))
    return out


def oriented_conv_reference(x: np.ndarray, layer) -> np.ndarray:
    """Max over separately convolved bank variants, filter by filter.

    Starts from the plain naive convolution and overwrites each pooled
    filter's map with the explicit max of its variants' responses.
    """
    y = naive_conv(x, layer.conv_params())
    for f, bank in oriented_banks(layer):
        resps = [naive_conv(x, ConvParams(v[None], layer.bias[f:f + 1],
                                          layer.stride, layer.pad))[:, 0]
                 for v in bank]
        y[:, f] = np.max(np.stack(resps, axis=0), axis=0)
    return y


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------

class _WinnerFlip(Exception):
    """A finite-difference probe changed an argmax decision; the random
    case must be redrawn."""


def _central(fn, flat, i, epsilon, stable=None):
    """Central difference of fn over coordinate i of the flat view `flat`,
    restored afterwards. `stable()` says whether the discrete decisions
    inside fn are still the unperturbed ones; a probe that changes one
    rejects the case."""
    orig = flat[i]
    values = []
    for value in (orig + epsilon, orig - epsilon):
        flat[i] = value
        values.append(fn())
        if stable is not None and not stable():
            flat[i] = orig
            raise _WinnerFlip
    flat[i] = orig
    return (values[0] - values[1]) / (2.0 * epsilon)


def finite_difference(fn, params: np.ndarray, epsilon: float = EPSILON_DEFAULT):
    """Central-difference gradient of a scalar function over every
    coordinate of `params` (perturbed in place and restored)."""
    flat = params.reshape(-1)
    grad = np.array([_central(fn, flat, i, epsilon) for i in range(flat.size)],
                    dtype=np.float64)
    return grad.reshape(params.shape)


def _probe(fn, targets, quotas, rng, stable=None):
    """Max relative error, and the number of coordinates probed, between
    sampled central differences of fn and the analytic gradients of
    `targets`, (array, gradient) pairs; `quotas` gives the coordinates per
    array."""
    worst, n = 0.0, 0
    for (arr, analytic), quota in zip(targets, quotas, strict=True):
        flat = arr.reshape(-1)
        ana = np.asarray(analytic, dtype=np.float64).reshape(-1)
        idx = rng.choice(flat.size, size=min(quota, flat.size), replace=False)
        for i in idx:
            est = _central(fn, flat, i, EPSILON_DEFAULT, stable)
            worst = max(worst, float(relative_error(est, ana[i])))
        n += len(idx)
    return worst, n


def _projection(rng, shape):
    """Random grad_out with entries bounded away from zero."""
    return (rng.uniform(0.5, 1.5, shape) * rng.choice([-1.0, 1.0], shape))


def _away_from_zero(x, margin):
    return x + np.sign(x) * margin


# ---------------------------------------------------------------------------
# Per-layer gradient checks
# ---------------------------------------------------------------------------

def _probe_layer(layer, x, rng, quotas, guard=None):
    """Max relative error of one layer's backward against central
    differences of sum(forward(x) * P) for a random projection P. Probes x,
    then each entry of `layer.params()` in order, `quotas` giving the
    coordinates per array. `guard` names the cache entries that hold the
    forward's discrete decisions; a probe that changes one rejects the case."""
    cache = {}
    proj = _projection(rng, layer.forward(x, cache).shape)
    gx = layer.backward(proj, cache)

    def fn():
        return float(np.sum(layer.forward(x, {}) * proj))

    def stable():
        c = {}
        layer.forward(x, c)
        return all(np.array_equal(c[key], cache[key]) for key in guard)

    targets = [(x, gx)] + [(arr, cache["grads"][name]) for name, arr in layer.params().items()]
    return _probe(fn, targets, quotas, rng, stable if guard else None)


def _check_conv(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, (2, 3, 6, 7))
    layer = ConvLayer(3, 4, 3, stride=2, pad=1, dtype=np.float64)
    layer.weights[...] = rng.normal(0.0, 0.5, layer.weights.shape)
    layer.bias[...] = rng.normal(0.0, 0.5, layer.bias.shape)
    return _probe_layer(layer, x, rng, (50, 50, 4))


def _check_fc(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, (5, 9))
    layer = FcLayer(9, 7, dtype=np.float64)
    layer.weights[...] = rng.normal(0.0, 0.5, layer.weights.shape)
    layer.bias[...] = rng.normal(0.0, 0.5, layer.bias.shape)
    return _probe_layer(layer, x, rng, (45, 55, 7))


def _check_relu(seed):
    rng = np.random.default_rng(seed)
    x = _away_from_zero(rng.normal(0.0, 1.0, (3, 4, 5, 5)), 0.05)
    return _probe_layer(ReluLayer(), x, rng, (110,))


def _check_prelu(seed):
    rng = np.random.default_rng(seed)
    x = _away_from_zero(rng.normal(0.0, 1.0, (3, 6, 4, 4)), 0.05)
    layer = PReluLayer(6, dtype=np.float64)
    layer.slope[...] = rng.uniform(0.1, 0.4, 6)
    return _probe_layer(layer, x, rng, (100, 6))


def _check_maxpool(seed):
    rng = np.random.default_rng(seed)
    # distinct values with gaps far beyond epsilon, so winners cannot flip
    x = 0.01 * rng.permutation(2 * 3 * 6 * 6).astype(np.float64).reshape(2, 3, 6, 6)
    x -= x.mean()
    return _probe_layer(MaxPoolLayer(3, 2), x, rng, (108,), guard=("argmax",))


def _check_sdropout(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.5, (4, 6))
    labels = rng.integers(0, 3, 4)
    fc1 = FcLayer(6, 8, dtype=np.float64)
    fc1.weights[...] = rng.normal(0.0, 0.5, fc1.weights.shape)
    fc1.bias[...] = rng.normal(0.0, 0.3, 8)
    drop = DropoutLayer(p=0.5, mode="split", rng=np.random.default_rng(seed + 1))
    fc2 = FcLayer(8, 3, dtype=np.float64)
    fc2.weights[...] = rng.normal(0.0, 0.5, fc2.weights.shape)
    fc2.bias[...] = rng.normal(0.0, 0.3, 3)
    spec = NetworkSpec(input_shape=(6, 1, 1), layers=[])
    net = Network([fc1, drop, fc2], spec, seed)
    bits = (rng.random(8) < 0.5).astype(np.float32)
    pinned = {1: bits}

    def fn():
        return forward_training(net, x, labels, pinned_masks=pinned)[0]

    _, branches = forward_training(net, x, labels, pinned_masks=pinned)
    grads = backward_training(branches)
    targets = [(x, branches.input_grad)] + [(arr, grads[(i, name)])
                                            for i, name, arr in net.named_params()]
    return _probe(fn, targets, (24, 48, 8, 24, 3), rng)


def _oriented_case(seed, flip):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, (2, 2, 5, 5))
    cls = FrpcConvLayer if flip else RpcConvLayer
    kwargs = dict(rotate_fraction=0.25, flip_fraction=0.25) if flip \
        else dict(rotate_fraction=0.5)
    layer = cls(2, 4, 3, stride=1, pad=1, rng=np.random.default_rng(seed + 7),
                dtype=np.float64, **kwargs)
    layer.weights[...] = rng.normal(0.0, 0.7, layer.weights.shape)
    layer.bias[...] = rng.normal(0.0, 0.3, layer.bias.shape)
    return _probe_layer(layer, x, rng, (50, 48, 4), guard=("rot_win", "flip_win"))


_check_rpc = functools.partial(_oriented_case, flip=False)
_check_frpc = functools.partial(_oriented_case, flip=True)


_CHECKS = {"conv": _check_conv, "fc": _check_fc, "relu": _check_relu,
           "prelu": _check_prelu, "maxpool": _check_maxpool,
           "sdropout": _check_sdropout, "rpc": _check_rpc, "frpc": _check_frpc}
GRAD_CHECK_KINDS = tuple(_CHECKS)


def gradient_suite(seed: int = 0, kinds=None):
    """Finite-difference check per layer kind.

    Returns a list of {'layer', 'max_rel', 'coords'} dicts. Cases whose
    argmax decisions flip under probing are redrawn with a fresh seed
    (deterministically) rather than silently tolerated.
    """
    if seed < 0:
        raise InputError(f"gradient check seed must be non-negative, got {seed}")
    kinds = list(kinds) if kinds else list(GRAD_CHECK_KINDS)
    unknown = [k for k in kinds if k not in _CHECKS]
    if unknown:
        raise InputError(f"unknown layer kind(s) {unknown}; valid: "
                         f"{sorted(_CHECKS)}")
    results = []
    for kind in kinds:
        for attempt in range(25):
            try:
                max_rel, coords = _CHECKS[kind](seed + 997 * attempt)
                break
            except _WinnerFlip:
                continue
        else:
            raise ConsistencyError(
                f"no probe-stable random case found for {kind!r} after 25 draws")
        results.append({"layer": kind, "max_rel": max_rel, "coords": coords})
    return results


# ---------------------------------------------------------------------------
# Exhaustive mask enumeration
# ---------------------------------------------------------------------------

def split_loss_reference(net: Network, batch, labels, bits) -> float:
    """(f(m) + f(1-m)) / 2 with f evaluated by two independent
    standard-dropout forward passes under pinned masks."""
    std = _mode_copy(net, "standard")
    idx = std.dropout_layers()[0]
    bits = np.asarray(bits, dtype=np.float32)
    f_m = forward_training(std, batch, labels, pinned_masks={idx: bits})[0]
    f_c = forward_training(std, batch, labels, pinned_masks={idx: 1 - bits})[0]
    return (f_m + f_c) / 2.0


def _mode_copy(net: Network, mode: str) -> Network:
    out = copy.deepcopy(net)
    for i in out.dropout_layers():
        out.layers[i].mode = mode
    return out


def enumerate_mask_losses(tiny_net: Network, batch, labels):
    """Exhaustively average the training loss over every possible mask.

    Returns (L_dropout, L_sdropout): the expected loss under standard
    dropout and under the split variant, each computed by the real
    training forward pass with the mask pinned to every one of the 2^d
    values. At p = 0.5 the two must agree to double-precision accuracy.
    """
    drop_idx = tiny_net.dropout_layers()
    if len(drop_idx) != 1:
        raise InputError(f"enumeration needs exactly one dropout layer, "
                         f"found {len(drop_idx)}")
    idx = drop_idx[0]
    if tiny_net.layers[idx].p != 0.5:
        raise ConfigError("mask enumeration is meaningful only at p = 0.5")

    std = _mode_copy(tiny_net, "standard")
    split = _mode_copy(tiny_net, "split")
    probe = forward_training(split, batch, labels)[1]
    d = len(probe.masks[idx])
    if d > 12:
        raise InputError(f"{d} split units would need 2^{d} forward passes; "
                         "limit is 12")

    std_losses, split_losses = [], []
    for combo in itertools.product((1.0, 0.0), repeat=d):
        bits = np.asarray(combo, dtype=np.float32)
        std_losses.append(forward_training(std, batch, labels,
                                           pinned_masks={idx: bits})[0])
        split_losses.append(forward_training(split, batch, labels,
                                             pinned_masks={idx: bits})[0])
    scale = 1.0 / len(std_losses)
    return math.fsum(std_losses) * scale, math.fsum(split_losses) * scale
