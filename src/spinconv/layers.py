"""Network layers: convolution, pool, fc, activations, and dropout in
standard and split mode.

Layers hold only parameters, filter selections and a dropout layer's mask
stream. Everything else belongs to one call: `forward(x, cache)` writes
whatever the matching backward needs into the caller-owned `cache` dict,
and `backward(grad_out, cache)` reads it back and writes the parameter
gradients into `cache["grads"]`, so calls that interleave on one layer
keep apart. `infer(x)` returns the same output as `forward` and keeps
nothing for a backward; max-pooling and orientation pooling use it to
skip their winner scans.

Split-mode dropout maps R rows to 2R rows, the masked rows stacked over
their complement, so every later layer runs both branches of the split as
one batch through the same weights.

Convolution is one layer whose pooled filters take the max over an
orientation bank (rotate8, flip_lr, flip_ud), the first maximum winning as
in max-pooling; conv, rpc_conv and frpc_conv differ only in how many
filters pool, and a plain convolution has none.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernel_transforms as kt
from .config import selection_size
from .errors import ConsistencyError, DimensionError, InputError
from .tensor_core import (ConvParams, _output_size, conv2d_backward,
                          conv2d_forward, fc_backward, fc_forward,
                          maxpool2d_backward, maxpool2d_forward,
                          prelu_backward, prelu_forward, relu_backward,
                          relu_forward)


# ---------------------------------------------------------------------------
# Layers and dropout
# ---------------------------------------------------------------------------

class Layer:
    kind = "base"

    def forward(self, x, cache: dict):
        raise NotImplementedError

    def infer(self, x):
        """The forward output alone, for inference; no backward can follow."""
        return self.forward(x, {})

    def backward(self, grad_out, cache: dict):
        """The input gradient. Layers with parameters set `cache["grads"]`
        to name -> gradient of every parameter, and also take
        `input_grad=False`, which sets them and returns None."""
        raise NotImplementedError

    def params(self) -> dict:
        """Name -> live parameter array (mutated in place by the optimizer)."""
        return {}


class DropoutLayer(Layer):
    """Dropout in standard or split mode.

    Standard mode multiplies activations by a Bernoulli(p) keep-mask drawn
    once per batch. Split mode keeps the masked part and its complement,
    stacked as [m*x; (1-m)*x], so both run through the same downstream
    weights. Split mode needs p = 0.5 because the two-branch loss identity
    only holds when a mask and its complement are equally likely; the
    config's layer table checks p and mode.

    A mask is a 0/1 array over the layer's input units, shared across the
    batch. The caller puts it in `cache["mask"]` before forward, either
    pinned or from `draw_mask`, which takes the next mask of the layer's
    own stream; forward refuses a cache without one (ConsistencyError) or
    with other values (InputError), and leaves the float32 array there.
    """

    kind = "dropout"

    def __init__(self, p: float = 0.5, mode: str = "standard", rng=None):
        self.p = p
        self.mode = mode
        self.rng_stream = rng if rng is not None else np.random.default_rng(0)

    def draw_mask(self, d: int) -> np.ndarray:
        return (self.rng_stream.random(d) < self.p).astype(np.float32)

    def forward(self, x, cache):
        if "mask" not in cache:
            raise ConsistencyError("dropout forward called without a mask")
        mask = np.asarray(cache["mask"], dtype=np.float32)
        if not np.all((mask == 0) | (mask == 1)):
            raise InputError("mask bits must be 0 or 1")
        if self.mode == "split":
            y = sdropout_forward(x, mask)
        else:
            y = dropout_forward_standard(x, mask)
        cache["mask"] = mask
        return y

    def infer(self, x):
        raise ConsistencyError("network still contains dropout layers; convert "
                               "with to_inference before evaluating")

    def backward(self, grad_out, cache):
        if "mask" not in cache:
            raise ConsistencyError("dropout backward called without a matching forward")
        if self.mode == "split":
            return sdropout_backward(grad_out, cache["mask"])
        return grad_out * cache["mask"].astype(grad_out.dtype, copy=False)


def _check_mask(mask: np.ndarray, units: int):
    if mask.shape != (units,):
        raise DimensionError(
            f"mask shape {mask.shape} does not match unit count {units}")


def dropout_forward_standard(y: np.ndarray, mask: np.ndarray):
    """Standard dropout in training: multiply by the keep-mask (inference
    folds dropout into the weights in to_inference)."""
    _check_mask(mask, y.shape[1])
    return y * mask.astype(y.dtype, copy=False)


def sdropout_forward(y: np.ndarray, mask: np.ndarray):
    """Split the activation into its masked part stacked over the complement:
    stacked[:R] = m * y and stacked[R:] = (1 - m) * y for R rows of y, so
    the two halves add back to y bitwise."""
    _check_mask(mask, y.shape[1])
    bits = mask.astype(y.dtype, copy=False)
    r = y.shape[0]
    out = np.empty((2 * r,) + y.shape[1:], dtype=np.result_type(y, bits))
    np.multiply(y, bits, out=out[:r])
    np.multiply(y, 1 - bits, out=out[r:])
    return out


def sdropout_backward(grad: np.ndarray, mask: np.ndarray):
    """Merge the stacked branch gradients: m * grad[:R] + (1 - m) * grad[R:]."""
    if grad.shape[0] % 2:
        raise DimensionError(
            f"stacked split gradient needs an even row count, got {grad.shape[0]}")
    _check_mask(mask, grad.shape[1])
    r = grad.shape[0] // 2
    bits = mask.astype(grad.dtype, copy=False)
    return grad[:r] * bits + grad[r:] * (1 - bits)


# ---------------------------------------------------------------------------
# Standard layers
# ---------------------------------------------------------------------------

class _OrientedConv(Layer):
    """Convolution where some output filters pool over an orientation bank.

    Each pooled filter is convolved with every variant of its bank (8
    rotations, or original + one flip) and the responses are reduced by an
    elementwise max. The variants share the single stored kernel, so the
    layer trains exactly as many values as a plain convolution, which is
    this layer with no pooled filter (the fractions default to 0).

    The layer owns the selections of pooled filters and two banks built
    from them once: the rotated filters with the rotate8 cell permutations
    of `kernel_transforms.bank_index`, and the flipped filters each with its
    own flip_lr or flip_ud pair. `forward`, `infer` and `backward` hand the
    stored kernels and the banks to one `tensor_core` conv call over the
    whole batch, which expands, pools and routes the variants and pulls the
    gradients back onto the stored kernels. `forward` also keeps the winner
    (the first maximum or, where a NaN occurs, the first NaN, as np.argmax
    picks) per position as int8 in `cache["rot_win"]` [N, rotated filters,
    H', W'] and `cache["flip_win"]` [N, flipped filters, H', W'] (None
    without that bank); `infer` skips it.

    Ties are decided on the computed responses. Identical expanded kernel
    rows need not come out of the float64 GEMM bit-identical, so in float64
    a rotation- or flip-symmetric kernel can let a transformed copy win a
    tie by one last bit.

    Which filters rotate (and which flip) is drawn once at construction and
    never changes afterwards, so the network's seed fixes it; an empty draw
    leaves `rng` untouched. The config's layer table checks the fractions
    and that the selections fit the filters, so every draw is valid.
    """

    def __init__(self, in_channels, out_channels, kernel, stride=1, pad=0,
                 rotate_fraction=0.0, flip_fraction=0.0, rng=None,
                 dtype=np.float32):
        self.weights = np.zeros((out_channels, in_channels, kernel, kernel), dtype)
        self.bias = np.zeros(out_channels, dtype)
        self.stride = stride
        self.pad = pad

        n_rot = selection_size(rotate_fraction, out_channels)
        n_flip = selection_size(flip_fraction, out_channels)
        rng = rng if rng is not None else np.random.default_rng(0)
        rotate = rng.choice(out_channels, size=n_rot, replace=False)
        remaining = np.setdiff1d(np.arange(out_channels), rotate)
        flip_order = rng.choice(remaining, size=n_flip, replace=False)
        self.rotate_set = np.sort(rotate)
        # flip axes alternate in selection order: even draw -> left-right,
        # odd draw -> up-down
        self.flip_axes = {int(f): ("left_right" if i % 2 == 0 else "up_down")
                          for i, f in enumerate(flip_order)}
        self.flip_set = np.array(sorted(self.flip_axes), dtype=int)
        # (filters, their [m, S, k*k] cell permutations, winner-map key)
        self._banks = []
        if n_rot:
            self._banks.append((self.rotate_set, np.broadcast_to(
                kt.bank_index("rotate8", kernel), (n_rot, 8, kernel * kernel)), "rot_win"))
        if n_flip:
            self._banks.append((self.flip_set, np.stack([
                kt.bank_index("flip_lr" if self.flip_axes[int(f)] == "left_right"
                              else "flip_ud", kernel) for f in self.flip_set]), "flip_win"))

    def params(self):
        return {"weights": self.weights, "bias": self.bias}

    def conv_params(self) -> ConvParams:
        return ConvParams(self.weights, self.bias, self.stride, self.pad)

    # -- forward / backward ----------------------------------------------
    def _conv_banks(self, wins):
        """The banks as `tensor_core` takes them, with the winner maps of
        `wins` (keyed like the cache; a missing map is None)."""
        return [(f, index, wins.get(key)) for f, index, key in self._banks]

    def forward(self, x, cache):
        params = self.conv_params()
        h, w = _output_size(x, params)
        wins = dict.fromkeys(("rot_win", "flip_win"))
        for f, _, key in self._banks:
            wins[key] = np.empty((len(x), len(f), h, w), np.int8)
        out = conv2d_forward(x, params, self._conv_banks(wins))
        cache.update(wins, x=x)
        return out

    def infer(self, x):
        return conv2d_forward(x, self.conv_params(), self._conv_banks({}))

    def backward(self, grad_out, cache, input_grad=True):
        if "x" not in cache:
            raise ConsistencyError("conv backward called without a matching forward")
        gx, gw, gb = conv2d_backward(grad_out, cache["x"], self.conv_params(),
                                     self._conv_banks(cache), input_grad)
        cache["grads"] = {"weights": gw, "bias": gb}
        return gx


class ConvLayer(_OrientedConv):
    """Plain convolution: no filter pools over an orientation bank."""

    kind = "conv"


class RpcConvLayer(_OrientedConv):
    """Rotate-pooling convolution: a fraction r of the output filters max
    over their 8 weight-shared rotations; the rest convolve normally."""

    kind = "rpc_conv"


class FrpcConvLayer(_OrientedConv):
    """Flip-rotate-pooling convolution: disjoint filter subsets pool over 8
    rotations or over {original, flipped}; flip axes alternate LR/UD."""

    kind = "frpc_conv"


class MaxPoolLayer(Layer):
    kind = "maxpool"

    def __init__(self, window: int, stride: int):
        self.window = window
        self.stride = stride

    def forward(self, x, cache):
        y, argmax = maxpool2d_forward(x, self.window, self.stride)
        cache["argmax"] = argmax
        cache["input_shape"] = x.shape
        return y

    def infer(self, x):
        return maxpool2d_forward(x, self.window, self.stride, indices=False)[0]

    def backward(self, grad_out, cache):
        if "argmax" not in cache:
            raise ConsistencyError("maxpool backward called without a matching forward")
        return maxpool2d_backward(grad_out, cache["argmax"], cache["input_shape"])


class ReluLayer(Layer):
    kind = "relu"

    def forward(self, x, cache):
        cache["x"] = x
        return relu_forward(x)

    def backward(self, grad_out, cache):
        return relu_backward(grad_out, cache["x"])


class PReluLayer(Layer):
    kind = "prelu"

    def __init__(self, channels: int, dtype=np.float32):
        self.slope = np.full(channels, 0.25, dtype)

    def params(self):
        return {"slope": self.slope}

    def forward(self, x, cache):
        cache["x"] = x
        return prelu_forward(x, self.slope)

    def backward(self, grad_out, cache, input_grad=True):
        gx, gs = prelu_backward(grad_out, cache["x"], self.slope)
        cache["grads"] = {"slope": gs}
        return gx if input_grad else None


class FlattenLayer(Layer):
    kind = "flatten"

    def forward(self, x, cache):
        cache["input_shape"] = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out, cache):
        return grad_out.reshape(cache["input_shape"])


class FcLayer(Layer):
    kind = "fc"

    def __init__(self, in_features: int, out_features: int, dtype=np.float32):
        self.weights = np.zeros((out_features, in_features), dtype)
        self.bias = np.zeros(out_features, dtype)

    def params(self):
        return {"weights": self.weights, "bias": self.bias}

    def forward(self, x, cache):
        cache["x"] = x
        return fc_forward(x, self.weights, self.bias, cache.get("split"))

    def backward(self, grad_out, cache, input_grad=True):
        if "x" not in cache:
            raise ConsistencyError("fc backward called without a matching forward")
        gx, gw, gb = fc_backward(grad_out, cache["x"], self.weights, input_grad)
        cache["grads"] = {"weights": gw, "bias": gb}
        return gx


# ---------------------------------------------------------------------------
# Network
# ---------------------------------------------------------------------------

@dataclass
class NetworkSpec:
    """Ordered layer descriptors plus the input shape they apply to.

    Each descriptor is a dict with a 'kind' key (conv, rpc_conv, frpc_conv,
    maxpool, relu, prelu, flatten, fc, dropout) and that kind's
    hyperparameters, kept as given; `config.network_shapes` fills in the
    defaults and infers input channels and fc input widths.
    """

    input_shape: tuple  # (C, H, W)
    layers: list = field(default_factory=list)


class Network:
    """Materialized layer stack; built by training.init_weights."""

    def __init__(self, layers: list, spec: NetworkSpec, seed: int):
        self.layers = layers
        self.spec = spec
        self.seed = seed
        self.inference = False
        self.data_rng = None  # shuffle stream, attached by init_weights

    def split_layers(self):
        return [i for i, l in enumerate(self.layers)
                if isinstance(l, DropoutLayer) and l.mode == "split"]

    def dropout_layers(self):
        return [i for i, l in enumerate(self.layers) if isinstance(l, DropoutLayer)]

    def named_params(self):
        for i, layer in enumerate(self.layers):
            for name, arr in layer.params().items():
                yield i, name, arr

    def forward_inference(self, x: np.ndarray) -> np.ndarray:
        """Inference chain through each layer's `infer`, so no backward state
        (pool argmax indices, orientation winners) is computed; a dropout
        layer's `infer` refuses, so dropout must be folded away first."""
        for layer in self.layers:
            x = layer.infer(x)
        return x
