"""Correctness checks run outside every timed interval.

A few images are pushed through the network layer by layer. Each layer's
fast output is compared with a reference computed from the same input:
`oracle.naive_conv` for conv, `oracle.oriented_conv_reference` for rpc/frpc,
`oracle.naive_maxpool` for pooling, and float64 numpy for fc, relu and
flatten. Split-dropout layers fork the walk with the masks the fast path was
given, so every branch is checked, and the branch losses are recomputed in
float64. Errors are measured as in the conv-oracle acceptance criterion:
max |fast - ref| / max |ref|.
"""
from __future__ import annotations

import math

import numpy as np

from spinconv import evaluation, oracle, training
from spinconv.layers import (ConvLayer, DropoutLayer, FcLayer, FlattenLayer,
                             FrpcConvLayer, MaxPoolLayer, ReluLayer,
                             RpcConvLayer)

TOLERANCE = 1e-6


def relative_error(fast, ref) -> float:
    fast = np.asarray(fast, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    scale = max(float(np.max(np.abs(ref))), 1e-8)
    return float(np.max(np.abs(fast - ref))) / scale


def _reference(layer, x):
    if isinstance(layer, (RpcConvLayer, FrpcConvLayer)):
        return oracle.oriented_conv_reference(x, layer)
    if isinstance(layer, ConvLayer):
        return oracle.naive_conv(x, layer.conv_params())
    if isinstance(layer, MaxPoolLayer):
        return oracle.naive_maxpool(x, layer.window, layer.stride)[0]
    if isinstance(layer, FcLayer):
        return (np.asarray(x, np.float64) @ np.asarray(layer.weights, np.float64).T
                + np.asarray(layer.bias, np.float64))
    if isinstance(layer, ReluLayer):
        return np.maximum(np.asarray(x, np.float64), 0.0)
    if isinstance(layer, FlattenLayer):
        return x.reshape(x.shape[0], -1)
    raise TypeError(f"no reference for layer kind {layer.kind!r}")


def _walk(net, x, masks):
    """Leaf logits of every branch (depth-first, kept side first) and the
    worst per-layer error on the way."""
    leaves, worst = [], 0.0

    def walk(i, act):
        nonlocal worst
        for j in range(i, len(net.layers)):
            layer = net.layers[j]
            if isinstance(layer, DropoutLayer):
                bits = masks[j].astype(act.dtype)
                walk(j + 1, act * bits)
                walk(j + 1, act * (1 - bits))
                return
            fast = layer.forward(act, {})
            worst = max(worst, relative_error(fast, _reference(layer, act)))
            act = fast
        leaves.append(act)

    walk(0, x)
    return leaves, worst


def _log_softmax(logits):
    z = np.asarray(logits, np.float64)
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def check_training(net, images, labels, rng) -> float:
    """Worst error of one training forward pass on a few images.

    Every split layer gets a fixed mask drawn from `rng`; the step loss and
    the branch-averaged probabilities of `training.forward_training` are
    compared with the mean over the reference branches.
    """
    masks = {i: (rng.random(_width(net, i)) < 0.5).astype(np.float32)
             for i in net.split_layers()}
    loss, branches = training.forward_training(net, images, labels, pinned_masks=masks)
    probs = training.mean_branch_probabilities(branches)
    leaves, worst = _walk(net, images, masks)
    idx = np.arange(len(labels))
    logp = [_log_softmax(leaf) for leaf in leaves]
    ref_loss = math.fsum(float(-lp[idx, labels].mean()) for lp in logp) / len(logp)
    ref_probs = np.mean([np.exp(lp) for lp in logp], axis=0)
    worst = max(worst, abs(loss - ref_loss) / max(abs(ref_loss), 1e-8))
    return max(worst, relative_error(probs, ref_probs))


def _width(net, i):
    """Unit count entering layer i, from a forward pass of one zero image."""
    act = np.zeros((1,) + tuple(net.spec.input_shape), np.float32)
    for layer in net.layers[:i]:
        if not isinstance(layer, DropoutLayer):
            act = layer.forward(act, {})
    return act.shape[1]


def check_inference(inf_net, images) -> float:
    """Worst error of `evaluation.predict_logits` on a few images."""
    logits = evaluation.predict_logits(inf_net, images)
    leaves, worst = _walk(inf_net, images, {})
    return max(worst, relative_error(logits, leaves[0]))
