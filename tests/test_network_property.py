"""One property over random whole networks: the training backward against
central differences, the training forward against inference, and a
checkpoint round trip, on networks drawn across every conv kind, kernel,
stride, pad, activation, pooling and dropout mode."""

import math
import os
import tempfile

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spinconv import training as tr
from spinconv.checkpoint import load_checkpoint, save_checkpoint
from spinconv.config import network_shapes
from spinconv.errors import ConfigError
from spinconv.evaluation import predict_logits
from spinconv.layers import NetworkSpec
from spinconv.tensor_core import _CHUNK

EPSILON = 1e-5
TOLERANCE = 1e-4
PROBES = 8  # coordinates probed per array


@st.composite
def _networks(draw):
    """(input shape, layers, classes): 1-2 conv stages, each conv, rpc or
    frpc with relu or prelu and an optional max-pool, then an optional fc
    with split or standard dropout, then an fc head."""
    h, w = draw(st.integers(5, 11)), draw(st.integers(5, 10))
    w += w >= h  # never square
    layers = []
    for _ in range(draw(st.integers(1, 2))):
        k = draw(st.sampled_from([1, 3, 5]))
        out = draw(st.integers(2, 4))
        conv = {"kind": draw(st.sampled_from(["conv", "rpc_conv", "frpc_conv"])),
                "out_channels": out, "kernel": k, "stride": draw(st.integers(1, 2)),
                "pad": draw(st.integers(0, k // 2))}
        if conv["kind"] != "conv":
            # whole filter counts, so no selection rounds past the filters
            n_rot = draw(st.integers(0, out))
            conv["rotate_fraction"] = n_rot / out
            if conv["kind"] == "frpc_conv":
                conv["flip_fraction"] = draw(st.integers(0, out - n_rot)) / out
        layers += [conv, {"kind": draw(st.sampled_from(["relu", "prelu"]))}]
        if draw(st.booleans()):
            layers.append({"kind": "maxpool", "window": draw(st.integers(1, 2)),
                           "stride": draw(st.integers(1, 2))})
    layers.append({"kind": "flatten"})
    mode = draw(st.sampled_from([None, "split", "standard"]))
    if mode is not None:
        p = 0.5 if mode == "split" else draw(st.sampled_from([0.3, 0.5, 0.7]))
        layers += [{"kind": "fc", "out_features": draw(st.integers(2, 6))},
                   {"kind": "dropout", "p": p, "mode": mode}]
    classes = draw(st.integers(2, 4))
    layers.append({"kind": "fc", "out_features": classes})
    return (draw(st.integers(1, 2)), h, w), layers, classes


def _build(input_shape, layers, seed, dtype):
    """The network with weights scaled to unit fan-in variance, so signals
    neither vanish nor saturate the softmax through two stages."""
    net = tr.init_weights(NetworkSpec(input_shape, layers), seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed)
    for _, name, arr in net.named_params():
        if name == "weights":
            arr[...] = rng.normal(0.0, 1.0 / math.sqrt(math.prod(arr.shape[1:])), arr.shape)
        elif name == "bias":
            arr[...] = rng.normal(0.0, 0.1, arr.shape)
        else:
            arr[...] = rng.uniform(0.1, 0.4, arr.shape)
    return net


def _decisions(net, caches):
    """Every discrete choice of a training forward: orientation winners,
    pool argmaxes and relu/prelu input signs."""
    parts = []
    for layer, cache in zip(net.layers, caches):
        for key in ("rot_win", "flip_win", "argmax"):
            if cache.get(key) is not None:
                parts.append(cache[key].tobytes())
        if layer.kind in ("relu", "prelu"):
            parts.append((cache["x"] > 0).tobytes())
    return b"".join(parts)


def _check_gradients(input_shape, layers, classes, seed):
    """Worst scaled error of backward_training's input and parameter
    gradients against central differences, or None when a probe moved a
    discrete choice of the forward."""
    net = _build(input_shape, layers, seed, np.float64)
    rng = np.random.default_rng(seed + 1)
    x = rng.normal(size=(2,) + input_shape)
    labels = rng.integers(0, classes, size=2)
    masks = {i: (rng.random(net.layers[i - 1].weights.shape[0]) < net.layers[i].p)
             .astype(np.float32) for i in net.dropout_layers()}

    def forward():
        loss, branches = tr.forward_training(net, x, labels, pinned_masks=masks)
        return loss, branches, _decisions(net, branches.caches)

    _, branches, base = forward()
    grads = tr.backward_training(branches)
    targets = [(x, branches.input_grad)] + [
        (arr, grads[(i, name)]) for i, name, arr in net.named_params()]
    worst = 0.0
    for arr, analytic in targets:
        flat, ana = arr.reshape(-1), analytic.reshape(-1)
        scale = max(np.abs(ana).max(), 1e-6)
        for j in rng.choice(flat.size, min(PROBES, flat.size), replace=False):
            orig, values = flat[j], []
            for step in (EPSILON, -EPSILON):
                flat[j] = orig + step
                loss, _, decisions = forward()
                if decisions != base:
                    return None
                values.append(loss)
            flat[j] = orig
            numeric = (values[0] - values[1]) / (2 * EPSILON)
            worst = max(worst, abs(numeric - ana[j]) / scale)
    return worst


def _check_inference(input_shape, layers, classes, seed):
    """float32 without dropout: training forward, inference and a
    checkpoint round trip give the same logits byte for byte."""
    layers = [d for d in layers if d["kind"] != "dropout"]
    net = _build(input_shape, layers, seed, np.float32)
    rng = np.random.default_rng(seed + 2)
    n = _CHUNK + 6  # two conv chunks
    x = rng.normal(size=(n,) + input_shape).astype(np.float32)
    _, branches = tr.forward_training(net, x, rng.integers(0, classes, size=n))
    logits = branches.logits.tobytes()
    assert predict_logits(tr.to_inference(net), x).tobytes() == logits
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "net.bin")
        save_checkpoint(net, path)
        loaded, _ = load_checkpoint(path)
    assert predict_logits(tr.to_inference(loaded), x).tobytes() == logits


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(_networks(), st.integers(0, 2 ** 16))
def test_random_whole_networks(network, seed):
    input_shape, layers, classes = network
    try:
        network_shapes(input_shape, layers, "network")
    except ConfigError:
        assume(False)  # a stage left no pixels
    worst = _check_gradients(input_shape, layers, classes, seed)
    assume(worst is not None)
    assert worst < TOLERANCE, (layers, worst)
    _check_inference(input_shape, layers, classes, seed)
