"""Split-dropout forward/backward, SGD, init, and the inference conversion."""

import copy
import math

import numpy as np
import pytest

from spinconv import oracle
from spinconv import training as tr
from spinconv.errors import (ConfigError, ConsistencyError, InputError,
                             NumericalAbort)
from spinconv.layers import NetworkSpec
from spinconv.tensor_core import softmax_cross_entropy


def _net(layers, input_shape=(1, 1, 4), seed=0):
    spec = NetworkSpec(input_shape=input_shape, layers=layers)
    return tr.init_weights(spec, seed=seed, dtype=np.float64)


def _flat_net(layers, width=4, seed=0):
    """Vector-in, vector-out net: flatten + the given layers."""
    return _net([{"kind": "flatten"}] + layers, input_shape=(1, 1, width),
                seed=seed)


def _vecs(rng, n, width):
    return rng.normal(size=(n, 1, 1, width))


def _plain_logits(net, x):
    act = x
    for layer in net.layers:
        act = layer.forward(act, {})
    return act


def _branches(branch_set, labels):
    """Per-branch records {path, logits, loss} sliced from the stacked
    logits. Block j took the complement at split s exactly when bit s of j
    is set; its path holds -1 there and +1 where it took the masked side."""
    rows = len(labels)
    out = []
    for j in range(len(branch_set)):
        logits = branch_set.logits[j * rows:(j + 1) * rows]
        out.append({"path": tuple(-1 if j >> s & 1 else +1
                                  for s in range(branch_set.n_split)),
                    "logits": logits,
                    "loss": softmax_cross_entropy(logits, labels)[0]})
    return out


# ---------------------------------------------------------------------------
# forward_training
# ---------------------------------------------------------------------------

def test_forward_without_split_is_plain_loss():
    net = _flat_net([{"kind": "fc", "out_features": 5},
                     {"kind": "relu"},
                     {"kind": "fc", "out_features": 3}])
    rng = np.random.default_rng(0)
    x = _vecs(rng, 6, 4)
    labels = rng.integers(0, 3, size=6)
    loss, branches = tr.forward_training(net, x, labels)
    expected, _ = softmax_cross_entropy(_plain_logits(net, x), labels)
    assert len(branches) == 1
    assert loss == expected


def test_forward_all_ones_mask_degenerates():
    net = _flat_net([{"kind": "fc", "out_features": 6},
                     {"kind": "dropout", "mode": "split"},
                     {"kind": "fc", "out_features": 3}])
    rng = np.random.default_rng(1)
    x = _vecs(rng, 4, 4)
    labels = rng.integers(0, 3, size=4)
    loss, branches = tr.forward_training(
        net, x, labels, pinned_masks={2: np.ones(6, dtype=np.float32)})

    assert len(branches) == 2
    by_path = {b["path"]: b for b in _branches(branches, labels)}
    kept, comp = by_path[(+1,)], by_path[(-1,)]
    # complement branch saw all zeros, so its logits are just the fc bias
    fc2 = net.layers[3]
    assert np.array_equal(comp["logits"], np.tile(fc2.bias, (4, 1)))

    y = net.layers[1].forward(x.reshape(4, 4), {})
    full, _ = softmax_cross_entropy(net.layers[3].forward(y, {}), labels)
    zeroed, _ = softmax_cross_entropy(comp["logits"], labels)
    assert kept["loss"] == full
    assert loss == pytest.approx((full + zeroed) / 2.0, abs=1e-15)


def test_forward_matches_independent_two_pass_reference():
    net = _flat_net([{"kind": "fc", "out_features": 4},
                     {"kind": "dropout", "mode": "split"},
                     {"kind": "fc", "out_features": 3}])
    rng = np.random.default_rng(2)
    x = _vecs(rng, 5, 4)
    labels = rng.integers(0, 3, size=5)
    bits = np.array([1, 0, 1, 0], dtype=np.float32)
    loss, _ = tr.forward_training(net, x, labels, pinned_masks={2: bits})
    ref = oracle.split_loss_reference(net, x, labels, bits)
    assert abs(loss - ref) <= 1e-12


def test_branch_count_is_two_to_the_n():
    net = _flat_net([{"kind": "fc", "out_features": 4},
                     {"kind": "dropout", "mode": "split"},
                     {"kind": "fc", "out_features": 4},
                     {"kind": "dropout", "mode": "split"},
                     {"kind": "fc", "out_features": 3}])
    rng = np.random.default_rng(3)
    x = _vecs(rng, 2, 4)
    labels = np.array([0, 1])
    loss, branches = tr.forward_training(net, x, labels)
    assert branches.n_split == 2
    assert len(branches) == 4
    records = _branches(branches, labels)
    assert loss == math.fsum(b["loss"] for b in records) / 4.0
    # every path tag is a distinct sign sequence
    assert sorted(b["path"] for b in records) == [
        (-1, -1), (-1, +1), (+1, -1), (+1, +1)]
    # each branch's logits are the plain forward under that branch's masks
    fcs = [net.layers[i] for i in (1, 3, 5)]
    masks = [branches.masks[i].astype(np.float64) for i in (2, 4)]
    for branch in records:
        act = x.reshape(2, 4)
        for fc, m, sign in zip(fcs, masks + [None], branch["path"] + (None,)):
            act = act @ fc.weights.T + fc.bias
            if m is not None:
                act = act * (m if sign == +1 else 1.0 - m)
        np.testing.assert_allclose(branch["logits"], act, rtol=0, atol=1e-12)
        expected, _ = softmax_cross_entropy(act, labels)
        assert branch["loss"] == pytest.approx(expected, abs=1e-12)


def test_forward_refuses_inference_network():
    net = _flat_net([{"kind": "fc", "out_features": 3}])
    inf = tr.to_inference(net)
    with pytest.raises(ConsistencyError):
        tr.forward_training(inf, np.zeros((1, 1, 1, 4)), np.array([0]))


# ---------------------------------------------------------------------------
# backward_training
# ---------------------------------------------------------------------------

def test_backward_saturated_logits_give_zero_gradients():
    # a margin large enough to underflow the off-class softmax terms makes
    # the cross-entropy gradient exactly zero
    net = _flat_net([{"kind": "fc", "out_features": 3}], width=3)
    fc = net.layers[1]
    fc.weights[...] = 0.0
    fc.bias[...] = [1000.0, 0.0, 0.0]
    rng = np.random.default_rng(4)
    x = _vecs(rng, 4, 3)
    labels = np.zeros(4, dtype=np.int64)
    _, branches = tr.forward_training(net, x, labels)
    grads = tr.backward_training(branches)
    for g in grads.values():
        assert np.all(g == 0.0)


def test_backward_split_matches_hand_derivation():
    # identity fc -> split dropout (mask [1, 0]) -> fc, one sample: every
    # gradient is computable in closed form
    net = _flat_net([{"kind": "fc", "out_features": 2},
                     {"kind": "dropout", "mode": "split"},
                     {"kind": "fc", "out_features": 3}],
                    width=2)
    fc1, fc2 = net.layers[1], net.layers[3]
    fc1.weights[...] = np.eye(2)
    fc1.bias[...] = 0.0
    rng = np.random.default_rng(5)
    fc2.weights[...] = rng.normal(size=(3, 2))
    fc2.bias[...] = rng.normal(size=3)

    xf = np.array([[0.7, -1.3]])
    x = xf.reshape(1, 1, 1, 2)
    label = np.array([2])
    bits = np.array([1, 0], dtype=np.float32)
    _, branches = tr.forward_training(net, x, label, pinned_masks={2: bits})
    grads = tr.backward_training(branches)

    def soft(z):
        e = np.exp(z - z.max())
        return e / e.sum()

    w, b = fc2.weights, fc2.bias
    z1 = xf[0, 0] * w[:, 0] + b          # kept branch sees [x0, 0]
    z2 = xf[0, 1] * w[:, 1] + b          # complement sees  [0, x1]
    s1 = soft(z1); s1[2] -= 1.0
    s2 = soft(z2); s2[2] -= 1.0

    gw2 = np.zeros_like(w)
    gw2[:, 0] = 0.5 * s1 * xf[0, 0]
    gw2[:, 1] = 0.5 * s2 * xf[0, 1]
    gb2 = 0.5 * (s1 + s2)
    gy = 0.5 * np.array([w[:, 0] @ s1, w[:, 1] @ s2])
    gw1 = np.outer(gy, xf[0])

    np.testing.assert_allclose(grads[(3, "weights")], gw2, atol=1e-12)
    np.testing.assert_allclose(grads[(3, "bias")], gb2, atol=1e-12)
    np.testing.assert_allclose(grads[(1, "weights")], gw1, atol=1e-12)
    np.testing.assert_allclose(grads[(1, "bias")], gy, atol=1e-12)
    np.testing.assert_allclose(branches.input_grad.reshape(1, 2),
                               gy[None, :], atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layers, input_shape", [
    ([{"kind": "conv", "out_channels": 4, "kernel": 5, "pad": 2},
      {"kind": "relu"},
      {"kind": "maxpool", "window": 2, "stride": 2},
      {"kind": "rpc_conv", "out_channels": 8, "kernel": 3, "pad": 1,
       "rotate_fraction": 0.5},
      {"kind": "relu"},
      {"kind": "flatten"},
      {"kind": "fc", "out_features": 6},
      {"kind": "dropout", "mode": "split"},
      {"kind": "fc", "out_features": 3}], (1, 10, 10)),
    ([{"kind": "flatten"},
      {"kind": "fc", "out_features": 6},
      {"kind": "relu"},
      {"kind": "dropout", "mode": "split"},
      {"kind": "fc", "out_features": 3}], (1, 4, 4)),
], ids=["rpc", "fc-first"])
def test_backward_without_input_grad_gives_the_same_parameter_gradients(
        layers, input_shape, dtype):
    rng = np.random.default_rng(12)
    x = rng.normal(size=(70,) + input_shape).astype(dtype)
    labels = rng.integers(0, 3, size=70)
    grads = []
    for input_grad in (True, False):
        net = tr.init_weights(NetworkSpec(input_shape, layers), seed=4, dtype=dtype)
        _, branches = tr.forward_training(net, x, labels)
        grads.append(tr.backward_training(branches, input_grad=input_grad))
        assert (branches.input_grad is None) == (not input_grad)
    assert grads[0].keys() == grads[1].keys()
    for key in grads[0]:
        assert grads[0][key].dtype == grads[1][key].dtype
        assert grads[0][key].tobytes() == grads[1][key].tobytes(), key


def test_backward_full_pipeline_finite_difference():
    results = oracle.gradient_suite(seed=11, kinds=("sdropout",))
    assert results[0]["max_rel"] <= 1e-4


# ---------------------------------------------------------------------------
# sgd_momentum_step
# ---------------------------------------------------------------------------

def _one_weight_net(value=0.0):
    net = _flat_net([{"kind": "fc", "out_features": 1}], width=1)
    net.layers[1].weights[...] = value
    net.layers[1].bias[...] = 0.0
    return net


def test_sgd_momentum_zero_unit_step():
    net = _one_weight_net(3.0)
    grads = {(1, "weights"): np.array([[1.0]]), (1, "bias"): np.zeros(1)}
    state = tr.OptimizerState(learning_rate=1.0, momentum=0.0)
    tr.sgd_momentum_step(net, state, grads)
    assert net.layers[1].weights[0, 0] == 2.0


def test_sgd_zero_grads_leave_params_alone():
    net = _one_weight_net(1.5)
    state = tr.OptimizerState(learning_rate=0.3, momentum=0.9)
    for _ in range(2):
        grads = {(1, "weights"): np.zeros((1, 1)), (1, "bias"): np.zeros(1)}
        tr.sgd_momentum_step(net, state, grads)
    assert net.layers[1].weights[0, 0] == 1.5
    assert net.layers[1].bias[0] == 0.0


def test_sgd_three_steps_match_hand_unroll():
    net = _one_weight_net(0.25)
    state = tr.OptimizerState(learning_rate=0.1, momentum=0.9)
    theta, v = 0.25, 0.0
    for g in (1.0, -0.5, 2.0):
        grads = {(1, "weights"): np.array([[g]]), (1, "bias"): np.zeros(1)}
        tr.sgd_momentum_step(net, state, grads)
        v = 0.9 * v - 0.1 * g
        theta = theta + v
        assert net.layers[1].weights[0, 0] == theta
        assert state.velocities[(1, "weights")][0, 0] == v


def test_sgd_rejects_nan_gradient():
    net = _one_weight_net()
    grads = {(1, "weights"): np.array([[np.nan]]), (1, "bias"): np.zeros(1)}
    with pytest.raises(NumericalAbort):
        tr.sgd_momentum_step(net, tr.OptimizerState(), grads)


def test_backward_without_input_grad_on_a_network_without_parameters():
    net = _flat_net([], width=4)
    rng = np.random.default_rng(15)
    _, branches = tr.forward_training(net, _vecs(rng, 3, 4), rng.integers(0, 4, 3))
    assert tr.backward_training(branches, input_grad=False) == {}
    assert branches.input_grad is None


def test_sgd_requires_gradients():
    net = _one_weight_net()
    with pytest.raises(ConsistencyError):
        tr.sgd_momentum_step(net, tr.OptimizerState(), {})


def test_step_takes_gradients_once():
    net = _flat_net([{"kind": "fc", "out_features": 5},
                     {"kind": "dropout", "mode": "split"},
                     {"kind": "fc", "out_features": 3}], width=6)
    rng = np.random.default_rng(13)
    images = _vecs(rng, 6, 6)
    labels = rng.integers(0, 3, size=6)
    state = tr.OptimizerState(learning_rate=0.1, momentum=0.9, batch_size=4)
    _, branches = tr.forward_training(net, images[:4], labels[:4])
    grads = tr.backward_training(branches)
    assert branches.caches is None
    tr.sgd_momentum_step(net, state, grads)
    assert grads == {}
    # a step without a fresh backward must not re-apply stale gradients
    with pytest.raises(ConsistencyError, match="run backward_training first"):
        tr.sgd_momentum_step(net, state, grads)
    # nor may a second backward rebuild them from the consumed caches
    with pytest.raises(ConsistencyError, match="already ran"):
        tr.backward_training(branches)
    tr.train_epoch(net, images, labels, state)


# ---------------------------------------------------------------------------
# init_weights
# ---------------------------------------------------------------------------

def test_init_biases_and_slopes():
    net = _net([{"kind": "conv", "out_channels": 3, "kernel": 3, "pad": 1},
                {"kind": "prelu"},
                {"kind": "flatten"},
                {"kind": "fc", "out_features": 5}],
               input_shape=(1, 6, 6))
    seen = set()
    for _, name, arr in net.named_params():
        seen.add(name)
        if name == "bias":
            assert np.all(arr == 1.0)
        elif name == "slope":
            assert np.all(arr == 0.25)
    assert {"bias", "slope"} <= seen


def test_init_weight_std_within_band():
    net = _flat_net([{"kind": "fc", "out_features": 1000}], width=100)
    w = net.layers[1].weights
    assert w.size == 100_000
    assert 0.0095 <= float(w.std()) <= 0.0105
    assert abs(float(w.mean())) < 5e-4


def test_init_is_seed_deterministic():
    layers = [{"kind": "rpc_conv", "out_channels": 4, "kernel": 3, "pad": 1,
               "rotate_fraction": 0.5},
              {"kind": "relu"},
              {"kind": "flatten"},
              {"kind": "fc", "out_features": 3}]
    a = _net(layers, input_shape=(1, 5, 5), seed=42)
    b = _net(layers, input_shape=(1, 5, 5), seed=42)
    c = _net(layers, input_shape=(1, 5, 5), seed=43)
    for (i, name, pa), (_, _, pb) in zip(a.named_params(), b.named_params()):
        assert np.array_equal(pa, pb), (i, name)
    assert np.array_equal(a.layers[0].rotate_set, b.layers[0].rotate_set)
    assert any(not np.array_equal(pa, pc)
               for (_, _, pa), (_, _, pc) in zip(a.named_params(),
                                                 c.named_params()))


def test_init_default_dtype_is_single():
    spec = NetworkSpec(input_shape=(1, 1, 4),
                       layers=[{"kind": "flatten"},
                               {"kind": "fc", "out_features": 2}])
    net = tr.init_weights(spec, seed=0)
    assert net.layers[1].weights.dtype == np.float32


def test_init_rejects_maxpool_on_flat_input():
    with pytest.raises(ConfigError, match="maxpool layer needs image input"):
        _flat_net([{"kind": "maxpool", "window": 2},
                   {"kind": "fc", "out_features": 2}])


@pytest.mark.parametrize("width", [6, 5])
def test_init_rejects_dropout_on_image_input(width):
    # a length-C mask would broadcast along W: wrong on 6x6, an error on 6x5
    with pytest.raises(ConfigError, match="dropout layer needs flat input"):
        _net([{"kind": "conv", "out_channels": 6, "kernel": 1},
              {"kind": "dropout"},
              {"kind": "flatten"},
              {"kind": "fc", "out_features": 2}], input_shape=(1, 6, width))


# ---------------------------------------------------------------------------
# to_inference
# ---------------------------------------------------------------------------

def test_to_inference_scales_following_weights():
    net = _flat_net([{"kind": "fc", "out_features": 4},
                     {"kind": "dropout", "p": 0.5},
                     {"kind": "fc", "out_features": 3}])
    net.layers[3].weights[...] = 2.0
    bias_before = net.layers[3].bias.copy()
    inf = tr.to_inference(net)
    assert len(inf.layers) == 3
    assert np.all(inf.layers[2].weights == 1.0)
    assert np.array_equal(inf.layers[2].bias, bias_before)
    # source network is untouched
    assert np.all(net.layers[3].weights == 2.0)


def test_to_inference_without_dropout_is_identity():
    net = _flat_net([{"kind": "fc", "out_features": 5},
                     {"kind": "relu"},
                     {"kind": "fc", "out_features": 3}])
    inf = tr.to_inference(net)
    assert len(inf.layers) == len(net.layers)
    for (_, _, pa), (_, _, pb) in zip(net.named_params(), inf.named_params()):
        assert np.array_equal(pa, pb)


def test_to_inference_twice_is_refused():
    net = _flat_net([{"kind": "fc", "out_features": 3}])
    inf = tr.to_inference(net)
    with pytest.raises(ConsistencyError):
        tr.to_inference(inf)


def test_to_inference_needs_following_weighted_layer():
    # the shape pass refuses a dropout layer that to_inference could not
    # fold, so no such network is ever built
    for layers in ([{"kind": "fc", "out_features": 4}, {"kind": "dropout", "p": 0.5}],
                   [{"kind": "fc", "out_features": 4}, {"kind": "dropout"},
                    {"kind": "relu"}, {"kind": "dropout", "mode": "split"}]):
        with pytest.raises(ConfigError, match=r"network\.layers\[2\]: dropout"):
            _flat_net(layers)


def test_to_inference_equals_mask_average_on_linear_net():
    # no nonlinearity anywhere: averaging logits over all 2^4 masks must
    # reproduce the scaled inference network
    net = _flat_net([{"kind": "fc", "out_features": 4},
                     {"kind": "dropout", "p": 0.5, "mode": "standard"},
                     {"kind": "fc", "out_features": 3}],
                    width=5)
    rng = np.random.default_rng(6)
    net.layers[1].weights[...] = rng.normal(size=(4, 5))
    net.layers[3].weights[...] = rng.normal(size=(3, 4))
    x = _vecs(rng, 7, 5)
    labels = np.zeros(7, dtype=np.int64)

    total = np.zeros((7, 3))
    for bits in np.ndindex(2, 2, 2, 2):
        mask = np.asarray(bits, dtype=np.float32)
        _, branches = tr.forward_training(net, x, labels,
                                          pinned_masks={2: mask})
        total += _branches(branches, labels)[0]["logits"]
    averaged = total / 16.0

    inf_logits = tr.to_inference(net).forward_inference(x)
    assert np.max(np.abs(averaged - inf_logits)) <= 1e-9
    assert np.array_equal(averaged.argmax(axis=1), inf_logits.argmax(axis=1))


# ---------------------------------------------------------------------------
# train_epoch / fit
# ---------------------------------------------------------------------------

def test_epoch_with_zero_learning_rate_changes_nothing():
    net = _flat_net([{"kind": "fc", "out_features": 5},
                     {"kind": "dropout", "mode": "split"},
                     {"kind": "fc", "out_features": 3}],
                    width=6)
    before = [arr.copy() for _, _, arr in net.named_params()]
    rng = np.random.default_rng(7)
    images = _vecs(rng, 10, 6)
    labels = rng.integers(0, 3, size=10)
    state = tr.OptimizerState(learning_rate=0.0, momentum=0.9, batch_size=4)
    tr.train_epoch(net, images, labels, state)
    for prev, (_, _, arr) in zip(before, net.named_params()):
        assert np.array_equal(prev, arr)


def test_single_sample_memorization():
    net = _flat_net([{"kind": "fc", "out_features": 8},
                     {"kind": "relu"},
                     {"kind": "fc", "out_features": 3}],
                    width=5)
    rng = np.random.default_rng(8)
    images = _vecs(rng, 1, 5)
    labels = np.array([1])
    state = tr.OptimizerState(learning_rate=0.5, momentum=0.9, batch_size=1)
    metrics = {}
    for _ in range(200):
        metrics = tr.train_epoch(net, images, labels, state)
    assert metrics["loss"] < 0.01
    assert metrics["top1"] == 1.0


def test_epoch_metrics_are_seed_deterministic():
    layers = [{"kind": "fc", "out_features": 6},
              {"kind": "dropout", "mode": "split"},
              {"kind": "fc", "out_features": 3}]
    rng = np.random.default_rng(9)
    images = _vecs(rng, 20, 4)
    labels = rng.integers(0, 3, size=20)

    traces = []
    for _ in range(2):
        net = _flat_net(layers, seed=21)
        state = tr.OptimizerState(learning_rate=0.1, momentum=0.9,
                                  batch_size=8)
        traces.append([tr.train_epoch(net, images, labels, state)
                       for _ in range(3)])
    assert traces[0] == traces[1]


def test_epoch_center_crops_images_to_the_network_input():
    """Training crops as predict_logits does: an epoch over 6x7 images on a
    4x4 network is the epoch over their 4x4 centers."""
    layers = [{"kind": "conv", "out_channels": 2, "kernel": 3},
              {"kind": "flatten"}, {"kind": "fc", "out_features": 3}]
    rng = np.random.default_rng(16)
    images = rng.normal(size=(6, 1, 6, 7))
    labels = rng.integers(0, 3, size=6)
    nets = [_net(layers, input_shape=(1, 4, 4), seed=4) for _ in range(2)]
    metrics = [tr.train_epoch(net, x, labels, tr.OptimizerState(batch_size=4))
               for net, x in zip(nets, (images, images[:, :, 1:5, 1:5]))]
    assert metrics[0] == metrics[1]
    for (_, _, a), (_, _, b) in zip(nets[0].named_params(), nets[1].named_params()):
        assert np.array_equal(a, b)


def test_empty_dataset_is_rejected():
    net = _flat_net([{"kind": "fc", "out_features": 3}])
    with pytest.raises(InputError):
        tr.train_epoch(net, np.zeros((0, 1, 1, 4)), np.zeros(0, dtype=np.int64),
                       tr.OptimizerState())


def test_epoch_peak_memory_holds_one_step():
    """One epoch of the README network over two batches of 128: the step
    drops each layer's cache once that layer's backward has run, so no
    step's activations outlive it. The peak was 54.0 MiB; caches kept to
    the end of the backward and through the next forward reached 71.2."""
    import tracemalloc
    layers = [{"kind": "conv", "out_channels": 16, "kernel": 5, "pad": 2},
              {"kind": "relu"},
              {"kind": "maxpool", "window": 2, "stride": 2},
              {"kind": "rpc_conv", "out_channels": 32, "kernel": 3, "pad": 1,
               "rotate_fraction": 0.5},
              {"kind": "relu"},
              {"kind": "maxpool", "window": 2, "stride": 2},
              {"kind": "flatten"},
              {"kind": "fc", "out_features": 256},
              {"kind": "relu"},
              {"kind": "dropout", "p": 0.5, "mode": "split"},
              {"kind": "fc", "out_features": 10}]
    net = tr.init_weights(NetworkSpec((1, 28, 28), layers), seed=3)
    rng = np.random.default_rng(0)
    images = rng.normal(size=(256, 1, 28, 28)).astype(np.float32)
    labels = rng.integers(0, 10, 256)
    tracemalloc.start()
    try:
        tr.train_epoch(net, images, labels, tr.OptimizerState(batch_size=128))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 62 * 2**20, peak / 2**20


def test_split_step_updates_every_parameter_tensor():
    net = _flat_net([{"kind": "fc", "out_features": 6},
                     {"kind": "dropout", "mode": "split"},
                     {"kind": "fc", "out_features": 3}])
    rng = np.random.default_rng(10)
    images = _vecs(rng, 8, 4)
    labels = rng.integers(0, 3, size=8)
    state = tr.OptimizerState(learning_rate=0.1, momentum=0.9, batch_size=8)
    tr.train_epoch(net, images, labels, state)
    tensors = list(net.named_params())
    assert len(state.velocities) == len(tensors)
    for key, v in state.velocities.items():
        assert np.any(v != 0.0), key


def test_standard_dropout_zeroes_dropped_columns():
    net = _flat_net([{"kind": "fc", "out_features": 6},
                     {"kind": "dropout", "mode": "standard"},
                     {"kind": "fc", "out_features": 3}])
    rng = np.random.default_rng(11)
    x = _vecs(rng, 8, 4)
    labels = rng.integers(0, 3, size=8)
    bits = np.array([1, 0, 1, 0, 0, 1], dtype=np.float32)
    _, branches = tr.forward_training(net, x, labels, pinned_masks={2: bits})
    grads = tr.backward_training(branches)
    dropped = np.flatnonzero(bits == 0)
    kept = np.flatnonzero(bits == 1)
    # dropped units cut both the incoming columns of the next fc and the
    # outgoing rows of the previous one
    assert np.all(grads[(3, "weights")][:, dropped] == 0.0)
    assert np.all(grads[(1, "weights")][dropped, :] == 0.0)
    assert np.all(grads[(1, "bias")][dropped] == 0.0)
    assert np.all(grads[(3, "weights")][:, kept] != 0.0)


def test_fit_plateau_schedule_decays_learning_rate():
    net = _flat_net([{"kind": "fc", "out_features": 3}], width=3)
    rng = np.random.default_rng(12)
    images = _vecs(rng, 6, 3)
    labels = rng.integers(0, 3, size=6)
    state = tr.OptimizerState(learning_rate=1e-12, momentum=0.0, batch_size=6)
    schedule = {"kind": "plateau", "factor": 0.1, "patience": 2}
    rows = tr.fit(net, images, labels, state, epochs=3, schedule=schedule)
    assert state.learning_rate == pytest.approx(1e-13, rel=1e-9)
    assert [r["epoch"] for r in rows] == [1, 2, 3]
    assert all(r["split"] == "train" for r in rows)


def test_fit_fixed_schedule_keeps_learning_rate():
    net = _flat_net([{"kind": "fc", "out_features": 3}], width=3)
    rng = np.random.default_rng(13)
    images = _vecs(rng, 6, 3)
    labels = rng.integers(0, 3, size=6)
    state = tr.OptimizerState(learning_rate=0.05, momentum=0.0, batch_size=6)
    tr.fit(net, images, labels, state, epochs=3,
           schedule={"kind": "fixed"})
    assert state.learning_rate == 0.05


def test_fit_reports_validation_rows():
    net = _flat_net([{"kind": "fc", "out_features": 4},
                     {"kind": "dropout", "mode": "split"},
                     {"kind": "fc", "out_features": 3}],
                    width=3)
    rng = np.random.default_rng(14)
    images = _vecs(rng, 8, 3)
    labels = rng.integers(0, 3, size=8)
    rows = tr.fit(net, images, labels,
                  tr.OptimizerState(learning_rate=0.1, batch_size=4),
                  epochs=2, val_images=images[:4], val_labels=labels[:4])
    assert [(r["epoch"], r["split"]) for r in rows] == [
        (1, "train"), (1, "val"), (2, "train"), (2, "val")]
    for r in rows:
        assert set(r) == {"epoch", "split", "loss", "top1"}


def test_fit_validation_split_does_not_steer_the_schedule():
    # val labels one class off the training labels: the val loss stalls at
    # epoch 2 while the training loss improves, so a schedule that read it
    # would cut the rate there (patience 1)
    layers = [{"kind": "fc", "out_features": 8},
              {"kind": "dropout", "mode": "split"},
              {"kind": "fc", "out_features": 3}]
    rng = np.random.default_rng(16)
    images = _vecs(rng, 24, 4)
    labels = images[:, 0, 0, :3].argmax(axis=1)
    schedule = {"kind": "plateau", "factor": 0.1, "patience": 1}
    runs = []
    for val_images, val_labels in ((None, None), (images, (labels + 1) % 3)):
        net = _flat_net(layers, seed=4)
        state = tr.OptimizerState(learning_rate=0.5, momentum=0.0, batch_size=24)
        rows = tr.fit(net, images, labels, state, 5, schedule, val_images, val_labels)
        runs.append((net, state.learning_rate, rows))
    (plain, plain_lr, plain_rows), (watched, watched_lr, watched_rows) = runs
    train = [r["loss"] for r in plain_rows]
    val = [r["loss"] for r in watched_rows if r["split"] == "val"]
    assert train[1] < train[0] - 1e-6 and val[1] >= val[0] - 1e-6
    assert [r for r in watched_rows if r["split"] == "train"] == plain_rows
    assert watched_lr == plain_lr
    for (_, _, a), (_, _, b) in zip(plain.named_params(), watched.named_params()):
        assert np.array_equal(a, b)
