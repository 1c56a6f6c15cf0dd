"""The brute-force reference implementations checked against themselves."""

import numpy as np
import pytest

from spinconv import oracle, tensor_core as tc, training as tr
from spinconv.errors import ConfigError, ConsistencyError, InputError
from spinconv.layers import NetworkSpec
from spinconv.tensor_core import ConvParams


# ---------------------------------------------------------------------------
# relative_error
# ---------------------------------------------------------------------------

def test_relative_error_floor():
    assert oracle.relative_error(0.0, 0.0) == 0.0
    assert oracle.relative_error(1e-9, 0.0) == pytest.approx(0.1)
    assert oracle.relative_error(2.0, 1.0) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# naive_conv / naive_maxpool
# ---------------------------------------------------------------------------

def test_naive_conv_zero_kernel_gives_bias():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 5, 5))
    params = ConvParams(weights=np.zeros((2, 3, 3, 3)),
                        bias=np.array([0.5, -1.5]), stride=1, pad=1)
    y = oracle.naive_conv(x, params)
    assert np.all(y[:, 0] == 0.5)
    assert np.all(y[:, 1] == -1.5)


def test_naive_conv_1x1_mixes_channels():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 3, 4, 4))
    w = rng.normal(size=(2, 3, 1, 1))
    b = rng.normal(size=2)
    y = oracle.naive_conv(x, ConvParams(weights=w, bias=b, stride=1, pad=0))
    expected = np.einsum("oc,nchw->nohw", w[:, :, 0, 0], x) + b[None, :, None, None]
    np.testing.assert_allclose(y, expected, atol=1e-12)


def test_naive_conv_spot_checks_fast_path():
    rng = np.random.default_rng(2)
    for _ in range(10):
        c = int(rng.integers(1, 4))
        o = int(rng.integers(1, 4))
        k = int(rng.choice([1, 3, 5]))
        stride = int(rng.integers(1, 3))
        pad = int(rng.integers(0, 3))
        hw = int(rng.integers(k, k + 5))
        x = rng.normal(size=(2, c, hw, hw))
        params = ConvParams(weights=rng.normal(size=(o, c, k, k)),
                            bias=rng.normal(size=o), stride=stride, pad=pad)
        ref = oracle.naive_conv(x, params)
        fast = tc.conv2d_forward(x, params)
        assert oracle.relative_error(fast, ref).max() <= 1e-6


def test_naive_maxpool_matches_fast_path():
    rng = np.random.default_rng(3)
    for window, stride in ((2, 2), (3, 1), (2, 1)):
        x = rng.normal(size=(2, 2, 6, 6))
        ref_y, ref_arg = oracle.naive_maxpool(x, window, stride)
        y, arg = tc.maxpool2d_forward(x, window, stride)
        assert np.array_equal(y, ref_y)
        assert np.array_equal(arg, ref_arg)


def test_naive_maxpool_first_occurrence_ties():
    x = np.ones((1, 1, 2, 2))
    y, arg = oracle.naive_maxpool(x, 2, 2)
    assert y[0, 0, 0, 0] == 1.0
    assert arg[0, 0, 0, 0] == 0


# ---------------------------------------------------------------------------
# finite_difference
# ---------------------------------------------------------------------------

def test_fd_sum_of_squares():
    theta = np.array([1.0, 2.0])
    grad = oracle.finite_difference(lambda: float((theta ** 2).sum()), theta)
    np.testing.assert_allclose(grad, [2.0, 4.0], atol=1e-6)


def test_fd_constant_function_is_zero():
    theta = np.array([0.3, -0.7, 2.0])
    grad = oracle.finite_difference(lambda: 5.0, theta)
    assert np.all(grad == 0.0)


_TOY_NETS = {
    "conv": ((1, 4, 4), [
        {"kind": "conv", "out_channels": 2, "kernel": 3, "pad": 1},
        {"kind": "relu"},
        {"kind": "flatten"},
        {"kind": "fc", "out_features": 3},
    ]),
    # two split layers around a standard one: four branches, two of them
    # routed through the complement of the first split
    "two_splits": ((1, 1, 5), [
        {"kind": "flatten"},
        {"kind": "fc", "out_features": 6},
        {"kind": "dropout", "p": 0.5, "mode": "split"},
        {"kind": "fc", "out_features": 6},
        {"kind": "dropout", "p": 0.5, "mode": "standard"},
        {"kind": "fc", "out_features": 6},
        {"kind": "dropout", "p": 0.5, "mode": "split"},
        {"kind": "fc", "out_features": 3},
    ]),
}


@pytest.mark.parametrize("toy", sorted(_TOY_NETS))
def test_fd_composed_toy_net_matches_backprop(toy):
    input_shape, layers = _TOY_NETS[toy]
    net = tr.init_weights(NetworkSpec(input_shape=input_shape, layers=layers),
                          seed=5, dtype=np.float64)
    rng = np.random.default_rng(6)
    for _, name, arr in net.named_params():
        if name == "weights":
            arr[...] = rng.normal(0.0, 0.5, arr.shape)
    x = rng.normal(size=(2,) + input_shape)
    labels = np.array([0, 2])
    pinned = {i: (rng.random(6) < 0.5).astype(np.float64)
              for i in net.dropout_layers()}

    _, branches = tr.forward_training(net, x, labels, pinned_masks=pinned)
    analytic = tr.backward_training(branches)

    def loss_fn():
        return tr.forward_training(net, x, labels, pinned_masks=pinned)[0]

    targets = [((i, name), arr, analytic[(i, name)])
               for i, name, arr in net.named_params()]
    targets.append(("input", x, branches.input_grad))
    for key, arr, grad in targets:
        fd = oracle.finite_difference(loss_fn, arr).reshape(arr.shape)
        rel = oracle.relative_error(grad, fd)
        assert rel.max() <= 1e-4, (key, rel.max())


# ---------------------------------------------------------------------------
# enumerate_mask_losses
# ---------------------------------------------------------------------------

def _drop_net(width, hidden, mode="standard", seed=0):
    spec = NetworkSpec(input_shape=(1, 1, width), layers=[
        {"kind": "flatten"},
        {"kind": "fc", "out_features": hidden},
        {"kind": "dropout", "p": 0.5, "mode": mode},
        {"kind": "fc", "out_features": 2},
    ])
    return tr.init_weights(spec, seed=seed, dtype=np.float64)


def test_enumerate_single_unit_hand_check():
    net = _drop_net(3, 1, seed=7)
    rng = np.random.default_rng(8)
    net.layers[1].weights[...] = rng.normal(size=(1, 3))
    net.layers[3].weights[...] = rng.normal(size=(2, 1))
    x = rng.normal(size=(4, 1, 1, 3))
    labels = rng.integers(0, 2, size=4)

    def ce(logits):
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        return float(-logp[np.arange(4), labels].mean())

    xf = x.reshape(4, 3)
    y = xf @ net.layers[1].weights.T + net.layers[1].bias
    w2, b2 = net.layers[3].weights, net.layers[3].bias
    f0 = ce(np.zeros_like(y) @ w2.T + b2)   # unit dropped
    f1 = ce(y @ w2.T + b2)                  # unit kept
    expected = (f0 + f1) / 2.0

    l_drop, l_split = oracle.enumerate_mask_losses(net, x, labels)
    assert abs(l_drop - expected) <= 1e-12
    assert abs(l_split - expected) <= 1e-12


@pytest.mark.parametrize("hidden", [2, 3])
def test_enumerate_losses_agree_at_half(hidden):
    net = _drop_net(4, hidden, mode="split", seed=9)
    rng = np.random.default_rng(10)
    x = rng.normal(size=(6, 1, 1, 4))
    labels = rng.integers(0, 2, size=6)
    l_drop, l_split = oracle.enumerate_mask_losses(net, x, labels)
    assert abs(l_drop - l_split) <= 1e-12


def test_enumerate_symmetric_construction_pairs():
    # two units that always carry [a, a], downstream columns negated: the
    # complement mask swaps the two logits, and the (x,0),(x,1) batch makes
    # cross-entropy blind to that swap, so f(m) = f(1-m) for every mask
    net = _drop_net(3, 2, seed=11)
    net.layers[1].weights[...] = np.array([[0.4, -0.2, 0.9],
                                           [0.4, -0.2, 0.9]])
    net.layers[1].bias[...] = 0.0
    net.layers[3].weights[...] = np.array([[1.0, -1.0],
                                           [-1.0, 1.0]])
    net.layers[3].bias[...] = 0.0
    x = np.tile(np.array([0.3, 1.1, -0.6], dtype=np.float64), (2, 1, 1, 1))
    labels = np.array([0, 1])

    for bits in ([0, 0], [0, 1], [1, 0], [1, 1]):
        m = np.asarray(bits, dtype=np.float32)
        f_m, _ = tr.forward_training(net, x, labels, pinned_masks={2: m})
        f_c, _ = tr.forward_training(net, x, labels, pinned_masks={2: 1 - m})
        assert f_m == f_c, bits

    l_drop, l_split = oracle.enumerate_mask_losses(net, x, labels)
    assert abs(l_drop - l_split) <= 1e-15


def test_enumerate_guards():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(2, 1, 1, 4))
    labels = np.array([0, 1])

    no_drop = tr.init_weights(NetworkSpec(input_shape=(1, 1, 4), layers=[
        {"kind": "flatten"}, {"kind": "fc", "out_features": 2}]), seed=0)
    with pytest.raises(InputError):
        oracle.enumerate_mask_losses(no_drop, x, labels)

    off_half = tr.init_weights(NetworkSpec(input_shape=(1, 1, 4), layers=[
        {"kind": "flatten"},
        {"kind": "fc", "out_features": 2},
        {"kind": "dropout", "p": 0.3},
        {"kind": "fc", "out_features": 2}]), seed=0)
    with pytest.raises(ConfigError):
        oracle.enumerate_mask_losses(off_half, x, labels)

    wide = _drop_net(4, 13)
    with pytest.raises(InputError):
        oracle.enumerate_mask_losses(wide, x, labels)


# ---------------------------------------------------------------------------
# gradient_suite
# ---------------------------------------------------------------------------

def test_gradient_suite_all_kinds_pass():
    results = oracle.gradient_suite(seed=0)
    kinds = [r["layer"] for r in results]
    assert kinds == list(oracle.GRAD_CHECK_KINDS)
    for r in results:
        assert r["coords"] >= 100
        assert r["max_rel"] <= 1e-4, r


def test_gradient_suite_is_deterministic():
    a = oracle.gradient_suite(seed=4, kinds=("fc",))
    b = oracle.gradient_suite(seed=4, kinds=("fc",))
    assert a == b


def test_gradient_suite_rejects_unknown_kind():
    with pytest.raises(InputError):
        oracle.gradient_suite(kinds=("fc", "gelu"))


def test_gradient_suite_redraws_a_winner_flip(monkeypatch):
    """At seed 2 a probe flips an rpc and an frpc winner, so each kind is
    redrawn once, at seed 2 + 997, and reports that draw's check."""
    seeds = {}
    for kind in ("rpc", "frpc"):
        check = oracle._CHECKS[kind]

        def recording(seed, kind=kind, check=check):
            seeds.setdefault(kind, []).append(seed)
            return check(seed)
        monkeypatch.setitem(oracle._CHECKS, kind, recording)
    results = oracle.gradient_suite(seed=2, kinds=("rpc", "frpc"))
    assert seeds == {"rpc": [2, 999], "frpc": [2, 999]}
    for r, check in zip(results, (oracle._check_rpc, oracle._check_frpc)):
        assert (r["max_rel"], r["coords"]) == check(999)


def test_gradient_suite_gives_up_after_25_draws(monkeypatch):
    seeds = []

    def always_flips(seed):
        seeds.append(seed)
        raise oracle._WinnerFlip
    monkeypatch.setitem(oracle._CHECKS, "fc", always_flips)
    with pytest.raises(ConsistencyError, match="'fc' after 25 draws"):
        oracle.gradient_suite(seed=1, kinds=("fc",))
    assert seeds == [1 + 997 * attempt for attempt in range(25)]


def test_central_restores_the_coordinate_when_a_probe_is_unstable():
    flat = np.array([1.0, 2.0])
    seen = []

    def fn():
        seen.append(flat[0])
        return float(flat.sum())
    with pytest.raises(oracle._WinnerFlip):
        oracle._central(fn, flat, 0, 1e-3, stable=lambda: False)
    assert seen == [1.0 + 1e-3]
    assert flat.tolist() == [1.0, 2.0]
