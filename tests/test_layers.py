import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinconv import oracle
from spinconv import tensor_core as tc
from spinconv.errors import (ConfigError, ConsistencyError, DimensionError,
                             InputError)
from spinconv.layers import (ConvLayer, DropoutLayer, FcLayer, FlattenLayer,
                             FrpcConvLayer, MaxPoolLayer, Network,
                             NetworkSpec, PReluLayer, ReluLayer, RpcConvLayer,
                             dropout_forward_standard, sdropout_backward,
                             sdropout_forward)
from spinconv.tensor_core import _CHUNK


def _mask(bits):
    return np.asarray(bits, dtype=np.float32)


# ---------------------------------------------------------------------------
# Dropout
# ---------------------------------------------------------------------------

def test_standard_dropout_all_ones_identity():
    y = np.random.default_rng(0).normal(size=(3, 4)).astype(np.float32)
    out = dropout_forward_standard(y, _mask(np.ones(4)))
    assert np.array_equal(out, y)


def test_standard_dropout_all_zeros():
    y = np.ones((2, 4), np.float32)
    out = dropout_forward_standard(y, _mask(np.zeros(4)))
    assert not out.any()


def test_standard_dropout_elementwise():
    y = np.array([[1.0, 2.0, 3.0, 4.0]], np.float32)
    out = dropout_forward_standard(y, _mask([1, 0, 1, 0]))
    assert np.array_equal(out, np.array([[1.0, 0.0, 3.0, 0.0]], np.float32))


def test_sdropout_elementwise_example():
    y = np.array([[1.0, 2.0, 3.0, 4.0]], np.float32)
    out = sdropout_forward(y, _mask([1, 0, 1, 0]))
    y1, y2 = out[:1], out[1:]
    assert np.array_equal(y1, np.array([[1.0, 0.0, 3.0, 0.0]], np.float32))
    assert np.array_equal(y2, np.array([[0.0, 2.0, 0.0, 4.0]], np.float32))


def test_sdropout_degenerate_all_ones():
    y = np.random.default_rng(3).normal(size=(2, 6)).astype(np.float32)
    out = sdropout_forward(y, _mask(np.ones(6)))
    y1, y2 = out[:2], out[2:]
    assert np.array_equal(y1, y)
    assert not y2.any()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 8), st.integers(1, 32))
def test_sdropout_split_identity_property(seed, n, d):
    rng = np.random.default_rng(seed)
    y = rng.normal(0, 5, (n, d)).astype(np.float32)
    layer = DropoutLayer(p=0.5, mode="split", rng=np.random.default_rng(seed + 1))
    out = sdropout_forward(y, layer.draw_mask(d))
    assert out.shape == (2 * n, d)
    y1, y2 = out[:n], out[n:]
    assert np.array_equal(y1 + y2, y)


def test_sdropout_backward_complementary_partition():
    g = np.random.default_rng(4).normal(size=(3, 5)).astype(np.float32)
    m = _mask([1, 0, 0, 1, 1])
    assert np.array_equal(sdropout_backward(np.concatenate((g, g)), m), g)


def test_sdropout_backward_all_ones_mask():
    g1 = np.random.default_rng(5).normal(size=(2, 4)).astype(np.float32)
    out = sdropout_backward(np.concatenate((g1, np.zeros_like(g1))), _mask(np.ones(4)))
    assert np.array_equal(out, g1)


def test_sdropout_backward_length_mismatch():
    g = np.zeros((2, 4), np.float32)
    with pytest.raises(DimensionError):
        sdropout_backward(np.concatenate((g, g)), _mask([1, 0, 1]))
    with pytest.raises(DimensionError):
        sdropout_backward(g[:1], _mask([1, 0, 1, 0]))  # odd row count


def test_sdropout_backward_toy_loss_finite_differences():
    # two-branch scalar loss: sum(a*y1) + sum(b*y2)
    rng = np.random.default_rng(6)
    y = rng.normal(size=(2, 6))
    a, b = rng.normal(size=(2, 6)), rng.normal(size=(2, 6))
    m = _mask((rng.random(6) < 0.5).astype(np.float32))

    def fn():
        out = sdropout_forward(y, m)
        y1, y2 = out[:2], out[2:]
        return float(np.sum(a * y1) + np.sum(b * y2))

    ana = sdropout_backward(np.concatenate((a, b)), m)
    num = oracle.finite_difference(fn, y)
    nz = ana != 0
    assert oracle.relative_error(num[nz], ana[nz]).max() <= 1e-4


def _build(*layers):
    """init_weights on an 8x8 input; the config's layer table checks each
    descriptor before any layer is constructed."""
    from spinconv.training import init_weights
    return init_weights(NetworkSpec(input_shape=(1, 8, 8), layers=list(layers)), seed=0)


_FLAT = ({"kind": "flatten"}, {"kind": "fc", "out_features": 4})


def test_dropout_rejects_bad_p():
    for p in (0.0, 1.0):
        with pytest.raises(ConfigError, match=r"layers\[2\]\.p"):
            _build(*_FLAT, {"kind": "dropout", "p": p}, {"kind": "fc", "out_features": 2})


def test_split_mode_forces_half():
    with pytest.raises(ConfigError, match="split mode requires p = 0.5"):
        _build(*_FLAT, {"kind": "dropout", "p": 0.3, "mode": "split"},
               {"kind": "fc", "out_features": 2})
    _build(*_FLAT, {"kind": "dropout", "p": 0.5, "mode": "split"},
           {"kind": "fc", "out_features": 2})  # fine


def test_pinned_mask_rejects_non_binary_and_wrong_width():
    from spinconv.training import forward_training
    x = np.zeros((2, 1, 8, 8), np.float32)
    labels = np.array([0, 1])
    for mode in ("standard", "split"):
        net = _build(*_FLAT, {"kind": "dropout", "p": 0.5, "mode": mode},
                     {"kind": "fc", "out_features": 2})
        with pytest.raises(InputError):
            forward_training(net, x, labels, pinned_masks={2: [0.5, 1, 0, 1]})
        with pytest.raises(DimensionError):
            forward_training(net, x, labels, pinned_masks={2: [1, 0, 1]})


def test_mask_draw_determinism():
    l1 = DropoutLayer(p=0.5, rng=np.random.default_rng(9))
    l2 = DropoutLayer(p=0.5, rng=np.random.default_rng(9))
    for _ in range(5):
        assert np.array_equal(l1.draw_mask(32), l2.draw_mask(32))


@pytest.mark.parametrize("mode", ["standard", "split"])
def test_dropout_forward_draws_no_mask(mode):
    # the training step draws every mask; the layer only applies one
    layer = DropoutLayer(p=0.5, mode=mode, rng=np.random.default_rng(9))
    with pytest.raises(ConsistencyError, match="without a mask"):
        layer.forward(np.ones((2, 4), np.float32), {})
    assert np.array_equal(layer.draw_mask(32),
                          DropoutLayer(p=0.5, rng=np.random.default_rng(9)).draw_mask(32))


@pytest.mark.parametrize("make, name", [
    (lambda: DropoutLayer(p=0.5, rng=np.random.default_rng(0)), "dropout"),
    (lambda: MaxPoolLayer(2, 2), "maxpool"),
    (lambda: FcLayer(4, 3), "fc")])
def test_backward_without_matching_forward(make, name):
    with pytest.raises(ConsistencyError,
                       match=f"{name} backward called without a matching forward"):
        make().backward(np.ones((2, 3), np.float32), {})


# ---------------------------------------------------------------------------
# RPC / FRPC forward
# ---------------------------------------------------------------------------

def _rpc(in_ch, out_ch, k=3, r=1.0, seed=0, **kw):
    layer = RpcConvLayer(in_ch, out_ch, k, rotate_fraction=r,
                         rng=np.random.default_rng(seed), dtype=np.float64, **kw)
    rng = np.random.default_rng(seed + 100)
    layer.weights[...] = rng.normal(0, 0.8, layer.weights.shape)
    layer.bias[...] = rng.normal(0, 0.3, layer.bias.shape)
    return layer


def test_rpc_symmetric_filter_equals_plain_conv():
    # the pooled path runs a differently shaped matrix product than the
    # plain path, so agreement is to rounding, not bitwise
    layer = _rpc(1, 1)
    layer.weights[...] = 1.0  # rotation-symmetric
    x = np.random.default_rng(1).normal(size=(2, 1, 6, 6))
    y = layer.forward(x, {})
    ref = tc.conv2d_forward(x, layer.conv_params())
    assert np.allclose(y, ref, rtol=1e-13, atol=1e-13)


# a conv layer of each kind with no pooled filter
NO_POOLED = {
    "conv": lambda **kw: ConvLayer(3, 4, 3, **kw),
    "rpc_r0": lambda **kw: RpcConvLayer(3, 4, 3, rotate_fraction=0.0, **kw),
    "frpc_0_0": lambda **kw: FrpcConvLayer(3, 4, 3, rotate_fraction=0.0,
                                           flip_fraction=0.0, **kw),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, _CHUNK + 1, 2 * _CHUNK + 1])
@pytest.mark.parametrize("kind", list(NO_POOLED))
def test_no_pooled_filter_is_plain_conv(kind, n, dtype):
    """Forward, infer and all three gradients are the plain conv kernels'
    own, byte for byte."""
    layer = NO_POOLED[kind](stride=2, pad=1, rng=np.random.default_rng(18), dtype=dtype)
    rng = np.random.default_rng(19)
    for arr in layer.params().values():
        arr[...] = rng.normal(size=arr.shape)
    x = rng.normal(size=(n, 3, 7, 8)).astype(dtype)
    ref = tc.conv2d_forward(x, layer.conv_params())
    cache = {}
    _assert_same_bytes(layer.forward(x, cache), ref)
    _assert_same_bytes(layer.infer(x), ref)
    g = rng.normal(size=ref.shape).astype(dtype)
    gx = layer.backward(g, cache)
    for got, want in zip((gx, cache["grads"]["weights"], cache["grads"]["bias"]),
                         tc.conv2d_backward(g, x, layer.conv_params())):
        _assert_same_bytes(got, want)


def test_rpc_matches_explicit_max_over_orientations():
    layer = _rpc(1, 1, seed=3, pad=1)
    x = np.random.default_rng(4).normal(size=(1, 1, 5, 5))
    y = layer.forward(x, {})
    ref = oracle.oriented_conv_reference(x, layer)
    assert np.allclose(y, ref, atol=1e-10)


def test_rpc_dominates_plain_conv_on_selected_filters():
    layer = _rpc(2, 4, r=0.5, seed=5, pad=1)
    x = np.random.default_rng(6).normal(size=(3, 2, 7, 7))
    y = layer.forward(x, {})
    plain = tc.conv2d_forward(x, layer.conv_params())
    for f in layer.rotate_set:
        assert (y[:, f] >= plain[:, f] - 1e-12).all()


def test_rpc_selection_fixed_and_seed_deterministic():
    a = RpcConvLayer(2, 8, 3, rotate_fraction=0.5, rng=np.random.default_rng(7))
    b = RpcConvLayer(2, 8, 3, rotate_fraction=0.5, rng=np.random.default_rng(7))
    assert np.array_equal(a.rotate_set, b.rotate_set)
    assert len(a.rotate_set) == 4  # round(0.5 * 8)
    x = np.random.default_rng(8).normal(size=(1, 2, 5, 5)).astype(np.float32)
    a.forward(x, {})
    before = a.rotate_set.copy()
    a.forward(x, {})
    assert np.array_equal(a.rotate_set, before)


def test_rpc_backward_zero_grad():
    layer = _rpc(1, 2, r=0.5, seed=9, pad=1)
    x = np.random.default_rng(10).normal(size=(1, 1, 5, 5))
    cache = {}
    y = layer.forward(x, cache)
    gx = layer.backward(np.zeros_like(y), cache)
    assert not gx.any()
    assert not cache["grads"]["weights"].any()
    assert not cache["grads"]["bias"].any()


def test_rpc_backward_symmetric_filter_equals_plain_conv():
    layer = _rpc(1, 1, seed=11, pad=1)
    layer.weights[...] = 1.0
    plain = ConvLayer(1, 1, 3, pad=1, dtype=np.float64)
    plain.weights[...] = 1.0
    plain.bias[...] = layer.bias
    x = np.random.default_rng(12).normal(size=(2, 1, 6, 6))
    g = np.random.default_rng(13).normal(size=(2, 1, 6, 6))
    c1, c2 = {}, {}
    layer.forward(x, c1)
    plain.forward(x, c2)
    gx1 = layer.backward(g, c1)
    gx2 = plain.backward(g, c2)
    assert np.allclose(gx1, gx2, atol=1e-12)
    assert np.allclose(c1["grads"]["weights"], c2["grads"]["weights"], atol=1e-12)
    assert np.allclose(c1["grads"]["bias"], c2["grads"]["bias"], atol=1e-12)


def test_rpc_backward_stale_cache():
    from spinconv.errors import ConsistencyError
    layer = _rpc(1, 1, seed=14, pad=1)
    x = np.random.default_rng(15).normal(size=(1, 1, 5, 5))
    with pytest.raises(ConsistencyError):
        layer.backward(np.zeros((1, 1, 5, 5)), {})


def test_rpc_backward_rejects_wrong_grad_shape():
    layer = _rpc(1, 2, r=0.5, seed=14, pad=1)
    x = np.random.default_rng(15).normal(size=(2, 1, 5, 5))
    cache = {}
    y = layer.forward(x, cache)
    with pytest.raises(DimensionError, match="grad_out shape"):
        layer.backward(np.zeros(y.shape[:-1] + (y.shape[-1] + 1,)), cache)


@pytest.mark.parametrize("name", ["rpc", "frpc"])
def test_interleaved_calls_keep_gradients_apart(name):
    # each call's winner maps and gradients live in its own cache, so two
    # steps may interleave on one layer
    layer = _oriented(name)
    rng = np.random.default_rng(38)
    xa, xb = rng.normal(size=(2, 2, 2, 6, 6))
    ga, gb = rng.normal(size=(2, 2, 4, 6, 6))
    solo = {}
    layer.forward(xa, solo)
    solo_gx = layer.backward(ga, solo)
    ca, cb = {}, {}
    layer.forward(xa, ca)
    layer.forward(xb, cb)
    layer.backward(gb, cb)
    gx = layer.backward(ga, ca)
    assert gx.tobytes() == solo_gx.tobytes()
    for key in ("weights", "bias"):
        assert ca["grads"][key].tobytes() == solo["grads"][key].tobytes(), key
        assert cb["grads"][key].tobytes() != ca["grads"][key].tobytes(), key


@pytest.mark.parametrize("cls,fractions", [
    (RpcConvLayer, dict(rotate_fraction=0.5)),
    (FrpcConvLayer, dict(rotate_fraction=0.25, flip_fraction=0.25))], ids=["rpc", "frpc"])
def test_rpc_backward_peak_memory_bounded_by_chunk(cls, fractions):
    """The benchmark networks' oriented layers (16 -> 32 channels, 14x14,
    batch 128; rpc at rotate 0.5 is 144 expanded rows, frpc at rotate and
    flip 0.25 is 96 with the flips in one bank): each chunk routes its
    gradient straight into one float64 channel-major product, so the peak
    stays near 36 MiB (rpc) and 29 MiB (frpc). A full-batch expanded NCHW
    gradient reached 49 MiB, and so would one chunk's temporaries kept
    alive into the next."""
    import tracemalloc
    rng = np.random.default_rng(36)
    layer = cls(16, 32, 3, pad=1, rng=np.random.default_rng(37), **fractions)
    layer.weights[...] = rng.normal(size=layer.weights.shape)
    x = rng.normal(size=(128, 16, 14, 14)).astype(np.float32)
    cache = {}
    y = layer.forward(x, cache)
    g = rng.normal(size=y.shape).astype(np.float32)
    tracemalloc.start()
    try:
        layer.backward(g, cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20


def test_frpc_flip_symmetric_filter_equals_plain_conv():
    layer = FrpcConvLayer(1, 1, 3, rotate_fraction=0.0, flip_fraction=1.0,
                          rng=np.random.default_rng(16), dtype=np.float64)
    w = np.array([[[1.0, 2.0, 1.0], [3.0, 4.0, 3.0], [5.0, 6.0, 5.0]]])
    ax = layer.flip_axes[int(layer.flip_set[0])]
    if ax == "up_down":
        w = w.transpose(0, 2, 1).copy()
    layer.weights[0] = w
    layer.bias[...] = 0.5
    x = np.random.default_rng(17).normal(size=(1, 1, 6, 6))
    y = layer.forward(x, {})
    ref = tc.conv2d_forward(x, layer.conv_params())
    # same rounding caveat as the rotation-symmetric case above
    assert np.allclose(y, ref, rtol=1e-13, atol=1e-13)


def test_frpc_matches_two_way_max():
    layer = FrpcConvLayer(1, 1, 3, rotate_fraction=0.0, flip_fraction=1.0,
                          rng=np.random.default_rng(21), dtype=np.float64)
    layer.weights[...] = np.random.default_rng(22).normal(size=layer.weights.shape)
    layer.bias[...] = 0.0
    ax = layer.flip_axes[int(layer.flip_set[0])]
    x = np.random.default_rng(23).normal(size=(2, 1, 6, 6))
    y = layer.forward(x, {})
    a = tc.conv2d_forward(x, tc.ConvParams(weights=layer.weights, bias=layer.bias))
    flipped = np.flip(layer.weights, -1 if ax == "left_right" else -2).copy()
    b = tc.conv2d_forward(x, tc.ConvParams(weights=flipped, bias=layer.bias))
    assert np.allclose(y, np.maximum(a, b), atol=1e-12)


def test_frpc_sets_disjoint_and_axes_alternate():
    layer = FrpcConvLayer(2, 8, 3, rotate_fraction=0.25, flip_fraction=0.5,
                          rng=np.random.default_rng(24))
    assert np.intersect1d(layer.rotate_set, layer.flip_set).size == 0
    assert len(layer.rotate_set) == 2
    assert len(layer.flip_set) == 4
    axes = list(layer.flip_axes.values())
    assert axes.count("left_right") == 2 and axes.count("up_down") == 2


def test_oriented_fractions_validated():
    conv = {"out_channels": 4, "kernel": 3, "pad": 1}
    with pytest.raises(ConfigError, match="rotate_fraction"):
        _build({"kind": "rpc_conv", **conv, "rotate_fraction": 1.2}, *_FLAT)
    with pytest.raises(ConfigError, match="must not exceed 1"):
        _build({"kind": "frpc_conv", **conv, "rotate_fraction": 0.75,
                "flip_fraction": 0.5}, *_FLAT)
    # 0.5 + 0.5 of 3 filters rounds to 2 + 2 selected filters
    with pytest.raises(ConfigError, match="select more than 3 filters"):
        _build({"kind": "frpc_conv", **conv, "out_channels": 3,
                "rotate_fraction": 0.5, "flip_fraction": 0.5}, *_FLAT)


def _param_count(layer):
    return sum(arr.size for arr in layer.params().values())


def test_param_count_invariance():
    for k in (3, 5):
        plain = ConvLayer(3, 16, k)
        rpc = RpcConvLayer(3, 16, k, rotate_fraction=0.5,
                           rng=np.random.default_rng(25))
        frpc = FrpcConvLayer(3, 16, k, rotate_fraction=0.25, flip_fraction=0.25,
                             rng=np.random.default_rng(26))
        assert _param_count(rpc) == _param_count(plain)
        assert _param_count(frpc) == _param_count(plain)


def test_rpc_90_degree_equivariance_quick():
    layer = _rpc(1, 1, seed=27, pad=1)
    x = np.random.default_rng(28).normal(size=(1, 1, 9, 9))
    y = layer.forward(x, {})
    xr = np.rot90(x, k=-1, axes=(-2, -1)).copy()
    yr = layer.forward(xr, {})
    err = oracle.relative_error(np.rot90(y, k=-1, axes=(-2, -1)), yr)
    assert err.max() <= 1e-5


# ---------------------------------------------------------------------------
# RPC / FRPC winner maps
# ---------------------------------------------------------------------------

# (layer class, selection fractions): rotate only, rotate + flip, flip only,
# and no pooled filter at all
ORIENTED = {
    "rpc": (RpcConvLayer, dict(rotate_fraction=0.5)),
    "frpc": (FrpcConvLayer, dict(rotate_fraction=0.25, flip_fraction=0.5)),
    "frpc_flip_only": (FrpcConvLayer, dict(rotate_fraction=0.0, flip_fraction=0.75)),
    "rpc_plain": (RpcConvLayer, dict(rotate_fraction=0.0)),
}


def _oriented(name, in_ch=2, out_ch=4, seed=30, dtype=np.float64, kernel=3):
    cls, fractions = ORIENTED[name]
    layer = cls(in_ch, out_ch, kernel, pad=kernel // 2, rng=np.random.default_rng(seed),
                dtype=dtype, **fractions)
    rng = np.random.default_rng(seed + 100)
    layer.weights[...] = rng.normal(0, 0.8, layer.weights.shape)
    layer.bias[...] = rng.normal(0, 0.3, layer.bias.shape)
    return layer


def _winner_reference(layer, x):
    """np.argmax over the stacked per-variant responses, each computed by
    oracle.naive_conv on one bank variant; None where the bank is absent."""
    maps = {"rot_win": [], "flip_win": []}
    for f, bank in oracle.oriented_banks(layer):
        resps = [oracle.naive_conv(x, tc.ConvParams(v[None], layer.bias[f:f + 1],
                                                     layer.stride, layer.pad))[:, 0]
                 for v in bank]
        key = "rot_win" if f in layer.rotate_set else "flip_win"
        maps[key].append(np.argmax(np.stack(resps), axis=0))
    return {key: np.stack(m, axis=1) if m else None for key, m in maps.items()}


def _assert_winners(cache, ref):
    for key in ("rot_win", "flip_win"):
        if ref[key] is None:
            assert cache[key] is None
        else:
            assert np.array_equal(cache[key], ref[key]), key


def _integer_case(layer, shape, seed):
    """Small-integer weights and inputs: every sum is exact in float64, so
    variants tie exactly where their kernels agree, whatever the GEMM order."""
    rng = np.random.default_rng(seed)
    layer.weights[...] = rng.integers(-3, 4, layer.weights.shape)
    layer.bias[...] = rng.integers(-2, 3, layer.bias.shape) / 2
    return rng.integers(-3, 4, shape).astype(np.float64)


@pytest.mark.parametrize("name", ["rpc", "frpc"])
def test_oriented_exact_ties_pick_variant_zero(name):
    layer = _oriented(name, out_ch=8)
    x = _integer_case(layer, (3, 2, 5, 5), 31)
    # a constant kernel is its own rotation and flip: every variant ties
    layer.weights[...] = layer.weights[:, :, :1, :1]
    cache = {}
    layer.forward(x, cache)
    ref = _winner_reference(layer, x)
    _assert_winners(cache, ref)
    for key in ("rot_win", "flip_win"):
        assert ref[key] is None or not ref[key].any(), key


@pytest.mark.parametrize("name", ["rpc", "frpc_flip_only"])
def test_oriented_nan_takes_first_nan_variant(name):
    layer = _oriented(name, in_ch=1, out_ch=4)
    x = _integer_case(layer, (2, 1, 6, 6), 33)
    layer.weights[...] = np.abs(layer.weights) + 1
    layer.weights[:, :, 0, 0] = 0.0
    layer.weights[:, :, 0, 1] = 0.0
    # inf meets a zero weight in some variants only: those give NaN
    x[0, 0, 2, 3] = np.inf
    cache = {}
    with np.errstate(invalid="ignore"):
        y = layer.forward(x, cache)
        ref = _winner_reference(layer, x)
        expected = oracle.oriented_conv_reference(x, layer)
    _assert_winners(cache, ref)
    assert np.array_equal(np.isnan(y), np.isnan(expected))
    key = "rot_win" if layer.rotate_set.size else "flip_win"
    pooled = layer.rotate_set if layer.rotate_set.size else layer.flip_set
    nan_wins = cache[key][np.isnan(y[:, pooled])]
    assert nan_wins.size and nan_wins.any()  # some NaN is not variant 0's


@pytest.mark.parametrize("name", list(ORIENTED))
def test_oriented_cache_contract(name):
    """The winner maps that the gradient check and the traced bench read."""
    layer = _oriented(name, out_ch=8)
    x = np.random.default_rng(34).normal(size=(3, 2, 5, 4))
    cache = {}
    y = layer.forward(x, cache)
    ref = _winner_reference(layer, x)
    for key, pooled, bins in (("rot_win", layer.rotate_set, 8),
                              ("flip_win", layer.flip_set, 2)):
        assert key in cache
        if pooled.size == 0:
            assert cache[key] is None
            continue
        win = cache[key]
        assert win.dtype == np.int8
        assert win.size == y.shape[0] * pooled.size * y.shape[2] * y.shape[3]
        assert win.min() >= 0 and win.max() < bins
        assert np.array_equal(np.bincount(win.ravel(), minlength=bins),
                              np.bincount(ref[key].ravel(), minlength=bins))


@pytest.mark.parametrize("offset", [None, -1, 1, "2C+1"])
@pytest.mark.parametrize("name", ["rpc", "frpc"])
def test_oriented_batches_around_chunk_size(name, offset):
    n = {None: 1, -1: _CHUNK - 1, 1: _CHUNK + 1, "2C+1": 2 * _CHUNK + 1}[offset]
    layer = _oriented(name)
    x = np.random.default_rng(35).normal(size=(n, 2, 4, 4))
    cache = {}
    y = layer.forward(x, cache)
    assert y.shape == (n, 4, 4, 4)
    assert np.allclose(y, oracle.oriented_conv_reference(x, layer), rtol=0, atol=1e-6)
    _assert_winners(cache, _winner_reference(layer, x))


# ---------------------------------------------------------------------------
# Kernels 3, 5 and 7: the rotate8 bank is an exact group action
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [3, 5, 7])
def test_turning_stored_kernels_shifts_winners(k):
    # turning each rotated filter's kernel one 45-degree step (by the oracle's
    # ring walk) relabels its bank: variant s of the turned kernel is variant
    # s + 1 of the old one, so every winner w becomes (w - 1) mod 8 and the
    # pooled responses stay put
    layer = RpcConvLayer(4, 8, k, pad=k // 2, rotate_fraction=0.5,
                         rng=np.random.default_rng(60), dtype=np.float64)
    rng = np.random.default_rng(61)
    layer.weights[...] = rng.normal(size=layer.weights.shape)
    x = rng.normal(size=(3, 4, 12, 12))
    before, after = {}, {}
    y = layer.forward(x, before)
    r = layer.rotate_set
    layer.weights[r] = oracle.rotate_45(layer.weights[r])
    y_turned = layer.forward(x, after)
    assert np.array_equal(after["rot_win"], (before["rot_win"] - 1) % 8)
    assert np.array_equal(y_turned[:, r], y[:, r])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [3, 5, 7])
@pytest.mark.parametrize("name", ["rpc", "frpc"])
def test_winners_follow_input_symmetries(name, k, dtype):
    layer = _oriented(name, in_ch=4, out_ch=8, seed=62, dtype=dtype, kernel=k)
    x = np.random.default_rng(63).normal(size=(2, 4, 12, 12)).astype(dtype)
    base = {}
    y = layer.forward(x, base)
    # float32 rounds the float64 GEMM's last-bit differences away
    tol = 0.0 if dtype == np.float32 else 1e-13 * np.abs(y).max()

    # a clockwise quarter turn of the input moves each rotated filter's
    # winner two steps on, at the turned position
    def quarter(a):
        return np.rot90(a, -1, axes=(-2, -1))

    turned = {}
    y_turned = layer.forward(quarter(x).copy(), turned)
    r = layer.rotate_set
    assert np.array_equal(turned["rot_win"], (quarter(base["rot_win"]) + 2) % 8)
    assert np.abs(y_turned[:, r] - quarter(y[:, r])).max() <= tol

    # a mirror of the input swaps the two variants of every filter that
    # flips along the same axis, at the mirrored position
    for axis, flip_axis in ((-1, "left_right"), (-2, "up_down")):
        pos = [i for i, f in enumerate(layer.flip_set)
               if layer.flip_axes[int(f)] == flip_axis]
        if not pos:
            continue
        mirrored = {}
        y_mirrored = layer.forward(np.flip(x, axis).copy(), mirrored)
        assert np.array_equal(mirrored["flip_win"][:, pos],
                              1 - np.flip(base["flip_win"][:, pos], axis))
        f = layer.flip_set[pos]
        assert np.abs(y_mirrored[:, f] - np.flip(y[:, f], axis)).max() <= tol


@pytest.mark.parametrize("name", ["rpc", "frpc"])
def test_oriented_kernel5_matches_reference(name):
    layer = _oriented(name, kernel=5)
    x = np.random.default_rng(36).normal(size=(3, 2, 7, 7))
    ref = oracle.oriented_conv_reference(x, layer)
    cache = {}
    assert np.allclose(layer.forward(x, cache), ref, rtol=0, atol=1e-6)
    assert np.allclose(layer.infer(x), ref, rtol=0, atol=1e-6)
    _assert_winners(cache, _winner_reference(layer, x))


@pytest.mark.parametrize("name", ["rpc", "frpc"])
def test_oriented_kernel5_gradients_match_finite_differences(name):
    layer = _oriented(name, kernel=5)
    rng = np.random.default_rng(37)
    x = rng.normal(size=(2, 2, 6, 6))
    proj = rng.uniform(0.5, 1.5, (2, 4, 6, 6)) * rng.choice([-1.0, 1.0], (2, 4, 6, 6))
    cache = {}
    layer.forward(x, cache)
    gx = layer.backward(proj, cache)

    def loss():
        c = {}
        value = float(np.sum(layer.forward(x, c) * proj))
        # a probe that moves a winner would leave the linear piece
        for key in ("rot_win", "flip_win"):
            assert c[key] is None or np.array_equal(c[key], cache[key]), key
        return value

    for arr, analytic in ((x, gx), (layer.weights, cache["grads"]["weights"]),
                          (layer.bias, cache["grads"]["bias"])):
        numeric = oracle.finite_difference(loss, arr)
        assert oracle.relative_error(numeric, analytic).max() <= 1e-4


# ---------------------------------------------------------------------------
# Inference entry point
# ---------------------------------------------------------------------------

def _assert_same_bytes(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["conv", "relu", "prelu", "flatten", "fc"])
def test_plain_layer_infer_equals_forward(kind, dtype):
    rng = np.random.default_rng(40)
    layer = {"conv": lambda: ConvLayer(3, 4, 3, stride=2, pad=1, dtype=dtype),
             "relu": ReluLayer, "prelu": lambda: PReluLayer(3, dtype=dtype),
             "flatten": FlattenLayer,
             "fc": lambda: FcLayer(3 * 7 * 8, 5, dtype=dtype)}[kind]()
    for arr in layer.params().values():
        arr[...] = rng.normal(size=arr.shape)
    x = rng.normal(size=(2, 3, 7, 8)).astype(dtype)
    if kind == "fc":
        x = x.reshape(2, -1)
    _assert_same_bytes(layer.infer(x), layer.forward(x, {}))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("window,stride", [(2, 2), (3, 1), (3, 2), (2, 3)])
def test_maxpool_infer_equals_forward(window, stride, dtype):
    rng = np.random.default_rng(41)
    # few distinct values plant ties; 7x8 leaves remainder rows or columns
    x = rng.integers(0, 3, size=(2, 3, 7, 8)).astype(dtype)
    x[0, 0, :3, :3] = 5.0
    x[1, 2, 0, 1] = x[1, 2, 1, 0] = np.nan
    x[1, 1, 4, 4] = np.inf
    layer = MaxPoolLayer(window, stride)
    y = layer.infer(x)
    assert np.isnan(y[1, 2, 0, 0])
    _assert_same_bytes(y, layer.forward(x, {}))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, _CHUNK - 1, _CHUNK + 1, 2 * _CHUNK + 1])
@pytest.mark.parametrize("name", ["rpc", "frpc"])
def test_oriented_infer_equals_forward(name, n, dtype):
    layer = _oriented(name, dtype=dtype)
    x = np.random.default_rng(42).normal(size=(n, 2, 4, 4)).astype(dtype)
    x[-1, 1, 2, 1] = np.nan
    y = layer.infer(x)
    _assert_same_bytes(y, layer.forward(x, {}))
    # the shared chunk loop itself must cover every image
    ref = oracle.oriented_conv_reference(x, layer)
    assert np.isnan(y[-1, :, 1:4, 0:3]).all()
    assert np.allclose(y, ref, rtol=0, atol=1e-5, equal_nan=True)


# ---------------------------------------------------------------------------
# Network container
# ---------------------------------------------------------------------------

def _tiny_net():
    from spinconv.training import init_weights
    spec = NetworkSpec(input_shape=(1, 8, 8), layers=[
        {"kind": "conv", "out_channels": 2, "kernel": 3, "pad": 1},
        {"kind": "relu"},
        {"kind": "flatten"},
        {"kind": "fc", "out_features": 8},
        {"kind": "dropout", "p": 0.5, "mode": "split"},
        {"kind": "fc", "out_features": 3},
    ])
    return init_weights(spec, seed=0)


def test_network_layer_index_helpers():
    net = _tiny_net()
    assert net.dropout_layers() == [4]
    assert net.split_layers() == [4]


def test_forward_inference_refuses_dropout_layers():
    from spinconv.errors import ConsistencyError
    net = _tiny_net()
    with pytest.raises(ConsistencyError):
        net.forward_inference(np.zeros((1, 1, 8, 8), np.float32))
