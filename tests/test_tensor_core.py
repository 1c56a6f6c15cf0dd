import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinconv import kernel_transforms as kt
from spinconv import oracle
from spinconv import tensor_core as tc
from spinconv.errors import DimensionError, InputError


def test_conv_sum_of_nine_ones():
    x = np.ones((1, 1, 3, 3))
    p = tc.ConvParams(weights=np.ones((1, 1, 3, 3)), bias=np.zeros(1))
    y = tc.conv2d_forward(x, p)
    assert y.shape == (1, 1, 1, 1)
    assert y[0, 0, 0, 0] == 9.0


def test_conv_delta_kernel_is_center_crop():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 1, 6, 6))
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = 1.0
    y = tc.conv2d_forward(x, tc.ConvParams(weights=w, bias=np.zeros(1)))
    assert np.array_equal(y[:, 0], x[:, 0, 1:-1, 1:-1])


def test_conv_matches_naive_oracle():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1, 2, 5, 5))
    p = tc.ConvParams(weights=rng.normal(size=(3, 2, 3, 3)),
                      bias=rng.normal(size=3), stride=2, pad=1)
    y = tc.conv2d_forward(x, p)
    ref = oracle.naive_conv(x, p)
    assert oracle.relative_error(y, ref).max() <= 1e-6


def test_conv_float32_storage_dtype():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, 1, 4, 4)).astype(np.float32)
    p = tc.ConvParams(weights=rng.normal(size=(2, 1, 3, 3)).astype(np.float32),
                      bias=np.zeros(2, np.float32))
    assert tc.conv2d_forward(x, p).dtype == np.float32


def test_conv_rejects_channel_mismatch():
    x = np.zeros((1, 2, 4, 4))
    p = tc.ConvParams(weights=np.zeros((1, 3, 3, 3)), bias=np.zeros(1))
    with pytest.raises(DimensionError):
        tc.conv2d_forward(x, p)


def test_conv_params_rejects_even_kernel():
    with pytest.raises(DimensionError):
        tc.ConvParams(weights=np.zeros((1, 1, 4, 4)), bias=np.zeros(1))


def test_conv_backward_zero_grad():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, 2, 5, 5))
    p = tc.ConvParams(weights=rng.normal(size=(2, 2, 3, 3)), bias=np.zeros(2))
    g = np.zeros((1, 2, 3, 3))
    gx, gw, gb = tc.conv2d_backward(g, x, p)
    assert not gx.any() and not gw.any() and not gb.any()


def test_conv_backward_scalar_chain_rule():
    x = np.array([[[[3.0]]]])
    p = tc.ConvParams(weights=np.array([[[[2.0]]]]), bias=np.zeros(1))
    gx, gw, gb = tc.conv2d_backward(np.array([[[[5.0]]]]), x, p)
    assert gx[0, 0, 0, 0] == 2.0 * 5.0
    assert gw[0, 0, 0, 0] == 3.0 * 5.0
    assert gb[0] == 5.0


def test_conv_backward_matches_finite_differences():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 2, 5, 5))
    p = tc.ConvParams(weights=rng.normal(size=(3, 2, 3, 3)),
                      bias=rng.normal(size=3), stride=1, pad=1)
    proj = rng.normal(size=(2, 3, 5, 5))

    def fn():
        return float(np.sum(tc.conv2d_forward(x, p) * proj))

    gx, gw, gb = tc.conv2d_backward(proj, x, p)
    for arr, ana in ((x, gx), (p.weights, gw), (p.bias, gb)):
        num = oracle.finite_difference(fn, arr)
        err = oracle.relative_error(num, ana)
        assert err.max() <= 1e-4


# ---------------------------------------------------------------------------
# Image chunks in the conv kernels
# ---------------------------------------------------------------------------

_C = tc._CHUNK


@pytest.mark.parametrize("n", [1, _C - 1, _C, _C + 1, 2 * _C + 1])
def test_conv_chunk_boundaries_match_oracle_and_per_image_calls(n):
    rng = np.random.default_rng(30)
    x = rng.normal(size=(n, 2, 5, 6))
    p = tc.ConvParams(weights=rng.normal(size=(3, 2, 3, 3)),
                      bias=rng.normal(size=3), stride=2, pad=1)
    y = tc.conv2d_forward(x, p)
    assert oracle.relative_error(y, oracle.naive_conv(x, p)).max() <= 1e-6
    g = rng.normal(size=y.shape)
    got = tc.conv2d_backward(g, x, p)
    singles = [tc.conv2d_backward(g[i:i + 1], x[i:i + 1], p) for i in range(n)]
    refs = (np.concatenate([s[0] for s in singles]),
            sum(s[1] for s in singles), sum(s[2] for s in singles))
    ys = np.concatenate([tc.conv2d_forward(x[i:i + 1], p) for i in range(n)])
    for out, ref in ((y, ys),) + tuple(zip(got, refs)):
        assert out.shape == ref.shape
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("k", [3, 5])
def test_conv_banks_match_oracle_and_finite_differences(k):
    """A rotate bank and one flip bank that mixes flip_lr and flip_ud
    filters, called directly: the output and winners equal the max and
    argmax over separately convolved oracle variants, and the gradients of
    sum(out * proj) on the stored kernels equal central differences. The
    best variant beats the second by far more than a probe moves a
    response, so no winner flips."""
    rng = np.random.default_rng(40 + k)
    x = rng.normal(size=(2, 2, 6, 6))
    p = tc.ConvParams(weights=rng.normal(size=(5, 2, k, k)), bias=rng.normal(size=5),
                      pad=k // 2)
    modes = {0: "rotate8", 3: "rotate8", 1: "flip_lr", 2: "flip_ud", 4: "flip_lr"}
    rot, flip = np.array([0, 3]), np.array([1, 2, 4])
    rot_win, flip_win = (np.empty((2, len(f), 6, 6), np.int8) for f in (rot, flip))
    banks = [(rot, np.broadcast_to(kt.bank_index("rotate8", k), (2, 8, k * k)), rot_win),
             (flip, np.stack([kt.bank_index(modes[f], k) for f in flip]), flip_win)]
    y = tc.conv2d_forward(x, p, banks)

    ref = oracle.naive_conv(x, p)
    for f, win in [(f, rot_win[:, i]) for i, f in enumerate(rot)] + \
            [(f, flip_win[:, i]) for i, f in enumerate(flip)]:
        resps = np.stack([oracle.naive_conv(x, tc.ConvParams(v[None], p.bias[f:f + 1],
                                                              pad=k // 2))[:, 0]
                          for v in oracle.orientation_variants(p.weights[f], modes[f])])
        ref[:, f] = resps.max(axis=0)
        assert np.array_equal(win, np.argmax(resps, axis=0))
        top2 = np.sort(resps, axis=0)[-2:]
        assert (top2[1] - top2[0]).min() > 1e-3
    assert np.abs(y - ref).max() <= 1e-12 * np.abs(ref).max()

    proj = rng.normal(size=y.shape)

    def fn():
        return float(np.sum(tc.conv2d_forward(x, p, [b[:2] + (None,) for b in banks]) * proj))

    grads = tc.conv2d_backward(proj, x, p, banks)
    for arr, ana in zip((x, p.weights, p.bias), grads):
        assert ana.shape == arr.shape
        num = oracle.finite_difference(fn, arr, epsilon=1e-5)
        assert np.abs(num - ana).max() <= 1e-8 * np.abs(ana).max()


def test_conv_backward_peak_memory_bounded_by_chunk():
    """The expanded frpc conv of the benchmark network (16 -> 96 channels,
    14x14, batch 128): one chunk's float32 columns and products, dropped
    before the next chunk's are built, peak near 15 MiB; float64 columns
    and products peak near 29 MiB, and full-batch columns, or one chunk's
    kept alive into the next, pass 45 MiB."""
    rng = np.random.default_rng(31)
    x = rng.normal(size=(128, 16, 14, 14)).astype(np.float32)
    p = tc.ConvParams(weights=rng.normal(size=(96, 16, 3, 3)).astype(np.float32),
                      bias=np.zeros(96, np.float32), pad=1)
    g = rng.normal(size=(128, 96, 14, 14)).astype(np.float32)
    tracemalloc.start()
    try:
        tc.conv2d_backward(g, x, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20


# ---------------------------------------------------------------------------
# Working precision: float64 forward accumulation, working-dtype backward
# ---------------------------------------------------------------------------

def _precision_case(banks_kind, rng):
    """float32 x [6,16,9,9] and a 24-filter 3x3 conv, and its banks: none,
    a rotate8 bank (rpc) or a rotate8 and a flip bank (frpc), each with an
    empty winner map."""
    x = rng.normal(size=(6, 16, 9, 9)).astype(np.float32)
    p = tc.ConvParams(weights=rng.normal(size=(24, 16, 3, 3)).astype(np.float32),
                      bias=rng.normal(size=24).astype(np.float32), pad=1)
    banks = []
    if banks_kind in ("rpc", "frpc"):
        rot = np.arange(0, 24, 3)
        banks.append((rot, np.broadcast_to(kt.bank_index("rotate8", 3), (len(rot), 8, 9)),
                      np.empty((6, len(rot), 9, 9), np.int8)))
    if banks_kind == "frpc":
        flip = np.arange(1, 24, 4)
        banks.append((flip, np.stack([kt.bank_index(("flip_lr", "flip_ud")[i % 2], 3)
                                      for i in range(len(flip))]),
                      np.empty((6, len(flip), 9, 9), np.int8)))
    return x, p, banks


def _as64(p):
    return tc.ConvParams(p.weights.astype(np.float64), p.bias.astype(np.float64),
                         p.stride, p.pad)


def test_float32_forward_is_float64_forward_rounded_once():
    """float32 conv and fc forwards accumulate in float64: their outputs are
    bitwise the float64 forward of the same values cast to float32. A
    single-precision GEMM in the forward rounds every partial sum and
    misses this."""
    rng = np.random.default_rng(50)
    x, p, _ = _precision_case("plain", rng)
    y = tc.conv2d_forward(x, p)
    assert y.dtype == np.float32
    assert np.array_equal(y, tc.conv2d_forward(x.astype(np.float64), _as64(p))
                          .astype(np.float32))
    xf = rng.normal(size=(64, 600)).astype(np.float32)
    w = rng.normal(size=(48, 600)).astype(np.float32)
    b = rng.normal(size=48).astype(np.float32)
    yf = tc.fc_forward(xf, w, b)
    assert yf.dtype == np.float32
    assert np.array_equal(yf, tc.fc_forward(xf.astype(np.float64), w.astype(np.float64),
                                            b.astype(np.float64)).astype(np.float32))


def _max_normalized(got, ref):
    return np.abs(got.astype(np.float64) - ref).max() / np.abs(ref).max()


@pytest.mark.parametrize("banks_kind", ["plain", "rpc", "frpc"])
def test_float32_conv_backward_within_single_precision_of_float64(banks_kind):
    """The float32 conv backward runs in single precision: every gradient is
    float32 and within 5e-6 of the float64 backward of the same values,
    routed by the same winner maps (measured: under 1e-6). A half-precision
    backward misses this by orders of magnitude."""
    rng = np.random.default_rng(51)
    x, p, banks = _precision_case(banks_kind, rng)
    g = rng.normal(size=tc.conv2d_forward(x, p, banks).shape).astype(np.float32)
    got = tc.conv2d_backward(g, x, p, banks)
    ref = tc.conv2d_backward(g.astype(np.float64), x.astype(np.float64), _as64(p), banks)
    for out, want in zip(got, ref):
        assert out.dtype == np.float32
        assert _max_normalized(out, want) <= 5e-6


@pytest.mark.parametrize("n,d,o", [(256, 512, 4), (128, 784, 256)])
def test_float32_fc_backward_within_single_precision_of_float64(n, d, o):
    rng = np.random.default_rng(52)
    x = rng.normal(size=(n, d)).astype(np.float32)
    w = (rng.normal(size=(o, d)) / np.sqrt(d)).astype(np.float32)
    g = rng.normal(size=(n, o)).astype(np.float32)
    got = tc.fc_backward(g, x, w)
    ref = tc.fc_backward(g.astype(np.float64), x.astype(np.float64), w.astype(np.float64))
    for out, want in zip(got, ref):
        assert out.dtype == np.float32
        assert _max_normalized(out, want) <= 5e-6


def test_maxpool_single_window():
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    y, arg = tc.maxpool2d_forward(x, window=2, stride=2)
    assert y[0, 0, 0, 0] == 4.0
    assert arg[0, 0, 0, 0] == 3  # flat index of the 4


def test_maxpool_constant_input_tie_breaks_first():
    x = np.full((1, 1, 4, 4), 7.0)
    y, arg = tc.maxpool2d_forward(x, window=2, stride=2)
    assert (y == 7.0).all()
    # first element of each window in row-major order
    assert np.array_equal(arg[0, 0], np.array([[0, 2], [8, 10]]))
    # +0.0 and -0.0 tie under ==: the +0.0 first in the window wins, and the
    # value equals it, though its bytes may be the other zero
    x = np.array([[[[-1.0, 0.0], [-0.0, -1.0]]]], np.float32)
    y, arg = tc.maxpool2d_forward(x, window=2, stride=2)
    assert arg[0, 0, 0, 0] == 1
    assert y[0, 0, 0, 0] == x.flat[arg[0, 0, 0, 0]]


def test_maxpool_matches_exhaustive_scan():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(1, 1, 6, 6))
    y, arg = tc.maxpool2d_forward(x, window=3, stride=2)
    ref_y, ref_arg = oracle.naive_maxpool(x, 3, 2)
    assert np.array_equal(y, ref_y)
    assert np.array_equal(arg, ref_arg)


def test_maxpool_repeated_calls_identical_argmax():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2, 2, 6, 6))
    _, a1 = tc.maxpool2d_forward(x, 2, 2)
    _, a2 = tc.maxpool2d_forward(x, 2, 2)
    assert np.array_equal(a1, a2)


def test_maxpool_window_too_large():
    with pytest.raises(DimensionError):
        tc.maxpool2d_forward(np.zeros((1, 1, 2, 2)), window=3, stride=1)


def test_maxpool_backward_zero_and_single_winner():
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    _, arg = tc.maxpool2d_forward(x, 2, 2)
    gz = tc.maxpool2d_backward(np.zeros((1, 1, 1, 1)), arg, x.shape)
    assert not gz.any()
    g = tc.maxpool2d_backward(np.array([[[[2.5]]]]), arg, x.shape)
    assert g[0, 0, 1, 1] == 2.5
    assert np.count_nonzero(g) == 1


def test_maxpool_backward_overlapping_windows_accumulate():
    # stride 1, window 2 on a plane whose max sits in every window
    x = np.zeros((1, 1, 3, 3))
    x[0, 0, 1, 1] = 10.0
    _, arg = tc.maxpool2d_forward(x, 2, 1)
    g = tc.maxpool2d_backward(np.ones((1, 1, 2, 2)), arg, x.shape)
    assert g[0, 0, 1, 1] == 4.0


def test_maxpool_backward_stale_indices():
    from spinconv.errors import ConsistencyError
    arg = np.array([[[[99]]]])
    with pytest.raises(ConsistencyError):
        tc.maxpool2d_backward(np.ones((1, 1, 1, 1)), arg, (1, 1, 2, 2))


def test_maxpool_composed_finite_differences():
    rng = np.random.default_rng(7)
    x = 0.01 * rng.permutation(36).astype(np.float64).reshape(1, 1, 6, 6)
    proj = rng.normal(size=(1, 1, 3, 3))

    def fn():
        y, _ = tc.maxpool2d_forward(x, 2, 2)
        return float(np.sum(y * proj))

    _, arg = tc.maxpool2d_forward(x, 2, 2)
    ana = tc.maxpool2d_backward(proj, arg, x.shape)
    num = oracle.finite_difference(fn, x)
    assert oracle.relative_error(num[ana != 0], ana[ana != 0]).max() <= 1e-4
    assert np.abs(num[ana == 0]).max() <= 1e-9


def _pool_windows(x, window, stride):
    """[N, C, H', W', window*window] windows in row-major window order."""
    n, c, h, w = x.shape
    h_out = (h - window) // stride + 1
    w_out = (w - window) // stride + 1
    rows = (np.arange(h_out) * stride)[:, None, None, None] + np.arange(window)[:, None]
    cols = (np.arange(w_out) * stride)[None, :, None, None] + np.arange(window)
    win = x[:, :, rows, cols]                        # [N, C, H', W', window, window]
    plane = rows * w + cols
    return (win.reshape(n, c, h_out, w_out, -1),
            np.broadcast_to(plane, (h_out, w_out, window, window)).reshape(h_out, w_out, -1))


@pytest.mark.parametrize("window", [1, 2, 3])
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("hw", [(6, 6), (7, 8)])
def test_maxpool_matches_oracle_with_planted_ties(window, stride, hw):
    rng = np.random.default_rng(100 * window + 10 * stride + hw[1])
    # few distinct values: most windows hold their maximum more than once
    x = rng.integers(0, 3, size=(2, 2) + hw).astype(np.float64)
    x[0, 0, :3, :3] = 5.0                            # constant window
    x[1, 1, 0, 0] = x[1, 1, 1, 1] = x[1, 1, 2, 2] = 9.0  # equal maxima further on
    y, arg = tc.maxpool2d_forward(x, window, stride)
    ref_y, ref_arg = oracle.naive_maxpool(x, window, stride)
    assert np.array_equal(y, ref_y)
    assert np.array_equal(arg, ref_arg)


@pytest.mark.parametrize("window,stride", [(2, 2), (3, 2), (3, 1)])
def test_maxpool_nan_window_matches_np_argmax(window, stride):
    rng = np.random.default_rng(15)
    x = rng.normal(size=(2, 3, 7, 7))
    x[0, 0, 0, 1] = x[0, 0, 1, 0] = np.nan           # two NaNs in the first window
    x[1, 2, 4, 4] = np.nan
    x[1, 2, 5, 6] = np.inf
    y, arg = tc.maxpool2d_forward(x, window, stride)
    win, plane = _pool_windows(x, window, stride)
    local = win.argmax(axis=-1)
    ref_y = np.take_along_axis(win, local[..., None], axis=-1)[..., 0]
    ref_arg = np.take_along_axis(np.broadcast_to(plane, win.shape), local[..., None],
                                 axis=-1)[..., 0]
    assert np.isnan(y[0, 0, 0, 0]) and arg[0, 0, 0, 0] == 1
    assert np.array_equal(y, ref_y, equal_nan=True)
    assert np.array_equal(arg, ref_arg)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("window,stride", [(1, 1), (2, 2), (3, 1), (3, 2), (2, 3), (4, 3)])
def test_maxpool_separable_max_equals_scan_and_oracle(window, stride, dtype):
    # 9x10 inputs leave remainder rows or columns at strides 2, 3 and 4
    rng = np.random.default_rng(17)
    x = rng.integers(-3, 3, size=(2, 3, 9, 10)).astype(dtype)
    x[0, 1, :3, :3] = 2.0
    x[1, 0, 5, 5], x[0, 2, 2, 2] = np.inf, -np.inf
    y, none = tc.maxpool2d_forward(x, window, stride, indices=False)
    assert none is None
    assert y.dtype == x.dtype and y.flags.c_contiguous and not np.shares_memory(y, x)
    assert np.array_equal(y, tc.maxpool2d_forward(x, window, stride)[0])
    assert np.array_equal(y, oracle.naive_maxpool(x, window, stride)[0])
    # the oracle's scan skips NaN, so a NaN window is checked against the scan
    x[0, 1, 0, 0] = x[1, 2, 4, 3] = np.nan
    y, _ = tc.maxpool2d_forward(x, window, stride, indices=False)
    assert np.isnan(y[0, 1, 0, 0])
    assert np.array_equal(y, tc.maxpool2d_forward(x, window, stride)[0], equal_nan=True)
    # values that compare equal but differ in bits: +0.0 and -0.0, and two
    # NaN payloads; the separable max must return the scan's bytes
    nans = np.array([0x7FF8000000000001, 0xFFF8000000000002], np.uint64).view(np.float64)
    x = rng.choice(np.array([0.0, -0.0, -1.0, nans[0], nans[1]]), size=(2, 3, 9, 10),
                   p=[0.45, 0.45, 0.06, 0.02, 0.02]).astype(dtype)
    x[0, 0, 0, :2], x[0, 0, 1, :2] = (-1.0, 0.0), (-0.0, -1.0)
    y, _ = tc.maxpool2d_forward(x, window, stride, indices=False)
    assert y.tobytes() == tc.maxpool2d_forward(x, window, stride)[0].tobytes()


@pytest.mark.parametrize("window,stride", [(2, 2), (3, 3), (2, 3)])
def test_maxpool_backward_bitwise_equals_add_at(window, stride):
    rng = np.random.default_rng(16)
    x = rng.normal(size=(3, 4, 9, 11)).astype(np.float32)
    y, arg = tc.maxpool2d_forward(x, window, stride)
    g = rng.normal(size=y.shape).astype(np.float32)
    n, c = x.shape[:2]
    ref = np.zeros((n, c, x.shape[2] * x.shape[3]), dtype=np.float32)
    np.add.at(ref, (np.arange(n)[:, None, None, None], np.arange(c)[None, :, None, None], arg),
              g)
    got = tc.maxpool2d_backward(g, arg, x.shape)
    assert got.dtype == np.float32
    assert np.array_equal(got, ref.reshape(x.shape))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv_and_pool_outputs_c_contiguous_in_working_dtype(dtype):
    rng = np.random.default_rng(17)
    x = rng.normal(size=(2, 3, 8, 8)).astype(dtype)
    p = tc.ConvParams(weights=rng.normal(size=(4, 3, 3, 3)).astype(dtype),
                      bias=rng.normal(size=4).astype(dtype), stride=1, pad=1)
    y = tc.conv2d_forward(x, p)
    grads = tc.conv2d_backward(rng.normal(size=y.shape).astype(dtype), x, p)
    pooled, arg = tc.maxpool2d_forward(y, 2, 2)
    gpool = tc.maxpool2d_backward(pooled, arg, y.shape)
    for out in (y, *grads, pooled, gpool):
        assert out.dtype == dtype
        assert out.flags.c_contiguous


def test_fc_identity_and_bias():
    x = np.random.default_rng(8).normal(size=(3, 4))
    y = tc.fc_forward(x, np.eye(4), np.zeros(4))
    assert np.allclose(y, x)
    b = np.array([1.0, -2.0, 0.5])
    y = tc.fc_forward(np.zeros((2, 4)), np.zeros((3, 4)), b)
    assert np.array_equal(y, np.tile(b, (2, 1)))


def test_fc_backward_matches_finite_differences():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(4, 6))
    w = rng.normal(size=(5, 6))
    b = rng.normal(size=5)
    proj = rng.normal(size=(4, 5))

    def fn():
        return float(np.sum(tc.fc_forward(x, w, b) * proj))

    gx, gw, gb = tc.fc_backward(proj, x, w)
    for arr, ana in ((x, gx), (w, gw), (b, gb)):
        num = oracle.finite_difference(fn, arr)
        assert oracle.relative_error(num, ana).max() <= 1e-4


def test_relu_example():
    assert np.array_equal(tc.relu_forward(np.array([-1.0, 0.0, 2.0])),
                          np.array([0.0, 0.0, 2.0]))


def test_prelu_degenerate_slopes():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(2, 3, 4, 4))
    assert np.array_equal(tc.prelu_forward(x, np.zeros(3)), tc.relu_forward(x))
    assert np.array_equal(tc.prelu_forward(x, np.ones(3)), x)


def test_prelu_finite_differences_including_slope():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(2, 3, 4, 4))
    x += np.sign(x) * 0.05
    slope = np.full(3, 0.25)
    proj = rng.normal(size=x.shape)

    def fn():
        return float(np.sum(tc.prelu_forward(x, slope) * proj))

    gx, gs = tc.prelu_backward(proj, x, slope)
    for arr, ana in ((x, gx), (slope, gs)):
        num = oracle.finite_difference(fn, arr)
        assert oracle.relative_error(num, ana).max() <= 1e-4


def test_xent_uniform_logits():
    logits = np.zeros((5, 4))
    loss, grad = tc.softmax_cross_entropy(logits, np.array([0, 1, 2, 3, 0]))
    assert abs(loss - np.log(4)) <= 1e-12
    assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-12)


def test_xent_large_margin():
    logits = np.zeros((1, 3))
    logits[0, 1] = 50.0
    loss, _ = tc.softmax_cross_entropy(logits, np.array([1]))
    assert loss < 1e-9


def test_xent_shift_invariance():
    rng = np.random.default_rng(12)
    logits = rng.normal(size=(4, 5))
    labels = rng.integers(0, 5, 4)
    l1, _ = tc.softmax_cross_entropy(logits, labels)
    l2, _ = tc.softmax_cross_entropy(logits + 123.456, labels)
    assert abs(l1 - l2) <= 1e-9


def test_xent_label_out_of_range():
    with pytest.raises(InputError):
        tc.softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))


def test_xent_grad_matches_finite_differences():
    rng = np.random.default_rng(13)
    logits = rng.normal(size=(3, 4))
    labels = rng.integers(0, 4, 3)

    def fn():
        return tc.softmax_cross_entropy(logits, labels)[0]

    _, ana = tc.softmax_cross_entropy(logits, labels)
    num = oracle.finite_difference(fn, logits)
    assert oracle.relative_error(num, ana).max() <= 1e-4


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(14)
    p = tc.softmax(rng.normal(size=(6, 7)))
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-6)
    assert (p >= 0).all()


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(5, 9),
       st.integers(1, 2), st.integers(0, 1), st.integers(0, 1000))
def test_conv_naive_equivalence_property(n, c, hw, stride, pad, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, c, hw, hw))
    p = tc.ConvParams(weights=rng.normal(size=(2, c, 3, 3)),
                      bias=rng.normal(size=2), stride=stride, pad=pad)
    y = tc.conv2d_forward(x, p)
    assert oracle.relative_error(y, oracle.naive_conv(x, p)).max() <= 1e-6


def _params(weights=(2, 1, 3, 3), bias=2, stride=1, pad=0):
    return tc.ConvParams(weights=np.zeros(weights), bias=np.zeros(bias),
                         stride=stride, pad=pad)


_X = np.zeros((2, 1, 5, 5))


@pytest.mark.parametrize("call,fragment", [
    (lambda: _params(weights=(2, 1, 3)), "must be 4-d [out, in, k, k]"),
    (lambda: _params(weights=(2, 1, 3, 5)), "must be square, got 3x5"),
    (lambda: _params(bias=3), "does not match out_channels 2"),
    (lambda: _params(stride=0), "stride must be positive, got 0"),
    (lambda: _params(pad=-1), "pad must be non-negative, got -1"),
    (lambda: tc.conv2d_forward(_X[0], _params()), "conv input must be 4-d"),
    (lambda: tc.maxpool2d_forward(_X[0], 2, 2), "pool input must be 4-d"),
    (lambda: tc.maxpool2d_backward(np.zeros((2, 1, 2, 2)),
                                   np.zeros((2, 1, 2, 3), np.intp), _X.shape),
     "does not match argmax shape"),
    (lambda: tc.fc_forward(_X, np.zeros((3, 25)), np.zeros(3)), "fc input must be 2-d"),
    (lambda: tc.fc_forward(np.zeros((2, 24)), np.zeros((3, 25)), np.zeros(3)),
     "fc input width 24 does not match weight width 25"),
    (lambda: tc.fc_backward(np.zeros((2, 4)), np.zeros((2, 25)), np.zeros((3, 25))),
     "does not match output shape (2, 3)"),
    (lambda: tc.relu_backward(np.zeros((2, 3)), np.zeros((2, 4))),
     "does not match input shape (2, 4)"),
    (lambda: tc.prelu_forward(np.zeros((2, 3)), np.zeros(4)),
     "does not match channel count 3"),
    (lambda: tc.prelu_backward(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros(4)),
     "does not match input shape (2, 4)"),
    (lambda: tc.softmax_cross_entropy(np.zeros(4), np.zeros(4, int)), "logits must be 2-d"),
    (lambda: tc.softmax_cross_entropy(np.zeros((2, 4)), np.zeros(3, int)),
     "labels shape (3,) does not match batch size 2"),
], ids=["weights-rank", "non-square", "bias-length", "stride", "pad", "conv-input-rank",
        "pool-input-rank", "pool-grad-shape", "fc-input-rank", "fc-width",
        "fc-grad-shape", "relu-grad-shape", "prelu-slope-length", "prelu-grad-shape",
        "logits-rank", "labels-shape"])
def test_input_checks_name_the_bad_argument(call, fragment):
    with pytest.raises(DimensionError) as info:
        call()
    assert fragment in str(info.value)
