import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
