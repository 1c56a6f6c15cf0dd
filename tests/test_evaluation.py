"""Top-k accuracy, rotation sweeps, ten-view prediction, per-image traces."""

import numpy as np
import pytest

from spinconv import data, evaluation as ev, layers, training as tr
from spinconv.errors import InputError
from spinconv.layers import NetworkSpec
from spinconv.tensor_core import softmax


def _rescale_init(net, seed, std=0.1):
    # the pinned defaults are too timid for quick desk-scale fits
    rng = np.random.default_rng(seed)
    for _, name, arr in net.named_params():
        if name == "weights":
            arr[...] = rng.normal(0.0, std, arr.shape)
        elif name == "bias":
            arr[...] = 0.0


@pytest.fixture(scope="module")
def trained():
    """A small convnet fitted on upright shapes, in inference form."""
    ds = data.preprocess(data.make_rotated_shapes(60, seed=31))
    spec = NetworkSpec(input_shape=(1, 28, 28), layers=[
        {"kind": "conv", "out_channels": 8, "kernel": 3, "pad": 1},
        {"kind": "relu"},
        {"kind": "maxpool", "window": 2},
        {"kind": "flatten"},
        {"kind": "fc", "out_features": 32},
        {"kind": "relu"},
        {"kind": "fc", "out_features": 4},
    ])
    net = tr.init_weights(spec, seed=3, dtype=np.float64)
    _rescale_init(net, seed=99)
    state = tr.OptimizerState(learning_rate=0.2, momentum=0.9, batch_size=64)
    tr.fit(net, ds.images, ds.labels, state, epochs=6,
           schedule={"kind": "fixed"})
    return tr.to_inference(net), ds


# ---------------------------------------------------------------------------
# top_k_accuracy
# ---------------------------------------------------------------------------

def test_top_k_perfect_one_hot():
    labels = np.array([2, 0, 1])
    logits = np.eye(4)[labels] * 10.0
    for k in (1, 2, 4):
        assert ev.top_k_accuracy(logits, labels, k) == 1.0


def test_top_k_equals_class_count_is_always_right():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(50, 6))
    labels = rng.integers(0, 6, size=50)
    assert ev.top_k_accuracy(logits, labels, 6) == 1.0


def test_top_1_random_logits_near_chance():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(1000, 10))
    labels = rng.integers(0, 10, size=1000)
    acc = ev.top_k_accuracy(logits, labels, 1)
    assert 0.07 <= acc <= 0.13


def test_top_k_ties_prefer_lower_index():
    logits = np.zeros((2, 5))
    assert ev.top_k_accuracy(logits, np.array([0, 0]), 1) == 1.0
    assert ev.top_k_accuracy(logits, np.array([1, 1]), 1) == 0.0
    assert ev.top_k_accuracy(logits, np.array([1, 1]), 2) == 1.0


def test_top_k_rejects_oversized_k():
    with pytest.raises(InputError):
        ev.top_k_accuracy(np.zeros((2, 3)), np.zeros(2, dtype=int), 4)


def test_error_plus_accuracy_is_one(trained):
    net, ds = trained
    logits = ev.predict_logits(net, ds.images)
    acc = ev.top_k_accuracy(logits, ds.labels, 1)
    assert acc + (1.0 - acc) == 1.0


def test_top_5_at_least_top_1(trained):
    net, ds = trained
    logits = ev.predict_logits(net, ds.images)
    top1 = ev.top_k_accuracy(logits, ds.labels, 1)
    top2 = ev.top_k_accuracy(logits, ds.labels, 2)
    assert top2 >= top1


def test_predict_logits_rejects_empty_images(trained):
    net, _ = trained
    with pytest.raises(InputError):
        ev.predict_logits(net, np.zeros((0, 1, 28, 28), np.float32))


@pytest.mark.parametrize("kind", ["rpc_conv", "frpc_conv"])
def test_predict_logits_skips_training_forward(monkeypatch, kind):
    """Inference goes through `infer`, never through the training forward
    of the layers whose forward computes winners for a backward."""
    def refuse(self, x, cache):
        raise AssertionError(f"{type(self).__name__}.forward ran during inference")

    for cls in (layers.MaxPoolLayer, layers._OrientedConv,
                layers.RpcConvLayer, layers.FrpcConvLayer):
        monkeypatch.setattr(cls, "forward", refuse)
    spec = NetworkSpec(input_shape=(1, 12, 12), layers=[
        {"kind": kind, "out_channels": 8, "kernel": 3, "pad": 1},
        {"kind": "relu"},
        {"kind": "maxpool", "window": 2},
        {"kind": "flatten"},
        {"kind": "fc", "out_features": 3},
    ])
    net = tr.to_inference(tr.init_weights(spec, seed=4))
    images = np.random.default_rng(5).normal(size=(5, 1, 12, 12)).astype(np.float32)
    logits = ev.predict_logits(net, images, batch_size=2)
    assert logits.shape == (5, 3) and np.isfinite(logits).all()


# ---------------------------------------------------------------------------
# rotation_sweep
# ---------------------------------------------------------------------------

def test_sweep_angles_spacing():
    angles = ev.sweep_angles(64)
    assert len(angles) == 64
    assert angles[0] == 0.0
    assert angles[1] == pytest.approx(5.625)
    assert all(a < 360.0 for a in angles)
    with pytest.raises(InputError):
        ev.sweep_angles(0)
    assert len(ev.sweep_angles(ev.MAX_SWEEP_ANGLES)) == ev.MAX_SWEEP_ANGLES
    with pytest.raises(InputError):
        ev.sweep_angles(ev.MAX_SWEEP_ANGLES + 1)


def test_sweep_angle_zero_matches_plain_evaluation(trained):
    net, ds = trained
    report = ev.rotation_sweep(net, ds, [0.0, 90.0])
    assert len(report.rows) == 2

    logits = ev.predict_logits(net, ds.images)
    top1 = ev.top_k_accuracy(logits, ds.labels, 1)
    probs = np.asarray(softmax(logits), dtype=np.float64)
    p_true = float(probs[np.arange(len(ds.labels)), ds.labels].mean())

    angle, row_top1, row_p = report.rows[0]
    assert angle == 0.0
    assert row_top1 == top1
    assert row_p == p_true


def test_sweep_validates_angles(trained):
    net, ds = trained
    with pytest.raises(InputError):
        ev.rotation_sweep(net, ds, [])
    with pytest.raises(InputError):
        ev.rotation_sweep(net, ds, [10.0, 10.0])
    with pytest.raises(InputError):
        ev.rotation_sweep(net, ds, [0.0, 360.0])


def test_sweep_disk_subset_is_flat(trained):
    net, ds = trained
    keep = ds.labels == 3
    disks = data.Dataset(images=ds.images[keep], labels=ds.labels[keep],
                         mean_image=ds.mean_image)
    report = ev.rotation_sweep(net, disks, ev.sweep_angles(8))
    accs = [t for _, t, _ in report.rows]
    assert max(accs) - min(accs) <= 0.02


def test_sweep_rotates_raw_images_without_a_mean(trained):
    # a dataset that was never preprocessed has no mean to add back, so
    # each row scores the plain rotation of the images as given
    net, _ = trained
    raw = data.make_rotated_shapes(5, seed=8)
    assert raw.mean_image is None
    report = ev.rotation_sweep(net, raw, [0.0, 30.0, 90.0])
    for angle, top1, p_true in report.rows:
        images = raw.images if angle == 0.0 else data.rotate_batch(raw.images, angle)
        logits = ev.predict_logits(net, images)
        probs = np.asarray(softmax(logits), dtype=np.float64)
        assert top1 == ev.top_k_accuracy(logits, raw.labels, 1)
        assert p_true == float(probs[np.arange(len(raw.labels)), raw.labels].mean())
    # a zero mean adds and subtracts nothing
    zero = data.Dataset(images=raw.images, labels=raw.labels,
                        mean_image=np.zeros_like(raw.images[0]))
    assert ev.rotation_sweep(net, zero, [0.0, 30.0, 90.0]).rows == report.rows


def test_sweep_csv_format(trained):
    net, ds = trained
    report = ev.rotation_sweep(net, ds, [0.0, 45.0, 181.25])
    text = report.to_csv()
    lines = text.split("\n")
    assert lines[0] == "angle,top1,mean_p_true"
    assert len(lines) == 5 and lines[-1] == ""  # 3 rows + trailing LF
    first = lines[1].split(",")
    assert first[0] == "0.000000"
    assert all(len(f.split(".")[1]) == 6 for f in first)
    assert "\r" not in text


# ---------------------------------------------------------------------------
# ten_view_probabilities
# ---------------------------------------------------------------------------

def _random_inference_net(input_size, seed=7):
    height, width = input_size
    spec = NetworkSpec(input_shape=(1, height, width), layers=[
        {"kind": "conv", "out_channels": 4, "kernel": 3, "pad": 1},
        {"kind": "relu"},
        {"kind": "flatten"},
        {"kind": "fc", "out_features": 4},
    ])
    net = tr.init_weights(spec, seed=seed, dtype=np.float64)
    _rescale_init(net, seed=seed + 1)
    return tr.to_inference(net)


def test_ten_view_probabilities_sum_to_one():
    net = _random_inference_net((24, 24))
    images = data.make_rotated_shapes(2, seed=2).images
    probs = ev.ten_view_probabilities(net, images, batch_size=3)
    assert probs.shape == (8, 4) and probs.dtype == np.float64
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-6)


def test_ten_view_equals_mean_of_single_views():
    # a non-square crop: 22 of 28 rows, 26 of 28 columns
    net = _random_inference_net((22, 26))
    images = data.make_rotated_shapes(1, seed=3).images
    probs = ev.ten_view_probabilities(net, images, batch_size=4)
    views = [images[..., top:top + 22, left:left + 26]
             for top, left in ((3, 1), (0, 0), (0, 2), (6, 0), (6, 2))]
    views += [v[..., ::-1] for v in views]
    singles = [np.asarray(softmax(net.forward_inference(np.ascontiguousarray(v))),
                          dtype=np.float64) for v in views]
    # differently shaped batches run through differently shaped products,
    # so the decomposition holds to rounding
    assert np.allclose(probs, np.mean(singles, axis=0), rtol=0, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ten_view_probabilities_are_batch_invariant(dtype):
    spec = NetworkSpec(input_shape=(1, 24, 24), layers=[
        {"kind": "conv", "out_channels": 4, "kernel": 3, "pad": 1},
        {"kind": "relu"},
        {"kind": "maxpool", "window": 2},
        {"kind": "flatten"},
        {"kind": "fc", "out_features": 4},
    ])
    net = tr.init_weights(spec, seed=5, dtype=dtype)
    _rescale_init(net, seed=6)
    net = tr.to_inference(net)
    images = data.preprocess(data.make_rotated_shapes(5, seed=4)).images.astype(dtype)
    runs = [ev.ten_view_probabilities(net, images, batch_size=b) for b in (1, 7, 256)]
    for probs in runs[1:]:
        np.testing.assert_allclose(probs, runs[0], rtol=0, atol=1e-12)
    per_view = [np.asarray(softmax(ev.predict_logits(net, v, 256)), dtype=np.float64)
                for v in data.ten_view_crops(images, (24, 24))]
    assert np.array_equal(runs[2], np.mean(per_view, axis=0))


def test_ten_view_rejects_batch_size_below_one():
    net = _random_inference_net((24, 24))
    images = data.make_rotated_shapes(1, seed=2).images
    with pytest.raises(InputError):
        ev.ten_view_probabilities(net, images, batch_size=0)


def test_ten_view_constant_net_equals_single_view():
    spec = NetworkSpec(input_shape=(1, 8, 8), layers=[
        {"kind": "flatten"},
        {"kind": "fc", "out_features": 3},
    ])
    net = tr.init_weights(spec, seed=0, dtype=np.float64)
    net.layers[1].weights[...] = 0.0
    net.layers[1].bias[...] = [0.3, 1.2, -0.5]
    inf = tr.to_inference(net)
    images = np.random.default_rng(4).random((3, 1, 12, 12))
    probs = ev.ten_view_probabilities(inf, images, batch_size=2)
    single = np.asarray(softmax(np.array([[0.3, 1.2, -0.5]])), dtype=np.float64)
    np.testing.assert_allclose(probs, np.repeat(single, 3, axis=0), atol=1e-15)
