"""IDX ingestion, synthetic shapes, preprocessing, rotation, ten-view crops."""

import os
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinconv import data
from spinconv.errors import ConsistencyError, DimensionError, FormatError, InputError

MNIST_IMAGES = "data/train-images-idx3-ubyte"
MNIST_LABELS = "data/train-labels-idx1-ubyte"


def _write_pair(tmp_path, image_payload, label_payload,
                n=1, rows=2, cols=2, n_labels=None,
                images_magic=data.IDX_IMAGES_MAGIC,
                labels_magic=data.IDX_LABELS_MAGIC):
    ip = tmp_path / "images.idx"
    lp = tmp_path / "labels.idx"
    ip.write_bytes(struct.pack(">IIII", images_magic, n, rows, cols)
                   + bytes(image_payload))
    lp.write_bytes(struct.pack(">II", labels_magic,
                               n if n_labels is None else n_labels)
                   + bytes(label_payload))
    return str(ip), str(lp)


# ---------------------------------------------------------------------------
# load_idx / write_idx
# ---------------------------------------------------------------------------

def test_load_idx_header_example(tmp_path):
    ip, lp = _write_pair(tmp_path, [0, 128, 255, 0], [3])
    ds = data.load_idx(ip, lp)
    assert ds.images.shape == (1, 1, 2, 2)
    np.testing.assert_array_equal(
        ds.images[0, 0], np.float32([[0.0, 128 / 255.0], [1.0, 0.0]]))
    assert ds.labels.tolist() == [3]


def test_load_idx_count_mismatch(tmp_path):
    ip, lp = _write_pair(tmp_path, [0] * 8, [1, 2, 3], n=2, n_labels=3)
    with pytest.raises(FormatError):
        data.load_idx(ip, lp)


def test_load_idx_bad_magic(tmp_path):
    ip, lp = _write_pair(tmp_path, [0] * 4, [0], images_magic=0x00000801)
    with pytest.raises(FormatError):
        data.load_idx(ip, lp)
    ip, lp = _write_pair(tmp_path, [0] * 4, [0], labels_magic=0x00000803)
    with pytest.raises(FormatError):
        data.load_idx(ip, lp)


def test_load_idx_truncated_file(tmp_path):
    ip, lp = _write_pair(tmp_path, [0, 128], [0])  # promises 4 pixels
    with pytest.raises(OSError):
        data.load_idx(ip, lp)


def test_load_idx_trailing_bytes(tmp_path):
    ip, lp = _write_pair(tmp_path, [0, 1, 2, 3, 99], [0])
    with pytest.raises(FormatError):
        data.load_idx(ip, lp)


# the header fields of a valid pair, images then labels: magic, count, rows,
# cols; magic, count
_VALID_IDX_HEADER = (data.IDX_IMAGES_MAGIC, 2, 3, 4, data.IDX_LABELS_MAGIC, 2)


@pytest.fixture(scope="module")
def idx_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("idx")


@settings(max_examples=60, deadline=None)
@given(field=st.integers(0, len(_VALID_IDX_HEADER) - 1),
       value=st.one_of(st.integers(0, 64), st.integers(0, 2**32 - 1)),
       fit=st.booleans())
@example(field=5, value=3, fit=True)
def test_load_idx_mutated_header_loads_or_is_refused(idx_dir, field, value, fit):
    """One header field of a valid pair takes any 32-bit value. With `fit`
    the payloads follow the header where it declares at most 4 KiB, so the
    two files can each be well formed and still disagree. The pair loads as
    declared, or is refused as a malformed, short or empty file."""
    header = list(_VALID_IDX_HEADER)
    header[field] = value
    images_magic, n, rows, cols, labels_magic, n_labels = header
    pixels = n * rows * cols if fit and n * rows * cols <= 4096 else 24
    labels = n_labels if fit and n_labels <= 4096 else 2
    ip, lp = _write_pair(idx_dir, [7] * pixels, [1] * labels, n=n, rows=rows,
                         cols=cols, n_labels=n_labels, images_magic=images_magic,
                         labels_magic=labels_magic)
    try:
        ds = data.load_idx(ip, lp)
    except (FormatError, OSError, InputError):
        return
    assert ds.images.shape == (n, 1, rows, cols)
    assert ds.labels.shape == (n_labels,)


def test_idx_round_trip(tmp_path):
    ds = data.make_rotated_shapes(3, seed=5)
    ip, lp = str(tmp_path / "im.idx"), str(tmp_path / "lb.idx")
    data.write_idx(ds, ip, lp)
    back = data.load_idx(ip, lp)
    # shape intensities live on the byte grid, so the trip is exact
    assert np.array_equal(back.images, ds.images)
    assert np.array_equal(back.labels, ds.labels)


@pytest.mark.parametrize("images,labels", [
    (np.full((3, 1, 4, 4), 0.5, np.float32), np.array([0, 256, 1])),
    (np.full((3, 1, 4, 4), 0.5, np.float32), np.array([0, -1, 1])),
    (np.full((3, 1, 4, 4), 1.5, np.float32), np.array([0, 1, 2])),
    (np.full((3, 1, 4, 4), -0.25, np.float32), np.array([0, 1, 2])),
    (np.full((3, 1, 4, 4), np.nan, np.float32), np.array([0, 1, 2])),
], ids=["label-256", "label-negative", "intensity-above-1", "intensity-below-0",
        "intensity-nan"])
def test_write_idx_refuses_values_a_byte_cannot_hold(tmp_path, images, labels):
    ip, lp = tmp_path / "im.idx", tmp_path / "lb.idx"
    with pytest.raises(InputError, match="IDX stores"):
        data.write_idx(data.Dataset(images=images, labels=labels), str(ip), str(lp))
    assert not ip.exists() and not lp.exists()


def test_dataset_and_write_idx_shape_checks(tmp_path):
    with pytest.raises(DimensionError, match=r"images must be \[N,C,H,W\]"):
        data.Dataset(images=np.zeros((2, 4, 4)), labels=np.zeros(2, int))
    with pytest.raises(ConsistencyError, match="2 images but 3 labels"):
        data.Dataset(images=np.zeros((2, 1, 4, 4)), labels=np.zeros(3, int))
    rgb = data.Dataset(images=np.zeros((2, 3, 4, 4)), labels=np.zeros(2, int))
    with pytest.raises(DimensionError, match="single-channel images, got 3 channels"):
        data.write_idx(rgb, str(tmp_path / "im.idx"), str(tmp_path / "lb.idx"))


@pytest.mark.skipif(not os.path.exists(MNIST_IMAGES),
                    reason="MNIST training files not present")
def test_load_idx_mnist_training_set():
    ds = data.load_idx(MNIST_IMAGES, MNIST_LABELS)
    assert ds.images.shape == (60000, 1, 28, 28)


# ---------------------------------------------------------------------------
# make_rotated_shapes
# ---------------------------------------------------------------------------

def test_shapes_class_balance_and_range():
    ds = data.make_rotated_shapes(7, seed=0)
    assert ds.images.shape == (28, 1, 28, 28)
    assert np.bincount(ds.labels, minlength=4).tolist() == [7, 7, 7, 7]
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0


def test_shapes_seed_determinism():
    a = data.make_rotated_shapes(4, seed=9)
    b = data.make_rotated_shapes(4, seed=9)
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.labels, b.labels)
    c = data.make_rotated_shapes(4, seed=10)
    assert not np.array_equal(a.images, c.images)


def test_disk_images_are_rotation_invariant():
    ds = data.make_rotated_shapes(5, seed=1)
    disks = ds.images[ds.labels == 3]
    for angle in (45.0, 90.0, 137.0):
        for img in disks:
            rot = data.rotate_batch(img[None], angle)[0]
            changed = np.abs(rot - img) > 0.1
            assert changed.mean() <= 0.02, angle


# ---------------------------------------------------------------------------
# preprocess
# ---------------------------------------------------------------------------

def test_preprocess_constant_dataset_goes_to_zero():
    images = np.full((6, 1, 4, 4), 0.7, dtype=np.float32)
    ds = data.Dataset(images=images, labels=np.zeros(6, dtype=np.int64))
    out = data.preprocess(ds)
    assert np.all(out.images == 0.0)
    assert np.all(out.mean_image == np.float32(0.7))


def test_preprocess_zeroes_training_mean_per_pixel():
    ds = data.make_rotated_shapes(10, seed=2)
    out = data.preprocess(ds)
    assert np.abs(out.images.mean(axis=0)).max() <= 1e-6


def test_preprocess_heldout_keeps_training_mean():
    train = data.preprocess(data.make_rotated_shapes(10, seed=3))
    held = data.make_rotated_shapes(10, seed=4)
    shifted = data.Dataset(images=np.clip(held.images + 0.1, 0, 1),
                           labels=held.labels)
    out = data.preprocess(shifted, train.mean_image)
    assert np.array_equal(out.mean_image, train.mean_image)
    # a split with a different distribution does not center at zero
    assert np.abs(out.images.mean(axis=0)).max() > 1e-3


def test_preprocess_applied_twice_shifts_by_mean():
    ds = data.make_rotated_shapes(6, seed=5)
    once = data.preprocess(ds)
    twice = data.preprocess(once, once.mean_image)
    assert np.array_equal(twice.images, once.images - once.mean_image)


def test_preprocess_mean_shape_mismatch():
    ds = data.make_rotated_shapes(2, seed=6)
    with pytest.raises(DimensionError):
        data.preprocess(ds, np.zeros((1, 5, 5), dtype=np.float32))


# ---------------------------------------------------------------------------
# rotate_batch
# ---------------------------------------------------------------------------

def _one_shape(seed=7):
    ds = data.make_rotated_shapes(1, seed=seed)
    return ds.images[0]


def test_rotate_zero_degrees_is_identity():
    img = _one_shape()
    assert np.array_equal(data.rotate_batch(img[None], 0.0)[0], img)


def test_rotate_full_turn_is_identity():
    img = _one_shape()
    assert np.abs(data.rotate_batch(img[None], 360.0)[0] - img).max() <= 1e-6


def test_rotate_quarter_turn_matches_permutation():
    img = _one_shape()
    rot = data.rotate_batch(img[None], 90.0)[0]
    perm = np.rot90(img, k=-1, axes=(1, 2))
    assert np.abs(rot - perm).max() <= 1e-6


def test_rotate_there_and_back_interior():
    img = _one_shape()
    back = data.rotate_batch(data.rotate_batch(img[None], 30.0), -30.0)[0]
    interior = data.center_crop(np.stack([img, back]), (14, 14))
    mae = np.abs(interior[0] - interior[1]).mean()
    assert mae <= 0.02


def test_rotate_batch_matches_per_image():
    ds = data.make_rotated_shapes(2, seed=8)
    batch = data.rotate_batch(ds.images, 60.0)
    singles = np.stack([data.rotate_batch(im[None], 60.0)[0] for im in ds.images])
    assert np.array_equal(batch, singles)


# ---------------------------------------------------------------------------
# center_crop / ten_view_crops
# ---------------------------------------------------------------------------

def test_center_crop_picks_middle():
    x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
    out = data.center_crop(x, (2, 2))
    np.testing.assert_array_equal(out[0, 0], [[5, 6], [9, 10]])
    with pytest.raises(DimensionError):
        data.center_crop(x, (5, 4))


def test_center_crop_non_square():
    # 28 rows by 24 columns out of a 28 x 28 batch: all rows, columns 2-25
    x = data.make_rotated_shapes(2, seed=5).images
    out = data.center_crop(x, (28, 24))
    assert out.shape == (8, 1, 28, 24)
    assert np.array_equal(out, x[:, :, :, 2:26])
    assert np.shares_memory(out, x)
    assert np.array_equal(data.center_crop(x, (24, 28)), x[:, :, 2:26, :])


def test_ten_view_degenerate_crop():
    img = _one_shape()[None]
    views = data.ten_view_crops(img, (28, 28))
    assert len(views) == 10
    for i in range(5):
        assert np.array_equal(views[i], img)
        assert np.array_equal(views[5 + i], img[..., ::-1])


def test_ten_view_offsets_256_to_224():
    rng = np.random.default_rng(11)
    images = rng.random((2, 1, 256, 256), dtype=np.float32)
    views = data.ten_view_crops(images, (224, 224))
    # center, then top-left, top-right, bottom-left, bottom-right
    offsets = [(16, 16), (0, 0), (0, 32), (32, 0), (32, 32)]
    for v, (top, left) in zip(views, offsets):
        assert v.shape == (2, 1, 224, 224)
        assert np.array_equal(v, images[..., top:top + 224, left:left + 224])
        assert np.shares_memory(v, images)


def test_ten_view_non_square_offsets():
    images = np.random.default_rng(12).random((3, 2, 10, 12))
    views = data.ten_view_crops(images, (7, 6))
    offsets = [(1, 3), (0, 0), (0, 6), (3, 0), (3, 6)]
    for v, (top, left) in zip(views, offsets):
        assert np.array_equal(v, images[..., top:top + 7, left:left + 6])
    assert all(v.shape == (3, 2, 7, 6) for v in views)


def test_ten_view_mirror_involution():
    images = data.make_rotated_shapes(1, seed=7).images
    views = data.ten_view_crops(images, (20, 18))
    for i in range(5):
        assert np.array_equal(views[5 + i][..., ::-1], views[i])
        assert np.shares_memory(views[5 + i], images)


def test_ten_view_crop_too_large():
    images = np.zeros((2, 1, 8, 8), dtype=np.float32)
    for size in ((9, 9), (9, 8), (8, 9)):
        with pytest.raises(DimensionError):
            data.ten_view_crops(images, size)
