"""Dataset ingestion, synthetic shape generation, preprocessing, and the
image-side geometric transforms used at evaluation time."""
from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DimensionError, FormatError, InputError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

SHAPE_SIZE = 28


@dataclass
class Dataset:
    """Images [N,C,H,W] in [0,1] (before preprocessing), integer labels,
    and the per-pixel mean of the training split once preprocess ran."""

    images: np.ndarray
    labels: np.ndarray
    mean_image: np.ndarray = None

    def __post_init__(self):
        if self.images.ndim != 4:
            raise DimensionError(f"images must be [N,C,H,W], got shape "
                                 f"{self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise ConsistencyError(
                f"{self.images.shape[0]} images but {self.labels.shape[0]} labels")

    def __len__(self):
        return self.images.shape[0]


# ---------------------------------------------------------------------------
# IDX binary format
# ---------------------------------------------------------------------------

def _read_exact(f, count, path):
    """`count` bytes of f, compared with the bytes left before any is read."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if count > left:
        raise OSError(f"truncated {path}: wanted {count} more bytes, "
                      f"{left} are left")
    return f.read(count)


def load_idx(images_path, labels_path) -> Dataset:
    """Read an images/labels pair of IDX files (big-endian headers, uint8
    payload); pixel bytes are scaled to [0,1]."""
    with open(images_path, "rb") as f:
        magic, n, rows, cols = struct.unpack(">IIII", _read_exact(f, 16, images_path))
        if magic != IDX_IMAGES_MAGIC:
            raise FormatError(f"bad images magic 0x{magic:08x} in {images_path}, "
                              f"expected 0x{IDX_IMAGES_MAGIC:08x}")
        raw = _read_exact(f, n * rows * cols, images_path)
        if f.read(1):
            raise FormatError(f"trailing bytes after {n} images in {images_path}")
    with open(labels_path, "rb") as f:
        magic, n_labels = struct.unpack(">II", _read_exact(f, 8, labels_path))
        if magic != IDX_LABELS_MAGIC:
            raise FormatError(f"bad labels magic 0x{magic:08x} in {labels_path}, "
                              f"expected 0x{IDX_LABELS_MAGIC:08x}")
        raw_labels = _read_exact(f, n_labels, labels_path)
        if f.read(1):
            raise FormatError(f"trailing bytes after {n_labels} labels in {labels_path}")
    if n != n_labels:
        raise FormatError(f"{n} images but {n_labels} labels "
                          f"({images_path}, {labels_path})")
    if n == 0:
        raise InputError(f"no images in {images_path}")
    images = np.frombuffer(raw, dtype=np.uint8).reshape(n, 1, rows, cols)
    images = images.astype(np.float32) / 255.0
    labels = np.frombuffer(raw_labels, dtype=np.uint8).astype(np.int64)
    return Dataset(images=images, labels=labels)


def write_idx(dataset: Dataset, images_path, labels_path):
    """Write a raw dataset back out as an IDX pair (intensities rounded to
    the nearest byte). Intensities outside [0, 1], NaN among them, and
    labels outside [0, 255] have no byte and are refused before either
    file is opened."""
    n, c, h, w = dataset.images.shape
    if c != 1:
        raise DimensionError(f"IDX stores single-channel images, got {c} channels")
    images, labels = dataset.images, dataset.labels
    if not np.all((images >= 0.0) & (images <= 1.0)):
        raise InputError("IDX stores intensities in [0, 1], got values outside it "
                         "or NaN; write a raw dataset, not a preprocessed one")
    if labels.size and (labels.min() < 0 or labels.max() > 255):
        raise InputError(f"IDX stores labels in [0, 255], got "
                         f"[{labels.min()}, {labels.max()}]")
    pixels = np.rint(images * 255.0).astype(np.uint8)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, h, w))
        f.write(pixels.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, n))
        f.write(dataset.labels.astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# Synthetic rotated-shapes dataset
# ---------------------------------------------------------------------------

def _soft(dist, radius, softness=0.35):
    return 1.0 / (1.0 + np.exp((dist - radius) / softness))


def _segment_dist(px, py, x0, y0, x1, y1):
    dx, dy = x1 - x0, y1 - y0
    t = np.clip(((px - x0) * dx + (py - y0) * dy) / (dx * dx + dy * dy), 0.0, 1.0)
    return np.hypot(px - (x0 + t * dx), py - (y0 + t * dy))


_ARM_ANGLES = {0: (0.0, 180.0),        # bar: straight line through the center
               1: (0.0, 90.0),         # l_corner
               2: (0.0, 90.0, 180.0)}  # t_junction


def make_rotated_shapes(n_per_class: int, seed: int) -> Dataset:
    """Four 28x28 shape classes for rotation-robustness experiments: bar,
    L-corner, T-junction (arms radiating from near the image center), and a
    centered disk.

    The arm classes get position, length, and thickness jitter; the disk
    stays centered (radius jitter only) so its images are rotation
    invariant by construction. Intensities are quantized to the byte grid,
    making IDX round trips exact. Deterministic per seed.
    """
    rng = np.random.default_rng(seed)
    rows, cols = np.mgrid[0:SHAPE_SIZE, 0:SHAPE_SIZE].astype(np.float64)
    center = (SHAPE_SIZE - 1) / 2.0
    images = np.empty((4 * n_per_class, 1, SHAPE_SIZE, SHAPE_SIZE), dtype=np.float32)
    labels = np.empty(4 * n_per_class, dtype=np.int64)

    i = 0
    for label in range(4):
        for _ in range(n_per_class):
            if label == 3:
                radius = rng.uniform(4.5, 6.5)
                dist = np.hypot(cols - center, rows - center)
                img = _soft(dist, radius, softness=0.6)
            else:
                cx = center + rng.uniform(-2.0, 2.0)
                cy = center + rng.uniform(-2.0, 2.0)
                thickness = rng.uniform(1.5, 2.1)
                img = np.zeros((SHAPE_SIZE, SHAPE_SIZE))
                for ang in _ARM_ANGLES[label]:
                    theta = np.deg2rad(ang)
                    length = rng.uniform(7.0, 10.0)
                    x1 = cx + length * np.cos(theta)
                    y1 = cy - length * np.sin(theta)
                    d = _segment_dist(cols, rows, cx, cy, x1, y1)
                    img = np.maximum(img, _soft(d, thickness))
            images[i, 0] = np.rint(np.clip(img, 0.0, 1.0) * 255.0) / 255.0
            labels[i] = label
            i += 1

    perm = rng.permutation(4 * n_per_class)
    return Dataset(images=images[perm], labels=labels[perm])


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------

def preprocess(dataset: Dataset, mean_image: np.ndarray = None) -> Dataset:
    """Subtract the per-pixel mean.

    With no mean given (the training split), the mean is computed from the
    dataset itself and carried on the result; evaluation splits must pass
    the training mean in.
    """
    if mean_image is None:
        mean_image = dataset.images.mean(axis=0, dtype=np.float64)
        mean_image = mean_image.astype(dataset.images.dtype)
    if mean_image.shape != dataset.images.shape[1:]:
        raise DimensionError(
            f"mean image shape {mean_image.shape} does not match image shape "
            f"{dataset.images.shape[1:]}")
    return Dataset(images=dataset.images - mean_image, labels=dataset.labels,
                   mean_image=mean_image)


def center_crop(images: np.ndarray, size) -> np.ndarray:
    """The spatial center of [N,C,H,W] images cropped to size = (h, w): the
    first of the ten views, a view of the input."""
    return ten_view_crops(images, size)[0]


# ---------------------------------------------------------------------------
# Rotation and crops
# ---------------------------------------------------------------------------

def _bilinear_gather(planes: np.ndarray, row_s: np.ndarray, col_s: np.ndarray):
    """Sample [M,H,W] planes at fractional (row_s, col_s) positions with
    zero outside the support; returns [M, len(row_s)] in float64."""
    m, h, w = planes.shape
    r0 = np.floor(row_s).astype(int)
    c0 = np.floor(col_s).astype(int)
    fr = row_s - r0
    fc = col_s - c0
    # a border of 2 zero pixels: a tap pair whose top-left index is clipped
    # to -2 or to the far edge lands wholly outside the frame
    padded = np.pad(np.asarray(planes, dtype=np.float64), ((0, 0), (2, 2), (2, 2)))
    r0 = np.clip(r0, -2, h) + 2
    c0 = np.clip(c0, -2, w) + 2
    out = np.zeros((m, row_s.size), dtype=np.float64)
    for dr, dc, wt in ((0, 0, (1 - fr) * (1 - fc)), (0, 1, (1 - fr) * fc),
                       (1, 0, fr * (1 - fc)), (1, 1, fr * fc)):
        out += wt * padded[:, r0 + dr, c0 + dc]
    return out


def _rotation_sources(h: int, w: int, degrees: float):
    theta = np.deg2rad(degrees)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    rows, cols = np.mgrid[0:h, 0:w]
    u_d = cols.ravel() - cx
    v_d = rows.ravel() - cy
    row_s = -u_d * sin_t + v_d * cos_t + cy
    col_s = u_d * cos_t + v_d * sin_t + cx
    return row_s, col_s


def rotate_batch(images: np.ndarray, degrees: float) -> np.ndarray:
    """Clockwise rotation of each image of a [N,C,H,W] batch about its
    center: bilinear inverse mapping with the sampling grid computed once,
    zero fill outside the frame."""
    n, c, h, w = images.shape
    row_s, col_s = _rotation_sources(h, w, degrees)
    out = _bilinear_gather(images.reshape(n * c, h, w), row_s, col_s)
    return out.reshape(n, c, h, w).astype(images.dtype, copy=False)


def ten_view_crops(images: np.ndarray, size) -> list:
    """The 10 evaluation views of [N,C,H,W] images cropped to size = (h, w):
    center, the four corners (top-left, top-right, bottom-left,
    bottom-right), then the left-right mirror of each, all views of the
    input."""
    (h, w), (rows, cols) = size, images.shape[-2:]
    if h > rows or w > cols:
        raise DimensionError(f"crop {h}x{w} exceeds image size {rows}x{cols}")
    dy, dx = rows - h, cols - w
    offsets = [(dy // 2, dx // 2), (0, 0), (0, dx), (dy, 0), (dy, dx)]
    views = [images[..., top:top + h, left:left + w] for top, left in offsets]
    return views + [v[..., ::-1] for v in views]
