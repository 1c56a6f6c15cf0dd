"""Accuracy metrics, rotation-robustness sweeps, and multi-view prediction."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, center_crop, rotate_batch, ten_view_crops
from .errors import InputError
from .tensor_core import softmax


# the most angles a sweep may evaluate: 0.1-degree steps
MAX_SWEEP_ANGLES = 3600


def sweep_angles(n: int):
    """n angles uniformly spaced over [0, 360), 1 <= n <= MAX_SWEEP_ANGLES."""
    if not 1 <= n <= MAX_SWEEP_ANGLES:
        raise InputError(f"sweep angle count must be in [1, {MAX_SWEEP_ANGLES}], got {n}")
    return [360.0 * i / n for i in range(n)]


def top_k_accuracy(logits: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Fraction of samples whose true label is among the k largest logits;
    ties rank the lower class index first."""
    n, n_classes = logits.shape
    if k > n_classes:
        raise InputError(f"k={k} exceeds {n_classes} classes")
    order = np.argsort(-logits, axis=1, kind="stable")[:, :k]
    hits = (order == np.asarray(labels)[:, None]).any(axis=1)
    return float(hits.mean())


def predict_logits(net, images: np.ndarray, batch_size: int = 256) -> np.ndarray:
    """Batched inference, the only loop over batches of `forward_inference`;
    center-crops the images to the network input (mirroring the
    training-time crop)."""
    if batch_size < 1:
        raise InputError(f"batch size must be at least 1, got {batch_size}")
    if images.shape[0] == 0:
        raise InputError("no images to predict")
    images = center_crop(images, net.spec.input_shape[1:])
    chunks = [net.forward_inference(images[i:i + batch_size])
              for i in range(0, images.shape[0], batch_size)]
    return np.concatenate(chunks, axis=0)


@dataclass
class SweepReport:
    """Accuracy and mean true-label probability per rotation angle."""

    rows: list = field(default_factory=list)  # (angle, top1, mean_p_true)

    def to_csv(self) -> str:
        lines = ["angle,top1,mean_p_true"]
        lines += [f"{a:.6f},{t:.6f},{p:.6f}" for a, t, p in self.rows]
        return "\n".join(lines) + "\n"


def _rotated(images: np.ndarray, angle: float, mean_image):
    """Rotate a batch for evaluation, zero-filled corners.

    When the preprocessing mean is known the rotation runs in original
    intensity space (add the mean back, rotate with black fill exactly as
    the training images had, subtract again); rotating the centered images
    directly would smear the mean's own structure into every sample.
    """
    if angle == 0.0:
        return images
    if mean_image is None:
        return rotate_batch(images, angle)
    return rotate_batch(images + mean_image, angle) - mean_image


def rotation_sweep(net, dataset: Dataset, angles, batch_size: int = 256) -> SweepReport:
    """Evaluate the network on every image rotated by each angle.

    Angle 0 skips the resampling entirely, so its row is the plain
    evaluation result.
    """
    angles = list(angles)
    if not angles:
        raise InputError("empty angle list")
    if any(a2 <= a1 for a1, a2 in zip(angles, angles[1:])) or \
            angles[0] < 0 or angles[-1] >= 360:
        raise InputError("angles must be strictly increasing within [0, 360)")
    report = SweepReport()
    labels = dataset.labels
    idx = np.arange(len(labels))
    for angle in angles:
        images = _rotated(dataset.images, angle, dataset.mean_image)
        logits = predict_logits(net, images, batch_size)
        top1 = top_k_accuracy(logits, labels, 1)
        probs = softmax(logits)
        p_true = float(np.asarray(probs, dtype=np.float64)[idx, labels].mean())
        report.rows.append((angle, top1, p_true))
    return report


def ten_view_probabilities(net, images: np.ndarray, batch_size: int = 256) -> np.ndarray:
    """Class probabilities [N, K] averaged in float64 over the 10 crop/mirror
    views of each image; each view runs through `predict_logits`."""
    views = ten_view_crops(images, net.spec.input_shape[1:])
    return sum(np.asarray(softmax(predict_logits(net, v, batch_size)), dtype=np.float64)
               for v in views) / len(views)
