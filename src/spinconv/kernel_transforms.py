"""Rotated and flipped kernel variants for orientation-pooling convolution.

The 45-degree rotation of a 3x3 kernel is an exact permutation: the 8 cells
surrounding the center form a ring and rotation is a cyclic shift of that
ring. Two ring steps compose to the exact 90-degree quarter turn, so the 8
variants form a cyclic group of order 8 and every group law holds bitwise.
Kernels larger than 3x3 fall back to bilinear resampling, through the same
sampler that rotates evaluation images.

All transforms act on the trailing two (spatial) axes and apply identically
to every leading axis (channels, filters), so both [C,k,k] kernels and whole
[O,C,k,k] weight tensors can be passed.

Every variant is a fixed linear map of the one stored kernel. `bank_maps`
returns a bank's maps as a [S, k*k, k*k] matrix stack, which expands a
kernel into its S variants; the backward of that expansion is the
transposed stack, so the forward and its adjoint are one set of numbers.
Map 0 of every bank is the identity: the stored kernel is variant 0.
"""
from __future__ import annotations

import functools

import numpy as np

from .data import rotate_batch
from .errors import DimensionError, InputError

# Flat row-major indices of the 8 ring cells of a 3x3 grid, clockwise from
# the top-left corner: (0,0),(0,1),(0,2),(1,2),(2,2),(2,1),(2,0),(1,0).
RING_FLAT = np.array([0, 1, 2, 5, 8, 7, 6, 3])

FLIP_AXES = ("left_right", "up_down")


def _check_square(kernel: np.ndarray, op: str) -> int:
    if kernel.ndim < 2:
        raise DimensionError(f"{op}: kernel needs spatial axes, got shape {kernel.shape}")
    kh, kw = kernel.shape[-2], kernel.shape[-1]
    if kh != kw:
        raise DimensionError(f"{op}: spatial dims must be square, got {kh}x{kw}")
    return kh


def rotate_kernel_45_ring(kernel: np.ndarray, steps: int) -> np.ndarray:
    """Cyclic clockwise shift of the 8 ring cells of a 3x3 kernel.

    The center cell never moves; one step is 45 degrees, so steps=2 equals
    one exact quarter turn.
    """
    k = _check_square(kernel, "rotate_kernel_45_ring")
    if k != 3:
        raise DimensionError(f"ring rotation is defined for 3x3 kernels only, got {k}x{k}")
    if not 0 <= steps < 8:
        raise InputError(f"steps must be in [0, 8), got {steps}")
    flat = kernel.reshape(-1, 9)
    out = flat.copy()
    out[:, RING_FLAT] = flat[:, np.roll(RING_FLAT, steps)]
    return out.reshape(kernel.shape)


def rotate_kernel_bilinear(kernel: np.ndarray, degrees: float) -> np.ndarray:
    """Clockwise rotation about the kernel center by bilinear resampling,
    with the sampler that rotates images (`data.rotate_batch`).

    Exact at lattice points, so multiples of 90 degrees agree with the
    quarter turns of `np.rot90` to float precision. Cells whose source falls
    outside the kernel read 0.
    """
    k = _check_square(kernel, "rotate_kernel_bilinear")
    if k % 2 == 0:
        raise DimensionError(f"bilinear rotation needs an odd kernel size, got {k}")
    return rotate_batch(kernel.reshape(-1, 1, k, k), degrees).reshape(kernel.shape)


def flip_kernel(kernel: np.ndarray, axis: str) -> np.ndarray:
    """Mirror the kernel spatially; axis is 'left_right' or 'up_down'."""
    _check_square(kernel, "flip_kernel")
    if axis == "left_right":
        return np.flip(kernel, axis=-1).copy()
    if axis == "up_down":
        return np.flip(kernel, axis=-2).copy()
    raise InputError(f"unknown flip axis {axis!r}, expected one of {FLIP_AXES}")


# ---------------------------------------------------------------------------
# Orientation banks
# ---------------------------------------------------------------------------

BANK_MODES = ("rotate8", "flip_lr", "flip_ud")


def build_orientation_bank(kernel: np.ndarray, mode: str) -> list:
    """All transformed variants of a kernel under the given mode; index 0
    is always the kernel itself.

    rotate8: 8 rotations in 45-degree steps (ring permutation for 3x3,
    bilinear otherwise). flip_lr / flip_ud: the kernel and its mirror.
    There is no plain mode: a filter that pools over no bank needs none.
    """
    if mode not in BANK_MODES:
        raise InputError(f"unknown bank mode {mode!r}, expected one of {BANK_MODES}")
    k = _check_square(kernel, "build_orientation_bank")
    if mode == "rotate8":
        if k % 2 == 0:
            raise DimensionError(f"rotate8 needs an odd kernel size, got {k}")
        if k == 3:
            return [rotate_kernel_45_ring(kernel, s) for s in range(8)]
        return [rotate_kernel_bilinear(kernel, 45.0 * s) for s in range(8)]
    axis = "left_right" if mode == "flip_lr" else "up_down"
    return [kernel.copy(), flip_kernel(kernel, axis)]


@functools.lru_cache(maxsize=None)
def bank_maps(mode: str, k: int) -> np.ndarray:
    """Read-only float64 [S, k*k, k*k] stack of the bank's linear maps:
    variant s of a kernel is maps[s] @ kernel.flat, and a gradient on that
    variant pulls back onto the kernel as maps[s].T @ grad.flat.

    Column j of maps[s] is variant s of the j-th unit kernel, so the maps
    are exactly what build_orientation_bank computes.
    """
    units = np.eye(k * k).reshape(k * k, k, k)
    maps = np.stack(build_orientation_bank(units, mode)).reshape(-1, k * k, k * k)
    maps = np.ascontiguousarray(maps.transpose(0, 2, 1))
    maps.flags.writeable = False
    return maps
