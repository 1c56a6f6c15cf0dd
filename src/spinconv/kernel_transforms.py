"""Orientation banks for orientation-pooling convolution, as permutations of
the k*k kernel cells.

Ring r of an odd k x k kernel is the 8r cells at Chebyshev distance r from
the center. A 45-degree turn is exact on these rings: one step moves every
value r cells clockwise along its ring r, and the center never moves. Two
steps are the exact clockwise quarter turn `np.rot90(kernel, -1)` and eight
are the identity, so at every odd k the 8 variants form a cyclic group of
order 8 and every group law holds bitwise. A flip bank holds the kernel and
its left-right or up-down mirror.

A bank is a read-only int [S, k*k] index stack: variant s of a kernel is
`kernel.reshape(..., k*k)[..., index[s]]`, whatever its leading axes
(channels, filters). Row 0 of every bank is the identity, so the stored
kernel is variant 0. Every row is a permutation, so a gradient on variant s
pulls back onto the kernel through the inverse permutation.
"""
from __future__ import annotations

import functools

import numpy as np

from .errors import DimensionError, InputError

BANK_MODES = ("rotate8", "flip_lr", "flip_ud")


@functools.lru_cache(maxsize=None)
def bank_index(mode: str, k: int) -> np.ndarray:
    """Read-only int [S, k*k] stack of the bank's cell permutations: 8 rows
    for rotate8 (45-degree steps), 2 for flip_lr and flip_ud."""
    if mode not in BANK_MODES:
        raise InputError(f"unknown bank mode {mode!r}, expected one of {BANK_MODES}")
    if k < 1 or k % 2 == 0:
        raise DimensionError(f"orientation banks need an odd kernel size >= 1, got {k}")
    grid = np.arange(k * k).reshape(k, k)
    if mode == "flip_lr":
        index = np.stack((grid.ravel(), grid[:, ::-1].ravel()))
    elif mode == "flip_ud":
        index = np.stack((grid.ravel(), grid[::-1].ravel()))
    else:
        index = np.tile(grid.ravel(), (8, 1))
        c = k // 2
        for r in range(1, c + 1):
            lo, hi = c - r, c + r
            # ring r, clockwise from its top-left corner
            ring = np.concatenate((grid[lo, lo:hi], grid[lo:hi, hi],
                                   grid[hi, hi:lo:-1], grid[hi:lo:-1, lo]))
            for s in range(8):
                index[s, ring] = np.roll(ring, s * r)
    index.flags.writeable = False
    return index
