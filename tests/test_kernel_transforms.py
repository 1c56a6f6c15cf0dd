import numpy as np
import pytest

from spinconv import kernel_transforms as kt
from spinconv import oracle
from spinconv.errors import DimensionError, InputError

SPIRAL = np.array([[1.0, 2.0, 3.0],
                   [8.0, 9.0, 4.0],
                   [7.0, 6.0, 5.0]])

SIZES = (3, 5, 7)


def _variant(kernel, mode, s):
    """Variant s of a [..., k, k] kernel under the bank's index stack."""
    k = kernel.shape[-1]
    flat = kernel.reshape(kernel.shape[:-2] + (k * k,))
    return flat[..., kt.bank_index(mode, k)[s]].reshape(kernel.shape)


def _rot(kernel, s):
    return _variant(kernel, "rotate8", s)


def _quarter(k):
    """The exact clockwise quarter turn of the trailing two axes."""
    return np.rot90(k, -1, axes=(-2, -1))


def _rings(k):
    """Chebyshev distance of each cell of a k x k grid from its center."""
    i, j = np.indices((k, k))
    return np.maximum(abs(i - k // 2), abs(j - k // 2))


def test_rotate90_quarter_turn():
    # two ring steps are the clockwise quarter turn
    expected = np.array([[7.0, 8.0, 1.0],
                         [6.0, 9.0, 2.0],
                         [5.0, 4.0, 3.0]])
    assert np.array_equal(_rot(SPIRAL, 2), expected)
    assert np.array_equal(_quarter(SPIRAL), expected)


def test_rotate90_zero_is_identity():
    # variant 0 of every bank is the kernel itself
    for k in SIZES:
        for mode in kt.BANK_MODES:
            assert np.array_equal(kt.bank_index(mode, k)[0], np.arange(k * k))


def test_rotate90_four_singles_restore():
    # the quarter turn of a rotate bank has order 4, bitwise at every size
    rng = np.random.default_rng(0)
    for k in SIZES:
        kernel = rng.normal(size=(2, k, k))
        out = kernel
        for _ in range(4):
            out = _rot(out, 2)
        assert np.array_equal(out, kernel)


def test_ring_single_step():
    expected = np.array([[8.0, 1.0, 2.0],
                         [7.0, 9.0, 3.0],
                         [6.0, 5.0, 4.0]])
    assert np.array_equal(_rot(SPIRAL, 1), expected)


def test_two_ring_steps_equal_quarter_turn():
    rng = np.random.default_rng(0)
    for k in SIZES:
        kernel = rng.normal(size=(4, k, k))
        assert np.array_equal(_rot(kernel, 2), _quarter(kernel))


def test_eight_ring_steps_restore():
    rng = np.random.default_rng(1)
    for k in SIZES:
        kernel = rng.normal(size=(2, k, k))
        out = kernel
        for _ in range(8):
            out = _rot(out, 1)
        assert np.array_equal(out, kernel)


def test_ring_group_law_bitwise():
    rng = np.random.default_rng(2)
    for k in SIZES:
        kernel = rng.normal(size=(3, k, k))
        for a in range(8):
            for b in range(8):
                assert np.array_equal(_rot(_rot(kernel, a), b), _rot(kernel, (a + b) % 8))


def test_ring_preserves_center_and_ring_multiset():
    rng = np.random.default_rng(3)
    for k in SIZES:
        kernel = rng.normal(size=(2, k, k))
        rings = _rings(k)
        for s in range(8):
            r = _rot(kernel, s)
            assert np.array_equal(r[..., k // 2, k // 2], kernel[..., k // 2, k // 2])
            for c in range(2):
                for ring in range(1, k // 2 + 1):
                    assert np.array_equal(np.sort(kernel[c][rings == ring]),
                                          np.sort(r[c][rings == ring]))


def test_ring_preserves_l1_norm():
    # the rotation is a permutation, so the multiset of absolute values per
    # channel is untouched; summing in sorted order makes the check bitwise
    rng = np.random.default_rng(4)
    for k in SIZES:
        kernel = rng.normal(size=(3, k, k))
        for s in range(8):
            r = _rot(kernel, s)
            for c in range(3):
                a, b = np.sort(np.abs(kernel[c]).ravel()), np.sort(np.abs(r[c]).ravel())
                assert np.array_equal(a, b)
                assert a.sum() == b.sum()


def test_ring_rejects_wrong_size():
    # an even kernel has no center cell, so it has no rings to turn
    for mode in kt.BANK_MODES:
        for k in (0, 2, 4, -1):
            with pytest.raises(DimensionError):
                kt.bank_index(mode, k)


def test_ring_rejects_out_of_range_steps():
    index = kt.bank_index("rotate8", 3)
    assert index.shape[0] == 8
    with pytest.raises(IndexError):
        index[8]
    # the cached stack is shared by every layer, so it is read-only
    with pytest.raises(ValueError):
        index[1, 0] = 0


def test_inverse_permutation_is_adjoint():
    # <P k, g> == <k, P^-1 g>: the pullback the layer backward uses
    rng = np.random.default_rng(7)
    for k in SIZES:
        for mode in kt.BANK_MODES:
            index = kt.bank_index(mode, k)
            kernel, g = rng.normal(size=k * k), rng.normal(size=k * k)
            for row in index:
                pulled = g[np.argsort(row)]
                assert np.sum(np.sort(kernel[row] * g)) == np.sum(np.sort(kernel * pulled))


def test_flip_left_right_example():
    k = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
    expected = np.array([[3.0, 2.0, 1.0], [6.0, 5.0, 4.0], [9.0, 8.0, 7.0]])
    assert np.array_equal(_variant(k, "flip_lr", 1), expected)


def test_flip_involution():
    # each flip is its own inverse and equals np.flip, bitwise at every size
    rng = np.random.default_rng(8)
    for k in SIZES:
        kernel = rng.normal(size=(3, k, k))
        for mode, axis in (("flip_lr", -1), ("flip_ud", -2)):
            flipped = _variant(kernel, mode, 1)
            assert np.array_equal(flipped, np.flip(kernel, axis))
            assert np.array_equal(_variant(flipped, mode, 1), kernel)


def test_flip_symmetric_fixed_point():
    k = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [1.0, 2.0, 3.0]])
    assert np.array_equal(_variant(k, "flip_ud", 1), k)


def test_flip_rejects_unknown_axis():
    with pytest.raises(InputError):
        kt.bank_index("diagonal", 3)


def test_bank_rotate8_has_eight_variants():
    for k in SIZES:
        index = kt.bank_index("rotate8", k)
        assert index.shape == (8, k * k)
        for row in index:
            assert np.array_equal(np.sort(row), np.arange(k * k))


def test_bank_flip_has_two_variants():
    for k in SIZES:
        for mode in ("flip_lr", "flip_ud"):
            index = kt.bank_index(mode, k)
            assert index.shape == (2, k * k)
            assert np.array_equal(np.sort(index[1]), np.arange(k * k))


def test_bank_symmetric_kernel_all_variants_identical():
    # a kernel that is constant on each ring is its own rotation
    for k in SIZES:
        kernel = np.cos(_rings(k).astype(float))[None]
        for s in range(8):
            assert np.array_equal(_rot(kernel, s), kernel)


def test_bank_delta_kernel():
    for k in SIZES:
        kernel = np.zeros((1, k, k))
        kernel[0, k // 2, k // 2] = 1.0
        for mode in kt.BANK_MODES:
            for s in range(len(kt.bank_index(mode, k))):
                assert np.array_equal(_variant(kernel, mode, s), kernel)


def test_bank_closed_under_ring_shift():
    rng = np.random.default_rng(11)
    for k in SIZES:
        kernel = rng.normal(size=(1, k, k))
        for s in range(8):
            assert np.array_equal(_rot(_rot(kernel, s), 1), _rot(kernel, (s + 1) % 8))


def test_bank_reflects_weight_updates():
    rng = np.random.default_rng(12)
    k = rng.normal(size=(1, 5, 5))
    b1 = [_rot(k, s) for s in range(8)]
    k += 1.0
    for s, v1 in enumerate(b1):
        assert np.array_equal(_rot(k, s), v1 + 1.0)


def test_bank_index_matches_oracle_walk():
    # the oracle walks each value along its ring one cell at a time; variant
    # s of the cell-number grid is the index row itself
    for k in range(1, 10, 2):
        grid = np.arange(k * k).reshape(k, k)
        for mode in kt.BANK_MODES:
            walked = np.stack([v.ravel() for v in oracle.orientation_variants(grid, mode)])
            assert np.array_equal(walked, kt.bank_index(mode, k)), (mode, k)


def test_bank_pullback_inverts_ring_variants():
    rng = np.random.default_rng(14)
    for k in SIZES:
        kernel = rng.normal(size=(2, k, k))
        for mode in kt.BANK_MODES:
            for row in kt.bank_index(mode, k):
                v = kernel.reshape(2, -1)[:, row]
                assert np.array_equal(v[:, np.argsort(row)].reshape(kernel.shape), kernel)
