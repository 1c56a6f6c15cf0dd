import numpy as np
import pytest

from spinconv import kernel_transforms as kt
from spinconv.errors import DimensionError, InputError

SPIRAL = np.array([[1.0, 2.0, 3.0],
                   [8.0, 9.0, 4.0],
                   [7.0, 6.0, 5.0]])


def _quarter(k):
    """The exact clockwise quarter turn of the trailing two axes."""
    return np.rot90(k, -1, axes=(-2, -1))


def test_rotate90_quarter_turn():
    # two ring steps are the clockwise quarter turn
    expected = np.array([[7.0, 8.0, 1.0],
                         [6.0, 9.0, 2.0],
                         [5.0, 4.0, 3.0]])
    assert np.array_equal(kt.rotate_kernel_45_ring(SPIRAL, 2), expected)
    assert np.array_equal(_quarter(SPIRAL), expected)


def test_rotate90_zero_is_identity():
    # variant 0 of a rotate bank is the kernel itself
    for k in (3, 5):
        assert np.array_equal(kt.bank_maps("rotate8", k)[0], np.eye(k * k))


def test_rotate90_four_singles_restore():
    # the quarter-turn map of a rotate bank has order 4
    assert np.array_equal(np.linalg.matrix_power(kt.bank_maps("rotate8", 3)[2], 4),
                          np.eye(9))
    assert np.allclose(np.linalg.matrix_power(kt.bank_maps("rotate8", 5)[2], 4),
                       np.eye(25), rtol=0, atol=1e-9)


def test_ring_single_step():
    expected = np.array([[8.0, 1.0, 2.0],
                         [7.0, 9.0, 3.0],
                         [6.0, 5.0, 4.0]])
    assert np.array_equal(kt.rotate_kernel_45_ring(SPIRAL, 1), expected)


def test_two_ring_steps_equal_quarter_turn():
    rng = np.random.default_rng(0)
    k = rng.normal(size=(4, 3, 3))
    assert np.array_equal(kt.rotate_kernel_45_ring(k, 2), _quarter(k))


def test_eight_ring_steps_restore():
    rng = np.random.default_rng(1)
    k = rng.normal(size=(2, 3, 3))
    out = k.copy()
    for _ in range(8):
        out = kt.rotate_kernel_45_ring(out, 1)
    assert np.array_equal(out, k)


def test_ring_group_law_bitwise():
    rng = np.random.default_rng(2)
    k = rng.normal(size=(3, 3, 3))
    for a in range(8):
        for b in range(8):
            two_step = kt.rotate_kernel_45_ring(kt.rotate_kernel_45_ring(k, a), b)
            assert np.array_equal(two_step, kt.rotate_kernel_45_ring(k, (a + b) % 8))


def test_ring_preserves_center_and_ring_multiset():
    rng = np.random.default_rng(3)
    k = rng.normal(size=(2, 3, 3))
    for s in range(8):
        r = kt.rotate_kernel_45_ring(k, s)
        assert np.array_equal(r[..., 1, 1], k[..., 1, 1])
        for c in range(2):
            ring_orig = np.delete(k[c].ravel(), 4)
            ring_rot = np.delete(r[c].ravel(), 4)
            assert np.array_equal(np.sort(ring_orig), np.sort(ring_rot))


def test_ring_preserves_l1_norm():
    # the rotation is a permutation, so the multiset of absolute values per
    # channel is untouched; summing in sorted order makes the check bitwise
    rng = np.random.default_rng(4)
    k = rng.normal(size=(3, 3, 3))
    for s in range(8):
        r = kt.rotate_kernel_45_ring(k, s)
        for c in range(3):
            a, b = np.sort(np.abs(k[c]).ravel()), np.sort(np.abs(r[c]).ravel())
            assert np.array_equal(a, b)
            assert a.sum() == b.sum()


def test_ring_rejects_wrong_size():
    with pytest.raises(DimensionError):
        kt.rotate_kernel_45_ring(np.zeros((1, 5, 5)), 1)
    with pytest.raises(DimensionError):
        kt.rotate_kernel_45_ring(np.zeros((2, 2, 3)), 1)


def test_ring_rejects_out_of_range_steps():
    with pytest.raises(InputError):
        kt.rotate_kernel_45_ring(SPIRAL, 8)


def test_bilinear_zero_degrees_identity():
    rng = np.random.default_rng(5)
    k = rng.normal(size=(2, 5, 5))
    assert np.allclose(kt.rotate_kernel_bilinear(k, 0.0), k, atol=1e-12)


def test_bilinear_90_matches_exact_rotation():
    rng = np.random.default_rng(6)
    k = rng.normal(size=(2, 5, 5))
    got = kt.rotate_kernel_bilinear(k, 90.0)
    assert np.abs(got - _quarter(k)).max() <= 1e-6


def test_bilinear_45_preserves_center_delta():
    k = np.zeros((1, 5, 5))
    k[0, 2, 2] = 1.0
    r = kt.rotate_kernel_bilinear(k, 45.0)
    assert abs(r[0, 2, 2] - 1.0) <= 1e-12


def test_bilinear_rejects_even_kernel():
    with pytest.raises(DimensionError):
        kt.rotate_kernel_bilinear(np.zeros((1, 4, 4)), 45.0)


def test_bilinear_adjoint_is_transpose():
    # <R k, g> == <k, R^T g> for random k, g
    rng = np.random.default_rng(7)
    k = rng.normal(size=(1, 5, 5))
    g = rng.normal(size=(1, 5, 5))
    lhs = np.sum(kt.rotate_kernel_bilinear(k, 45.0) * g)
    # variant 1 of the rotate8 bank is the 45-degree turn
    rhs = np.sum(k.ravel() * (kt.bank_maps("rotate8", 5)[1].T @ g.ravel()))
    assert abs(lhs - rhs) <= 1e-10


def test_flip_left_right_example():
    k = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
    expected = np.array([[3.0, 2.0, 1.0], [6.0, 5.0, 4.0], [9.0, 8.0, 7.0]])
    assert np.array_equal(kt.flip_kernel(k, "left_right"), expected)


def test_flip_involution():
    rng = np.random.default_rng(8)
    k = rng.normal(size=(3, 5, 5))
    for ax in ("left_right", "up_down"):
        assert np.array_equal(kt.flip_kernel(kt.flip_kernel(k, ax), ax), k)


def test_flip_symmetric_fixed_point():
    k = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [1.0, 2.0, 3.0]])
    assert np.array_equal(kt.flip_kernel(k, "up_down"), k)


def test_flip_rejects_unknown_axis():
    with pytest.raises(InputError):
        kt.flip_kernel(SPIRAL, "diagonal")


def test_bank_rotate8_has_eight_variants():
    rng = np.random.default_rng(9)
    k = rng.normal(size=(2, 3, 3))
    bank = kt.build_orientation_bank(k, "rotate8")
    assert len(bank) == 8
    assert np.array_equal(bank[0], k)
    for v in bank:
        assert v.shape == k.shape


def test_bank_flip_has_two_variants():
    rng = np.random.default_rng(10)
    k = rng.normal(size=(2, 3, 3))
    for mode, ax in (("flip_lr", "left_right"), ("flip_ud", "up_down")):
        bank = kt.build_orientation_bank(k, mode)
        assert len(bank) == 2
        assert np.array_equal(bank[0], k)
        assert np.array_equal(bank[1], kt.flip_kernel(k, ax))


def test_bank_symmetric_kernel_all_variants_identical():
    k = np.full((1, 3, 3), 2.0)
    k[0, 1, 1] = -1.0
    bank = kt.build_orientation_bank(k, "rotate8")
    for v in bank:
        assert np.array_equal(v, k)


def test_bank_delta_kernel():
    k = np.zeros((1, 3, 3))
    k[0, 1, 1] = 1.0
    for mode in ("rotate8", "flip_lr", "flip_ud"):
        bank = kt.build_orientation_bank(k, mode)
        for v in bank:
            assert np.array_equal(v, k)


def test_bank_closed_under_ring_shift():
    rng = np.random.default_rng(11)
    k = rng.normal(size=(1, 3, 3))
    bank = kt.build_orientation_bank(k, "rotate8")
    shifted = [kt.rotate_kernel_45_ring(v, 1) for v in bank]
    for i, s in enumerate(shifted):
        assert np.array_equal(s, bank[(i + 1) % 8])


def test_bank_reflects_weight_updates():
    rng = np.random.default_rng(12)
    k = rng.normal(size=(1, 3, 3))
    b1 = kt.build_orientation_bank(k, "rotate8")
    k += 1.0
    b2 = kt.build_orientation_bank(k, "rotate8")
    for v1, v2 in zip(b1, b2):
        assert np.allclose(v2, v1 + 1.0)


def test_bank_uses_bilinear_for_larger_kernels():
    rng = np.random.default_rng(13)
    k = rng.normal(size=(1, 5, 5))
    bank = kt.build_orientation_bank(k, "rotate8")
    assert len(bank) == 8
    assert np.abs(bank[2] - _quarter(k)).max() <= 1e-6


def test_bank_pullback_inverts_ring_variants():
    rng = np.random.default_rng(14)
    k = rng.normal(size=(2, 3, 3))
    bank = kt.build_orientation_bank(k, "rotate8")
    maps = kt.bank_maps("rotate8", 3)
    for i, v in enumerate(bank):
        # each row times maps[i] is maps[i].T applied to that kernel
        assert np.array_equal((v.reshape(-1, 9) @ maps[i]).reshape(k.shape), k)
