import numpy as np

from vsakit.hypervector import rotate


def test_negative_shift_undoes_rotation():
    x = np.arange(5)
    for ell in range(-6, 7):
        assert np.array_equal(rotate(rotate(x, ell), -ell), x)
    assert rotate(x, -1).tolist() == [4, 0, 1, 2, 3]


def test_rotate_returns_a_new_array_of_the_same_dtype():
    x = np.array([1, -1, 1], dtype=np.int8)
    y = rotate(x, 1)
    y[0] = 0
    assert x.tolist() == [1, -1, 1] and y.dtype == np.int8
