import numpy as np
import pytest

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


def test_positions_are_integers():
    x = np.arange(5)
    for ell in (2, np.int64(2), 2.0, np.float64(2.0)):
        assert rotate(x, ell).tolist() == [2, 3, 4, 0, 1]
    for bad in (1.5, True, np.True_, "1", None):
        with pytest.raises(ValueError, match="position ell must be an integer"):
            rotate(x, bad)
