"""The cyclic rotation R of sequence encodings, on plain arrays.

A vector is its numpy array: sign vectors are int8 arrays of +-1 entries,
MAP-I sums are int64 arrays, MAP-B sequence queries roll a bundle's 0/1
bits, and each module checks the entries it needs.
"""

import numpy as np


def rotate(values: np.ndarray, ell: int) -> np.ndarray:
    """R^ell as a new array: output coordinate i is input coordinate i+ell (mod m).

    R^m is the identity, and R^-ell undoes R^ell.
    """
    return np.roll(values, -ell)
