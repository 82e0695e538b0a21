"""The cyclic rotation R of sequence encodings, on plain arrays.

A vector is its numpy array: sign vectors are int8 arrays of +-1 entries,
MAP-I sums are int64 arrays, and each module checks the entries it needs.
``rotate`` is the one rotation rule: ``mapi.rotated_words`` rolls the 0/1
bits of a stack of codebook columns through it, so a rotated column, like
a bound one, is its packed words.
"""

import numpy as np

from .setalg import integral


def rotate(values: np.ndarray, ell: int) -> np.ndarray:
    """R^ell along the last axis, as a new array: coordinate i is coordinate i+ell (mod m).

    R^m is the identity, and R^-ell undoes R^ell; each row of a stack rotates
    alone. The position ell is an integer: a bool or a fraction is refused.
    """
    return np.roll(values, -integral(ell, "position ell"), axis=-1)
