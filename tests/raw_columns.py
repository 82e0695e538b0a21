"""A codebook's columns re-derived from its raw stream, as a reference for its accessors.

This reference reads nothing of a ``Codebook`` but its public fields: not
its folded stream id, its window layout or its gather. Column j of a
codebook owns a fixed window of the stream

    rng.Stream(seed, "codebook", kind, m, d, k or 0)

made of B blocks of 4 words, B = ceil(w / 4), where w is ceil(m / 64) for
dense-sign (the packed signs, bit i of word i // 64 giving entry i) and k
for a sparse kind (one word per index draw). So columns [j0, j1) are the
words ``words(j0 * B, (j1 - j0) * 4 * B)``, and their +-1 entries come from
one ``rng.signs_from_words`` call.
"""

import numpy as np

from vsakit import rng


def column_words(cb, j0: int, j1: int) -> np.ndarray:
    """The raw windows of columns [j0, j1), one row of 4 * B words per column."""
    assert 0 <= j0 <= j1 <= cb.d, (j0, j1, cb.d)
    used = -(-cb.m // 64) if cb.kind == "dense-sign" else cb.k  # w
    blocks = -(-used // 4)  # B
    stream = rng.Stream(cb.seed, "codebook", cb.kind, cb.m, cb.d, cb.k or 0)
    return stream.words(j0 * blocks, (j1 - j0) * 4 * blocks).reshape(j1 - j0, 4 * blocks)


def sign_matrix(cb, j0: int, j1: int) -> np.ndarray:
    """Columns [j0, j1) of a dense-sign codebook as an (m, j1 - j0) int8 array of +-1."""
    assert cb.kind == "dense-sign", cb.kind
    if j0 == j1:
        return np.empty((cb.m, 0), dtype=np.int8)
    return rng.signs_from_words(column_words(cb, j0, j1).ravel(), cb.m, j1 - j0)
