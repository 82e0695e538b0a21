"""Classical Hopfield associative memory and the Hopfield± bundling variant.

A net is its stored sign patterns S (m x n). W = S S^T - n I (zero diagonal,
symmetric) is never stored: recall applies S (S^T x) - n x in synchronous
updates x <- signge(W x), where signge maps 0 to +1 (deterministic, unlike
MAP-B's randomized tie rule). Patterns, probes and recalled vectors are plain
1-D arrays: patterns and recalled vectors hold +-1 entries (int8), probes
hold entries in {0, -1, +1}. ``HopfieldNet.apply`` takes only such probes
and runs its two matmuls in float64 BLAS: every partial sum is an integer of
size at most m n, exactly representable far past any m x n that fits in
memory.

Hopfield± encodes a diagonal weight vector V as the m x m matrix
S_bar V D S_bar^T with a seeded sign diagonal D; its squared Frobenius norm
estimates ||V||_F^2 and the trace product of two encodings (sharing S and D)
estimates the Frobenius product of the underlying diagonals. The matrix stays
dense (a factored form rounds differently). One kernel, ``_hpm_matrix``,
writes it: into a fresh array that becomes the bundle's matrix without a
copy in ``hpm_encode``, and into two buffers reused across a whole batch of
instances in ``hpm_estimates``, which the harness trials use. Every
estimate is ``(M1 * M2).sum()`` of freshly encoded bundles, bit for bit:
``hpm_estimates`` multiplies in place into the scratch matrix it has just
written, while the bundle estimators, whose matrices are read-only, build
one m x m product. A diagonal is read by the number rule of ``setalg``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from . import rng
from .codebook import Codebook, held, same_codebook
from .setalg import integral, number


@dataclass(frozen=True)
class HopfieldNet:
    """n stored +-1 patterns, the columns of S.

    ``apply(y)`` is W y = S (S^T y) - n y as int64. ``y`` holds entries in
    {0, -1, +1} (any other entry is a ``ValueError``) and may be one m-vector
    or an (m, k) block of k probes, one per column; a block costs two small
    matmuls, and its column j equals ``apply(y[:, j])``."""

    patterns: np.ndarray  # (m, n) int8

    def __post_init__(self):
        s = np.asarray(self.patterns)
        if s.ndim != 2 or s.size == 0 or ((s != 1) & (s != -1)).any():
            raise ValueError("patterns must be a nonempty m x n matrix of +-1 entries")
        s = s.astype(np.int8)
        s.setflags(write=False)
        object.__setattr__(self, "patterns", s)

    @property
    def m(self) -> int:
        return self.patterns.shape[0]

    @property
    def n(self) -> int:
        return self.patterns.shape[1]

    @property
    def weights(self) -> np.ndarray:
        """The full m x m W = S S^T - n I, built on demand; recall never needs it."""
        s = self.patterns.astype(np.int64)
        return s @ s.T - self.n * np.eye(self.m, dtype=np.int64)

    def apply(self, y: np.ndarray) -> np.ndarray:
        z = _ternary(y)
        s = self.patterns.astype(np.float64)  # every partial sum is an exact float64 integer
        return (s @ (s.T @ z.astype(np.float64))).astype(np.int64) - self.n * z


def _ternary(y) -> np.ndarray:
    """``y`` as an int64 array; an entry other than 0, -1 or +1 is a ValueError."""
    values = np.asarray(y)
    if ((values != 0) & (values != 1) & (values != -1)).any():
        raise ValueError("probe entries must be in {0, -1, +1}")
    return values.astype(np.int64)


@dataclass(frozen=True)
class RecallResult:
    vector: np.ndarray  # (m,) int8 of +-1
    converged: bool
    iters: int


def _require_signs(x, what: str) -> np.ndarray:
    """``x`` as an array, checked to be 1-D with every entry -1 or +1."""
    values = np.asarray(x)
    if values.ndim != 1 or ((values != 1) & (values != -1)).any():
        raise ValueError(f"{what} must be a 1-D array of +-1 entries")
    return values


def train(patterns: list[np.ndarray]) -> HopfieldNet:
    """Stack the +-1 patterns as the columns of S; W = S S^T - n I stays implicit."""
    if not len(patterns):
        raise ValueError("train requires at least one pattern")
    s = np.stack([_require_signs(p, "each pattern") for p in patterns], axis=1)  # one length
    return HopfieldNet(s)


def signge(z: np.ndarray) -> np.ndarray:
    """+1 where z >= 0, else -1."""
    return np.where(z >= 0, 1, -1).astype(np.int8)


def _probe_values(net: HopfieldNet, y) -> np.ndarray:
    values = np.asarray(y)
    if values.shape != (net.m,):
        raise ValueError(f"probe must be a 1-D array of length m={net.m}, got shape {values.shape}")
    return _ternary(values)


def recall_step(net, y) -> np.ndarray:
    """One synchronous update signge(W y), as an int8 array."""
    return signge(net.apply(_probe_values(net, y)))


def recall(net, y, max_iters: int = 64) -> RecallResult:
    """Iterate recall_step until a fixed point or max_iters updates."""
    max_iters = integral(max_iters, "max_iters")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    current = y
    for it in range(1, max_iters + 1):
        nxt = recall_step(net, current)
        if np.array_equal(nxt, current):
            return RecallResult(nxt, True, it)
        current = nxt
    return RecallResult(current, False, max_iters)


def corrupt(x: np.ndarray, erasures: int, flips: int, seed: int) -> np.ndarray:
    """A copy of the +-1 vector ``x`` with ``erasures`` coordinates zeroed and
    ``flips`` negated at seeded positions, as an int8 array.

    Positions are distinct and chosen independently of the codebook, as the
    recall guarantee requires.
    """
    out = _require_signs(x, "corrupt's input").astype(np.int8)
    m = out.shape[0]
    erasures, flips = integral(erasures, "erasures"), integral(flips, "flips")
    if erasures < 0 or flips < 0 or erasures + flips > m:
        raise ValueError("corruption counts must be nonnegative and sum to <= m")
    total = erasures + flips
    if total:
        words = rng.Stream(seed, "hopfield-corrupt").words(0, total)
        pos = rng.choose_distinct(words, m, total)
        out[pos[:erasures]] = 0
        out[pos[erasures:]] *= -1
    return out


# -- Hopfield± ----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HpmBundle:
    """S_bar V D S_bar^T for diagonal weights V and a seeded sign diagonal D.

    ``matrix``, (m, m) for the codebook's m, is held by ``codebook.held``:
    :func:`hpm_encode`'s frozen output as is, else a frozen float64 copy.
    """

    matrix: np.ndarray
    codebook: Codebook
    d_seed: int

    def __post_init__(self):
        self.codebook.require("dense-sign", "Hopfield±")
        m = self.codebook.m
        mat = self.matrix
        if np.shape(mat) != (m, m):
            raise ValueError(f"Hopfield± matrix must be ({m}, {m}), got shape {np.shape(mat)}")
        object.__setattr__(self, "matrix", held(mat, np.float64, "Hopfield± matrix"))

    @property
    def m(self) -> int:
        return self.codebook.m


def diag_signs(d_seed: int, d: int) -> np.ndarray:
    """The seeded +-1 diagonal D shared by bundles built with one d_seed."""
    words = rng.Stream(d_seed, "hpm-diag").words(0, -(-d // 64))
    return rng.signs_from_words(words, d)[:, 0]


def _diag_vector(V, d: int) -> np.ndarray:
    """V, a map of index to weight (read as a float) or an int or float array, as d floats."""
    if isinstance(V, Mapping):
        out = np.zeros(d, dtype=np.float64)
        for sym, w in V.items():
            j = integral(sym, "diagonal index")
            if not 0 <= j < d:
                raise ValueError(f"diagonal index {j} outside universe [0, {d})")
            out[j] = number(w, f"diagonal weight at index {j}", float)
    else:
        out = np.asarray(V)
        if out.shape != (d,):
            raise ValueError(f"diagonal weights must have length d={d}")
        if not (np.issubdtype(out.dtype, np.integer) or np.issubdtype(out.dtype, np.floating)):
            raise ValueError(f"diagonal weights must be integers or floats, got dtype {out.dtype}")
        out = out.astype(np.float64, copy=False)
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise ValueError(f"diagonal weight at index {bad[0]} is not finite: {out[bad[0]]}")
    return out


def _hpm_matrix(cb: Codebook, V, d_seed: int, out: np.ndarray | None = None) -> np.ndarray:
    """S_bar V D S_bar^T, written into ``out`` and returned.

    ``out`` is a C-contiguous float64 (m, m) array to overwrite, or None for
    a fresh one, allocated only after the codebook and V have been checked.
    Into such an ``out`` the matmul makes the same BLAS call as into a
    fresh array, so every float bit is the same either way.
    """
    cb.require("dense-sign", "Hopfield±")
    if not cb.scaled:
        raise ValueError("Hopfield± requires a scaled dense-sign codebook")
    v = _diag_vector(V, cb.d)
    support = np.flatnonzero(v)
    if out is None:
        out = np.empty((cb.m, cb.m))
    if support.size == 0:
        out.fill(0.0)
    else:
        signs = diag_signs(d_seed, cb.d)
        cols = cb.sign_columns(support).astype(np.float64)
        weighted = cols * (v[support] * signs[support]) / cb.m
        np.matmul(weighted, cols.T, out=out)
    return out


def hpm_encode(cb: Codebook, V, d_seed: int) -> HpmBundle:
    """Build S_bar V D S_bar^T; bundles sharing (codebook, d_seed) compose.

    The freshly built matrix is frozen and handed to the bundle, which keeps
    it without a copy.
    """
    mat = _hpm_matrix(cb, V, d_seed)
    mat.setflags(write=False)
    return HpmBundle(mat, cb, d_seed)


def _sum_products(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> float:
    """``float((a * b).sum())``, the products written into ``out``.

    ``out`` is a float64 array of the operands' shape that may be
    overwritten, ``a`` or ``b`` itself among them, or None for a fresh one.
    """
    return float(np.multiply(a, b, out=out).sum())


def hpm_norm_estimate(b: HpmBundle) -> float:
    """||S_bar V D S_bar^T||_F^2, estimating ||V||_F^2."""
    return _sum_products(b.matrix, b.matrix)


def hpm_dot_estimate(b1: HpmBundle, b2: HpmBundle) -> float:
    """tr(M1 M2), estimating the Frobenius product tr(X Y)."""
    same_codebook(b1, b2, "Hopfield±")
    if b1.d_seed != b2.d_seed:
        raise ValueError("bundles use different sign diagonals (d_seed mismatch)")
    return _sum_products(b1.matrix, b2.matrix)  # tr(M1 M2) for symmetric M2


def hpm_estimates(instances: Iterable[tuple]) -> list[float]:
    """The Hopfield± estimate of each ``(cb, V, W, d_seed)`` instance, in order.

    With W None the estimate is ``hpm_norm_estimate(hpm_encode(cb, V,
    d_seed))``, else ``hpm_dot_estimate`` of the encodings of V and W, bit
    for bit. Instead of two fresh m x m matrices per instance, every
    encoding is written into one of two buffers that last the whole call
    (new ones only when m changes), so no instance faults in fresh pages.
    The products then overwrite the buffer last written (``my`` for a dot,
    ``mx`` for a norm), so the sum needs no buffer of its own.
    """
    estimates: list[float] = []
    mx = my = None
    for cb, V, W, d_seed in instances:
        if mx is not None and mx.shape[0] != cb.m:
            mx = my = None
        mx = _hpm_matrix(cb, V, d_seed, mx)
        if W is None:
            estimates.append(_sum_products(mx, mx, mx))
        else:
            my = _hpm_matrix(cb, W, d_seed, my)
            estimates.append(_sum_products(mx, my, my))
    return estimates
