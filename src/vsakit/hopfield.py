"""Classical Hopfield associative memory and the Hopfield± bundling variant.

A net is its stored sign patterns S (m x n). W = S S^T - n I (zero diagonal,
symmetric) is never stored: recall applies S (S^T x) - n x in synchronous
updates x <- signge(W x), where signge maps 0 to +1 (deterministic, unlike
MAP-B's randomized tie rule). Patterns, probes and recalled vectors are plain
1-D arrays: patterns and recalled vectors hold +-1 entries (int8), probes
hold entries in {0, -1, +1}.

Hopfield± encodes a diagonal weight vector V as the m x m matrix
S_bar V D S_bar^T with a seeded sign diagonal D; its squared Frobenius norm
estimates ||V||_F^2 and the trace product of two encodings (sharing S and D)
estimates the Frobenius product of the underlying diagonals. The matrix stays
dense (a factored form rounds differently), but the encoder's matmul output
becomes the bundle's matrix without a copy, and both estimators sum the
elementwise products in numpy's own pairwise order through one small reused
buffer, so no m x m temporary is built and every float bit matches
``(M1 * M2).sum()``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import rng
from .codebook import Codebook
from .sizing import SizingResult, check_rates, constants_for


@dataclass(frozen=True)
class HopfieldNet:
    """n stored +-1 patterns, the columns of S.

    ``apply(y)`` is W y = S (S^T y) - n y. ``y`` may be one m-vector or an
    (m, k) block of k probes, one per column; a block costs two small
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
        z = np.asarray(y, dtype=np.int64)
        return self.patterns @ (self.patterns.T @ z) - self.n * z


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
    if ((values != 0) & (values != 1) & (values != -1)).any():
        raise ValueError("probe entries must be in {0, -1, +1}")
    return values.astype(np.int64)


def recall_step(net, y) -> np.ndarray:
    """One synchronous update signge(W y), as an int8 array."""
    return signge(net.apply(_probe_values(net, y)))


def recall(net, y, max_iters: int = 64) -> RecallResult:
    """Iterate recall_step until a fixed point or max_iters updates."""
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    current = _probe_values(net, y)
    for it in range(1, max_iters + 1):
        nxt = signge(net.apply(current)).astype(np.int64)
        if np.array_equal(nxt, current):
            return RecallResult(nxt.astype(np.int8), True, it)
        current = nxt
    return RecallResult(current.astype(np.int8), False, max_iters)


def corrupt(x: np.ndarray, erasures: int, flips: int, seed: int) -> np.ndarray:
    """A copy of the +-1 vector ``x`` with ``erasures`` coordinates zeroed and
    ``flips`` negated at seeded positions, as an int8 array.

    Positions are distinct and chosen independently of the codebook, as the
    recall guarantee requires.
    """
    out = _require_signs(x, "corrupt's input").astype(np.int8)
    m = out.shape[0]
    if erasures < 0 or flips < 0 or erasures + flips > m:
        raise ValueError("corruption counts must be nonnegative and sum to <= m")
    total = erasures + flips
    if total:
        words = rng.Stream(seed, "hopfield-corrupt").words(0, total)
        pos = rng.choose_distinct(words, m, total)
        out[pos[:erasures]] = 0
        out[pos[erasures:]] *= -1
    return out


def sizing_hopfield(*, n: float, delta: float, C: float | None = None) -> SizingResult:
    """Smallest integer m with m >= C n ln(2m/delta), by fixed-point iteration.

    Starts from m0 = C n ln(2n/delta) and iterates m <- C n ln(2m/delta);
    the returned integer is checked against the inequality itself.
    """
    check_rates(delta=delta)
    if n < 1:
        raise ValueError("pattern count n must be >= 1")
    consts = constants_for("hopfield.store", {"C": C})
    c = consts["C"]
    m = c * n * math.log(2.0 * n / delta)
    iters = 0
    for iters in range(1, 101):
        nxt = c * n * math.log(2.0 * m / delta)
        if abs(nxt - m) <= 1e-9 * max(1.0, m):
            m = nxt
            break
        m = nxt
    else:
        raise RuntimeError("fixed-point iteration did not converge in 100 steps")
    m_int = max(1, math.ceil(m))
    while m_int < c * n * math.log(2.0 * m_int / delta):
        m_int += 1
    return SizingResult(
        m=m_int,
        formula="hopfield.store",
        constants=consts,
        inputs={"n": n, "delta": delta},
        extras={"iterations": iters},
    )


# -- Hopfield± ----------------------------------------------------------------


@dataclass(frozen=True)
class HpmBundle:
    """S_bar V D S_bar^T for diagonal weights V and a seeded sign diagonal D.

    ``matrix`` must be (m, m) for the codebook's m. The bundle keeps an array
    it can own as is: a read-only, C-contiguous float64 ndarray that owns its
    data, such as :func:`hpm_encode`'s matmul output. Anything else (a
    caller's writeable array, a view, another dtype or layout) is copied into
    a C-ordered float64 array and frozen, so the caller cannot change the
    bundle afterwards.
    """

    matrix: np.ndarray
    codebook: Codebook
    d_seed: int

    def __post_init__(self):
        m = self.codebook.m
        mat = self.matrix
        if np.shape(mat) != (m, m):
            raise ValueError(f"Hopfield± matrix must be ({m}, {m}), got shape {np.shape(mat)}")
        if not (type(mat) is np.ndarray and mat.dtype == np.float64 and mat.flags.owndata
                and mat.flags.c_contiguous and not mat.flags.writeable):
            mat = np.array(mat, dtype=np.float64, order="C")
            mat.setflags(write=False)
            object.__setattr__(self, "matrix", mat)

    @property
    def m(self) -> int:
        return self.matrix.shape[0]


def diag_signs(d_seed: int, d: int) -> np.ndarray:
    """The seeded +-1 diagonal D shared by bundles built with one d_seed."""
    words = rng.Stream(d_seed, "hpm-diag").words(0, -(-d // 64))
    return rng.signs_from_words(words, d)[:, 0]


def _diag_vector(V, d: int) -> np.ndarray:
    if isinstance(V, Mapping):
        out = np.zeros(d, dtype=np.float64)
        for sym, w in V.items():
            j = int(sym)
            if j != sym:
                raise ValueError(f"diagonal index {sym!r} is not an integer")
            if not 0 <= j < d:
                raise ValueError(f"diagonal index {sym} outside universe [0, {d})")
            out[j] = w
        return out
    out = np.asarray(V, dtype=np.float64)
    if out.shape != (d,):
        raise ValueError(f"diagonal weights must have length d={d}")
    return out


def hpm_encode(cb: Codebook, V, d_seed: int) -> HpmBundle:
    """Build S_bar V D S_bar^T; bundles sharing (codebook, d_seed) compose.

    The freshly built matrix is frozen and handed to the bundle, which keeps
    it without a copy.
    """
    if cb.kind != "dense-sign" or not cb.scaled:
        raise ValueError("Hopfield± requires a scaled dense-sign codebook")
    v = _diag_vector(V, cb.d)
    support = np.flatnonzero(v)
    if support.size == 0:
        mat = np.zeros((cb.m, cb.m))
    else:
        signs = diag_signs(d_seed, cb.d)
        cols = cb.sign_columns(support).astype(np.float64)
        weighted = cols * (v[support] * signs[support]) / cb.m
        mat = weighted @ cols.T
    mat.setflags(write=False)
    return HpmBundle(mat, cb, d_seed)


def _require_hpm_pair(b1: HpmBundle, b2: HpmBundle) -> None:
    if b1.codebook.key != b2.codebook.key:
        raise ValueError("bundles come from different codebooks")
    if b1.d_seed != b2.d_seed:
        raise ValueError("bundles use different sign diagonals (d_seed mismatch)")


#: Elements per leaf of :func:`_sum_products` (64 KiB of float64).
_LEAF = 8192


def _sum_products(a: np.ndarray, b: np.ndarray) -> float:
    """``float((a * b).sum())`` bit for bit, without the a * b temporary.

    ``a`` and ``b`` are C-contiguous float64 arrays of one size. numpy sums a
    contiguous float64 run pairwise: 0.0 plus the run's pairwise sum, where a
    run longer than one 128-element block splits at n2 = n//2 - (n//2) % 8
    and its halves' sums are added. :func:`_pairwise_products` recurses with
    the same split down to runs of at most ``_LEAF`` elements and lets numpy
    sum each of those, so the tree and every rounding are numpy's own.
    """
    a, b = a.ravel(), b.ravel()
    buf = np.empty(min(a.size, _LEAF))
    return 0.0 + _pairwise_products(a, b, 0, a.size, buf)


def _pairwise_products(a: np.ndarray, b: np.ndarray, lo: int, n: int, buf: np.ndarray) -> float:
    """Pairwise sum of a[lo:lo+n] * b[lo:lo+n]; each leaf's products go through ``buf``.

    A module-level function, not a closure: a self-referencing closure would
    hold both operands in a reference cycle until the next garbage collection.
    """
    if n <= _LEAF:
        leaf = np.multiply(a[lo : lo + n], b[lo : lo + n], out=buf[:n])
        return float(np.add.reduce(leaf, initial=0.0))
    n2 = n // 2 - (n // 2) % 8
    return _pairwise_products(a, b, lo, n2, buf) + _pairwise_products(a, b, lo + n2, n - n2, buf)


def hpm_norm_estimate(b: HpmBundle) -> float:
    """||S_bar V D S_bar^T||_F^2, estimating ||V||_F^2."""
    return _sum_products(b.matrix, b.matrix)


def hpm_dot_estimate(b1: HpmBundle, b2: HpmBundle) -> float:
    """tr(M1 M2), estimating the Frobenius product tr(X Y)."""
    _require_hpm_pair(b1, b2)
    return _sum_products(b1.matrix, b2.matrix)  # tr(M1 M2) for symmetric M2


def sizing_hpm(task: str, *, eps: float, delta: float, d: float, C: float | None = None) -> SizingResult:
    """Dimension for the Hopfield± estimators.

    hpm-norm  m = C eps^-1 ln(d/delta)^2   (norm preservation)
    hpm-dot   m = C eps^-2 ln(d/delta)^2   (Frobenius-product estimation)
    """
    if task not in ("hpm-norm", "hpm-dot"):
        raise ValueError(f"unknown hopfield sizing task {task!r}")
    check_rates(eps, delta)
    if d < 1:
        raise ValueError("universe size d must be >= 1")
    formula = f"hopfield.{task}"
    consts = constants_for(formula, {"C": C})
    power = 1 if task == "hpm-norm" else 2
    raw = consts["C"] * eps**-power * math.log(d / delta) ** 2
    return SizingResult(
        m=max(1, math.ceil(raw)),
        formula=formula,
        constants=consts,
        inputs={"eps": eps, "delta": delta, "d": d},
    )
