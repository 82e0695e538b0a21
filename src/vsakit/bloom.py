"""Bloom-filter VSA: saturating binary bundling and the h_{m,k} inversion.

A bundle is min(1, B v) for a sparse-binary-trials codebook B. The popcount
(or the dot product of two bundles) is mapped back to an element count by

    h_{m,k}(z) = -(m_tilde / k) ln(1 - z/m),   m_tilde = -1 / ln(1 - 1/m)

which satisfies h_{m,k}(m (1 - (1-1/m)^{kn})) = n exactly.

At the sizing m is much larger than the n k bits a set can set (6.4M bits
against at most 7.2k set at eps=0.5, delta=0.05, n=5, n_v=n_w=10), so a
bundle is held as its sorted set positions: the popcount is their number,
the dot product of two bundles the size of their intersection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codebook import Codebook
from .setalg import SymbolSet, require_flat
from .sizing import SizingResult, check_rates, constants_for


@dataclass(frozen=True, eq=False)
class BloomBundle:
    """A filter held as its set positions, plus the codebook that hashed them.

    ``positions`` is a read-only, sorted, unique int64 array in [0, m); m is
    the codebook's. Every Bloom quantity is computed from the positions, so
    no m-element array is built unless ``bits`` is read.
    """

    positions: np.ndarray
    codebook: Codebook

    def __post_init__(self):
        pos = np.asarray(self.positions)
        if pos.ndim != 1 or pos.size and not np.issubdtype(pos.dtype, np.integer):
            raise ValueError("bloom positions must be a 1-D integer array")
        pos = pos.astype(np.int64)
        if pos.size and (pos[0] < 0 or pos[-1] >= self.codebook.m):
            raise ValueError(f"bloom positions must lie in [0, {self.codebook.m})")
        if (pos[1:] <= pos[:-1]).any():
            raise ValueError("bloom positions must be sorted and unique")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    @property
    def m(self) -> int:
        return self.codebook.m

    @property
    def bits(self) -> np.ndarray:
        """Dense 0/1 uint8 array of length m, built anew on each read; no
        estimator or codec reads it."""
        bits = np.zeros(self.m, dtype=np.uint8)
        bits[self.positions] = 1
        return bits

    def popcount(self) -> int:
        return int(self.positions.size)


def bundle_bloom(cb: Codebook, v: SymbolSet) -> BloomBundle:
    """min(1, B v): the union of the atomic sparse columns. Idempotent re-adds."""
    if cb.kind != "sparse-binary-trials":
        raise ValueError(f"bloom requires a sparse-binary-trials codebook, got {cb.kind!r}")
    require_flat(v)
    if v.d != cb.d:
        raise ValueError(f"set universe {v.d} != codebook universe {cb.d}")
    return BloomBundle(cb.union_indices(list(v.entries)), cb)


def saturated(estimate: float) -> bool:
    """True when an estimate is the +inf saturation sentinel."""
    return math.isinf(estimate)


def h_mk(m: int, k: int, z: float) -> float:
    """Invert an observed overlap count z back to an element-count estimate.

    Returns +inf (the saturation sentinel) when z >= m: the filter carries
    no information and the caller must resize. Uses log1p so the formula
    stays accurate for very large m.
    """
    if m < 2:
        raise ValueError("h_mk requires m >= 2")
    if k < 1:
        raise ValueError("h_mk requires k >= 1")
    if z < 0:
        raise ValueError(f"overlap count must be nonnegative, got {z}")
    if z >= m:
        return math.inf
    m_tilde = -1.0 / math.log1p(-1.0 / m)
    return -(m_tilde / k) * math.log1p(-z / m)


def size_estimate(b: BloomBundle) -> float:
    """h_{m,k}(popcount): estimated number of bundled elements."""
    return h_mk(b.m, b.codebook.k, b.popcount())


def intersection_estimate(b1: BloomBundle, b2: BloomBundle) -> float:
    """h_{m,k}(<bits1, bits2>): estimated intersection size of the two sets.

    The dot product of two 0/1 filters is the number of positions they share.
    """
    if b1.codebook.key != b2.codebook.key:
        raise ValueError("bundles come from different codebooks")
    dot = np.intersect1d(b1.positions, b2.positions, assume_unique=True).size
    return h_mk(b1.m, b1.codebook.k, dot)


def sizing_bloom(
    *,
    eps: float,
    delta: float,
    n: float,
    n_v: float,
    n_w: float,
    c1: float | None = None,
) -> SizingResult:
    """(m, k) sufficient for h_{m,k}(x.y) = n +- eps with failure prob delta.

    k = 2 c1 ln(2/delta) / eps, with the proof constant c1 = 32 + 2/3, and
    m = (k/eps)(n_v n_w / 2 + 8 c1 n^2 + eps (n + n_w)), after swapping so
    that n_w >= n_v.
    """
    check_rates(eps, delta)
    if min(n, n_v, n_w) < 0:
        raise ValueError("counts n, n_v, n_w must be nonnegative")
    consts = constants_for("bloom.intersection", {"c1": c1})
    c = consts["c1"]
    inputs = {"eps": eps, "delta": delta, "n": n, "n_v": n_v, "n_w": n_w}
    if n_w < n_v:
        n_v, n_w = n_w, n_v
    k = max(1, math.ceil(2.0 * c * math.log(2.0 / delta) / eps))
    m = max(2, math.ceil((k / eps) * (n_v * n_w / 2.0 + 8.0 * c * n**2 + eps * (n + n_w))))
    return SizingResult(m=m, k=k, formula="bloom.intersection", constants=consts,
                        inputs=inputs)
