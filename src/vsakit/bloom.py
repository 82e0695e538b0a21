"""Bloom-filter VSA: saturating binary bundling and the h_{m,k} inversion.

A bundle is min(1, B v) for a sparse-binary-trials codebook B. The popcount
(or the dot product of two bundles) is mapped back to an element count by

    h_{m,k}(z) = -(m_tilde / k) ln(1 - z/m),   m_tilde = -1 / ln(1 - 1/m)

which satisfies h_{m,k}(m (1 - (1-1/m)^{kn})) = n exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codebook import Codebook
from .setalg import SymbolSet, require_flat
from .sizing import SizingResult, check_rates, constants_for


@dataclass(frozen=True)
class BloomBundle:
    """Binary filter bits plus the codebook that hashed them."""

    bits: np.ndarray
    codebook: Codebook

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=np.uint8).copy()
        if bits.size and bits.max() > 1:
            raise ValueError("bloom bundle entries must be 0/1")
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)

    @property
    def m(self) -> int:
        return self.bits.shape[0]

    def popcount(self) -> int:
        return int(self.bits.sum())


def bundle_bloom(cb: Codebook, v: SymbolSet) -> BloomBundle:
    """min(1, B v): OR of the atomic sparse columns. Idempotent re-adds."""
    if cb.kind != "sparse-binary-trials":
        raise ValueError(f"bloom requires a sparse-binary-trials codebook, got {cb.kind!r}")
    require_flat(v)
    if v.d != cb.d:
        raise ValueError(f"set universe {v.d} != codebook universe {cb.d}")
    bits = np.zeros(cb.m, dtype=np.uint8)
    for j in v.entries:
        bits[cb.column_indices(j)] = 1
    return BloomBundle(bits, cb)


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
    """h_{m,k}(<bits1, bits2>): estimated intersection size of the two sets."""
    if b1.codebook.key != b2.codebook.key:
        raise ValueError("bundles come from different codebooks")
    dot = int((b1.bits & b2.bits).sum())
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
