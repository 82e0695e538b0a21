"""Counting-Bloom VSA: additive sparse bundling and wedgedot estimation.

A bundle is B v for a sparse-binary-exact codebook B (exactly k ones per
column). The estimator (1/k) sum_i min(x_i, y_i) dominates the true
generalized intersection v wedgedot w deterministically (one-sided bias)
and exceeds it by less than eps with probability 1 - delta at the sized
(m, k).

``bundle_count`` draws every column's k rows in one gather
(``Codebook.exact_indices``) and adds the weights with one ``np.add.at``.
Counts are exact integers: ``bundle_count`` refuses ||v||_1 >= 2**63 (a
column's rows are distinct, so no count can exceed ||v||_1), and ``mass``
and the min-sum of the estimator stay in int64 only when m * max < 2**63,
else they sum Python ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codebook import Codebook
from .setalg import SymbolSet
from .sizing import SizingResult, check_rates, constants_for


@dataclass(frozen=True, eq=False)
class CountBundle:
    """Nonnegative integer counts; total mass is exactly k * ||v||_1."""

    counts: np.ndarray
    codebook: Codebook

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64).copy()
        if counts.shape != (self.codebook.m,):
            raise ValueError(f"count bundle of shape {counts.shape} holds {counts.size} "
                             f"counts, expected m={self.codebook.m}")
        if (counts < 0).any():
            raise ValueError("count bundle entries must be nonnegative")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def m(self) -> int:
        return self.counts.shape[0]

    def mass(self) -> int:
        return _total(self.counts)


def _total(counts: np.ndarray) -> int:
    """Exact sum of nonnegative int64 counts: in int64 when m * max < 2**63, else Python ints."""
    if counts.size * int(counts.max(initial=0)) < 2**63:
        return int(counts.sum())
    return sum(counts.tolist())


def bundle_count(cb: Codebook, v: SymbolSet) -> CountBundle:
    """B v: weighted sum of exactly-k columns. Linear in v."""
    if cb.kind != "sparse-binary-exact":
        raise ValueError(f"counting bloom requires a sparse-binary-exact codebook, got {cb.kind!r}")
    if v.d != cb.d:
        raise ValueError(f"set universe {v.d} != codebook universe {cb.d}")
    l1 = v.l1()
    if l1 >= 2**63:  # a column's rows are distinct, so every count is at most ||v||_1
        raise ValueError(f"counting bloom needs ||v||_1 below 2**63, got {l1}")
    counts = np.zeros(cb.m, dtype=np.int64)
    if v.entries:
        weights = np.fromiter(v.entries.values(), dtype=np.int64)
        rows = cb.exact_indices(np.fromiter(v.entries.keys(), dtype=np.int64))
        np.add.at(counts, rows, weights[:, None])
    return CountBundle(counts, cb)


def generalized_intersection_estimate(b1: CountBundle, b2: CountBundle) -> float:
    """(1/k) sum_i min(x_i, y_i); >= v wedgedot w for every seed."""
    if b1.codebook.key != b2.codebook.key:
        raise ValueError("bundles come from different codebooks")
    return _total(np.minimum(b1.counts, b2.counts)) / b1.codebook.k


def l1_distance_estimate(b1: CountBundle, b2: CountBundle, l1_v: int, l1_w: int) -> float:
    """||v||_1 + ||w||_1 - 2 (1/k)(x wedgedot y); never exceeds ||v - w||_1."""
    return l1_v + l1_w - 2.0 * generalized_intersection_estimate(b1, b2)


def sizing_cbloom(
    *,
    eps: float,
    delta: float,
    K_b: float,
    n_v: float,
    n_w: float,
) -> SizingResult:
    """(m, k) sufficient for the one-sided wedgedot bound.

    k = (2 K_b / 3) ln(1/delta) / eps and m = 12 pi^2 k n_v n_w / eps,
    straight from the theorem. K_b bounds ||v - w||_inf; callers without it
    may pass max(||v||_inf, ||w||_inf).
    """
    check_rates(eps, delta)
    if K_b <= 0:
        raise ValueError("K_b must be positive")
    if min(n_v, n_w) < 0:
        raise ValueError("n_v and n_w must be nonnegative")
    consts = constants_for("cbloom.intersection")
    k = max(1, math.ceil(consts["kc"] * K_b * math.log(1.0 / delta) / eps))
    m = max(2, math.ceil(consts["mc"] * k * n_v * n_w / eps))
    return SizingResult(
        m=m,
        k=k,
        formula="cbloom.intersection",
        constants=consts,
        inputs={"eps": eps, "delta": delta, "K_b": K_b, "n_v": n_v, "n_w": n_w},
    )
