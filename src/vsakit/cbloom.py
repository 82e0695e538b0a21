"""Counting-Bloom VSA: additive sparse bundling and wedgedot estimation.

A bundle is B v for a sparse-binary-exact codebook B (exactly k ones per
column). The estimator (1/k) sum_i min(x_i, y_i) dominates the true
generalized intersection v wedgedot w deterministically (one-sided bias)
and exceeds it by less than eps with probability 1 - delta at the sized
(m, k).

``bundle_counts`` bundles several sets on one codebook: it draws the k
rows of every column in the union of their ids in one gather
(``Codebook.exact_indices``) and adds each set's weights into its own
counts with one ``np.add.at``; ``bundle_count`` is its one-set case.
Counts are exact integers: a set with ||v||_1 >= 2**63 is refused (a
column's rows are distinct, so no count can exceed ||v||_1), and ``mass``
and the min-sum of the estimator stay in int64 only when m * max < 2**63,
else they sum Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .codebook import Codebook, held, same_codebook
from .setalg import SymbolSet


@dataclass(frozen=True, eq=False)
class CountBundle:
    """Nonnegative integer counts; total mass is exactly k * ||v||_1.

    ``counts`` is held by :func:`vsakit.codebook.held`: :func:`bundle_count`'s
    frozen counts as they are, anything else as a frozen int64 copy.
    """

    counts: np.ndarray
    codebook: Codebook

    def __post_init__(self):
        self.codebook.require("sparse-binary-exact", "counting bloom")
        counts = held(self.counts, np.int64, "count bundle")
        object.__setattr__(self, "counts", counts)
        if counts.shape != (self.codebook.m,):
            raise ValueError(f"count bundle of shape {counts.shape} holds {counts.size} "
                             f"counts, expected m={self.codebook.m}")
        if counts.min(initial=0) < 0:  # min builds no m-sized mask
            raise ValueError("count bundle entries must be nonnegative")

    @property
    def m(self) -> int:
        return self.codebook.m

    def mass(self) -> int:
        return _total(self.counts)


def _total(counts: np.ndarray) -> int:
    """Exact sum of nonnegative int64 counts: in int64 when m * max < 2**63, else Python ints."""
    if counts.size * int(counts.max(initial=0)) < 2**63:
        return int(counts.sum())
    return sum(counts.tolist())


def bundle_count(cb: Codebook, v: SymbolSet) -> CountBundle:
    """B v: weighted sum of exactly-k columns. Linear in v."""
    return bundle_counts(cb, (v,))[0]


def bundle_counts(cb: Codebook, sets: Sequence[SymbolSet]) -> list[CountBundle]:
    """B v of each set v in ``sets``, in order, from one gather of their columns.

    The gather covers the union of the sets' ids, the first set's ids first,
    so its rows are a slice; a later set picks its rows by position. Each set
    gets its own dense counts, exactly as a gather of its ids alone gives.
    """
    ids = {}  # the union of the sets' ids as keys, the first set's ids first
    for v in sets:
        cb.require("sparse-binary-exact", "counting bloom", v.d)
        l1 = v.l1()
        if l1 >= 2**63:  # a column's rows are distinct, so every count is at most ||v||_1
            raise ValueError(f"counting bloom needs ||v||_1 below 2**63, got {l1}")
        ids.update(v.entries)
    rows = cb.exact_indices(np.fromiter(ids, dtype=np.int64, count=len(ids)))
    slot = dict(zip(ids, range(len(ids)))) if len(sets) > 1 else None
    out = []
    for i, v in enumerate(sets):
        counts = np.zeros(cb.m, dtype=np.int64)
        if v.entries:
            weights = np.fromiter(v.entries.values(), dtype=np.int64, count=len(v.entries))
            mine = rows[: len(weights)] if i == 0 else rows[[slot[j] for j in v.entries]]
            np.add.at(counts, mine, weights[:, None])
        counts.setflags(write=False)  # held keeps a frozen array it owns without a copy
        out.append(CountBundle(counts, cb))
    return out


def generalized_intersection_estimate(b1: CountBundle, b2: CountBundle) -> float:
    """(1/k) sum_i min(x_i, y_i); >= v wedgedot w for every seed."""
    same_codebook(b1, b2, "counting bloom")
    return _total(np.minimum(b1.counts, b2.counts)) / b1.codebook.k


def l1_distance_estimate(b1: CountBundle, b2: CountBundle, l1_v: int, l1_w: int) -> float:
    """||v||_1 + ||w||_1 - 2 (1/k)(x wedgedot y); never exceeds ||v - w||_1."""
    return l1_v + l1_w - 2.0 * generalized_intersection_estimate(b1, b2)
