"""Counting-Bloom VSA: additive sparse bundling and wedgedot estimation.

A bundle is B v for a sparse-binary-exact codebook B (exactly k ones per
column). The estimator (1/k) sum_i min(x_i, y_i) dominates the true
generalized intersection v wedgedot w deterministically (one-sided bias)
and exceeds it by less than eps with probability 1 - delta at the sized
(m, k).

``bundle_count`` draws the k rows of each of v's columns in one gather
(``Codebook.exact_indices``) and adds the weights into m dense counts with
one ``np.add.at``; that dense bundle is also the wire form. The harness's
trials need only the min-sum, and ``min_sums`` gives it for a stack of
seeds at once, from the rows ``Codebook.exact_indices_across`` gathers:
each (seed, row) pair is a key, each set's weights are summed per key, and
only the keys both sets hold add up, so no m-sized array is built. Counts
are exact integers: a set with ||v||_1 >= 2**63 is refused (a column's
rows are distinct, so no count can exceed ||v||_1), and ``mass`` and the
min-sums stay in int64 only while the number of terms times the largest
is below 2**63, else they sum Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .codebook import Codebook, held, same_codebook
from .setalg import SymbolSet, integral


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


def _check_mass(l1: int) -> None:
    """Refuse a set of ||v||_1 >= 2**63: a column's rows are distinct, so no count exceeds it."""
    if l1 >= 2**63:
        raise ValueError(f"counting bloom needs ||v||_1 below 2**63, got {l1}")


def bundle_count(cb: Codebook, v: SymbolSet) -> CountBundle:
    """B v: weighted sum of exactly-k columns. Linear in v.

    One gather draws the rows of v's columns (``Codebook.exact_indices``),
    and one ``np.add.at`` adds each column's weight at its k rows.
    """
    cb.require("sparse-binary-exact", "counting bloom", v.d)
    _check_mass(v.l1())
    counts = np.zeros(cb.m, dtype=np.int64)
    if v.entries:
        n = len(v.entries)
        rows = cb.exact_indices(np.fromiter(v.entries, dtype=np.int64, count=n))
        np.add.at(counts, rows, np.fromiter(v.entries.values(), dtype=np.int64, count=n)[:, None])
    counts.setflags(write=False)  # held keeps a frozen array it owns without a copy
    return CountBundle(counts, cb)


def min_sums(m: int, rows: np.ndarray, v: Sequence[int], w: Sequence[int]) -> list[int]:
    """sum_i min(x_i, y_i) of each seed s, with x = B_s v and y = B_s w, as exact ints.

    ``rows`` is a (seeds, n, k) stack: ``rows[s, j]`` holds the k distinct
    rows of column j under seed s, as ``Codebook.exact_indices_across``
    gives them. ``v`` and ``w`` are nonnegative weights of the n columns,
    the same for every seed; a zero weight leaves its column out of the set.
    No m-sized array is built: each (seed, row) pair is the key s * m + row,
    each side's weights are summed per key, and only the keys both sides
    hold add to a seed's sum. Each total is the min-sum that
    ``generalized_intersection_estimate`` takes of the seed's two bundles:
    counts are summed in int64, which ``||v||_1 < 2**63`` keeps exact, and
    the totals too unless int64 could wrap, when they sum Python ints.
    """
    if rows.ndim != 3:
        raise ValueError(f"min_sums needs rows as a (seeds, n, k) stack, got shape {rows.shape}")
    v, w = ([integral(weight, f"a min_sums weight of {name}") for weight in weights]
            for name, weights in (("v", v), ("w", w)))
    for name, weights in (("v", v), ("w", w)):
        if len(weights) != rows.shape[1]:
            raise ValueError(f"min_sums needs one weight of {name} per column: {rows.shape[1]} "
                             f"columns, got {len(weights)} weights")
        if any(weight < 0 for weight in weights):
            raise ValueError(f"min_sums weights of {name} must be nonnegative, got {list(weights)}")
    _check_mass(sum(v))
    _check_mass(sum(w))
    if m >= 2**63:  # rows and keys are int64
        raise ValueError(f"counting bloom keys need m below 2**63, got {m}")
    count = len(rows)
    if count > 1 and count * m >= 2**63:  # the keys would wrap: split the stack
        return min_sums(m, rows[: count // 2], v, w) + min_sums(m, rows[count // 2 :], v, w)
    keys = rows + m * np.arange(count)[:, None, None]
    (x_keys, x), (y_keys, y) = _key_sums(keys, v), _key_sums(keys, w)
    shared, at_x, at_y = np.intersect1d(x_keys, y_keys, assume_unique=True, return_indices=True)
    mins = np.minimum(x[at_x], y[at_y])
    ends = np.searchsorted(shared, m * np.arange(1, count + 1))  # seed s's keys end below (s+1)m
    if mins.size * int(mins.max(initial=0)) < 2**63:
        return np.diff(np.r_[0, np.cumsum(mins)][np.r_[0, ends]]).tolist()
    return [sum(part.tolist()) for part in np.split(mins, ends[:-1])]


def _key_sums(keys: np.ndarray, weights: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct keys of the weighted columns of a (seeds, n, k) stack, and each
    key's weight summed in int64 (sort, then ``np.add.reduceat``)."""
    present = [j for j, weight in enumerate(weights) if weight]
    if not present or not len(keys):
        return np.empty(0, np.int64), np.empty(0, np.int64)
    mine = keys[:, present]
    order = np.argsort(mine, axis=None)
    summed = np.broadcast_to(np.array([weights[j] for j in present], np.int64)[:, None],
                             mine.shape)
    mine, summed = mine.ravel()[order], summed.ravel()[order]
    starts = np.flatnonzero(np.r_[True, mine[1:] != mine[:-1]])
    return mine[starts], np.add.reduceat(summed, starts)


def generalized_intersection_estimate(b1: CountBundle, b2: CountBundle) -> float:
    """(1/k) sum_i min(x_i, y_i); >= v wedgedot w for every seed."""
    same_codebook(b1, b2, "counting bloom")
    return _total(np.minimum(b1.counts, b2.counts)) / b1.codebook.k


def l1_distance_estimate(b1: CountBundle, b2: CountBundle, l1_v: int, l1_w: int) -> float:
    """||v||_1 + ||w||_1 - 2 (1/k)(x wedgedot y); never exceeds ||v - w||_1."""
    return l1_v + l1_w - 2.0 * generalized_intersection_estimate(b1, b2)
