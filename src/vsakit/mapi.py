"""MAP-I: linear bundling with sign matrices and JL-based estimators.

A bundle is S v (integer accumulator), scaled to (1/sqrt(m)) S v at the
estimator boundary. It is built from the columns' packed signs
(``Codebook.sign_words``): with b their 0/1 bits (``rng.bits_from_words``,
1 where the entry is +1) and pos = weights @ b (a bit sum for a 0/1 set),
S v = pos - (||v||_1 - pos). Every partial sum is at most ||v||_1, which
must be below 2**63, so this is exact in int64; sums of bundles (``add``,
``encode_sequence``) refuse inputs whose sum could reach 2**63. The same
kernel takes a stack of sets at once: ``flat_norm_sq_estimates`` gives the
norm estimates of a stack of 0/1 sets, each on its own codebook, from one
kernel call. A composite column is its packed words, like an atomic one,
and each kind has one rule. Binding is the binary spatter code rule:
``bound_words`` gives an edge's bound column (the product of its +-1
columns) as the XOR of their packed signs, and a binding bundle is the
kernel's sum of them. Rotation is ``rotated_words``: the columns
R^ell S_j, each at its own position, rolled from one gather through
``hypervector.rotate``, and a sequence bundle is the kernel's weighted sum
of them. MAP-B scores its key-value and sequence queries against both.
Norms and dot products of the scaled bundles concentrate around the exact
set statistics; at the sized dimension the rounded dot product recovers
intersection sizes exactly with high probability. Integer dot products are
exact: they stay in int64 only when a bound proves they cannot wrap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .codebook import Codebook, held, same_codebook
from .hypervector import rotate
from .setalg import BindingBundleSpec, SequenceSpec, SymbolSet, integral


@dataclass(frozen=True, eq=False)
class MapIBundle:
    """Sign-matrix bundle; ``ints`` is the exact unscaled accumulator S v."""

    ints: np.ndarray
    codebook: Codebook

    def __post_init__(self):
        self.codebook.require("dense-sign", "MAP-I")
        ints = held(self.ints, np.int64, "MAP-I bundle")
        if ints.shape != (self.codebook.m,):
            raise ValueError(f"MAP-I bundle of shape {ints.shape} does not hold m={self.m} sums")
        object.__setattr__(self, "ints", ints)

    @property
    def m(self) -> int:
        return self.codebook.m

    @property
    def scaled(self) -> bool:
        """Whether estimators read the bundle as (1/sqrt(m)) S v: its codebook's view."""
        return self.codebook.scaled


def _signed_sums(words: np.ndarray, m: int, l1: int, weights: np.ndarray | None = None):
    """S v from packed sign columns: words (..., n, ceil(m/64)) -> int64 (..., m).

    Bit i of a column's packed signs is set where entry i is +1, so
    (S v)_i = pos_i - (||v||_1 - pos_i) with pos_i the weight on +1 entries.
    With no ``weights`` the n columns each weigh 1 (``l1`` is n) and pos is a
    plain sum of bits; otherwise ``weights`` (n,) int64 sum to ``l1``. A
    plain sum of n < 2**16 columns counts in uint16, about twice as fast as
    int64 and exact, since no count exceeds n, and is widened after.
    """
    bits = rng.bits_from_words(words, m)
    if weights is not None:
        pos = weights @ bits
    elif bits.shape[-2] < 2**16:
        pos = bits.sum(axis=-2, dtype=np.uint16).astype(np.int64)
    else:
        pos = bits.sum(axis=-2, dtype=np.int64)
    sums = pos - (l1 - pos)
    sums.setflags(write=False)  # fresh, so a MapIBundle holds it without a copy
    return sums


def bundle(cb: Codebook, v: SymbolSet) -> MapIBundle:
    """S v: weighted sum of atomic columns. Linear in v."""
    cb.require("dense-sign", "MAP-I", v.d)
    l1 = v.l1()
    if l1 >= 2**63:  # every sum and partial sum below is at most ||v||_1
        raise ValueError(f"MAP-I needs ||v||_1 below 2**63, got {l1}")
    ids = np.fromiter(v.entries.keys(), dtype=np.int64, count=len(v.entries))
    weights = None  # weights are >= 1, so ||v||_1 = |support| only for a 0/1 set
    if l1 != ids.size:
        weights = np.fromiter(v.entries.values(), dtype=np.int64, count=ids.size)
    return MapIBundle(_signed_sums(cb.sign_words(ids), cb.m, l1, weights), cb)


def flat_norm_sq_estimates(m: int, words: np.ndarray) -> list[float]:
    """``norm_sq_estimate(bundle(cb_t, v_t))`` of each 0/1 set v_t, from its columns.

    ``words[t]`` is ``cb_t.sign_words(ids_t)`` for a scaled dense-sign
    codebook ``cb_t`` with this ``m``: a (sets, n, ceil(m/64)) stack, such as
    ``Codebook.sign_words_across`` gives. The whole stack goes through one
    call of the kernel ``bundle`` uses. The results equal the one-set path
    bit for bit: the norms keep ``_dot``'s int64 guard, and each is an exact
    Python int divided by m. A stack of any other shape is refused.
    """
    if words.ndim != 3 or words.shape[2] != -(-m // 64):
        raise ValueError(f"a stack of MAP-I sets at m={m} needs (rows, n, {-(-m // 64)}) "
                         f"words, got {words.shape}")
    if not len(words):
        return []
    return [sq / m for sq in _norms_sq(_signed_sums(words, m, words.shape[1]))]


def add(b1: MapIBundle, b2: MapIBundle) -> MapIBundle:
    same_codebook(b1, b2, "MAP-I")
    if _peak(b1.ints) + _peak(b2.ints) >= 2**63:  # the int64 sum could wrap
        raise ValueError("MAP-I sum needs max|a| + max|b| below 2**63")
    return MapIBundle(b1.ints + b2.ints, b1.codebook)


def _peak(a: np.ndarray) -> int:
    """max |a_i| of an int64 array; read as uint64, |-2**63| is not negative."""
    return int(np.abs(a).view(np.uint64).max())


def _dot(a: np.ndarray, b: np.ndarray) -> int:
    """Exact <a, b>: in int64 when m * max|a| * max|b| < 2**63, else with Python ints."""
    peak = _peak(a)
    if a.size * peak * (peak if b is a else _peak(b)) < 2**63:
        return int(a @ b)
    return sum(x * y for x, y in zip(a.tolist(), b.tolist()))


def _norms_sq(rows: np.ndarray) -> list[int]:
    """Exact ||row||^2 of each row of a 2-D int64 array, under ``_dot``'s int64 guard."""
    if rows.shape[1] * _peak(rows) ** 2 < 2**63:
        return np.einsum("ij,ij->i", rows, rows).tolist()
    return [_dot(row, row) for row in rows]


def raw_dot(b1: MapIBundle, b2: MapIBundle) -> int:
    """Exact integer <S v, S w>; estimators divide by m."""
    same_codebook(b1, b2, "MAP-I")
    return _dot(b1.ints, b2.ints)


def norm_sq_estimate(b: MapIBundle) -> float:
    """||(1/sqrt(m)) S v||^2, the set-size estimator (requires scaled)."""
    if not b.scaled:
        raise ValueError("norm_sq_estimate requires a scaled bundle")
    return _norms_sq(b.ints[None])[0] / b.m


def dot_estimate(b1: MapIBundle, b2: MapIBundle) -> float:
    """<scaled b1, scaled b2>, estimating the exact intersection size."""
    if not (b1.scaled and b2.scaled):
        raise ValueError("dot_estimate requires scaled bundles")
    return raw_dot(b1, b2) / b1.m


def intersection_estimate(b1: MapIBundle, b2: MapIBundle) -> int:
    """Dot estimate rounded half away from zero, clamped to >= 0."""
    x = dot_estimate(b1, b2)
    rounded = int(math.copysign(math.floor(abs(x) + 0.5), x))
    return max(rounded, 0)


def encode_sequence(cb: Codebook, seq: SequenceSpec) -> MapIBundle:
    """sum_l R^l S v_(l): rotation-encoded sequence of sets.

    Every entry's column, rotated by its position, comes from one
    ``rotated_words`` call, and one kernel call sums them with their weights.
    """
    cb.require("dense-sign", "MAP-I", seq.d)
    total = seq.total_l1()
    if total >= 2**63:  # every partial sum of the R^l S v_l is at most the total
        raise ValueError(f"MAP-I needs the sequence's total ||v_l||_1 below 2**63, got {total}")
    ids = [i for s in seq.sets for i in s.entries]
    ells = np.repeat(np.arange(len(seq.sets)), [len(s.entries) for s in seq.sets])
    weights = None  # weights are >= 1, so the total is the entry count only for 0/1 sets
    if total != len(ids):
        weights = np.array([w for s in seq.sets for w in s.entries.values()], dtype=np.int64)
    return MapIBundle(_signed_sums(rotated_words(cb, ells, ids), cb.m, total, weights), cb)


def bound_words(cb: Codebook, edges) -> np.ndarray:
    """Bound columns of E edges of one arity k, in ``sign_words``'s (E, ceil(m/64)) layout.

    A product of k +-1 entries is +1 where an even number of them is -1: its
    bits are the XOR of the columns' bits, inverted for even k. All columns
    come from one ``sign_words`` gather. ``edges`` of any other shape are refused.
    """
    ids = cb._symbol_ids(edges)  # a bool, a fraction or a string is refused
    if ids.ndim != 2:
        raise ValueError(f"bound_words needs edges as an (E, k) array of symbol ids, "
                         f"got shape {ids.shape}")
    columns = cb.sign_words(ids.ravel()).reshape(*ids.shape, -(-cb.m // 64))
    bound = np.bitwise_xor.reduce(columns, axis=1)
    if ids.shape[1] % 2 == 0:  # invert, keeping the bits past m clear
        bound = ~bound
        bound[:, -1] &= rng.last_word_mask(cb.m)
    return bound


def rotated_words(cb: Codebook, ells, ids) -> np.ndarray:
    """Rotated columns R^ells[i] S_ids[i], in ``sign_words``'s (n, ceil(m/64)) layout.

    All columns come from one ``sign_words`` gather. ``ells`` is one integer
    position, or one per id: a bool, a fraction, a string or a count that is
    not the ids' is refused. Read mod m, each distinct nonzero position's
    rows unpack, roll once through ``rotate`` and pack again.
    """
    if isinstance(ells, np.ndarray) and np.issubdtype(ells.dtype, np.integer):
        ells = ells % cb.m
    else:
        listed = np.array(ells, dtype=object)
        ells = np.array([integral(ell, "position ell") % cb.m for ell in listed.ravel().tolist()],
                        dtype=np.int64).reshape(listed.shape)
    words = cb.sign_words(ids)  # refuses out-of-range ids
    if ells.shape not in ((), (len(words),)):
        raise ValueError(f"positions must be one integer or one per symbol id: {len(words)} ids, "
                         f"got positions of shape {ells.shape}")
    ells = np.broadcast_to(ells, len(words))
    for ell in np.unique(ells[ells != 0]).tolist():
        at = ells == ell
        words[at] = rng.words_from_bits(rotate(rng.bits_from_words(words[at], cb.m), ell))
    return words


def encode_binding_bundle(cb: Codebook, spec: BindingBundleSpec) -> MapIBundle:
    """sum over edges of the Hadamard product of the edge's atomic columns."""
    cb.require("dense-sign", "MAP-I", spec.d)
    edges = bound_words(cb, np.array([tuple(e) for e in spec.edges], dtype=np.int64))
    return MapIBundle(_signed_sums(edges, cb.m, spec.size), cb)
