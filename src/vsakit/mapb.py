"""MAP-B: sign-thresholded bundling and its threshold decision tests.

Bundles are sign(S v) of the MAP-I sums (:mod:`vsakit.mapi`) with zero
sums resolved by a seeded fair coin, so all composite vectors stay in
{-1,+1}^m. A bundle is held as its packed signs, the binary spatter code
view: bit i of ``words`` is set where entry i is +1, exactly the layout of
a dense-sign codebook column's words and of the MAP-B wire payload. A dot
product of two +-1 vectors is then m - 2 * popcount(x ^ c), so every score
is an XOR and a popcount, and a chained bundling step is three bitwise ops.
A bundle holds only these words and its dense-sign codebook (m is the
codebook's): every kind is its wire form, and the caller picks its test.

Set bundles have one stack encoder, ``bundle_sign_across``: it sums a
stack of 0/1 sets, each gathered under its own codebook seed, in one
``mapi._signed_sums`` call and signs every row in one ``_threshold``,
drawing a row's tie coins only when it has a zero sum. ``bundle_sign`` is
its one-row case, ``_signed`` signs a sequence or key-value bundle's row by
the same rule, and ``_tie_seed`` reads every encoder's tie seed.

The paper-backed guarantees are decision tests (membership, sequence
membership, key-value membership, empty-intersection), not size
estimation; each compares a dot product against a closed-form threshold.
A query kind scores a stack at once, each against the bundle's words as
they are: ``membership_scores`` many symbols from one gather of column
words, and the two composite kinds many columns from one gather of
``mapi``'s composite columns, ``sequence_membership_scores`` rotated ones
(``mapi.rotated_words``, at one position or one a symbol) and
``kv_membership_scores`` bound ones (``mapi.bound_words``). No query
unpacks a bundle. ``membership_test`` and ``empty_intersection_test`` test
one query.

``agreement_probability`` is the exact oracle for the per-coordinate
agreement Pr[x_i S_ij = +1] of a depth-1 bundle; chained (deeper)
bundling, ``iterated_bundle``, folds codebook columns from one gather of
their words and decays toward 1/2 as described by
``chain_agreement_probability``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import mapi, rng
from .codebook import Codebook, held, same_codebook
from .setalg import BindingBundleSpec, SequenceSpec, SymbolSet, integral, require_flat
from .sizing import check_rates


@dataclass(frozen=True)
class KeyValueSpec:
    """Pairs (key, value) with disjoint key/value id sets and unique keys."""

    d: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pairs = tuple((integral(q, "a key id"), integral(w, "a value id")) for q, w in self.pairs)
        if not pairs:
            raise ValueError("key-value bundle needs at least one pair")
        keys = [q for q, _ in pairs]
        q_set, w_set = set(keys), {w for _, w in pairs}
        if len(keys) != len(q_set):
            raise ValueError("each key may appear in at most one pair")
        if q_set & w_set:
            raise ValueError(f"key and value sets overlap: {sorted(q_set & w_set)}")
        for q, w in pairs:
            if not (0 <= q < self.d and 0 <= w < self.d):
                raise ValueError("pair ids outside the universe")
        object.__setattr__(self, "pairs", pairs)


@dataclass(frozen=True, eq=False)
class MapBBundle:
    """A +-1 bundle of any kind as packed signs (its wire payload) and its codebook.

    m is the codebook's, which must be dense-sign. ``words`` holds ceil(m/64)
    uint64 words; bit i (word i // 64, bit i % 64) is set where entry i is
    +1, and the padding bits past m are zero.
    """

    words: np.ndarray
    codebook: Codebook

    def __post_init__(self):
        self.codebook.require("dense-sign", "MAP-B")
        m = self.m
        words = np.asarray(self.words)
        if words.dtype != np.uint64 or words.shape != (-(-m // 64),):
            raise ValueError(f"MAP-B bundle of m={m} needs {-(-m // 64)} uint64 words, "
                             f"got {words.dtype} of shape {words.shape}")
        words = held(words, np.uint64, "MAP-B bundle")
        if words[-1] & ~rng.last_word_mask(m):
            raise ValueError(f"MAP-B bundle sets padding bits past m={m}")
        object.__setattr__(self, "words", words)

    @property
    def m(self) -> int:
        return self.codebook.m

    @property
    def signs(self) -> np.ndarray:
        """The entries as a read-only +-1 int8 array, unpacked from ``words``."""
        signs = rng.signs_from_words(self.words, self.m)[:, 0]
        signs.setflags(write=False)
        return signs


@dataclass(frozen=True)
class TestResult:
    contained: bool
    score: int
    threshold: float


def _tie_words(seed: int, tie_seed: int, step: int, m: int) -> np.ndarray:
    """The fair coins of one thresholding step: bit i set means a tie at i goes to +1."""
    return rng.Stream(seed, "mapb-tie", tie_seed, step).words(0, -(-m // 64))


def _threshold(sums: np.ndarray, seeds, tie_seeds) -> np.ndarray:
    """Words of sign(sums) of a (rows, m) stack, each zero sum replaced by its row's coin.

    Row s's coins are ``_tie_words(seeds[s], tie_seeds[s], 0, m)``, drawn only
    if the row has a zero sum: a window is keyed, so skipping one changes no bit.
    """
    bits = np.empty((2, *sums.shape), dtype=bool)  # the signs and the ties, packed in one call
    np.greater(sums, 0, out=bits[0])
    np.equal(sums, 0, out=bits[1])
    words, ties = rng.words_from_bits(bits)
    if ties.any():  # a lone row needs no search for the rows with a tie
        tied = np.flatnonzero(ties.any(axis=1)).tolist() if len(ties) > 1 else [0]
        for s in tied:
            words[s] |= ties[s] & _tie_words(seeds[s], tie_seeds[s], 0, sums.shape[1])
    return words


def _scores(x: np.ndarray, cols: np.ndarray, m: int) -> np.ndarray:
    """<x, c> = m - 2 * popcount(x ^ c) as int64, one per row of ``cols``."""
    return m - 2 * np.bitwise_count(x ^ cols).sum(axis=-1, dtype=np.int64)


def _tie_seed(tie_seed, *default_tags) -> int:
    """An explicit tie seed read as an integer, or else the fold of ``default_tags``."""
    return rng.stream_id(*default_tags) if tie_seed is None else integral(tie_seed, "tie_seed")


def _signed(cb: Codebook, sums: np.ndarray, tie_seed: int) -> MapBBundle:
    """The bundle sign(sums) of one row of m sums, its ties broken by ``tie_seed``'s coins."""
    return MapBBundle(_threshold(sums[None], [cb.seed], [tie_seed])[0], cb)


def bundle_sign_across(m: int, seeds, words: np.ndarray, tie_seeds) -> np.ndarray:
    """Packed sign(S v_s) of a stack of 0/1 sets, one row per seed, in one pass.

    ``words[s]`` is ``cb.with_seed(seeds[s]).sign_words(ids_s)`` for a
    dense-sign codebook ``cb`` with this ``m``: a (rows, n, ceil(m/64))
    stack, such as ``Codebook.sign_words_across`` gives. One
    ``mapi._signed_sums`` call sums every row and one ``_threshold`` signs
    them, so row s equals ``bundle_sign(cb.with_seed(seeds[s]), v_s,
    tie_seed=tie_seeds[s]).words`` bit for bit. Returns (rows, ceil(m/64)).
    """
    if words.ndim != 3 or words.shape[2] != -(-m // 64) or not (
            len(seeds) == len(tie_seeds) == len(words)):
        raise ValueError(f"a stack of MAP-B sets at m={m} needs (rows, n, {-(-m // 64)}) words "
                         f"and one seed and tie seed a row, got {words.shape} words, "
                         f"{len(seeds)} seeds and {len(tie_seeds)} tie seeds")
    return _threshold(mapi._signed_sums(words, m, words.shape[1]), seeds, tie_seeds)


def bundle_sign(cb: Codebook, v: SymbolSet, tie_seed: int | None = None) -> MapBBundle:
    """sign(S v) for a 0/1 set; zero coordinates get a seeded fair coin.

    The one-row case of ``bundle_sign_across``, on one gather of the set's columns.
    """
    cb.require("dense-sign", "MAP-B", v.d)
    require_flat(v)
    tie_seed = _tie_seed(tie_seed, "tie-default", *sorted(v.entries))
    ids = np.fromiter(v.entries, dtype=np.int64, count=len(v.entries))
    words = bundle_sign_across(cb.m, [cb.seed], cb.sign_words(ids)[None], [tie_seed])
    return MapBBundle(words[0], cb)


def bundle_sequence_sign(
    cb: Codebook, seq: SequenceSpec, tie_seed: int | None = None
) -> MapBBundle:
    """sign(S_{R,L} v): one-shot thresholding of a rotation-encoded sequence."""
    cb.require("dense-sign", "MAP-B", seq.d)
    for s in seq.sets:
        require_flat(s)
    tie_seed = _tie_seed(tie_seed, "tie-seq", *(i for s in seq.sets for i in sorted(s.entries)))
    return _signed(cb, mapi.encode_sequence(cb, seq).ints, tie_seed)


def bundle_kv_sign(cb: Codebook, spec: KeyValueSpec, tie_seed: int | None = None) -> MapBBundle:
    """sign(S^(2) v) over bound key-value pairs, each pair a 2-edge."""
    cb.require("dense-sign", "MAP-B", spec.d)
    tie_seed = _tie_seed(tie_seed, "tie-kv", *(i for pair in sorted(spec.pairs) for i in pair))
    edges = BindingBundleSpec(spec.d, frozenset(frozenset(pair) for pair in spec.pairs))
    return _signed(cb, mapi.encode_binding_bundle(cb, edges).ints, tie_seed)


def iterated_bundle(cb: Codebook, ids, tie_seed: int = 0) -> MapBBundle:
    """Left-fold chained bundling of columns ``ids``: x <- sign(x + S_j), ties seeded per step.

    For +-1 inputs x + S_j is in {-2, 0, 2}, so each step is bitwise on the
    packed signs: x <- (x & v) | ((x ^ v) & t), with t the step's coins. The
    fold runs over the rows of one ``sign_words`` gather.
    """
    cb.require("dense-sign", "MAP-B")
    tie_seed = integral(tie_seed, "tie_seed")
    rows = cb.sign_words(ids)  # refuses out-of-range ids
    if rows.shape[0] == 0:
        raise ValueError("iterated_bundle needs at least one column")
    x = rows[0]
    for step, v in enumerate(rows[1:], start=1):
        x = (x & v) | ((x ^ v) & _tie_words(cb.seed, tie_seed, step, cb.m))
    return MapBBundle(x, cb)


# -- decision thresholds (natural log throughout) ---------------------------


def member_threshold(m: int, d: int, delta: float) -> float:
    return math.sqrt(2.0 * m * math.log(2.0 * d / delta))


def sequence_member_threshold(m: int, L: int, d: int, delta: float) -> float:
    return 2.0 * math.sqrt(m * math.log(L * d / delta))


def kv_member_threshold(m: int, d: int, delta: float) -> float:
    return 2.0 * math.sqrt(m * math.log(d / delta))


def empty_intersection_threshold(m: int, delta: float) -> float:
    return math.sqrt(2.0 * m * math.log(2.0 / delta))


def membership_scores(b: MapBBundle, ids) -> np.ndarray:
    """Scores <x, S_j> of many symbols as int64, from one gather of column words."""
    return _scores(b.words, b.codebook.sign_words(ids), b.m)


def membership_test(b: MapBBundle, j: int, delta: float) -> TestResult:
    """Is symbol j in the bundled set? score = <x, S_j> against the threshold."""
    check_rates(delta=delta)
    score = int(membership_scores(b, [j])[0])
    tau = member_threshold(b.m, b.codebook.d, delta)
    return TestResult(score >= tau, score, tau)


def empty_intersection_test(b1: MapBBundle, b2: MapBBundle, delta: float) -> TestResult:
    """contained=True means the sets intersect (score cleared the threshold)."""
    check_rates(delta=delta)
    same_codebook(b1, b2, "MAP-B")
    score = int(_scores(b1.words, b2.words, b1.m))
    tau = empty_intersection_threshold(b1.m, delta)
    return TestResult(score >= tau, score, tau)


def sequence_membership_scores(b: MapBBundle, ell, syms) -> np.ndarray:
    """Scores <x, R^ell S_j> of symbols ``syms`` as int64, from one ``mapi.rotated_words``.

    ``ell`` is one position for every symbol, or one position per symbol.
    A position past the sequence scores like an absent symbol.
    """
    return _scores(b.words, mapi.rotated_words(b.codebook, ell, syms), b.m)


def kv_membership_scores(b: MapBBundle, pairs) -> np.ndarray:
    """Scores <x, S_q * S_w> of (key, value) pairs as int64, from one ``mapi.bound_words``."""
    return _scores(b.words, mapi.bound_words(b.codebook, pairs), b.m)


# -- exact oracles ----------------------------------------------------------


def agreement_probability(n: int) -> Fraction:
    """Exact Pr[x_i S_ij = +1] for a depth-1 bundle of n atomic vectors.

    Sums over the popcount of the n-1 co-bundled signs at one coordinate,
    n binomial terms, with half-weight tie branches.
    """
    if n < 1:
        raise ValueError("bundle size must be >= 1")
    total = Fraction(0)
    for ones in range(n):  # popcount of the n-1 co-bundled signs
        b = 2 * ones - (n - 1)
        if 1 + b > 0:
            branch = Fraction(1)
        elif 1 + b == 0:
            branch = Fraction(1, 2)
        else:
            branch = Fraction(0)
        total += math.comb(n - 1, ones) * branch
    return total / 2 ** (n - 1)


def chain_agreement_probability(r: int) -> Fraction:
    """Exact Pr[x^(1)_l x_l = +1] after r-deep chained bundling: 1/2 + 2^-r.

    Each fold sign(cur + fresh) keeps an agreeing coordinate w.p. 3/4 (fresh
    agrees, or a fair coin breaks the tie) and restores a disagreeing one
    w.p. 1/4, so p - 1/2 halves per step from p = 1 at depth 1.
    """
    if r < 1:
        raise ValueError("chain depth must be >= 1")
    return Fraction(1, 2) + Fraction(1, 2**r)
