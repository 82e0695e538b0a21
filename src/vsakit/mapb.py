"""MAP-B: sign-thresholded bundling and its threshold decision tests.

Bundles are sign(S v) of the MAP-I sums (:mod:`vsakit.mapi`) with zero
sums resolved by a seeded fair coin, so all composite vectors stay in
{-1,+1}^m. A bundle is held as its packed signs, the binary spatter code
view: bit i of ``words`` is set where entry i is +1, exactly the layout of
a dense-sign codebook column's words and of the MAP-B wire payload. A dot
product of two +-1 vectors is then m - 2 * popcount(x ^ c), so every score
is an XOR and a popcount, and a chained bundling step is three bitwise ops.
Every bundle carries the dense-sign codebook it was built from, and its m is
the codebook's.

The paper-backed guarantees are decision tests (membership, sequence
membership, key-value membership, empty-intersection), not size
estimation; each test compares a dot product against a closed-form
threshold. ``membership_scores`` scores many symbols against one set bundle
at once from one gather of column words; ``membership_test`` is its one-id
case. ``sequence_membership_scores`` does the same for one position of a
sequence bundle, from one roll of the bundle's bits. A key-value query
scores its pair's bound column, bound by XOR (``mapi.bound_words``).

``agreement_probability`` is the exact enumeration oracle for the
per-coordinate agreement Pr[x_i S_ij = +1] of a depth-1 bundle; chained
(deeper) bundling, ``iterated_bundle``, folds codebook columns from one
gather of their words and decays toward 1/2 as described by
``chain_agreement_probability``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import mapi, rng
from .codebook import Codebook
from .hypervector import rotate
from .setalg import BindingBundleSpec, SequenceSpec, SymbolSet, require_flat
from .sizing import SizingResult, check_rates, constants_for, require

#: Exhaustive enumeration refuses instances beyond this many states.
ENUMERATION_STATE_LIMIT = 2**24


@dataclass(frozen=True)
class KeyValueSpec:
    """Pairs (key, value) with disjoint key/value id sets and unique keys."""

    d: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pairs = tuple((int(q), int(w)) for q, w in self.pairs)
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

    @property
    def keys(self) -> frozenset[int]:
        return frozenset(q for q, _ in self.pairs)

    @property
    def values(self) -> frozenset[int]:
        return frozenset(w for _, w in self.pairs)


@dataclass(frozen=True, eq=False)
class MapBBundle:
    """A +-1 bundle as packed signs, plus how it was built (to pick the right test).

    m is the codebook's, which must be dense-sign. ``words`` holds ceil(m/64)
    uint64 words; bit i (word i // 64, bit i % 64) is set where entry i is
    +1, and the padding bits past m are zero.
    """

    words: np.ndarray
    codebook: Codebook
    tie_seed: int
    kind: str = "set"  # set | sequence | kv | chain
    depth: int = 1
    L: int = 1
    keys: frozenset | None = None
    vals: frozenset | None = None

    def __post_init__(self):
        _require_dense(self.codebook)
        m = self.m
        words = np.asarray(self.words)
        if words.dtype != np.uint64 or words.shape != (-(-m // 64),):
            raise ValueError(f"MAP-B bundle of m={m} needs {-(-m // 64)} uint64 words, "
                             f"got {words.dtype} of shape {words.shape}")
        if m % 64 and words[-1] >> np.uint64(m % 64):
            raise ValueError(f"MAP-B bundle sets padding bits past m={m}")
        words = words.copy()
        words.setflags(write=False)
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
    degraded: bool = False  # True when the bundle is not a one-shot depth-1 build


def _pack(bits: np.ndarray) -> np.ndarray:
    """Length-m bits as ceil(m/64) uint64 words, bit i of word i // 64 first, padding zero."""
    m = bits.shape[0]
    packed = np.zeros(8 * -(-m // 64), dtype=np.uint8)
    packed[: -(-m // 8)] = np.packbits(bits, bitorder="little")
    return packed.view("<u8").astype(np.uint64, copy=False)


def _tie_words(seed: int, tie_seed: int, step: int, m: int) -> np.ndarray:
    """The fair coins of one thresholding step: bit i set means a tie at i goes to +1."""
    return rng.Stream(seed, "mapb-tie", tie_seed, step).words(0, -(-m // 64))


def _threshold(sums: np.ndarray, cb_seed: int, tie_seed: int) -> np.ndarray:
    """Words of sign(sums), each zero sum replaced by its seeded coin."""
    words = _pack(sums > 0)
    ties = _pack(sums == 0)
    if ties.any():
        words |= ties & _tie_words(cb_seed, tie_seed, 0, sums.shape[0])
    return words


def _scores(x: np.ndarray, cols: np.ndarray, m: int) -> np.ndarray:
    """<x, c> = m - 2 * popcount(x ^ c) as int64, one per row of ``cols``."""
    return m - 2 * np.bitwise_count(x ^ cols).sum(axis=-1, dtype=np.int64)


def _default_tie_seed(v: SymbolSet) -> int:
    return rng.stream_id("tie-default", *sorted(v.entries))


def _require_dense(cb: Codebook) -> None:
    if cb.kind != "dense-sign":
        raise ValueError(f"MAP-B requires a dense-sign codebook, got {cb.kind!r}")


def bundle_sign(cb: Codebook, v: SymbolSet, tie_seed: int | None = None) -> MapBBundle:
    """sign(S v) for a 0/1 set; zero coordinates get a seeded fair coin."""
    _require_dense(cb)
    require_flat(v)
    if tie_seed is None:
        tie_seed = _default_tie_seed(v)
    return MapBBundle(_threshold(mapi.bundle(cb, v).ints, cb.seed, tie_seed), cb, tie_seed)


def bundle_sequence_sign(
    cb: Codebook, seq: SequenceSpec, tie_seed: int | None = None
) -> MapBBundle:
    """sign(S_{R,L} v): one-shot thresholding of a rotation-encoded sequence."""
    _require_dense(cb)
    if seq.d != cb.d:
        raise ValueError(f"sequence universe {seq.d} != codebook universe {cb.d}")
    for s in seq.sets:
        require_flat(s)
    if tie_seed is None:
        tie_seed = rng.stream_id(
            "tie-seq", *(sym for s in seq.sets for sym in sorted(s.entries))
        )
    words = _threshold(mapi.encode_sequence(cb, seq).ints, cb.seed, tie_seed)
    return MapBBundle(words, cb, tie_seed, kind="sequence", L=seq.L)


def bundle_kv_sign(cb: Codebook, spec: KeyValueSpec, tie_seed: int | None = None) -> MapBBundle:
    """sign(S^(2) v) over bound key-value pairs, each pair a 2-edge."""
    _require_dense(cb)
    if spec.d != cb.d:
        raise ValueError(f"pair universe {spec.d} != codebook universe {cb.d}")
    if tie_seed is None:
        tie_seed = rng.stream_id("tie-kv", *(i for pair in sorted(spec.pairs) for i in pair))
    edges = BindingBundleSpec(spec.d, frozenset(frozenset(pair) for pair in spec.pairs))
    words = _threshold(mapi.encode_binding_bundle(cb, edges).ints, cb.seed, tie_seed)
    return MapBBundle(words, cb, tie_seed, kind="kv", keys=spec.keys, vals=spec.values)


def iterated_bundle(cb: Codebook, ids, tie_seed: int = 0) -> MapBBundle:
    """Left-fold chained bundling of columns ``ids``: x <- sign(x + S_j), ties seeded per step.

    For +-1 inputs x + S_j is in {-2, 0, 2}, so each step is bitwise on the
    packed signs: x <- (x & v) | ((x ^ v) & t), with t the step's coins. The
    fold runs over the rows of one ``sign_words`` gather.
    """
    rows = cb.sign_words(ids)  # refuses a sparse codebook and out-of-range ids
    if rows.shape[0] == 0:
        raise ValueError("iterated_bundle needs at least one column")
    x = rows[0]
    for step, v in enumerate(rows[1:], start=1):
        x = (x & v) | ((x ^ v) & _tie_words(cb.seed, tie_seed, step, cb.m))
    return MapBBundle(x, cb, tie_seed, kind="chain", depth=rows.shape[0])


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
    degraded = b.depth > 1 or b.kind != "set"
    return TestResult(score >= tau, score, tau, degraded)


def empty_intersection_test(b1: MapBBundle, b2: MapBBundle, delta: float) -> TestResult:
    """contained=True means the sets intersect (score cleared the threshold)."""
    check_rates(delta=delta)
    if b1.m != b2.m:
        raise ValueError("bundles have different dimensions")
    if b1.codebook.key != b2.codebook.key:  # their scores would be noise
        raise ValueError("bundles come from different codebooks")
    score = int(_scores(b1.words, b2.words, b1.m))
    tau = empty_intersection_threshold(b1.m, delta)
    degraded = b1.depth > 1 or b2.depth > 1
    return TestResult(score >= tau, score, tau, degraded)


def sequence_membership_scores(b: MapBBundle, ell: int, syms) -> np.ndarray:
    """Scores <x, R^ell S_j> of symbols ``syms`` at position ell in [0, L), as int64.

    Since <x, R^ell c> = <R^-ell x, c>, the bundle's bits are rolled once,
    and every symbol is scored against them from one gather of column words.
    """
    if not 0 <= ell < b.L:
        raise IndexError(f"position {ell} out of range for L = {b.L}")
    bits = np.unpackbits(b.words.astype("<u8", copy=False).view(np.uint8),
                         count=b.m, bitorder="little")
    rolled = _pack(rotate(bits, -ell))
    return _scores(rolled, b.codebook.sign_words(syms), b.m)


def kv_membership_test(b: MapBBundle, pair: tuple[int, int], delta: float) -> TestResult:
    """Is the bound pair (key, value) in the bundle?"""
    check_rates(delta=delta)
    q, w = pair
    if b.vals is not None and q in b.vals:
        raise ValueError(f"query key {q} is a value id in this bundle")
    if b.keys is not None and w in b.keys:
        raise ValueError(f"query value {w} is a key id in this bundle")
    score = int(_scores(b.words, mapi.bound_words(b.codebook, [(q, w)]), b.m)[0])
    tau = kv_member_threshold(b.m, b.codebook.d, delta)
    return TestResult(score >= tau, score, tau, b.kind != "kv")


# -- exact enumeration oracles ----------------------------------------------


def agreement_probability(n: int) -> Fraction:
    """Exact Pr[x_i S_ij = +1] for a depth-1 bundle of n atomic vectors.

    Enumerates all 2^(n-1) sign patterns of the co-bundled vectors at one
    coordinate (grouped by popcount) with half-weight tie branches.
    """
    if n < 1:
        raise ValueError("bundle size must be >= 1")
    if 2 ** (n - 1) > ENUMERATION_STATE_LIMIT:
        raise ValueError(f"enumeration over 2^{n - 1} states exceeds the "
                         f"{ENUMERATION_STATE_LIMIT} state limit")
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


def sizing_mapb(
    task: str,
    *,
    n: float | None = None,
    d: float | None = None,
    L: float | None = None,
    nx: float | None = None,
    ny: float | None = None,
    delta: float | None = None,
    C: float | None = None,
) -> SizingResult:
    """Concrete dimension for each MAP-B decision bound.

    member             m = C n ln(d/delta)
    sequence-member    m = C n L ln(L d/delta)
    kv-member          m = C n ln(d/delta)
    empty-intersection m = C ln(1/delta) nx ny
    """
    formula = f"mapb.{task}"
    consts = constants_for(formula, {"C": C})
    check_rates(delta=delta)
    params = {"n": n, "d": d, "L": L, "nx": nx, "ny": ny, "delta": delta}
    c = consts["C"]
    if task == "member" or task == "kv-member":
        (n, d, delta) = require(params, "n", "d", "delta")
        raw = c * n * math.log(d / delta)
    elif task == "sequence-member":
        (n, d, L, delta) = require(params, "n", "d", "L", "delta")
        if L < 1:
            raise ValueError("sequence-member sizing needs L >= 1")
        raw = c * n * L * math.log(L * d / delta)
    else:
        (nx, ny, delta) = require(params, "nx", "ny", "delta")
        raw = c * math.log(1.0 / delta) * nx * ny
    inputs = {name: value for name, value in params.items() if value is not None}
    return SizingResult(m=max(1, math.ceil(raw)), formula=formula, constants=consts, inputs=inputs)
