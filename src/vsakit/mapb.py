"""MAP-B: sign-thresholded bundling and its threshold decision tests.

Bundles are sign(S v) of the MAP-I sums (:mod:`vsakit.mapi`) with zero
sums resolved by a seeded fair coin, so all composite vectors stay in
{-1,+1}^m. The paper-backed guarantees are decision tests (membership,
sequence membership, key-value membership, empty-intersection), not size
estimation; each test compares a dot product against a closed-form
threshold. ``membership_scores`` scores many symbols against one set bundle
at once (one column gather and one contraction per block of about 1 MB of
columns); ``membership_test`` is its one-id case.

``agreement_probability`` is the exact enumeration oracle for the
per-coordinate agreement Pr[x_i S_ij = +1] of a depth-1 bundle; chained
(deeper) bundling decays toward 1/2 as described by
``chain_agreement_probability``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import mapi, rng
from .codebook import Codebook
from .hypervector import Hypervector, Rotation, rotate
from .setalg import BindingBundleSpec, SequenceSpec, SymbolSet, require_flat
from .sizing import SizingResult, check_rates, constants_for, require

#: Exhaustive enumeration refuses instances beyond this many states.
ENUMERATION_STATE_LIMIT = 2**24

#: membership_scores gathers at most about this many bytes of columns at once.
_SCORE_BLOCK_BYTES = 1 << 20


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


@dataclass(frozen=True)
class MapBBundle:
    """A +-1 bundle plus how it was built (needed to pick the right test)."""

    signs: np.ndarray
    codebook: Codebook | None
    tie_seed: int
    kind: str = "set"  # set | sequence | kv | chain
    depth: int = 1
    L: int = 1
    keys: frozenset | None = None
    vals: frozenset | None = None

    def __post_init__(self):
        signs = np.asarray(self.signs, dtype=np.int8).copy()
        if ((signs != 1) & (signs != -1)).any():
            raise ValueError("MAP-B bundle entries must be +-1")
        signs.setflags(write=False)
        object.__setattr__(self, "signs", signs)

    @property
    def m(self) -> int:
        return self.signs.shape[0]


@dataclass(frozen=True)
class TestResult:
    contained: bool
    score: int
    threshold: float
    degraded: bool = False  # True when the bundle is not a one-shot depth-1 build


def _tie_signs(seed: int, tie_seed: int, step: int, m: int) -> np.ndarray:
    words = rng.Stream(seed, "mapb-tie", tie_seed, step).words(0, -(-m // 64))
    return rng.signs_from_words(words, m)[:, 0]


def _sign_with_ties(sums: np.ndarray, cb_seed: int, tie_seed: int, step: int = 0) -> np.ndarray:
    out = np.sign(sums).astype(np.int8)
    ties = out == 0
    if ties.any():
        out[ties] = _tie_signs(cb_seed, tie_seed, step, sums.shape[0])[ties]
    return out


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
    sums = mapi.bundle(cb, v).ints
    return MapBBundle(_sign_with_ties(sums, cb.seed, tie_seed, 0), cb, tie_seed)


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
    sums = mapi.encode_sequence(cb, seq).ints
    return MapBBundle(
        _sign_with_ties(sums, cb.seed, tie_seed, 0), cb, tie_seed, kind="sequence", L=seq.L
    )


def bundle_kv_sign(cb: Codebook, spec: KeyValueSpec, tie_seed: int | None = None) -> MapBBundle:
    """sign(S^(2) v) over bound key-value pairs, each pair a 2-edge."""
    _require_dense(cb)
    if spec.d != cb.d:
        raise ValueError(f"pair universe {spec.d} != codebook universe {cb.d}")
    if tie_seed is None:
        tie_seed = rng.stream_id("tie-kv", *(i for pair in sorted(spec.pairs) for i in pair))
    edges = BindingBundleSpec(spec.d, frozenset(frozenset(pair) for pair in spec.pairs))
    sums = mapi.encode_binding_bundle(cb, edges).ints
    return MapBBundle(
        _sign_with_ties(sums, cb.seed, tie_seed, 0),
        cb,
        tie_seed,
        kind="kv",
        keys=spec.keys,
        vals=spec.values,
    )


def iterated_bundle(
    vectors: list[Hypervector],
    tie_seed: int = 0,
    codebook: Codebook | None = None,
) -> MapBBundle:
    """Left-fold chained bundling: x <- sign(x + x_j), ties seeded per step."""
    if not vectors:
        raise ValueError("iterated_bundle needs at least one vector")
    m = vectors[0].m
    for v in vectors:
        if v.domain != "sign":
            raise ValueError("iterated_bundle requires sign-domain vectors")
        if v.m != m:
            raise ValueError("iterated_bundle requires equal lengths")
    seed = codebook.seed if codebook is not None else 0
    x = vectors[0].values.astype(np.int8)
    for step, v in enumerate(vectors[1:], start=1):
        x = _sign_with_ties(x.astype(np.int64) + v.values, seed, tie_seed, step)
    return MapBBundle(
        x, codebook, tie_seed, kind="chain", depth=len(vectors)
    )


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
    """Scores <x, S_j> of many symbols as int64: gathered and contracted blockwise.

    Each block of about ``_SCORE_BLOCK_BYTES`` of int8 columns is one column
    gather and one contraction, so memory stays bounded for any number of
    ids (at m=1367 all 256 symbols of d=256 fit in one block).
    """
    if b.codebook is None:
        raise ValueError("bundle has no codebook to test against")
    ids = np.asarray(ids, dtype=np.int64)
    step = max(1, _SCORE_BLOCK_BYTES // b.m)
    scores = np.empty(ids.size, dtype=np.int64)
    for i in range(0, ids.size, step):
        cols = b.codebook.sign_columns(ids[i:i + step])
        scores[i:i + step] = np.einsum("i,ij->j", b.signs, cols, dtype=np.int64)
    return scores


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
    score = int(b1.signs.astype(np.int64) @ b2.signs.astype(np.int64))
    tau = empty_intersection_threshold(b1.m, delta)
    degraded = b1.depth > 1 or b2.depth > 1
    return TestResult(score >= tau, score, tau, degraded)


def sequence_membership_test(b: MapBBundle, j: int, delta: float) -> TestResult:
    """Is position-qualified symbol j (= ell*d + sym) in the sequence bundle?

    The matching column is the atomic column of ``j mod d`` rotated to the
    queried block.
    """
    check_rates(delta=delta)
    if b.codebook is None:
        raise ValueError("bundle has no codebook to test against")
    d = b.codebook.d
    if not 0 <= j < b.L * d:
        raise IndexError(f"position-qualified index {j} out of range for L*d = {b.L * d}")
    ell, jm = divmod(j, d)
    col = rotate(Hypervector(b.codebook.column_ints(jm), "sign"), Rotation(ell)).values
    score = int(b.signs.astype(np.int64) @ col)
    tau = sequence_member_threshold(b.m, b.L, d, delta)
    return TestResult(score >= tau, score, tau, b.kind != "sequence")


def kv_membership_test(b: MapBBundle, pair: tuple[int, int], delta: float) -> TestResult:
    """Is the bound pair (key, value) in the bundle?"""
    check_rates(delta=delta)
    if b.codebook is None:
        raise ValueError("bundle has no codebook to test against")
    q, w = pair
    if b.vals is not None and q in b.vals:
        raise ValueError(f"query key {q} is a value id in this bundle")
    if b.keys is not None and w in b.keys:
        raise ValueError(f"query value {w} is a key id in this bundle")
    cols = b.codebook.sign_columns([q, w]).astype(np.int64)
    score = int(b.signs.astype(np.int64) @ cols.prod(axis=1))
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
