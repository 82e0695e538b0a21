"""Classical Hopfield associative memory and the Hopfield± bundling variant.

A net is its stored sign patterns S (m x n). W = S S^T - n I (zero diagonal,
symmetric) is never stored: recall applies S (S^T x) - n x in synchronous
updates x <- signge(W x), where signge maps 0 to +1 (deterministic, unlike
MAP-B's randomized tie rule). Thinning masks the probe to the kept
coordinates, so recall reads only the columns W[:, keep].

Hopfield± encodes a diagonal weight vector V as the m x m matrix
S_bar V D S_bar^T with a seeded sign diagonal D; its squared Frobenius norm
estimates ||V||_F^2 and the trace product of two encodings (sharing S and D)
estimates the Frobenius product of the underlying diagonals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import rng
from .codebook import Codebook
from .hypervector import Hypervector
from .sizing import SizingResult, check_rates, constants_for


@dataclass(frozen=True)
class HopfieldNet:
    """n stored +-1 patterns (the columns of S) and a 0/1 probe mask over m.

    ``apply(y)`` is W[:, keep] y[keep], keep being the mask's support (all of
    it for a trained net, a subset after :func:`thin`)."""

    patterns: np.ndarray  # (m, n) int8
    mask: np.ndarray  # (m,) int8

    def __post_init__(self):
        s = np.asarray(self.patterns)
        if s.ndim != 2 or s.size == 0 or ((s != 1) & (s != -1)).any():
            raise ValueError("patterns must be a nonempty m x n matrix of +-1 entries")
        mask = np.asarray(self.mask, dtype=np.int8).copy()
        if mask.shape != s.shape[:1] or ((mask != 0) & (mask != 1)).any():
            raise ValueError("mask must be a 0/1 vector of length m")
        for name, value in (("patterns", s.astype(np.int8)), ("mask", mask)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

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
        z = np.asarray(y, dtype=np.int64) * self.mask
        return self.patterns @ (self.patterns.T @ z) - self.n * z


@dataclass(frozen=True)
class RecallResult:
    vector: Hypervector
    converged: bool
    iters: int


def train(patterns: list[Hypervector]) -> HopfieldNet:
    """Stack the patterns as the columns of S; W = S S^T - n I stays implicit."""
    if not patterns:
        raise ValueError("train requires at least one pattern")
    m = patterns[0].m
    for p in patterns:
        if p.domain != "sign":
            raise ValueError("patterns must be sign hypervectors")
        if p.m != m:
            raise ValueError("patterns must have equal length")
    return HopfieldNet(np.stack([p.values for p in patterns], axis=1), np.ones(m, np.int8))


def signge(z: np.ndarray) -> np.ndarray:
    """+1 where z >= 0, else -1."""
    return np.where(z >= 0, 1, -1).astype(np.int8)


def _probe_values(y) -> np.ndarray:
    values = y.values if isinstance(y, Hypervector) else np.asarray(y)
    if ((values != 0) & (values != 1) & (values != -1)).any():
        raise ValueError("probe entries must be in {0, -1, +1}")
    return values.astype(np.int64)


def recall_step(net, y) -> Hypervector:
    """One synchronous update signge(W y)."""
    return Hypervector(signge(net.apply(_probe_values(y))), "sign")


def recall(net, y, max_iters: int = 64) -> RecallResult:
    """Iterate recall_step until a fixed point or max_iters updates."""
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    current = _probe_values(y)
    for it in range(1, max_iters + 1):
        nxt = signge(net.apply(current)).astype(np.int64)
        if np.array_equal(nxt, current):
            return RecallResult(Hypervector(nxt.astype(np.int8), "sign"), True, it)
        current = nxt
    return RecallResult(Hypervector(current.astype(np.int8), "sign"), False, max_iters)


def corrupt(x: Hypervector, erasures: int, flips: int, seed: int) -> Hypervector:
    """Zero ``erasures`` and negate ``flips`` coordinates at seeded positions.

    Positions are distinct and chosen independently of the codebook, as the
    recall guarantee requires.
    """
    if x.domain != "sign":
        raise ValueError("corrupt expects a sign hypervector")
    if erasures < 0 or flips < 0 or erasures + flips > x.m:
        raise ValueError("corruption counts must be nonnegative and sum to <= m")
    out = x.values.astype(np.int8).copy()
    total = erasures + flips
    if total:
        words = rng.Stream(seed, "hopfield-corrupt").words(0, total)
        pos = rng.choose_distinct(words, x.m, total)
        out[pos[:erasures]] = 0
        out[pos[erasures:]] *= -1
    return Hypervector(out, "integer")


def thin(net: HopfieldNet, keep) -> HopfieldNet:
    """Restrict recall to the kept coordinates (of those still kept): W[:, keep] y[keep]."""
    keep = np.asarray(list(keep), dtype=np.int64)
    if keep.size == 0:
        raise ValueError("keep must be nonempty")
    if keep.min() < 0 or keep.max() >= net.m:
        raise IndexError("keep indices out of range")
    mask = np.zeros(net.m, dtype=np.int8)
    mask[keep] = net.mask[keep]
    return HopfieldNet(net.patterns, mask)


def probe_threshold(n: int, m: int, delta: float) -> float:
    """Required y^T S_j / ||y|| for reliable one-step recovery."""
    check_rates(delta=delta)
    return 2.0 * math.sqrt(n * math.log(2.0 * m / delta))


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
    """S_bar V D S_bar^T for diagonal weights V and a seeded sign diagonal D."""

    matrix: np.ndarray
    codebook: Codebook
    d_seed: int

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=np.float64).copy()
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
            if not 0 <= int(sym) < d:
                raise ValueError(f"diagonal index {sym} outside universe [0, {d})")
            out[int(sym)] = w
        return out
    out = np.asarray(V, dtype=np.float64)
    if out.shape != (d,):
        raise ValueError(f"diagonal weights must have length d={d}")
    return out


def hpm_encode(cb: Codebook, V, d_seed: int) -> HpmBundle:
    """Build S_bar V D S_bar^T; bundles sharing (codebook, d_seed) compose."""
    if cb.kind != "dense-sign" or not cb.scaled:
        raise ValueError("Hopfield± requires a scaled dense-sign codebook")
    v = _diag_vector(V, cb.d)
    support = np.flatnonzero(v)
    if support.size == 0:
        return HpmBundle(np.zeros((cb.m, cb.m)), cb, d_seed)
    signs = diag_signs(d_seed, cb.d)
    cols = cb.sign_columns(support).astype(np.float64)
    weighted = cols * (v[support] * signs[support]) / cb.m
    return HpmBundle(weighted @ cols.T, cb, d_seed)


def _require_hpm_pair(b1: HpmBundle, b2: HpmBundle) -> None:
    if b1.codebook.key != b2.codebook.key:
        raise ValueError("bundles come from different codebooks")
    if b1.d_seed != b2.d_seed:
        raise ValueError("bundles use different sign diagonals (d_seed mismatch)")


def hpm_norm_estimate(b: HpmBundle) -> float:
    """||S_bar V D S_bar^T||_F^2, estimating ||V||_F^2."""
    return float((b.matrix * b.matrix).sum())


def hpm_dot_estimate(b1: HpmBundle, b2: HpmBundle) -> float:
    """tr(M1 M2), estimating the Frobenius product tr(X Y)."""
    _require_hpm_pair(b1, b2)
    return float((b1.matrix * b2.matrix).sum())  # tr(M1 M2) for symmetric M2


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
