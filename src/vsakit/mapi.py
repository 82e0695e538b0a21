"""MAP-I: linear bundling with sign matrices and JL-based estimators.

A bundle is S v (integer accumulator), scaled to (1/sqrt(m)) S v at the
estimator boundary. It is built from the columns' packed signs
(``Codebook.sign_words``): with b the unpacked 0/1 bits (1 where the entry
is +1) and pos = weights @ b (a plain sum of the bits for a 0/1 set),
S v = pos - (||v||_1 - pos). Every partial sum is at most ||v||_1, which
must be below 2**63, so this is exact in int64; sums of bundles (``add``,
``encode_sequence``) refuse inputs whose sum could reach 2**63. The same
kernel takes a stack of sets at once: ``flat_norm_sq_estimates`` gives the
norm estimates of many 0/1 sets, each on its own codebook, from one kernel
call per stack. Binding is the binary spatter code rule: ``bound_words``
gives an edge's bound column (the product of its +-1 columns) as the XOR
of their packed signs, and a binding bundle is the kernel's sum of them.
Norms and dot products of the scaled bundles concentrate around the exact
set statistics; at the sized dimension the rounded dot product recovers
intersection sizes exactly with high probability. Integer dot products are
exact: they stay in int64 only when a bound proves they cannot wrap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterable

import numpy as np

from .codebook import Codebook
from .hypervector import rotate
from .setalg import BindingBundleSpec, SequenceSpec, SymbolSet
from .sizing import SizingResult, check_rates, constants_for, require


@dataclass(frozen=True, eq=False)
class MapIBundle:
    """Sign-matrix bundle; ``ints`` is the exact unscaled accumulator S v."""

    ints: np.ndarray
    codebook: Codebook

    def __post_init__(self):
        ints = np.asarray(self.ints, dtype=np.int64).copy()
        if ints.shape != (self.codebook.m,):
            raise ValueError(f"MAP-I bundle of shape {ints.shape} does not hold "
                             f"m={self.codebook.m} sums")
        ints.setflags(write=False)
        object.__setattr__(self, "ints", ints)

    @property
    def m(self) -> int:
        return self.ints.shape[0]

    @property
    def scaled(self) -> bool:
        """Whether estimators read the bundle as (1/sqrt(m)) S v: its codebook's view."""
        return self.codebook.scaled


def _require_dense(cb: Codebook) -> None:
    if cb.kind != "dense-sign":
        raise ValueError(f"MAP-I requires a dense-sign codebook, got {cb.kind!r}")


def _require_same(b1: MapIBundle, b2: MapIBundle) -> None:
    if b1.codebook.key != b2.codebook.key:
        raise ValueError("bundles come from different codebooks")


#: Most bytes of unpacked sign bits (trials x symbols x m) that one call of
#: the stacked kernel holds in ``flat_norm_sq_estimates``.
_STACK_BYTES = 2**18


def _signed_sums(words: np.ndarray, m: int, l1: int, weights: np.ndarray | None = None):
    """S v from packed sign columns: words (..., n, ceil(m/64)) -> int64 (..., m).

    Bit i of a column's packed signs is set where entry i is +1, so
    (S v)_i = pos_i - (||v||_1 - pos_i) with pos_i the weight on +1 entries.
    With no ``weights`` the n columns each weigh 1 (``l1`` is n) and pos is a
    plain sum of bits; otherwise ``weights`` (n,) int64 sum to ``l1``.
    """
    bits = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8),
                         axis=-1, count=m, bitorder="little")
    pos = bits.sum(axis=-2, dtype=np.int64) if weights is None else weights @ bits
    return pos - (l1 - pos)


def bundle(cb: Codebook, v: SymbolSet) -> MapIBundle:
    """S v: weighted sum of atomic columns. Linear in v."""
    _require_dense(cb)
    if v.d != cb.d:
        raise ValueError(f"set universe {v.d} != codebook universe {cb.d}")
    l1 = v.l1()
    if l1 >= 2**63:  # every sum and partial sum below is at most ||v||_1
        raise ValueError(f"MAP-I needs ||v||_1 below 2**63, got {l1}")
    ids = np.fromiter(v.entries.keys(), dtype=np.int64, count=len(v.entries))
    weights = None  # weights are >= 1, so ||v||_1 = |support| only for a 0/1 set
    if l1 != ids.size:
        weights = np.fromiter(v.entries.values(), dtype=np.int64, count=ids.size)
    return MapIBundle(_signed_sums(cb.sign_words(ids), cb.m, l1, weights), cb)


def flat_norm_sq_estimates(m: int, words: Iterable[np.ndarray]) -> list[float]:
    """``norm_sq_estimate(bundle(cb_t, v_t))`` of each 0/1 set v_t, from its columns.

    Item t of ``words`` is ``cb_t.sign_words(ids_t)`` for a scaled dense-sign
    codebook ``cb_t`` with this ``m``, and every item holds the same number
    of ids. Items are taken lazily, as many at a time as keep the unpacked
    bits within ``_STACK_BYTES``, and each such stack goes through one call
    of the kernel ``bundle`` uses. The results equal the one-set path bit
    for bit: the norms keep ``_dot``'s int64 guard, and each is an exact
    Python int divided by m.
    """
    words = iter(words)
    first = next(words, None)
    if first is None:
        return []
    n = first.shape[0]
    per_stack = max(1, _STACK_BYTES // max(1, n * m))
    out: list[float] = []
    stack = [first, *islice(words, per_stack - 1)]
    while stack:
        out += [sq / m for sq in _norms_sq(_signed_sums(np.stack(stack), m, n))]
        stack = list(islice(words, per_stack))
    return out


def add(b1: MapIBundle, b2: MapIBundle) -> MapIBundle:
    _require_same(b1, b2)
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
    _require_same(b1, b2)
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
    """sum_l R^l S v_(l): rotation-encoded sequence of sets."""
    _require_dense(cb)
    if seq.d != cb.d:
        raise ValueError(f"sequence universe {seq.d} != codebook universe {cb.d}")
    total = seq.total_l1()
    if total >= 2**63:  # every partial sum of the R^l S v_l is at most the total
        raise ValueError(f"MAP-I needs the sequence's total ||v_l||_1 below 2**63, got {total}")
    ints = np.zeros(cb.m, dtype=np.int64)
    for ell, s in enumerate(seq.sets):
        ints += rotate(bundle(cb, s).ints, ell)
    return MapIBundle(ints, cb)


def bound_words(cb: Codebook, edges) -> np.ndarray:
    """Bound columns of E edges of one arity k, in ``sign_words``'s (E, ceil(m/64)) layout.

    A product of k +-1 entries is +1 where an even number of them is -1: its
    bits are the XOR of the columns' bits, inverted for even k. All columns
    come from one ``sign_words`` gather.
    """
    ids = np.asarray(edges, dtype=np.int64)
    bound = np.bitwise_xor.reduce(cb.sign_words(ids.ravel()).reshape(*ids.shape, -1), axis=1)
    if ids.shape[1] % 2 == 0:  # invert, keeping the bits past m clear
        bound = ~bound
        if cb.m % 64:
            bound[:, -1] &= np.uint64((1 << cb.m % 64) - 1)
    return bound


def encode_binding_bundle(cb: Codebook, spec: BindingBundleSpec) -> MapIBundle:
    """sum over edges of the Hadamard product of the edge's atomic columns."""
    _require_dense(cb)
    if spec.d != cb.d:
        raise ValueError(f"edge universe {spec.d} != codebook universe {cb.d}")
    edges = bound_words(cb, [tuple(edge) for edge in spec.edges])
    return MapIBundle(_signed_sums(edges, cb.m, spec.size), cb)


def sizing_mapi(
    task: str,
    *,
    eps: float | None = None,
    delta: float | None = None,
    N: float | None = None,
    M: float | None = None,
    L: float | None = None,
    K: float | None = None,
    k: int | None = None,
    v_l1: float | None = None,
    C: float | None = None,
    base: float | None = None,
) -> SizingResult:
    """Concrete dimension for each MAP-I capacity bound.

    norm               m = C eps^-2 ln(2/delta)
    pairs              m = C N ln(M/delta)
    sequence           m = C (L/eps)^2 ln(L/delta)
    sequence-symbols   m = C K^2 eps^-2 ln(K/(eps delta))
    binding2           m = C eps^-2 ln(v_l1/(eps delta))^3
    bindingK           m = C eps^-2 base^(k ln k) ln(k v_l1/(eps delta))^(k+1)
    """
    formula = f"mapi.{task}"
    consts = constants_for(formula, {"C": C} if task != "bindingK" else {"C": C, "base": base})
    params = {"eps": eps, "delta": delta, "N": N, "M": M, "L": L, "K": K, "k": k, "v_l1": v_l1}
    check_rates(eps if task != "pairs" else None, delta)
    c = consts["C"]
    if task == "norm":
        (eps, delta) = require(params, "eps", "delta")
        raw = c * eps**-2 * math.log(2.0 / delta)
    elif task == "pairs":
        (N, M, delta) = require(params, "N", "M", "delta")
        if N <= 0 or M <= 0:
            raise ValueError("pairs sizing needs positive N and M")
        raw = c * N * math.log(M / delta)
    elif task == "sequence":
        (eps, delta, L) = require(params, "eps", "delta", "L")
        if L < 1:
            raise ValueError("sequence sizing needs L >= 1")
        raw = c * (L / eps) ** 2 * math.log(L / delta)
    elif task == "sequence-symbols":
        (eps, delta, K) = require(params, "eps", "delta", "K")
        if K < 1:
            raise ValueError("sequence-symbols sizing needs K >= 1")
        raw = c * K**2 * eps**-2 * math.log(K / (eps * delta))
    elif task == "binding2":
        (eps, delta, v_l1) = require(params, "eps", "delta", "v_l1")
        raw = c * eps**-2 * math.log(v_l1 / (eps * delta)) ** 3
    else:  # bindingK
        (eps, delta, v_l1, k) = require(params, "eps", "delta", "v_l1", "k")
        if k < 2:
            raise ValueError("bindingK sizing needs arity k >= 2")
        raw = (
            c
            * eps**-2
            * consts["base"] ** (k * math.log(k))
            * math.log(k * v_l1 / (eps * delta)) ** (k + 1)
        )
    inputs = {name: value for name, value in params.items() if value is not None}
    return SizingResult(m=max(1, math.ceil(raw)), formula=formula, constants=consts, inputs=inputs)
