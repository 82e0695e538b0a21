"""Dimension sizing: one table of capacity bounds, one path to a result, and calibration.

Every asymptotic bound becomes a closed-form formula with named leading
constants. The table ``_BOUNDS`` holds the 15 bounds, keyed by
"<arch>.<task>" as the ``harness.TASKS`` entries they size are: each has its
default constants, its formula and the inputs its result echoes.
:data:`CONSTANTS` lists the defaults, so calibration reports can cite the
exact values used, and :func:`size` accepts an override of any of them per
call.
"""

from __future__ import annotations

import inspect
import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .setalg import integral


@dataclass(frozen=True)
class SizingResult:
    """Computed dimension (and sparsity) with the formula and inputs echoed."""

    m: int
    formula: str
    k: int | None = None
    constants: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("sized dimension m must be >= 1")

    def to_json(self) -> str:
        obj = {
            "m": self.m,
            "k": self.k,
            "formula": self.formula,
            "constants": self.constants,
            "inputs": self.inputs,
        }
        if self.extras:
            obj["extras"] = self.extras
        return json.dumps(obj, sort_keys=True)


def check_rates(eps: float | None = None, delta: float | None = None) -> None:
    """Common validation: 0 < eps < inf and 0 < delta < 1.

    An infinite eps would pass every trial and size every formula to m = 1.
    """
    if eps is not None and not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if delta is not None and not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")


# -- the formulas --------------------------------------------------------------
#
# A formula takes each input and each constant as a keyword argument and
# returns the real-valued m, or (m, k, extras) when it also sizes k or
# reports extras; size() checks the rates and rounds m up.


def _mapi_norm(*, eps, delta, C):
    """m = C eps^-2 ln(2/delta)"""
    return C * eps**-2 * math.log(2.0 / delta)


def _mapi_pairs(*, N, M, delta, C):
    """m = C N ln(M/delta)"""
    if N <= 0 or M <= 0:
        raise ValueError("pairs sizing needs positive N and M")
    return C * N * math.log(M / delta)


def _mapi_sequence(*, eps, delta, L, C):
    """m = C (L/eps)^2 ln(L/delta)"""
    if L < 1:
        raise ValueError("sequence sizing needs L >= 1")
    return C * (L / eps) ** 2 * math.log(L / delta)


def _mapi_sequence_symbols(*, eps, delta, K, C):
    """m = C K^2 eps^-2 ln(K/(eps delta))"""
    if K < 1:
        raise ValueError("sequence-symbols sizing needs K >= 1")
    return C * K**2 * eps**-2 * math.log(K / (eps * delta))


def _mapi_binding2(*, eps, delta, v_l1, C):
    """m = C eps^-2 ln(v_l1/(eps delta))^3"""
    return C * eps**-2 * math.log(v_l1 / (eps * delta)) ** 3


def _mapi_binding_k(*, eps, delta, v_l1, k, C, base):
    """m = C eps^-2 base^(k ln k) ln(k v_l1/(eps delta))^(k+1)"""
    if k < 2:
        raise ValueError("bindingK sizing needs arity k >= 2")
    return (C * eps**-2 * base ** (k * math.log(k))
            * math.log(k * v_l1 / (eps * delta)) ** (k + 1))


def _mapb_member(*, n, d, delta, C):
    """m = C n ln(d/delta), for member and kv-member (n key-value pairs)"""
    return C * n * math.log(d / delta)


def _mapb_sequence_member(*, n, d, L, delta, C):
    """m = C n L ln(L d/delta)"""
    if L < 1:
        raise ValueError("sequence-member sizing needs L >= 1")
    return C * n * L * math.log(L * d / delta)


def _mapb_empty_intersection(*, nx, ny, delta, C):
    """m = C ln(1/delta) nx ny"""
    return C * math.log(1.0 / delta) * nx * ny


def _bloom_intersection(*, eps, delta, n, n_v, n_w, c1):
    """(m, k) sufficient for h_{m,k}(x.y) = n +- eps with failure prob delta.

    k = 2 c1 ln(2/delta) / eps, with the proof constant c1 = 32 + 2/3, and
    m = (k/eps)(n_v n_w / 2 + 8 c1 n^2 + eps (n + n_w)), at least 2, after
    swapping so that n_w >= n_v.
    """
    if min(n, n_v, n_w) < 0:
        raise ValueError("counts n, n_v, n_w must be nonnegative")
    if n_w < n_v:
        n_v, n_w = n_w, n_v
    k = max(1, math.ceil(2.0 * c1 * math.log(2.0 / delta) / eps))
    m = max(2, math.ceil((k / eps) * (n_v * n_w / 2.0 + 8.0 * c1 * n**2 + eps * (n + n_w))))
    return m, k, {}


def _cbloom_intersection(*, eps, delta, K_b, n_v, n_w, kc, mc):
    """(m, k) sufficient for the one-sided wedgedot bound.

    k = kc K_b ln(1/delta) / eps and m = mc k n_v n_w / eps, at least 2, with
    kc = 2/3 and mc = 12 pi^2 straight from the theorem. K_b bounds
    ||v - w||_inf; callers without it may pass max(||v||_inf, ||w||_inf).
    """
    if K_b <= 0:
        raise ValueError("K_b must be positive")
    if min(n_v, n_w) < 0:
        raise ValueError("n_v and n_w must be nonnegative")
    k = max(1, math.ceil(kc * K_b * math.log(1.0 / delta) / eps))
    return max(2, math.ceil(mc * k * n_v * n_w / eps)), k, {}


def _hopfield_store(*, n, delta, C):
    """Smallest integer m with m >= C n ln(2m/delta), by fixed-point iteration.

    Starts from m0 = C n ln(2n/delta) and iterates m <- C n ln(2m/delta);
    the returned integer is checked against the inequality itself.
    """
    if n < 1:
        raise ValueError("pattern count n must be >= 1")
    m = C * n * math.log(2.0 * n / delta)
    if math.isinf(m):
        return m
    iters = 0
    for iters in range(1, 101):
        nxt = C * n * math.log(2.0 * m / delta)
        if abs(nxt - m) <= 1e-9 * max(1.0, m):
            m = nxt
            break
        m = nxt
    else:
        raise RuntimeError("fixed-point iteration did not converge in 100 steps")
    m_int = max(1, math.ceil(m))
    while m_int < C * n * math.log(2.0 * m_int / delta):
        m_int += 1
    return m_int, None, {"iterations": iters}


def _hpm_norm(*, eps, delta, d, C):
    """m = C eps^-1 ln(d/delta)^2, for Hopfield± norm preservation"""
    if d < 1:
        raise ValueError("universe size d must be >= 1")
    return C * eps**-1 * math.log(d / delta) ** 2


def _hpm_dot(*, eps, delta, d, C):
    """m = C eps^-2 ln(d/delta)^2, for Hopfield± Frobenius-product estimation"""
    if d < 1:
        raise ValueError("universe size d must be >= 1")
    return C * eps**-2 * math.log(d / delta) ** 2


# -- the table -------------------------------------------------------------------


class _Bound(NamedTuple):
    constants: dict[str, float]
    formula: Callable
    inputs: tuple[str, ...]  # the formula's keyword arguments other than its constants
    echo: tuple[str, ...]  # the inputs a result echoes, each where it is given


def _bound(constants: dict[str, float], formula: Callable, echo: tuple[str, ...] = ()) -> _Bound:
    """A table entry; ``echo`` defaults to the formula's inputs."""
    inputs = tuple(name for name in inspect.signature(formula).parameters if name not in constants)
    return _Bound(constants, formula, inputs, echo or inputs)


#: A MAP-I or MAP-B result echoes every input of its arch that is given.
_MAPI = ("eps", "delta", "N", "M", "L", "K", "k", "v_l1")
_MAPB = ("n", "d", "L", "nx", "ny", "delta")

#: The 15 bounds, keyed by "<arch>.<task>". The theory gives O(.) for most
#: rows; C=8 is the standard sign-matrix JL constant, C=16 the
#: Hoeffding-flavored membership constant, and the Bloom / Counting Bloom
#: constants are the exact values carried by the proofs.
_BOUNDS: dict[str, _Bound] = {
    "mapi.norm": _bound({"C": 8.0}, _mapi_norm, _MAPI),
    "mapi.pairs": _bound({"C": 8.0}, _mapi_pairs, _MAPI),
    "mapi.sequence": _bound({"C": 8.0}, _mapi_sequence, _MAPI),
    "mapi.sequence-symbols": _bound({"C": 8.0}, _mapi_sequence_symbols, _MAPI),
    "mapi.binding2": _bound({"C": 8.0}, _mapi_binding2, _MAPI),
    "mapi.bindingK": _bound({"C": 8.0, "base": 2.0}, _mapi_binding_k, _MAPI),
    "mapb.member": _bound({"C": 16.0}, _mapb_member, _MAPB),
    "mapb.sequence-member": _bound({"C": 16.0}, _mapb_sequence_member, _MAPB),
    "mapb.kv-member": _bound({"C": 16.0}, _mapb_member, _MAPB),
    "mapb.empty-intersection": _bound({"C": 24.0}, _mapb_empty_intersection, _MAPB),
    "bloom.intersection": _bound({"c1": 98.0 / 3.0}, _bloom_intersection),
    "cbloom.intersection": _bound({"kc": 2.0 / 3.0, "mc": 12.0 * math.pi**2}, _cbloom_intersection),
    "hopfield.store": _bound({"C": 4.0}, _hopfield_store),
    "hopfield.hpm-norm": _bound({"C": 8.0}, _hpm_norm),
    "hopfield.hpm-dot": _bound({"C": 8.0}, _hpm_dot),
}

#: Default leading constants, keyed by "<arch>.<task>".
CONSTANTS: dict[str, dict[str, float]] = {name: bound.constants for name, bound in _BOUNDS.items()}


def size(arch: str, task: str, /, **params) -> SizingResult:
    """The :class:`SizingResult` of the bound "<arch>.<task>" at ``params``.

    ``params`` holds the bound's inputs and, optionally, overrides of its
    constants. Parameters the bound does not use are ignored, so a combined
    sizing-plus-instance dict (as calibrate and the CLI hold) can be passed
    straight through. A missing input; an input or override that is not a
    finite number, such as a bool, a string or a list; a rate outside its
    range; or a dimension too large for a float raises ``ValueError``. A
    numpy number reads as its Python value.
    """
    if "arch" in params or "task" in params:
        raise ValueError("sizing parameters cannot be named 'arch' or 'task'")
    formula = f"{arch}.{task}"
    bound = _BOUNDS.get(formula)
    if bound is None:
        raise ValueError(f"unknown sizing formula {formula!r}")
    for name in bound.inputs:
        if params.get(name) is None:
            raise ValueError(f"missing required sizing parameter {name!r}")
    read = (*bound.inputs, *bound.echo, *bound.constants)  # what the result uses or echoes
    params = {name: _number(value, f"sizing parameter {name!r}")
              for name, value in params.items() if name in read and value is not None}
    check_rates(**{name: params[name] for name in ("eps", "delta") if name in bound.inputs})
    inputs = {name: params[name] for name in bound.echo if params.get(name) is not None}
    constants = {name: value if params.get(name) is None else _override(name, params[name])
                 for name, value in bound.constants.items()}
    for name, value in (*inputs.items(), *constants.items()):
        if not -math.inf < value < math.inf:  # an int of any size compares exactly
            raise ValueError(f"sizing parameter {name!r} must be finite, got {value}")
    try:
        out = bound.formula(**{name: params[name] for name in bound.inputs}, **constants)
    except OverflowError:  # a float power, or the ceil of an infinite m or k
        out = math.inf
    m, k, extras = out if isinstance(out, tuple) else (out, None, {})
    if not math.isfinite(m):
        raise ValueError(f"sizing formula {formula!r} gives no finite dimension, got m = {m}")
    return SizingResult(max(1, math.ceil(m)), formula, k, constants, inputs, extras)


def _number(value, what: str):
    """``value`` as a Python int or float, an int kept an int; anything else is refused.

    A numpy value is the Python value of its ``tolist()``, so np.int64(10)
    reads as 10, and np.True_ and np.array([1.0]) are refused as True and
    [1.0] are. A bool, a string, None, a list and a complex are no number here.
    """
    if isinstance(value, (np.generic, np.ndarray)):
        value = value.tolist()
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        return value if isinstance(value, int) else float(value)  # a Fraction as a float
    except OverflowError:
        raise ValueError(f"{what} must be finite, got {value}") from None


def _override(name: str, value) -> float:
    """An override of the constant ``name`` as a float."""
    try:
        return float(value)
    except OverflowError:  # an int too large for a float
        raise ValueError(f"sizing parameter {name!r} must be finite, got {value}") from None


@dataclass(frozen=True)
class CalibrationResult:
    m_star: int
    m_theory: int
    target: float
    slack: float
    trials: int
    seed: int
    rates: dict  # m -> empirical failure rate, for every m probed

    @property
    def ratio(self) -> float:
        """m_theory / m_star: how loose the sufficient condition is."""
        return self.m_theory / self.m_star

    def to_json(self) -> str:
        return json.dumps(
            {
                "m_star": self.m_star,
                "m_theory": self.m_theory,
                "ratio": self.ratio,
                "target": self.target,
                "slack": self.slack,
                "trials": self.trials,
                "seed": self.seed,
                "rates": {str(m): r for m, r in sorted(self.rates.items())},
            },
            sort_keys=True,
        )


def calibrate(
    arch: str,
    task: str,
    params: dict,
    target: float,
    trials: int,
    seed: int,
) -> CalibrationResult:
    """Smallest m whose empirical failure rate is <= target + binomial slack.

    Binary search below the theoretical m; trial seeds depend only on (seed,
    cell, trial index), so repeated calibration with one seed is bit-stable.
    The theoretical m is verified first (bounds are sufficient conditions),
    making m_star <= m_theory by construction.
    """
    from . import harness

    trials, target = integral(trials, "calibration trials"), _number(target, "target failure rate")
    if trials < 100:
        raise ValueError("calibration needs trials >= 100")
    if not 0 < target < 1:
        raise ValueError("target failure rate must be in (0, 1)")
    theory = size(arch, task, **params)
    slack = 3.0 * math.sqrt(target * (1.0 - target) / trials)
    rates: dict[int, float] = {}

    def rate_at(m: int) -> float:
        if m not in rates:
            cell = dict(params)
            cell["m"] = m
            if theory.k is not None and "k" not in cell:
                cell["k"] = theory.k
            config = harness.ExperimentConfig(
                arch, task, {name: [value] for name, value in cell.items()}, trials, seed
            )
            records = harness.trial_records(config, config.cells()[0])  # numpy values made Python
            rates[m] = sum(not r.outcome.passed for r in records) / trials
        return rates[m]

    limit = target + slack
    if rate_at(theory.m) > limit:
        raise RuntimeError(
            f"search range exhausted: theoretical m={theory.m} fails empirically "
            f"(rate {rates[theory.m]:.4f} > {limit:.4f})"
        )
    lo, hi = 1, theory.m  # invariant: hi passes
    while lo < hi:
        mid = (lo + hi) // 2
        if rate_at(mid) <= limit:
            hi = mid
        else:
            lo = mid + 1
    return CalibrationResult(
        m_star=hi,
        m_theory=theory.m,
        target=target,
        slack=slack,
        trials=trials,
        seed=int(seed) & ((1 << 64) - 1),
        rates=rates,
    )
