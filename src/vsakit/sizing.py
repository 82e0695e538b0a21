"""Dimension sizing: one concrete formula per capacity bound, plus calibration.

Every asymptotic bound becomes a closed-form formula with a named leading
constant. All constants live in :data:`CONSTANTS` so calibration reports can
cite the exact values used; per-call overrides are accepted everywhere.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass, field

#: Default leading constants, keyed by "<arch>.<task>". The keys are exactly
#: the ``harness.TASKS`` entries that carry a sizing function. The theory gives
#: O(.) for most rows; C=8 is the standard sign-matrix JL constant, C=16 the
#: Hoeffding-flavored membership constant, and the Bloom / Counting Bloom
#: constants are the exact values carried by the proofs.
CONSTANTS: dict[str, dict[str, float]] = {
    "mapi.norm": {"C": 8.0},
    "mapi.pairs": {"C": 8.0},
    "mapi.sequence": {"C": 8.0},
    "mapi.sequence-symbols": {"C": 8.0},
    "mapi.binding2": {"C": 8.0},
    "mapi.bindingK": {"C": 8.0, "base": 2.0},
    "mapb.member": {"C": 16.0},
    "mapb.sequence-member": {"C": 16.0},
    "mapb.kv-member": {"C": 16.0},
    "mapb.empty-intersection": {"C": 24.0},
    "bloom.intersection": {"c1": 98.0 / 3.0},
    "cbloom.intersection": {"kc": 2.0 / 3.0, "mc": 12.0 * math.pi**2},
    "hopfield.store": {"C": 4.0},
    "hopfield.hpm-norm": {"C": 8.0},
    "hopfield.hpm-dot": {"C": 8.0},
}


def constants_for(formula: str, overrides: dict | None = None) -> dict[str, float]:
    if formula not in CONSTANTS:
        raise ValueError(f"unknown sizing formula {formula!r}")
    base = dict(CONSTANTS[formula])
    for name, value in (overrides or {}).items():
        if value is None:
            continue
        if name not in base:
            raise ValueError(f"formula {formula!r} has no constant {name!r}")
        base[name] = float(value)
    return base


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


def require(params: dict, *names: str) -> list:
    out = []
    for name in names:
        value = params.get(name)
        if value is None:
            raise ValueError(f"missing required sizing parameter {name!r}")
        out.append(value)
    return out


def size(arch: str, task: str, /, **params) -> SizingResult:
    """Call the sizing function of the (arch, task) entry in ``harness.TASKS``.

    Parameters the formula does not use are ignored, so a combined
    sizing-plus-instance dict (as calibrate and the CLI hold) can be passed
    straight through; missing required parameters still raise.
    """
    from . import harness

    if "arch" in params or "task" in params:
        raise ValueError("sizing parameters cannot be named 'arch' or 'task'")
    entry = harness.TASKS.get((arch, task))
    if entry is None or entry.size is None:
        raise ValueError(f"unknown sizing formula {f'{arch}.{task}'!r}")
    accepted = inspect.signature(entry.size).parameters
    return entry.size(**{name: value for name, value in params.items() if name in accepted})


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
