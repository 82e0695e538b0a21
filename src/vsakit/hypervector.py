"""Dense hypervectors tagged with a value domain, plus rotation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Valid domain tags and what the entries must look like.
DOMAINS = ("sign", "integer", "binary", "count", "scaled-real")

_INT_DTYPES = (np.int8, np.int16, np.int32, np.int64)


def _validate(values: np.ndarray, domain: str) -> None:
    if domain not in DOMAINS:
        raise ValueError(f"unknown domain {domain!r}")
    if values.ndim != 1:
        raise ValueError("hypervector values must be 1-dimensional")
    if domain == "sign":
        if values.dtype.type not in _INT_DTYPES or ((values != 1) & (values != -1)).any():
            raise ValueError("sign domain requires all entries in {-1, +1}")
    elif domain == "binary":
        if values.dtype.type not in _INT_DTYPES or ((values != 0) & (values != 1)).any():
            raise ValueError("binary domain requires all entries in {0, 1}")
    elif domain == "count":
        if values.dtype.type not in _INT_DTYPES or (values < 0).any():
            raise ValueError("count domain requires nonnegative integers")
    elif domain == "integer":
        if values.dtype.type not in _INT_DTYPES:
            raise ValueError("integer domain requires an integer dtype")


@dataclass(frozen=True)
class Hypervector:
    """Length-m vector whose entries satisfy the tagged domain invariant."""

    values: np.ndarray
    domain: str

    def __post_init__(self):
        values = np.asarray(self.values)
        _validate(values, self.domain)
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def m(self) -> int:
        return self.values.shape[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Hypervector)
            and self.domain == other.domain
            and np.array_equal(self.values, other.values)
        )


@dataclass(frozen=True)
class Rotation:
    """Cyclic shift by ``shift`` positions (exponent of the base rotation R).

    The base rotation maps coordinate 1 of the output to coordinate 2 of the
    input; applying ``shift = m`` is the identity.
    """

    shift: int = field(default=1)

    def __post_init__(self):
        if self.shift < 0:
            raise ValueError("rotation shift must be >= 0")


def rotate(x: Hypervector, r: Rotation) -> Hypervector:
    """Apply R^shift: output coordinate i is input coordinate i+shift (mod m)."""
    ell = r.shift % x.m
    return Hypervector(np.roll(x.values, -ell), x.domain)

