"""Exact set and multiset algebra over the symbol universe [d].

This is the ground-truth side of every estimator: sparse integer-weighted
vectors with exact intersection, weighted-minimum (wedgedot) and l1
distance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np


def integral(value, what: str) -> int:
    """``value`` as an int: an int or numpy integer (not a bool of either), or a whole float."""
    if type(value) is int:  # the common case, checked before any conversion
        return value
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):  # None, a list, a string, nan, inf
        number = None
    if number is None or number != value or isinstance(value, (bool, np.bool_)):
        shown = value.item() if isinstance(value, np.generic) else value  # np.True_ as True
        raise ValueError(f"{what} must be an integer, got {shown!r}")
    return number


@dataclass(frozen=True)
class SymbolSet:
    """Sparse map from symbol id (0 <= id < d) to positive integer weight."""

    d: int
    entries: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "d", integral(self.d, "universe size d"))
        if self.d < 1:
            raise ValueError("universe size d must be positive")
        clean = {}
        for sym, w in dict(self.entries).items():
            if type(sym) is not int or type(w) is not int:  # numpy ints, 2.0 or bad input
                sym, w = integral(sym, "a symbol id"), integral(w, "a weight")
            if not 0 <= sym < self.d:
                raise ValueError(f"symbol id {sym} outside universe [0, {self.d})")
            if w < 1:
                raise ValueError(f"weight for symbol {sym} must be >= 1, got {w}")
            clean[sym] = w
        object.__setattr__(self, "entries", MappingProxyType(clean))

    @classmethod
    def from_ids(cls, d: int, ids: Iterable[int]) -> "SymbolSet":
        """0/1 set from an id collection (duplicates rejected via weight check)."""
        ids = list(ids)
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate ids in a 0/1 set")
        return cls(d, {i: 1 for i in ids})

    def l1(self) -> int:
        return sum(self.entries.values())

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self.entries)

    def is_flat(self) -> bool:
        """True when all weights are 1 (a plain set)."""
        return all(w == 1 for w in self.entries.values())

    def weight(self, sym: int) -> int:
        return self.entries.get(sym, 0)

    def to_json_obj(self) -> dict:
        return {"d": self.d, "entries": sorted((int(s), int(w)) for s, w in self.entries.items())}

    @classmethod
    def from_json_obj(cls, obj) -> "SymbolSet":
        """Inverse of ``to_json_obj``: ``{"d": d, "entries": [[id, weight], ...]}``."""
        try:
            entries = dict(obj["entries"])
        except (TypeError, ValueError):  # not an object, or an entry that is no pair
            raise ValueError('a symbol set is {"d": d, "entries": [[id, weight], ...]}') from None
        return cls(obj["d"], entries)


def _check_universe(a: SymbolSet, b: SymbolSet) -> None:
    if a.d != b.d:
        raise ValueError(f"universe mismatch: {a.d} != {b.d}")


def require_flat(v: SymbolSet) -> None:
    """Reject weighted input where an architecture needs a 0/1 set."""
    if not v.is_flat():
        raise ValueError("operation requires 0/1 weights; got a weighted multiset")


def add(a: SymbolSet, b: SymbolSet) -> SymbolSet:
    """Weight-wise sum (multiset union)."""
    _check_universe(a, b)
    out = dict(a.entries)
    for sym, w in b.entries.items():
        out[sym] = out.get(sym, 0) + w
    return SymbolSet(a.d, out)


def intersection_size(a: SymbolSet, b: SymbolSet) -> int:
    """Sum_i a_i * b_i; equals |X n Y| for 0/1 sets."""
    _check_universe(a, b)
    small, big = (a, b) if len(a.entries) <= len(b.entries) else (b, a)
    return sum(w * big.weight(sym) for sym, w in small.entries.items())


def wedgedot(a: SymbolSet, b: SymbolSet) -> int:
    """Sum_i min(a_i, b_i): the generalized (weighted) intersection size."""
    _check_universe(a, b)
    small, big = (a, b) if len(a.entries) <= len(b.entries) else (b, a)
    return sum(min(w, big.weight(sym)) for sym, w in small.entries.items())


def l1_distance(a: SymbolSet, b: SymbolSet) -> int:
    """||v - w||_1 for weighted sets."""
    _check_universe(a, b)
    total = 0
    for sym in a.support | b.support:
        total += abs(a.weight(sym) - b.weight(sym))
    return total


@dataclass(frozen=True)
class SequenceSpec:
    """Ordered sequence of L symbol sets over one universe."""

    sets: tuple[SymbolSet, ...]

    def __post_init__(self):
        sets = tuple(self.sets)
        if not sets:
            raise ValueError("sequence must contain at least one set")
        d = sets[0].d
        for s in sets:
            if s.d != d:
                raise ValueError("all sets in a sequence must share the universe")
        object.__setattr__(self, "sets", sets)

    @property
    def d(self) -> int:
        return self.sets[0].d

    def total_l1(self) -> int:
        return sum(s.l1() for s in self.sets)


@dataclass(frozen=True)
class BindingBundleSpec:
    """Set of k-element hyperedges over symbol ids (no duplicate edges)."""

    d: int
    edges: frozenset[frozenset[int]]

    def __post_init__(self):
        edges = frozenset(frozenset(integral(i, "a symbol id") for i in e) for e in self.edges)
        if not edges:
            raise ValueError("binding bundle must contain at least one edge")
        arities = {len(e) for e in edges}
        if len(arities) != 1:
            raise ValueError(f"mixed edge arities {sorted(arities)}")
        k = arities.pop()
        if k < 2:
            raise ValueError("binding arity must be >= 2")
        for e in edges:
            for i in e:
                if not 0 <= i < self.d:
                    raise ValueError(f"symbol id {i} outside universe [0, {self.d})")
        object.__setattr__(self, "edges", edges)

    @property
    def size(self) -> int:
        return len(self.edges)
