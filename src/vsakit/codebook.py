"""Seeded codebooks: deterministic atomic hypervectors for every architecture.

A codebook never stores its matrix. Column ``j`` is a pure function of
``(kind, m, d, k, seed, j)``: each column owns a fixed window of the keyed
raw-word stream (see :mod:`vsakit.rng`), so any column can be regenerated in
isolation, and generating a block of columns yields bit-identical results to
generating each column alone.

A gather of many columns selects the words of the requested columns. The
rule is counted in words: it draws one contiguous window over [min(ids),
max(ids)] when the words wasted on unrequested columns in between,
``(span - n) * words per column``, are at most ``_WORDS_PER_CALL`` (800)
per ``Stream.words`` call saved (n - 1 of them), and one window per column
otherwise. So small dense columns (4 drawn words each) gather scattered ids
in one draw, while large-k Bloom columns (484 words each) stay per-column.
Which way the words were drawn never shows in the result.

Each representation has one batched accessor, and one column is its one-id
case. ``sign_words`` gives dense-sign columns as their packed signs (bit i
set where entry i is +1), ceil(m/64) words with the bits past m cleared;
MAP-I and MAP-B work on these words alone. ``union_indices`` maps all drawn
words of sparse-binary-trials columns to rows in one
``rng.bounded_from_words`` call and returns the sorted union;
``exact_indices`` draws every sparse-binary-exact column's k distinct rows
in one ``rng.choose_distinct_rows`` call. Only Hopfield unpacks dense
columns to +-1 entries: ``sign_matrix`` a range of them, and
``sign_columns`` a gather, in one ``rng.signs_from_words`` call. The layout
contract of ``sign_columns`` is Hopfield±'s: Fortran order when
``max(ids) - min(ids) < 4 * len(ids) + 64`` and C order otherwise, because
float products of its columns (``hopfield.hpm_encode``) round by layout and
the experiment CSVs pin those bits.

Kinds
-----
One per codebook family the encodings use.

``dense-sign``
    Columns uniform over {-1,+1}^m; MAP-I, MAP-B and Hopfield.
``sparse-binary-trials``
    k uniform index draws with replacement, duplicates collapse; popcount
    in [1, k]; Bloom filters.
``sparse-binary-exact``
    Exactly k distinct uniform indices (partial Fisher-Yates); Counting
    Bloom filters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import rng
from .setalg import integral

KINDS = ("dense-sign", "sparse-binary-trials", "sparse-binary-exact")

_SPARSE_KINDS = ("sparse-binary-trials", "sparse-binary-exact")

#: A gather draws one window over [min(ids), max(ids)] when the words it
#: wastes on unrequested columns number at most this many per ``Stream.words``
#: call saved. A call's fixed cost (about 4 us) is that of about 800 words
#: (about 5 ns each), measured with numpy 2.4 on a shared 2-vCPU x86-64 host.
_WORDS_PER_CALL = 800


@dataclass(frozen=True)
class Codebook:
    """Parameters of a seeded random matrix whose columns are atomic vectors."""

    kind: str
    m: int
    d: int
    k: int | None = None
    seed: int = 0
    scaled: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown codebook kind {self.kind!r}")
        for name in ("m", "d", "seed") if self.k is None else ("m", "d", "k", "seed"):
            object.__setattr__(self, name, integral(getattr(self, name), f"codebook {name}"))
        if not isinstance(self.scaled, bool):
            raise ValueError(f"codebook scaled must be true or false, got {self.scaled!r}")
        if self.m < 1 or self.d < 1:
            raise ValueError("m and d must be positive")
        if self.kind in _SPARSE_KINDS:
            if self.k is None:
                raise ValueError(f"{self.kind} requires sparsity k")
            if not 1 <= self.k <= self.m:
                raise ValueError("sparsity k must satisfy 1 <= k <= m")
        # Raw stream layout: a column's window is _blocks_per_column blocks of
        # 4 words, the first _words_per_column of them used (signs or draws).
        words = -(-self.m // 64) if self.kind == "dense-sign" else self.k
        object.__setattr__(self, "_stream", rng.Stream(self.seed, "codebook", self.kind,
                                                       self.m, self.d, self.k or 0))
        object.__setattr__(self, "_words_per_column", words)
        object.__setattr__(self, "_blocks_per_column", -(-words // 4))

    @property
    def key(self) -> tuple:
        return (self.kind, self.m, self.d, self.k, self.seed, self.scaled)

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": self.kind,
                "m": self.m,
                "d": self.d,
                "k": self.k,
                "seed": self.seed,
                "scaled": self.scaled,
                "rng_version": rng.RNG_VERSION,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "Codebook":
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError(f"a codebook is a JSON object, got {type(obj).__name__}")
        version = obj.pop("rng_version", rng.RNG_VERSION)
        if version != rng.RNG_VERSION:
            raise ValueError(f"codebook was generated with rng {version!r}, "
                             f"this library implements {rng.RNG_VERSION!r}")
        return cls(**obj)

    # -- raw stream layout ------------------------------------------------

    def _column_words(self, j0: int, count: int) -> np.ndarray:
        return self._stream.words(j0 * self._blocks_per_column,
                                  count * 4 * self._blocks_per_column)

    # -- column access -----------------------------------------------------

    def _check_symbol(self, j: int) -> None:
        if not 0 <= j < self.d:
            raise IndexError(f"symbol id {j} out of range for universe size {self.d}")

    def sign_matrix(self, j0: int, j1: int) -> np.ndarray:
        """Columns [j0, j1) of a dense-sign codebook as an (m, n) int8 array."""
        if self.kind != "dense-sign":
            raise ValueError("sign_matrix requires a dense-sign codebook")
        if not 0 <= j0 <= j1 <= self.d:
            raise IndexError("column range out of bounds")
        if j0 == j1:
            return np.empty((self.m, 0), dtype=np.int8)
        return rng.signs_from_words(self._column_words(j0, j1 - j0), self.m, j1 - j0)

    def _gather_words(self, ids: np.ndarray) -> np.ndarray:
        """Raw words of the columns ``ids`` (nonempty), one row per id.

        Draws one contiguous window over [min, max] when the words it wastes
        on unrequested columns cost less than the calls it saves, else one
        window per column.
        """
        lo, hi = int(ids.min()), int(ids.max())
        self._check_symbol(lo)
        self._check_symbol(hi)
        span = hi - lo + 1
        drawn = 4 * self._blocks_per_column  # words a column's window takes
        if (span - ids.size) * drawn <= _WORDS_PER_CALL * (ids.size - 1):
            return self._column_words(lo, span).reshape(span, -1)[ids - lo]
        return np.stack([self._column_words(int(j), 1) for j in ids])

    def sign_words(self, ids) -> np.ndarray:
        """Dense-sign columns ``ids`` as packed signs, shape (len(ids), ceil(m/64)) uint64.

        Bit i (word i // 64, bit i % 64) is set where entry i is +1; the bits
        past m, random in the raw window, are cleared.
        """
        if self.kind != "dense-sign":
            raise ValueError("sign_words requires a dense-sign codebook")
        ids = np.asarray(ids, dtype=np.int64)
        nwords = self._words_per_column
        if ids.size == 0:
            return np.empty((0, nwords), dtype=np.uint64)
        words = self._gather_words(ids)[:, :nwords]
        if self.m % 64:
            words[:, -1] &= np.uint64((1 << self.m % 64) - 1)
        return words

    def sign_columns(self, ids) -> np.ndarray:
        """Dense-sign columns for an arbitrary id sequence, shape (m, len(ids)).

        The requested columns' words are gathered first and unpacked in one
        ``signs_from_words`` call.
        """
        if self.kind != "dense-sign":
            raise ValueError("sign_columns requires a dense-sign codebook")
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            return np.empty((self.m, 0), dtype=np.int8)
        signs = rng.signs_from_words(self._gather_words(ids).ravel(), self.m, ids.size)
        # The memory order is part of the result: float products of these
        # columns (hopfield.hpm_encode) round by layout. So it follows this
        # span rule, not the way the words were drawn: Fortran order for ids
        # close together, C order for scattered ids.
        if int(ids.max()) - int(ids.min()) < 4 * ids.size + 64:
            return signs
        return np.ascontiguousarray(signs)

    def union_indices(self, ids) -> np.ndarray:
        """Sorted unique row indices set in any sparse-binary-trials column of ``ids``.

        All columns' draws come from one gather and one ``bounded_from_words``
        call; duplicates collapse by sort plus an adjacent-difference mask.
        """
        if self.kind != "sparse-binary-trials":
            raise ValueError("union_indices requires a sparse-binary-trials codebook")
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            return np.empty(0, dtype=np.int64)
        words = self._gather_words(ids)[:, : self.k]
        rows = np.sort(rng.bounded_from_words(words, self.m), axis=None)
        return rows[np.r_[True, rows[1:] != rows[:-1]]]

    def exact_indices(self, ids) -> np.ndarray:
        """Row indices of sparse-binary-exact columns ``ids``, shape (len(ids), k).

        Row r holds the k distinct indices of column ``ids[r]``, sorted. All
        columns come from one gather and one ``rng.choose_distinct_rows`` call.
        """
        if self.kind != "sparse-binary-exact":
            raise ValueError("exact_indices requires a sparse-binary-exact codebook")
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            return np.empty((0, self.k), dtype=np.int64)
        rows = rng.choose_distinct_rows(self._gather_words(ids), self.m, self.k)
        rows.sort(axis=1)
        return rows
