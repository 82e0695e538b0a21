"""Seeded codebooks: deterministic atomic hypervectors for every architecture.

A codebook never stores its matrix. Column ``j`` is a pure function of
``(kind, m, d, k, seed, j)``: each column owns a fixed window of the keyed
raw-word stream (see :mod:`vsakit.rng`), so any column can be regenerated in
isolation, and generating a block of columns gives bit-identical results to
generating each column alone.

A codebook fits only a use of its kind and universe, and two bundles
compose only on one codebook: ``Codebook.require`` and ``same_codebook``
decide both for every encoder, bundle, pair estimator and accessor, and
refuse a misfit with a ValueError naming the user.

Every accessor that takes ids runs one gather, which draws for a stack of
seeds, one row of ids per seed; the one-seed accessors take a 1-D row.
Ids are integers or whole floats: a bool, a string or a fraction raises a
ValueError naming it, and an id out of range an IndexError before any
draw. One rule, counted in words, picks a seed's windows: one window over
[min(ids), max(ids)] when the words wasted on unrequested columns in
between, ``(span - n) * words per column``, are at most
``_WORDS_PER_CALL`` (800) per window draw saved (n - 1 of them), and one
window per column otherwise. So small dense columns (4 drawn words each)
gather scattered ids in one draw, while large-k Bloom columns (484 words
each) stay per-column. Which way the words were drawn never shows: a caller
sizing a batch reads ``window_words(n)``, the most n ids can draw.

A cell's codebooks differ only in their trial seed, so one codebook,
checked once, is a template: ``with_seed`` copies it under another seed,
checking and folding nothing again, and the two stack accessors gather the
columns of a stack of seeds in one call, one row of ids per seed:
``sign_words_across`` with one row index and one mask, and
``exact_indices_across`` with one ``rng.choose_distinct_rows`` call.

Each representation has one batched accessor, and one column is its one-id
case. ``sign_words`` gives dense-sign columns as their packed signs (bit i
set where entry i is +1), ceil(m/64) words with the bits past m cleared;
MAP-I and MAP-B work on these words alone, and only :mod:`vsakit.rng` packs,
unpacks or pads them. ``union_indices`` maps all drawn words of
sparse-binary-trials columns to rows in one ``rng.bounded_from_words`` call
and returns the sorted union; ``exact_indices`` draws every
sparse-binary-exact column's k distinct rows in one
``rng.choose_distinct_rows`` call. Hopfield alone unpacks dense columns to
+-1 entries, with ``sign_columns``, in Hopfield±'s layout: Fortran order
when ``max(ids) - min(ids) < 4 * len(ids) + 64`` and C order otherwise,
because float products of its columns (``hopfield.hpm_encode``) round by
layout and the experiment CSVs pin those bits. Every bundle class takes its
array through ``held``, the one rule for what a bundle keeps and copies.

Kinds
-----
One per codebook family the encodings use.

``dense-sign``
    Columns uniform over {-1,+1}^m; MAP-I, MAP-B and Hopfield. No k, and the
    one kind that may be ``scaled``: the 1/sqrt(m) view MAP-I and Hopfield± read.
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
#: wastes on unrequested columns number at most this many per window draw
#: saved. A draw's fixed cost (about 4 us) is that of about 800 words
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
        if self.kind == "dense-sign" and self.k is not None:
            raise ValueError(f"dense-sign takes no sparsity k, got k={self.k!r}")
        for name in ("m", "d", "seed") if self.k is None else ("m", "d", "k", "seed"):
            object.__setattr__(self, name, integral(getattr(self, name), f"codebook {name}"))
        if not isinstance(self.scaled, bool):
            raise ValueError(f"codebook scaled must be true or false, got {self.scaled!r}")
        if self.scaled and self.kind != "dense-sign":
            raise ValueError(f"{self.kind} takes no scaled view, got scaled=True")
        if self.m < 1 or self.d < 1:
            raise ValueError("m and d must be positive")
        if self.m >= 2**63:  # row indices and bundle lengths are int64
            raise ValueError(f"codebook m must be below 2**63, got m={self.m}")
        if self.d > 2**63:  # symbol ids are int64
            raise ValueError(f"codebook d must be at most 2**63, got d={self.d}")
        if self.kind in _SPARSE_KINDS:
            if self.k is None:
                raise ValueError(f"{self.kind} requires sparsity k")
            if not 1 <= self.k <= self.m:
                raise ValueError("sparsity k must satisfy 1 <= k <= m")
        # Raw stream layout: a column's window is _blocks_per_column blocks of
        # 4 words, the first _words_per_column of them used (signs or draws).
        words = -(-self.m // 64) if self.kind == "dense-sign" else self.k
        self.__dict__.update(_sid=rng.stream_id("codebook", self.kind, self.m, self.d, self.k or 0),
                             _words_per_column=words, _blocks_per_column=-(-words // 4))

    def with_seed(self, seed: int) -> "Codebook":
        """This codebook under ``seed``: equal, in every field and column, to a fresh one.

        The kind and sizes were checked, and the stream tags folded into one
        stream id, when this codebook was built; they hold for every seed, so
        only the seed is new.
        """
        seed = integral(seed, "codebook seed")
        copy = object.__new__(Codebook)
        copy.__dict__.update(self.__dict__, seed=seed)
        return copy

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

    def require(self, kind: str, user: str, d: int | None = None) -> None:
        """Refuse ``user`` this codebook unless it is of ``kind`` and, given ``d``, over [d]."""
        if self.kind != kind:
            raise ValueError(f"{user} requires a {kind} codebook, got {self.kind!r}")
        if d is not None and d != self.d:
            raise ValueError(f"{user}: universe {d} != codebook universe {self.d}")

    # -- raw stream layout ------------------------------------------------

    def window_words(self, n: int) -> int:
        """The most raw words one seed's gather of n ids can draw: its widest window in [d]."""
        drawn = 4 * self._blocks_per_column
        return drawn * min(self.d, max(0, n + _WORDS_PER_CALL * (n - 1) // drawn))

    # -- column access -----------------------------------------------------

    def _check_symbol(self, j: int) -> None:
        if not 0 <= j < self.d:
            raise IndexError(f"symbol id {j} out of range for universe size {self.d}")

    def _symbol_ids(self, ids) -> np.ndarray:
        """``ids`` as an int64 array of the same shape.

        Each id is read as ``integral`` reads one value, so a bool or a string
        raises a ValueError naming it; an integer past int64 is out of range.
        """
        if isinstance(ids, np.ndarray) and ids.dtype.kind == "i":
            return ids.astype(np.int64, copy=False)
        values = ids
        try:
            if type(ids) is list and set(map(type, ids)) == {int}:
                return np.array(ids, dtype=np.int64)
            objects = np.array(ids, dtype=object)
            values = [integral(j, "a symbol id") for j in objects.ravel().tolist()]
            return np.array(values, dtype=np.int64).reshape(objects.shape)
        except OverflowError:  # an id past int64 is outside [d], so _check_symbol raises
            self._check_symbol(next(j for j in values if not -2**63 <= j < 2**63))

    def _gather(self, seeds: list, ids: np.ndarray) -> np.ndarray:
        """Raw words of the columns ``ids[s]`` under ``seeds[s]``, shape (len(seeds), n, drawn).

        ``ids`` is a (len(seeds), n) int64 stack and ``drawn`` the words a
        column's window takes. Every id is checked before any draw, raising
        the first bad seed's error. A seed draws one window over [min, max]
        of its row and picks its ids' rows by offset, or one window per
        column in order; one fancy index takes every seed's rows. How many
        seeds a call holds is the caller's choice (``harness._chunks``).
        """
        blocks, sid = self._blocks_per_column, self._sid
        drawn = 4 * blocks  # words a column's window takes
        count, n = ids.shape
        if ids.size == 0:  # no ids, or no seeds: nothing to draw
            return np.empty((count, n, drawn), dtype=np.uint64)
        if ids.size <= 32:  # Python's min/max beat numpy's fixed per-call cost here
            listed = ids.tolist()
            lo, hi = list(map(min, listed)), list(map(max, listed))
        else:
            lo, hi = ids.min(axis=1).tolist(), ids.max(axis=1).tolist()
        if min(lo) < 0 or max(hi) >= self.d:
            for low, high in zip(lo, hi):
                self._check_symbol(low)
                self._check_symbol(high)
        widest = self.window_words(n) // drawn  # the widest span one window pays for
        windows, offsets, apart, total = [], [], [], 0
        for s, (seed, low, high) in enumerate(zip(seeds, lo, hi)):
            span = high - low + 1
            if span <= widest:
                windows.append(rng.keyed_words(seed, sid, low * blocks, span * drawn))
                offsets.append(total - low)
                total += span
            else:
                windows += [rng.keyed_words(seed, sid, j * blocks, drawn) for j in ids[s].tolist()]
                offsets.append(0)
                apart.append((s, total))
                total += n
        rows = ids + (offsets[0] if count == 1 else np.array(offsets)[:, None])
        for s, first in apart:
            rows[s] = np.arange(first, first + n)
        stack = windows[0] if len(windows) == 1 else np.concatenate(windows)
        return stack.reshape(total, drawn)[rows]

    def _across(self, seeds, ids) -> np.ndarray:
        """Raw words of the columns ``ids[s]`` under ``seeds[s]``, one row of ``ids`` per seed."""
        seeds = list(seeds)
        ids = self._symbol_ids(ids)
        if ids.ndim != 2 or len(ids) != len(seeds):
            raise ValueError(f"ids must hold one row per seed, got shape {ids.shape} "
                             f"for {len(seeds)} seeds")
        return self._gather(seeds, ids)

    def _one_seed(self, ids) -> np.ndarray:
        """Raw words of the columns ``ids``, a 1-D id sequence, one row per id."""
        ids = self._symbol_ids(ids)
        if ids.ndim != 1:
            raise ValueError(f"symbol ids must form a 1-D sequence, got shape {ids.shape}")
        return self._gather([self.seed], ids[None])[0]

    def _packed(self, raw: np.ndarray) -> np.ndarray:
        """Packed signs of raw dense-sign windows: the first ceil(m/64) words, bits past m clear."""
        words = raw[..., :self._words_per_column]
        words[..., -1] &= rng.last_word_mask(self.m)
        return words

    def sign_words(self, ids) -> np.ndarray:
        """Dense-sign columns ``ids`` as packed signs, shape (len(ids), ceil(m/64)) uint64.

        Bit i (word i // 64, bit i % 64) is set where entry i is +1; the bits
        past m, random in the raw window, are cleared.
        """
        self.require("dense-sign", "sign_words")
        return self._packed(self._one_seed(ids))

    def sign_words_across(self, seeds, ids) -> np.ndarray:
        """Row s of ``ids`` gathered as ``self.with_seed(seeds[s]).sign_words(ids[s])``.

        ``ids`` is a (len(seeds), n) array. Returns the packed words, shape
        (len(seeds), n, ceil(m/64)), equal to each seed's own ``sign_words``
        bit for bit: both are one gather, this one over many seeds. Every id
        is checked before any draw, raising the first bad seed's error.
        """
        self.require("dense-sign", "sign_words_across")
        return self._packed(self._across(seeds, ids))

    def sign_columns(self, ids) -> np.ndarray:
        """Dense-sign columns for an arbitrary id sequence, shape (m, len(ids)).

        The requested columns' words are gathered first and unpacked in one
        ``signs_from_words`` call.
        """
        self.require("dense-sign", "sign_columns")
        ids = self._symbol_ids(ids)
        raw = self._one_seed(ids)
        if ids.size == 0:
            return np.empty((self.m, 0), dtype=np.int8)
        signs = rng.signs_from_words(raw.ravel(), self.m, ids.size)
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
        self.require("sparse-binary-trials", "union_indices")
        words = self._one_seed(ids)[:, : self.k]
        if len(words) == 0:
            return np.empty(0, dtype=np.int64)
        rows = np.sort(rng.bounded_from_words(words, self.m), axis=None)
        return rows[np.r_[True, rows[1:] != rows[:-1]]]

    def exact_indices(self, ids) -> np.ndarray:
        """Row indices of sparse-binary-exact columns ``ids``, shape (len(ids), k).

        Row r holds the k distinct indices of column ``ids[r]``, sorted. All
        columns come from one gather and one ``rng.choose_distinct_rows`` call.
        """
        self.require("sparse-binary-exact", "exact_indices")
        return self._exact_rows(self._one_seed(ids))

    def exact_indices_across(self, seeds, ids) -> np.ndarray:
        """Row s of ``ids`` gathered as ``self.with_seed(seeds[s]).exact_indices(ids[s])``.

        ``ids`` is a (len(seeds), n) array. Returns the row indices, shape
        (len(seeds), n, k), equal to each seed's own ``exact_indices``: both
        are one gather and one ``rng.choose_distinct_rows`` call, this one
        over many seeds. Every id is checked before any draw, raising the
        first bad seed's error.
        """
        self.require("sparse-binary-exact", "exact_indices_across")
        return self._exact_rows(self._across(seeds, ids))

    def _exact_rows(self, raw: np.ndarray) -> np.ndarray:
        """The k distinct sorted rows that each raw sparse-binary-exact window draws."""
        rows = rng.choose_distinct_rows(raw.reshape(-1, raw.shape[-1]), self.m, self.k)
        rows.sort(axis=1)
        return rows.reshape(*raw.shape[:-1], self.k)


def same_codebook(b1, b2, user: str) -> None:
    """Refuse ``user`` two bundles built on different codebooks: their estimate would be noise."""
    if b1.codebook != b2.codebook:
        raise ValueError(f"{user}: bundles come from different codebooks")


def held(values, dtype, user: str) -> np.ndarray:
    """``values`` as a bundle keeps them: a read-only, C-ordered ``dtype`` array of its own.

    An array that owns its data and is all that already, such as an
    encoder's frozen output, is kept; anything else is copied and frozen.
    An int64 copy refuses what the cast would change: a bool, string or
    object array, a list that holds a bool anywhere (which ``np.asarray``
    would read as 0 or 1 beside its integers), or a float that is not a
    whole number in int64.
    """
    if dtype == np.int64 and not isinstance(values, np.ndarray):
        if any(isinstance(v, (bool, np.bool_)) for v in np.asarray(values, object).flat):
            raise ValueError(f"{user} entries must be integers, got bool values")
    values = np.asarray(values)  # a subclass becomes a view, which is copied
    flags, kind = values.flags, values.dtype.kind
    if values.dtype == dtype and flags.owndata and flags.c_contiguous and not flags.writeable:
        return values
    if dtype == np.int64 and kind != "i":
        if kind not in "uf":
            raise ValueError(f"{user} entries must be integers, got {values.dtype} values")
        if kind == "f":
            inside = (values >= -2.0**63) & (values < 2.0**63)  # False for NaN
            bad = np.flatnonzero((values != np.trunc(values)) | ~inside)
            if bad.size:
                raise ValueError(f"{user} entries must be whole numbers in int64, "
                                 f"got {values.ravel()[bad[0]].item()!r}")
    values = values.astype(dtype, order="C")
    values.setflags(write=False)
    return values
