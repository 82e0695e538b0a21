"""Counter-based, splittable randomness for reproducible codebooks and trials.

Every random value in the library is a pure function of a 64-bit master seed
plus a tuple of stream tags (strings and integers). Streams are backed by
numpy's Philox4x64 counter-based bit generator, whose raw 64-bit output is
stable across platforms and numpy versions. All derived quantities (signs,
bits, bounded integers, distinct index sets) are computed from raw words by
the documented arithmetic below, never through ``numpy.random.Generator``
distribution methods, so results cannot drift with numpy releases.

Batching: ``choose_distinct_rows`` turns a (rows, k) word array into the k
distinct indices of every row. One array op computes all offsets. In a
batch of two or more rows, a second one finds the rows whose swap
positions never repeat, which need no swap loop; only the other rows run
it. ``choose_distinct`` is the one-row case, so a batched draw equals the
row-by-row draws bit for bit.

Layout: a stream is addressed in *blocks* of 4 consecutive 64-bit words
(Philox's native counter step). ``words(block, n)`` returns words
``[4*block, 4*block + n)`` of the stream, so any window can be regenerated
in isolation.

Generator reuse: building an ``np.random.Philox`` costs several times more
than drawing a short window from it, because the constructor also reads OS
entropy. So each thread keeps one generator (``threading.local``), and every
``words`` call assigns it a complete fresh state: the stream's key, ``block``
as the four 64-bit counter limbs, and an empty output buffer, all as
tuples of Python ints. The words are exactly those of
``Philox(key=...).advance(block).random_raw(n)``; no state carries over
from one call to the next, a ``Stream`` holds nothing mutable, and streams
are safe to share between threads. ``stream_id`` is memoized on its tags
and their types, since a cell's codebook and instance tags recur on every
trial. The fold of tags is sequential, so ``extend_id`` continues a folded
prefix by more tags: a cell's trial seeds fold the cell once, then one
step per trial index.
"""

from __future__ import annotations

import functools
import hashlib
import threading

import numpy as np

from .setalg import integral

RNG_VERSION = "philox4x64-block-v1"

_MASK64 = (1 << 64) - 1


def mix64(x: int) -> int:
    """SplitMix64 finalizer; bijective on 64-bit ints."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@functools.lru_cache(maxsize=256)  # "codebook", kind names, "inst" recur every trial
def _str_word(tag: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(tag.encode("utf-8"), digest_size=8).digest(), "little"
    )


def _tag_word(tag) -> int:
    if isinstance(tag, str):
        return _str_word(tag)
    if isinstance(tag, (int, np.integer)):
        return int(tag) & _MASK64
    raise TypeError(f"stream tag must be str or int, got {type(tag).__name__}")


def _fold(tags: tuple, h: int = 0x243F6A8885A308D3) -> int:
    # The start is pi's fractional bits; any fixed odd constant works.
    for tag in tags:
        h = mix64(h ^ _tag_word(tag))
    return h


@functools.lru_cache(maxsize=1024, typed=True)
def _cached_fold(*tags) -> int:
    # Keyed on each tag and its type, so a float tag equal to an int misses
    # the cache and still raises.
    return _fold(tags)


def stream_id(*tags) -> int:
    """Fold tags into a 64-bit stream identifier (order-sensitive)."""
    try:
        return _cached_fold(*tags)
    except TypeError:  # an unhashable tag: the plain fold raises the bad-tag error
        return _fold(tags)


def extend_id(sid: int, *tags) -> int:
    """``stream_id(*head, *tags)`` given ``sid = stream_id(*head)``.

    The fold is sequential, so it goes on from ``sid``: a caller that folds
    many tag tuples with one head folds the head once.
    """
    return _fold(tags, sid)


_thread = threading.local()
_EMPTY_BUFFER = (0, 0, 0, 0)


def _philox() -> np.random.Philox:
    """This thread's reusable generator; every use overwrites its whole state."""
    bg = getattr(_thread, "philox", None)
    if bg is None:
        bg = _thread.philox = np.random.Philox(0)
    return bg


class Stream:
    """Read-only window access into one keyed Philox raw-word stream."""

    def __init__(self, seed: int, *tags):
        if type(seed) is not int:  # numpy ints, 2.0 or bad input
            seed = integral(seed, "stream seed")
        self.seed = seed & _MASK64
        self.sid = stream_id(*tags)
        self._key = (self.seed, self.sid)

    def words(self, block: int, nwords: int) -> np.ndarray:
        """Words ``[4*block, 4*block + nwords)`` as uint64."""
        counter = int(block) & ((1 << 256) - 1)  # Philox.advance wraps mod 2**256 too
        if counter <= _MASK64:  # every codebook and instance window: one limb
            limbs = (counter, 0, 0, 0)
        else:
            limbs = tuple((counter >> s) & _MASK64 for s in (0, 64, 128, 192))
        bg = _philox()
        bg.state = {
            "bit_generator": "Philox",
            "state": {"counter": limbs, "key": self._key},
            "buffer": _EMPTY_BUFFER,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return bg.random_raw(nwords)


def signs_from_words(words: np.ndarray, rows: int, ncols: int = 1) -> np.ndarray:
    """Unpack little-endian bits of per-column word windows into +-1 int8.

    ``words`` holds ``ncols`` consecutive equal-size windows; bit ``i`` of a
    window (word ``i // 64``, bit ``i % 64`` little-endian) becomes entry
    ``i`` of that column. Returns shape (rows, ncols).
    """
    per = len(words) // ncols
    bits = np.unpackbits(
        words.astype("<u8").reshape(ncols, per).view(np.uint8),
        axis=1,
        bitorder="little",
    )[:, :rows]
    return ((bits.astype(np.int8) << 1) - 1).T


def bounded_from_words(words: np.ndarray, bound: int) -> np.ndarray:
    """Map words to integers in [0, bound) via modulo.

    Bias is < bound / 2**64, negligible for every bound used here.
    """
    return (words % np.uint64(bound)).astype(np.int64)


def choose_distinct_rows(words: np.ndarray, m: int, k: int) -> np.ndarray:
    """Row r: k distinct uniform indices in [0, m) from the first k words of row r.

    Partial Fisher-Yates over a virtual identity array; uniform over ordered
    k-tuples of distinct elements, hence over k-subsets. Step t of every row
    draws offset ``words[r, t] mod (m - t)``, swaps position r_t = t + offset
    with position t, and outputs what r_t held. All offsets of all rows come
    from one array op. The swap loop writes only to positions r_s, so a row
    whose r_t are pairwise distinct outputs r itself; a batch of two or more
    rows tests that for every row in one array op and runs the loop only on
    the rows that repeat an r_t. A single row always runs the loop. Returns
    shape (rows, k) int64.
    """
    if not 0 <= k <= m:
        raise ValueError(f"cannot choose {k} distinct indices from range {m}")
    if words.shape[1] < k:
        raise ValueError(f"choosing {k} indices needs {k} words, got {words.shape[1]}")
    offsets = words[:, :k] % np.arange(m, m - k, -1, dtype=np.uint64)
    if len(offsets) < 2:
        return _swap_loop(offsets.tolist(), k)
    r = offsets.astype(np.int64) + np.arange(k)
    ordered = np.sort(r, axis=1)
    repeats = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    if repeats.any():
        r[repeats] = _swap_loop(offsets[repeats].tolist(), k)
    return r


def _swap_loop(offsets: list, k: int) -> np.ndarray:
    """The Fisher-Yates swap loop of each row of ``offsets``, shape (rows, k) int64.

    The virtual identity array is a dict that holds only the swapped positions.
    """
    out: list[int] = []
    for row in offsets:
        swap: dict[int, int] = {}
        get = swap.get
        for t in range(k):
            r = t + row[t]
            vt = get(t, t)
            out.append(get(r, r))
            swap[r] = vt
    return np.array(out, dtype=np.int64).reshape(len(offsets), k)


def choose_distinct(words: np.ndarray, m: int, k: int) -> np.ndarray:
    """k distinct uniform indices in [0, m) from exactly k raw words.

    The one-row case of :func:`choose_distinct_rows`.
    """
    return choose_distinct_rows(words[None, :k], m, k)[0]
