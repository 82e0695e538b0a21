"""Bundle format v2: a header, then the payload the bundle is held as.

Bundle layout (little-endian):

    magic    4s   b"VSAB"
    version  u8   2
    arch     u8   mapi=1, mapb=2, bloom=3, cbloom=4
    domain   u8   sign=0, integer=1, binary=2, count=3
    flags    u8   bit0: scaled view (mapi); other bits zero
    m        u64
    cb_hash  32s  sha256 of the codebook JSON
    payload       mapi: m * int64
                  mapb: the first ceil(m/8) bytes of the bundle's
                  little-endian words (+1 -> 1, bit i of byte i // 8),
                  padding bits past m zero
                  bloom: uints of the sorted set positions
                  cbloom: uints of the m counts

A uints payload is a width byte (1/2/4/8: the fewest bytes holding the
largest value), a u64 count, then that many unsigned ints of that width. A
Bloom filter goes on the wire as the set positions it is held as: about
29 KB for the sized filter (m=6,366,745, at most about 7.2k set bits), not
m/8 bytes. Only positions are written, although a filter denser than one
set bit in 8 * width would be smaller as packed bits.

``ARCHS`` is the one table of per-arch wire facts; the writer, the reader,
``arch_of`` and ``vsakit encode`` read it. Readers take the codebook and
refuse a hash mismatch (a bundle is only meaningful against the codebook
that generated it), a version other than 2 (version 1 wrote Bloom filters
as packed bits), a domain byte other than the arch's, an unknown flag bit, a
MAP-I scaled flag that differs from the codebook's ``scaled`` and a payload
of the wrong length. The format stores no MAP-B kind, so only
MAP-B set bundles can be written.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from typing import Callable, NamedTuple

import numpy as np

from . import bloom, cbloom, mapb, mapi
from .codebook import Codebook


class Arch(NamedTuple):
    """Wire facts of one bundle architecture."""

    tag: int
    domain: int
    bundle: type
    encode: Callable


ARCHS = {
    "mapi": Arch(1, 1, mapi.MapIBundle, mapi.bundle),
    "mapb": Arch(2, 0, mapb.MapBBundle, mapb.bundle_sign),
    "bloom": Arch(3, 2, bloom.BloomBundle, bloom.bundle_bloom),
    "cbloom": Arch(4, 3, cbloom.CountBundle, cbloom.bundle_count),
}

_MAGIC = b"VSAB"
_VERSION = 2
_HEADER = struct.Struct("<4sBBBBQ32s")
_UINTS = struct.Struct("<BQ")


@functools.lru_cache
def codebook_hash(cb: Codebook) -> bytes:
    """sha256 of the codebook JSON, memoized on the frozen codebook's fields.

    Equal codebooks have equal JSON, so the writer and the reader of a
    recent codebook's bundles reuse one hash instead of rebuilding it.
    """
    return hashlib.sha256(cb.to_json().encode("utf-8")).digest()


def _pack_uints(values: np.ndarray) -> bytes:
    """Width byte, u64 count, then the nonnegative ``values`` in that width."""
    peak = int(values.max(initial=0))
    width = next(w for w in (1, 2, 4, 8) if peak < 1 << (8 * w))
    return _UINTS.pack(width, values.size) + values.astype(f"<u{width}").tobytes()


def _unpack_uints(name: str, payload: memoryview) -> np.ndarray:
    """The values of a uints payload, read in place; the payload holds exactly them."""
    if len(payload) < _UINTS.size:
        raise ValueError(f"truncated {name} bundle payload")
    width, count = _UINTS.unpack_from(payload)
    if width not in (1, 2, 4, 8):
        raise ValueError(f"bad {name} bundle value width {width}")
    if len(payload) != _UINTS.size + width * count:
        raise ValueError(f"{name} bundle payload is {len(payload)} bytes, expected "
                         f"{_UINTS.size + width * count} for {count} values")
    return np.frombuffer(payload, f"<u{width}", count, _UINTS.size)


def bundle_to_bytes(bundle) -> bytes:
    name = next((n for n, arch in ARCHS.items() if isinstance(bundle, arch.bundle)), None)
    if name is None:
        raise TypeError(f"not a serializable bundle: {type(bundle).__name__}")
    flags = 0
    if name == "mapi":
        flags, payload = int(bundle.scaled), bundle.ints.astype("<i8").tobytes()
    elif name == "mapb":
        if bundle.kind != "set":
            raise ValueError(f"bundle format v2 cannot carry a MAP-B {bundle.kind} bundle")
        payload = bundle.words.astype("<u8").tobytes()[: -(-bundle.m // 8)]
    else:
        payload = _pack_uints(bundle.positions if name == "bloom" else bundle.counts)
    arch = ARCHS[name]
    return _HEADER.pack(_MAGIC, _VERSION, arch.tag, arch.domain, flags, bundle.m,
                        codebook_hash(bundle.codebook)) + payload


def bundle_from_bytes(data: bytes, cb: Codebook):
    name = arch_of(data)
    _, version, _, domain, flags, m, cb_hash = _HEADER.unpack_from(data)
    if version != _VERSION:
        raise ValueError(f"unsupported bundle version {version}")
    if cb_hash != codebook_hash(cb):
        raise ValueError("bundle was built with a different codebook")
    if m != cb.m:
        raise ValueError("bundle dimension does not match the codebook")
    if domain != ARCHS[name].domain:
        raise ValueError(f"{name} bundle has domain byte {domain}, expected {ARCHS[name].domain}")
    if flags > (name == "mapi"):  # only MAP-I defines a flag, bit 0
        raise ValueError(f"{name} bundle sets unknown flag bits {flags:#04x}")
    if name == "mapi" and flags != int(cb.scaled):
        raise ValueError(f"mapi bundle's scaled flag is {flags}, but its codebook "
                         f"has scaled={cb.scaled}")
    payload = memoryview(data)[_HEADER.size :]  # a view: payloads are read in place
    if name in ("bloom", "cbloom"):
        values = _unpack_uints(name, payload)
        if name == "bloom":
            return bloom.BloomBundle(values, cb)
        return cbloom.CountBundle(values, cb)  # checks the count of counts
    expected = 8 * m if name == "mapi" else -(-m // 8)
    if len(payload) != expected:
        raise ValueError(f"{name} bundle payload is {len(payload)} bytes, expected {expected}")
    if name == "mapi":
        return mapi.MapIBundle(np.frombuffer(payload, dtype="<i8"), cb)
    words = np.frombuffer(bytes(payload) + bytes(-len(payload) % 8), "<u8")
    return mapb.MapBBundle(words.astype(np.uint64), cb, tie_seed=0)  # checks the padding


def arch_of(data: bytes) -> str:
    """Peek at the arch name of serialized bundle bytes."""
    if len(data) < _HEADER.size or data[:4] != _MAGIC:
        raise ValueError("not a vsakit bundle (bad magic or truncated header)")
    for name, arch in ARCHS.items():
        if arch.tag == data[5]:
            return name
    raise ValueError(f"unknown arch tag {data[5]}")
