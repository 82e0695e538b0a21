"""Binary formats: bundles (header + packed values) and Hopfield nets (packed S).

Bundle layout (little-endian):

    magic    4s   b"VSAB"
    version  u8   1
    arch     u8   mapi=1, mapb=2, bloom=3, cbloom=4
    domain   u8   sign=0, integer=1, binary=2, count=3
    flags    u8   bit0: scaled view (mapi)
    m        u64
    cb_hash  32s  sha256 of the codebook JSON
    payload       sign/binary: ceil(m/8) bytes, little bit order, padding
                  bits past m zero
                  integer: m * int64
                  count: width byte (1/2/4/8) then m unsigned ints

A Bloom bundle is held in memory as its set positions; its payload is the
same packed bits, written from and read back to positions without building
an m-element array.

Each arch has one domain (mapi integer, mapb sign, bloom binary, cbloom
count); readers refuse any other domain byte. Readers take the codebook and
refuse a hash mismatch: a bundle is only meaningful against the codebook
that generated it. Version 1 stores no MAP-B kind, so only MAP-B set bundles
can be written.

Hopfield net layout: magic b"VSAH", version u8 2, m u64, n u64, then
ceil(m*n/8) bytes holding the n patterns of S one after another, in little
bit order with +1 -> 1, padding bits past m*n zero. Version 1 (the int64
upper triangle of W) is not read.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from .bloom import BloomBundle
from .cbloom import CountBundle
from .codebook import Codebook
from .hopfield import HopfieldNet
from .mapb import MapBBundle
from .mapi import MapIBundle

_MAGIC = b"VSAB"
_NET_MAGIC = b"VSAH"
_VERSION = 1
_NET_VERSION = 2
_ARCH = {"mapi": 1, "mapb": 2, "bloom": 3, "cbloom": 4}
_ARCH_NAMES = {v: k for k, v in _ARCH.items()}
_DOMAIN = {"mapi": 1, "mapb": 0, "bloom": 2, "cbloom": 3}
_HEADER = struct.Struct("<4sBBBBQ32s")
_NET_HEADER = struct.Struct("<4sBQQ")


def codebook_hash(cb: Codebook) -> bytes:
    return hashlib.sha256(cb.to_json().encode("utf-8")).digest()


def _pack_bits(values01: np.ndarray) -> bytes:
    return np.packbits(values01.astype(np.uint8), bitorder="little").tobytes()


def _unpack_bits(data: bytes, m: int) -> np.ndarray:
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")[:m]


def _pack_positions(positions: np.ndarray, m: int) -> memoryview:
    """ceil(m/8) little-bit-order bytes with exactly the bits ``positions`` set.

    Bit p is bit p & 63 of little-endian word p >> 6, which is bit p & 7 of
    byte p >> 3; the words are filled from the sorted positions directly. The
    bytes are returned as a view, so the header is joined to them in one copy.
    """
    words = np.zeros(-(-m // 64), dtype="<u8")
    if positions.size:
        at = positions >> 6
        first = np.flatnonzero(np.r_[True, at[1:] != at[:-1]])
        bit = np.left_shift(np.uint64(1), (positions & 63).astype(np.uint64))
        words[at[first]] = np.add.reduceat(bit, first)  # distinct bits: sum == OR
    return words.view(np.uint8)[: -(-m // 8)].data


def _unpack_positions(payload: memoryview) -> np.ndarray:
    """Sorted set-bit positions of the little-bit-order bytes ``payload``.

    Reads the payload in place as little-endian words (the last, partial word
    from its bytes) and peels the set bits off the nonzero words only, lowest
    first, so the work is proportional to the set bits, not to m.
    """
    whole = len(payload) // 8
    words = np.frombuffer(payload, dtype="<u8", count=whole)
    at = np.flatnonzero(words != 0)
    left = words[at]
    tail = int.from_bytes(payload[8 * whole :], "little")
    if tail:
        at, left = np.append(at, whole), np.append(left, np.uint64(tail))
    found = [np.empty(0, dtype=np.int64)]
    while left.size:
        low = left & (~left + np.uint64(1))
        found.append(at * 64 + np.frexp(low)[1] - 1)  # low is 2**b; frexp gives b + 1
        left = left ^ low
        more = left != 0
        at, left = at[more], left[more]
    return np.sort(np.concatenate(found))


def bundle_to_bytes(bundle) -> bytes:
    flags = 0
    if isinstance(bundle, MapIBundle):
        name, flags = "mapi", int(bundle.scaled)
        payload = bundle.ints.astype("<i8").tobytes()
    elif isinstance(bundle, MapBBundle):
        if bundle.codebook is None:
            raise ValueError("cannot serialize a MAP-B bundle without a codebook")
        if bundle.kind != "set":
            raise ValueError(f"bundle format v1 cannot carry a MAP-B {bundle.kind} bundle")
        name = "mapb"
        payload = _pack_bits((bundle.signs + 1) // 2)
    elif isinstance(bundle, BloomBundle):
        name = "bloom"
        payload = _pack_positions(bundle.positions, bundle.m)
    elif isinstance(bundle, CountBundle):
        name = "cbloom"
        peak = int(bundle.counts.max(initial=0))
        width = next(w for w in (1, 2, 4, 8) if peak < 1 << (8 * w))
        payload = bytes([width]) + bundle.counts.astype(f"<u{width}").tobytes()
    else:
        raise TypeError(f"not a serializable bundle: {type(bundle).__name__}")
    header = _HEADER.pack(_MAGIC, _VERSION, _ARCH[name], _DOMAIN[name], flags, bundle.m,
                          codebook_hash(bundle.codebook))
    return header + payload


def bundle_from_bytes(data: bytes, cb: Codebook):
    if len(data) < _HEADER.size:
        raise ValueError("truncated bundle")
    magic, version, arch, domain, flags, m, cb_hash = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise ValueError("not a vsakit bundle (bad magic)")
    if version != _VERSION:
        raise ValueError(f"unsupported bundle version {version}")
    if cb_hash != codebook_hash(cb):
        raise ValueError("bundle was built with a different codebook")
    if m != cb.m:
        raise ValueError("bundle dimension does not match the codebook")
    payload = memoryview(data)[_HEADER.size :]  # a view: bloom payloads are read in place
    name = _ARCH_NAMES.get(arch)
    if name is None:
        raise ValueError(f"unknown arch tag {arch}")
    if domain != _DOMAIN[name]:
        raise ValueError(f"{name} bundle has domain byte {domain}, expected {_DOMAIN[name]}")
    if name == "cbloom":
        width = payload[0] if payload else 0
        if width not in (1, 2, 4, 8):
            raise ValueError(f"bad counting bloom count width {width}")
        expected = 1 + width * m
    else:
        expected = 8 * m if name == "mapi" else -(-m // 8)
    if len(payload) != expected:
        raise ValueError(f"{name} bundle payload is {len(payload)} bytes, expected {expected}")
    if name in ("mapb", "bloom") and payload[-1] >> (m % 8 or 8):
        raise ValueError(f"{name} bundle sets padding bits past m={m}")
    if name == "mapi":
        ints = np.frombuffer(payload, dtype="<i8", count=m)
        return MapIBundle(ints, cb, bool(flags & 1))
    if name == "mapb":
        signs = _unpack_bits(payload, m).astype(np.int8) * 2 - 1
        return MapBBundle(signs, cb, tie_seed=0)
    if name == "bloom":
        return BloomBundle(_unpack_positions(payload), cb)
    counts = np.frombuffer(payload, dtype=f"<u{width}", count=m, offset=1)
    return CountBundle(counts.astype(np.int64), cb)


def arch_of(data: bytes) -> str:
    """Peek at the arch tag of serialized bundle bytes."""
    if len(data) < _HEADER.size or data[:4] != _MAGIC:
        raise ValueError("not a vsakit bundle")
    name = _ARCH_NAMES.get(data[5])
    if name is None:
        raise ValueError(f"unknown arch tag {data[5]}")
    return name


def net_to_bytes(net: HopfieldNet) -> bytes:
    """Header {m, n} + the patterns S, one after another, packed as sign bits."""
    if not net.mask.all():
        raise ValueError("cannot serialize a thinned hopfield net")
    header = _NET_HEADER.pack(_NET_MAGIC, _NET_VERSION, net.m, net.n)
    return header + _pack_bits((net.patterns.T + 1) // 2)


def net_from_bytes(data: bytes) -> HopfieldNet:
    if len(data) < _NET_HEADER.size:
        raise ValueError("truncated hopfield net")
    magic, version, m, n = _NET_HEADER.unpack_from(data)
    if magic != _NET_MAGIC:
        raise ValueError("not a vsakit hopfield net (bad magic)")
    if version != _NET_VERSION:
        raise ValueError(f"unsupported hopfield net version {version}")
    if m < 1 or n < 1:
        raise ValueError(f"hopfield net needs m >= 1 and n >= 1, got m={m}, n={n}")
    expected = _NET_HEADER.size + -(-m * n // 8)
    if len(data) != expected:
        raise ValueError(f"hopfield net is {len(data)} bytes, expected {expected}")
    if data[-1] >> (m * n % 8 or 8):
        raise ValueError(f"hopfield net sets padding bits past m*n={m * n}")
    bits = _unpack_bits(data[_NET_HEADER.size :], m * n).reshape(n, m).T
    return HopfieldNet(bits.astype(np.int8) * 2 - 1, np.ones(m, np.int8))
