"""Binary formats: bundles (header + packed values) and Hopfield nets.

Bundle layout (little-endian):

    magic    4s   b"VSAB"
    version  u8   1
    arch     u8   mapi=1, mapb=2, bloom=3, cbloom=4
    domain   u8   sign=0, integer=1, binary=2, count=3
    flags    u8   bit0: scaled view (mapi)
    m        u64
    cb_hash  32s  sha256 of the codebook JSON
    payload       sign/binary: ceil(m/8) bytes, little bit order
                  integer: m * int64
                  count: width byte (1/2/4/8) then m unsigned ints

Each arch has one domain (mapi integer, mapb sign, bloom binary, cbloom
count); readers refuse any other domain byte. Readers take the codebook and
refuse a hash mismatch: a bundle is only meaningful against the codebook
that generated it. Version 1 stores no MAP-B kind, so only MAP-B set bundles
can be written.
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
        payload = _pack_bits(bundle.bits)
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
    payload = data[_HEADER.size :]
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
    if name == "mapi":
        ints = np.frombuffer(payload, dtype="<i8", count=m)
        return MapIBundle(ints, cb, bool(flags & 1))
    if name == "mapb":
        signs = _unpack_bits(payload, m).astype(np.int8) * 2 - 1
        return MapBBundle(signs, cb, tie_seed=0)
    if name == "bloom":
        return BloomBundle(_unpack_bits(payload, m), cb)
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
    """Header {m, n} + strict upper triangle of W as int64 (W is symmetric)."""
    m = net.m
    iu = np.triu_indices(m, k=1)
    header = _NET_HEADER.pack(_NET_MAGIC, _VERSION, m, net.n)
    return header + net.weights[iu].astype("<i8").tobytes()


def net_from_bytes(data: bytes) -> HopfieldNet:
    if len(data) < _NET_HEADER.size:
        raise ValueError("truncated hopfield net")
    magic, version, m, n = _NET_HEADER.unpack_from(data)
    if magic != _NET_MAGIC or version != _VERSION:
        raise ValueError("not a vsakit hopfield net")
    count = m * (m - 1) // 2
    expected = _NET_HEADER.size + 8 * count
    if len(data) != expected:
        raise ValueError(f"hopfield net is {len(data)} bytes, expected {expected}")
    tri = np.frombuffer(data, dtype="<i8", offset=_NET_HEADER.size, count=count)
    w = np.zeros((m, m), dtype=np.int64)
    iu = np.triu_indices(m, k=1)
    w[iu] = tri
    w[iu[1], iu[0]] = tri
    return HopfieldNet(w, int(n))
