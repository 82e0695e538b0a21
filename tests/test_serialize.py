import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vsakit import bloom, cbloom, hopfield, mapb, mapi, serialize
from vsakit.codebook import Codebook
from vsakit.hypervector import Hypervector
from vsakit.setalg import SequenceSpec, SymbolSet


def test_mapi_round_trip():
    cb = Codebook("dense-sign", 32, 8, seed=1, scaled=True)
    b = mapi.bundle(cb, SymbolSet.from_ids(8, [1, 5]))
    back = serialize.bundle_from_bytes(serialize.bundle_to_bytes(b), cb)
    assert np.array_equal(back.ints, b.ints)
    assert back.scaled == b.scaled


def test_mapb_round_trip():
    cb = Codebook("dense-sign", 33, 8, seed=2)
    b = mapb.bundle_sign(cb, SymbolSet.from_ids(8, [0, 1, 2]))
    back = serialize.bundle_from_bytes(serialize.bundle_to_bytes(b), cb)
    assert np.array_equal(back.signs, b.signs)


def test_bloom_round_trip():
    cb = Codebook("sparse-binary-trials", 100, 8, k=3, seed=3)
    b = bloom.bundle_bloom(cb, SymbolSet.from_ids(8, [0, 7]))
    back = serialize.bundle_from_bytes(serialize.bundle_to_bytes(b), cb)
    assert np.array_equal(back.bits, b.bits)
    # positions at word and byte edges, and in the partial last word
    cb = Codebook("sparse-binary-trials", 203, 8, k=3, seed=3)  # 25 whole bytes + 3 bits
    edges = np.array([0, 7, 8, 62, 63, 64, 127, 128, 191, 192, 199, 200, 202])
    data = serialize.bundle_to_bytes(bloom.BloomBundle(edges, cb))
    bits = np.zeros(203, np.uint8)
    bits[edges] = 1
    assert data[48:] == np.packbits(bits, bitorder="little").tobytes()
    assert np.array_equal(serialize.bundle_from_bytes(data, cb).positions, edges)


def test_cbloom_round_trip_widths():
    cb = Codebook("sparse-binary-exact", 16, 4, k=3, seed=4)
    big = cbloom.bundle_count(cb, SymbolSet(4, {0: 300}))  # forces 2-byte counts
    back = serialize.bundle_from_bytes(serialize.bundle_to_bytes(big), cb)
    assert np.array_equal(back.counts, big.counts)


def test_arch_of_and_codebook_mismatch():
    cb = Codebook("sparse-binary-trials", 100, 8, k=3, seed=3)
    data = serialize.bundle_to_bytes(bloom.bundle_bloom(cb, SymbolSet.from_ids(8, [1])))
    assert serialize.arch_of(data) == "bloom"
    other = Codebook("sparse-binary-trials", 100, 8, k=3, seed=99)
    with pytest.raises(ValueError):
        serialize.bundle_from_bytes(data, other)


def test_bad_magic_rejected():
    with pytest.raises(ValueError):
        serialize.bundle_from_bytes(b"nope" + bytes(60),
                                    Codebook("dense-sign", 8, 4, seed=1))


def test_net_padding_bits_past_m_n_rejected():
    net = hopfield.HopfieldNet(np.array([[1], [-1], [1]]), np.ones(3, np.int8))
    data = serialize.net_to_bytes(net)
    assert data[-1] == 0x05  # bits 0..2 hold S, bits 3..7 are padding
    assert np.array_equal(serialize.net_from_bytes(data).patterns, net.patterns)
    for pad in range(3, 8):
        with pytest.raises(ValueError, match=r"padding bits past m\*n=3"):
            serialize.net_from_bytes(data[:-1] + bytes([data[-1] | 1 << pad]))


def test_hopfield_net_round_trip():
    cb = Codebook("dense-sign", 20, 5, seed=6)
    net = hopfield.train([Hypervector(cb.column_ints(j), "sign") for j in range(5)])
    back = serialize.net_from_bytes(serialize.net_to_bytes(net))
    assert np.array_equal(back.weights, net.weights)
    assert back.n == net.n
    assert len(serialize.net_to_bytes(_sign_net(651, 16, seed=0))) == 1323  # v1: 1,692,621


def _sign_net(m, n, seed):
    signs = np.random.default_rng(seed).integers(0, 2, size=(m, n), dtype=np.int8) * 2 - 1
    return hopfield.HopfieldNet(signs, np.ones(m, np.int8))


def _header(version, m, n):
    return struct.pack("<4sBQQ", b"VSAH", version, m, n)


def _decodes_to_header_shape_or_refuses(data):
    try:
        net = serialize.net_from_bytes(data)
    except ValueError:
        return
    _, _, m, n = struct.unpack_from("<4sBQQ", data)
    assert (net.m, net.n) == (m, n)
    assert ((net.patterns == 1) | (net.patterns == -1)).all()


_dims = dict(m=st.integers(1, 70), n=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))


@given(**_dims)
def test_net_round_trip_any_shape(m, n, seed):
    net = _sign_net(m, n, seed)  # m * n need not be a multiple of 8
    data = serialize.net_to_bytes(net)
    assert len(data) == 21 + -(-m * n // 8)
    back = serialize.net_from_bytes(data)
    assert np.array_equal(back.patterns, net.patterns) and back.mask.all()


@given(st.binary(max_size=64), st.integers(0, 20), st.integers(0, 20), st.binary(max_size=60))
def test_net_decoder_on_arbitrary_bytes(junk, m, n, payload):
    _decodes_to_header_shape_or_refuses(junk)
    _decodes_to_header_shape_or_refuses(b"VSAH\x02" + junk)
    _decodes_to_header_shape_or_refuses(_header(2, m, n) + payload)


@given(**_dims, cut=st.integers(0, 2**16), tail=st.binary(min_size=1, max_size=16),
       at=st.integers(0, 2**16), byte=st.integers(0, 255))
def test_net_decoder_on_damaged_bytes(m, n, seed, cut, tail, at, byte):
    data = serialize.net_to_bytes(_sign_net(m, n, seed))
    with pytest.raises(ValueError):
        serialize.net_from_bytes(data[: cut % len(data)])
    with pytest.raises(ValueError):
        serialize.net_from_bytes(data + tail)
    at %= len(data)
    _decodes_to_header_shape_or_refuses(data[:at] + bytes([byte]) + data[at + 1 :])


def test_net_format_v1_refused():
    net = _sign_net(20, 5, seed=6)
    upper = net.weights[np.triu_indices(20, k=1)].astype("<i8").tobytes()
    with pytest.raises(ValueError, match="unsupported hopfield net version 1"):
        serialize.net_from_bytes(_header(1, 20, 5) + upper)


def test_thinned_net_not_serialized():
    net = _sign_net(20, 5, seed=6)
    with pytest.raises(ValueError, match="thinned"):
        serialize.net_to_bytes(hopfield.thin(net, range(10)))


def _encoded(kind):
    """(bytes, decoder) for one small bundle of each arch, or a Hopfield net."""
    if kind == "net":
        cb = Codebook("dense-sign", 20, 5, seed=6)
        net = hopfield.train([Hypervector(cb.column_ints(j), "sign") for j in range(5)])
        return serialize.net_to_bytes(net), serialize.net_from_bytes
    v = SymbolSet.from_ids(32, [1, 5, 9])
    if kind in ("mapi", "mapb"):
        cb = Codebook("dense-sign", 512, 32, seed=1)
        b = mapi.bundle(cb, v) if kind == "mapi" else mapb.bundle_sign(cb, v)
    elif kind == "bloom":
        cb = Codebook("sparse-binary-trials", 512, 32, k=3, seed=3)
        b = bloom.bundle_bloom(cb, v)
    else:
        cb = Codebook("sparse-binary-exact", 512, 32, k=3, seed=4)
        b = cbloom.bundle_count(cb, v)
    return serialize.bundle_to_bytes(b), lambda data: serialize.bundle_from_bytes(data, cb)


@pytest.mark.parametrize("damage", ["truncated", "trailing"])
@pytest.mark.parametrize("kind", ["mapi", "mapb", "bloom", "cbloom", "net"])
def test_wrong_size_payload_rejected(kind, damage):
    data, decode = _encoded(kind)
    decode(data)  # the undamaged bytes decode
    bad = data[:-10] if damage == "truncated" else data + b"junk"
    with pytest.raises(ValueError):
        decode(bad)


def test_short_net_header_and_unknown_arch_tag_rejected():
    data, _ = _encoded("net")
    with pytest.raises(ValueError):
        serialize.net_from_bytes(data[:10])
    bundle, _ = _encoded("mapb")
    with pytest.raises(ValueError):
        serialize.arch_of(bundle[:5] + bytes([99]) + bundle[6:])


@pytest.mark.parametrize("kind", ["mapi", "mapb", "bloom", "cbloom"])
def test_domain_byte_must_match_arch(kind):
    data, decode = _encoded(kind)
    bad = data[:6] + bytes([data[6] ^ 1]) + data[7:]  # another arch's domain
    with pytest.raises(ValueError, match="domain"):
        decode(bad)


def test_mapb_kinds_format_v1_cannot_carry_are_refused():
    cb = Codebook("dense-sign", 512, 32, seed=1)
    seq = SequenceSpec((SymbolSet.from_ids(32, [1, 2]), SymbolSet.from_ids(32, [5])))
    b = mapb.bundle_sequence_sign(cb, seq)
    assert mapb.sequence_membership_test(b, 32 + 5, 0.05).contained
    kv = mapb.bundle_kv_sign(cb, mapb.KeyValueSpec(32, ((1, 20),)))
    chain = mapb.iterated_bundle([Hypervector(cb.column_ints(j), "sign") for j in range(3)],
                                 codebook=cb)
    for bundle in (b, kv, chain):
        with pytest.raises(ValueError, match=bundle.kind):
            serialize.bundle_to_bytes(bundle)


@pytest.mark.parametrize("kind", ["mapb", "bloom"])
def test_padding_bits_past_m_rejected(kind):
    m = 37  # the last payload byte holds bits 32..36 and three padding bits
    if kind == "mapb":
        cb = Codebook("dense-sign", m, 8, seed=2)
        full = mapb.MapBBundle(np.ones(m, np.int8), cb, tie_seed=0)
    else:
        cb = Codebook("sparse-binary-trials", m, 8, k=3, seed=3)
        full = bloom.BloomBundle(np.arange(m), cb)
    data = serialize.bundle_to_bytes(full)
    assert data[-1] == 0b00011111
    back = serialize.bundle_from_bytes(data, cb)  # every bit below m set still decodes
    assert (back.signs == 1).all() if kind == "mapb" else back.popcount() == m
    for pad in (5, 6, 7):
        with pytest.raises(ValueError, match="padding bits past m=37"):
            serialize.bundle_from_bytes(data[:-1] + bytes([data[-1] | 1 << pad]), cb)

