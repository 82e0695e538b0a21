import numpy as np
import pytest

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


def test_hopfield_net_round_trip():
    cb = Codebook("dense-sign", 20, 5, seed=6)
    net = hopfield.train([Hypervector(cb.column_ints(j), "sign") for j in range(5)])
    back = serialize.net_from_bytes(serialize.net_to_bytes(net))
    assert np.array_equal(back.weights, net.weights)
    assert back.n == net.n


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
