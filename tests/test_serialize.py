import dataclasses
import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vsakit import bloom, cbloom, hopfield, mapb, mapi, serialize
from vsakit.codebook import Codebook
from vsakit.setalg import SequenceSpec, SymbolSet


def test_mapi_round_trip():
    cb = Codebook("dense-sign", 32, 8, seed=1, scaled=True)
    b = mapi.bundle(cb, SymbolSet.from_ids(8, [1, 5]))
    back = serialize.bundle_from_bytes(serialize.bundle_to_bytes(b), cb)
    assert np.array_equal(back.ints, b.ints)
    assert back.scaled == b.scaled


def test_codebook_hash_is_the_memoized_sha256_of_its_json():
    base = dict(kind="sparse-binary-exact", m=64, d=32, k=3, seed=5, scaled=False)
    variants = [base, dict(base, kind="sparse-binary-trials"), dict(base, m=65),
                dict(base, d=33), dict(base, k=4), dict(base, seed=6),
                dict(base, kind="dense-sign", k=None),
                dict(base, kind="dense-sign", k=None, scaled=True)]
    hashes = []
    for fields in variants:
        cb = Codebook(**fields)
        digest = serialize.codebook_hash(cb)
        assert digest == hashlib.sha256(cb.to_json().encode("utf-8")).digest()
        assert serialize.codebook_hash(Codebook(**fields)) is digest  # an equal codebook hits
        hashes.append(digest)
    assert len(set(hashes)) == len(variants)  # every field changes the hash


def test_bundles_compare_by_identity():
    v = SymbolSet.from_ids(8, [1, 5])
    dense = Codebook("dense-sign", 64, 8, seed=1, scaled=True)
    makers = [
        lambda: mapi.bundle(dense, v),
        lambda: mapb.bundle_sign(Codebook("dense-sign", 64, 8, seed=1), v),  # one word
        lambda: mapb.bundle_sign(Codebook("dense-sign", 200, 8, seed=1), v),
        lambda: bloom.bundle_bloom(Codebook("sparse-binary-trials", 100, 8, k=3, seed=3), v),
        lambda: cbloom.bundle_count(Codebook("sparse-binary-exact", 100, 8, k=3, seed=3), v),
        lambda: hopfield.hpm_encode(dense, {1: 1.0, 5: 1.0}, d_seed=2),
    ]
    for make in makers:
        a, b = make(), make()  # equal values, two objects
        assert a == a and a != b and not a == b
        assert len({a, b}) == 2


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
    # positions at word and byte edges, and in the partial last word: one byte each
    cb = Codebook("sparse-binary-trials", 203, 8, k=3, seed=3)  # 25 whole bytes + 3 bits
    edges = np.array([0, 7, 8, 62, 63, 64, 127, 128, 191, 192, 199, 200, 202])
    data = serialize.bundle_to_bytes(bloom.BloomBundle(edges, cb))
    assert data[48:] == (b"\x01" + b"\x0d\x00\x00\x00\x00\x00\x00\x00"
                         + bytes([0, 7, 8, 62, 63, 64, 127, 128, 191, 192, 199, 200, 202]))
    assert np.array_equal(serialize.bundle_from_bytes(data, cb).positions, edges)
    # the width is the fewest of 1/2/4/8 bytes that hold the last position
    for m, top, width in ((257, 255, 1), (257, 256, 2), (65537, 65535, 2), (65537, 65536, 4)):
        cb = Codebook("sparse-binary-trials", m, 8, k=3, seed=3)
        data = serialize.bundle_to_bytes(bloom.BloomBundle([0, top], cb))
        assert data[48:] == bytes([width, 2, 0, 0, 0, 0, 0, 0, 0]) + b"".join(
            p.to_bytes(width, "little") for p in (0, top))
        assert serialize.bundle_from_bytes(data, cb).positions.tolist() == [0, top]


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


def _encoded(kind):
    """(bytes, decoder) for one small bundle of each arch."""
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
@pytest.mark.parametrize("kind", ["mapi", "mapb", "bloom", "cbloom"])
def test_wrong_size_payload_rejected(kind, damage):
    data, decode = _encoded(kind)
    decode(data)  # the undamaged bytes decode
    bad = data[:-10] if damage == "truncated" else data + b"junk"
    with pytest.raises(ValueError):
        decode(bad)


def test_unknown_arch_tag_rejected():
    bundle, _ = _encoded("mapb")
    with pytest.raises(ValueError):
        serialize.arch_of(bundle[:5] + bytes([99]) + bundle[6:])


@pytest.mark.parametrize("kind", ["mapi", "mapb", "bloom", "cbloom"])
def test_domain_byte_must_match_arch(kind):
    data, decode = _encoded(kind)
    bad = data[:6] + bytes([data[6] ^ 1]) + data[7:]  # another arch's domain
    with pytest.raises(ValueError, match="domain"):
        decode(bad)


def test_mapb_bundle_holds_only_its_wire_form():
    assert [f.name for f in dataclasses.fields(mapb.MapBBundle)] == ["words", "codebook"]
    assert [f.name for f in dataclasses.fields(mapb.TestResult)] == [
        "contained", "score", "threshold"]


@pytest.mark.parametrize("m", [37, 517])
@pytest.mark.parametrize("kind", ["set", "sequence", "kv", "chain"])
def test_every_mapb_kind_round_trips_scoring_alike(kind, m):
    d = 32
    cb = Codebook("dense-sign", m, d, seed=1)
    seq = SequenceSpec((SymbolSet.from_ids(d, [1, 2]), SymbolSet.from_ids(d, [5]),
                        SymbolSet.from_ids(d, [2, 7, 30])))
    b = {"set": lambda: mapb.bundle_sign(cb, SymbolSet.from_ids(d, [0, 3, 31])),
         "sequence": lambda: mapb.bundle_sequence_sign(cb, seq),
         "kv": lambda: mapb.bundle_kv_sign(cb, mapb.KeyValueSpec(d, ((1, 20), (4, 21)))),
         "chain": lambda: mapb.iterated_bundle(cb, range(3), tie_seed=5)}[kind]()
    data = serialize.bundle_to_bytes(b)
    assert len(data) == 48 + -(-m // 8)
    back = serialize.bundle_from_bytes(data, cb)
    assert type(back) is mapb.MapBBundle and back.codebook == cb
    assert back.words.tolist() == b.words.tolist()
    ids = range(d)
    assert mapb.membership_scores(back, ids).tolist() == mapb.membership_scores(b, ids).tolist()
    assert mapb.empty_intersection_test(back, b, 0.05) == mapb.empty_intersection_test(b, b, 0.05)
    for ell in range(len(seq.sets)):
        assert (mapb.sequence_membership_scores(back, ell, ids).tolist()
                == mapb.sequence_membership_scores(b, ell, ids).tolist())
    pairs = [(1, 20), (4, 21), (20, 1), (1, 21), (0, 31)]
    assert (mapb.kv_membership_scores(back, pairs).tolist()
            == mapb.kv_membership_scores(b, pairs).tolist())
    assert (mapb.kv_member_threshold(back.m, back.codebook.d, 0.05)
            == mapb.kv_member_threshold(b.m, b.codebook.d, 0.05))


@pytest.mark.parametrize("kind", ["mapb"])
def test_padding_bits_past_m_rejected(kind):
    m = 37  # the last payload byte holds bits 32..36 and three padding bits
    cb = Codebook("dense-sign", m, 8, seed=2)
    full = mapb.MapBBundle(np.array([(1 << m) - 1], np.uint64), cb)
    data = serialize.bundle_to_bytes(full)
    assert data[-1] == 0b00011111
    back = serialize.bundle_from_bytes(data, cb)  # every bit below m set still decodes
    assert (back.signs == 1).all()
    for pad in (5, 6, 7):
        with pytest.raises(ValueError, match="padding bits past m=37"):
            serialize.bundle_from_bytes(data[:-1] + bytes([data[-1] | 1 << pad]), cb)


def _uints(width, values, count=None):
    """A uints payload written by hand: width byte, u64 count, the values."""
    count = len(values) if count is None else count
    return struct.pack("<BQ", width, count) + b"".join(v.to_bytes(width, "little") for v in values)


def test_bloom_bad_positions_rejected():
    cb = Codebook("sparse-binary-trials", 300, 8, k=3, seed=3)
    header = serialize.bundle_to_bytes(bloom.BloomBundle([], cb))[:48]
    assert serialize.bundle_from_bytes(header + _uints(2, [3, 299]), cb).positions.tolist() \
        == [3, 299]
    refused = {
        "sorted and unique": [_uints(2, [5, 3]), _uints(2, [3, 3]), _uints(1, [0, 9, 9])],
        "must lie in": [_uints(2, [3, 300]), _uints(8, [2**64 - 1]), _uints(2, [0, 65535])],
        "value width": [bytes([w]) + _uints(1, [3])[1:] for w in (0, 3, 5, 16, 255)],
        "expected": [_uints(2, [3, 7], count=3), _uints(2, [3, 7], count=1),
                     _uints(2, [3, 7], count=2**64 - 1), _uints(2, [3, 7])[:-1]],
        "truncated": [b"", b"\x02", _uints(2, [])[:8]],
    }
    for message, payloads in refused.items():
        for payload in payloads:
            with pytest.raises(ValueError, match=message):
                serialize.bundle_from_bytes(header + payload, cb)


def test_cbloom_count_must_equal_m():
    cb = Codebook("sparse-binary-exact", 16, 4, k=3, seed=4)
    data = serialize.bundle_to_bytes(cbloom.bundle_count(cb, SymbolSet(4, {0: 2})))
    assert data[48:57] == _uints(1, [], count=16)
    counts = list(data[57:])
    assert serialize.bundle_from_bytes(data[:48] + _uints(1, counts), cb).mass() == 6
    for short in (counts[:-1], counts + [0]):
        with pytest.raises(ValueError, match="holds .* counts, expected m=16"):
            serialize.bundle_from_bytes(data[:48] + _uints(1, short), cb)


@pytest.mark.parametrize("kind", ["mapi", "mapb", "bloom", "cbloom"])
def test_unknown_flag_bits_rejected(kind):
    data, decode = _encoded(kind)
    for flags in range(1 + (kind == "mapi"), 256):
        with pytest.raises(ValueError, match="unknown flag bits"):
            decode(data[:7] + bytes([flags]) + data[8:])


@pytest.mark.parametrize("scaled", [False, True])
def test_mapi_scaled_flag_must_match_codebook(scaled):
    cb = Codebook("dense-sign", 64, 8, seed=1, scaled=scaled)
    b = mapi.bundle(cb, SymbolSet.from_ids(8, [2, 3]))
    data = serialize.bundle_to_bytes(b)
    assert data[7] == scaled
    assert serialize.bundle_from_bytes(data, cb).scaled == scaled
    flipped = data[:7] + bytes([1 - data[7]]) + data[8:]
    with pytest.raises(ValueError, match=f"scaled flag is {1 - scaled}, but its codebook "
                                         f"has scaled={scaled}"):
        serialize.bundle_from_bytes(flipped, cb)


def test_bundle_format_v1_refused():
    cb = Codebook("sparse-binary-trials", 100, 8, k=3, seed=3)
    b = bloom.bundle_bloom(cb, SymbolSet.from_ids(8, [0, 7]))
    v1 = struct.pack("<4sBBBBQ32s", b"VSAB", 1, 3, 2, 0, 100, serialize.codebook_hash(cb))
    with pytest.raises(ValueError, match="unsupported bundle version 1"):
        serialize.bundle_from_bytes(v1 + np.packbits(b.bits, bitorder="little").tobytes(), cb)
    for kind in ("mapi", "mapb", "bloom", "cbloom"):
        data, decode = _encoded(kind)
        assert data[4] == 2
        with pytest.raises(ValueError, match="unsupported bundle version 1"):
            decode(data[:4] + b"\x01" + data[5:])


def test_sized_bloom_filter_is_written_as_positions():
    # 15 elements at the paper's sizing: v1 wrote 795,892 bytes of packed bits
    cb = Codebook("sparse-binary-trials", 6_366_745, 256, k=483, seed=0)
    b = bloom.bundle_bloom(cb, SymbolSet.from_ids(256, range(0, 120, 8)))
    data = serialize.bundle_to_bytes(b)
    assert len(data) == 48 + 9 + 4 * b.popcount() <= 40_000
    assert np.array_equal(serialize.bundle_from_bytes(data, cb).positions, b.positions)


# -- every bundle arch: round trip and damaged bytes ---------------------------

_CODEBOOK_KIND = {"mapi": "dense-sign", "mapb": "dense-sign",
                  "bloom": "sparse-binary-trials", "cbloom": "sparse-binary-exact"}
_VALUES = {"mapi": "ints", "mapb": "signs", "bloom": "positions", "cbloom": "counts"}


@st.composite
def _bundles(draw):
    """(arch, bundle, codebook) for a random m (multiples of 8 and 64 included)
    and a random set, possibly empty; MAP-I and Counting Bloom sets are weighted."""
    arch = draw(st.sampled_from(sorted(serialize.ARCHS)), label="arch")
    m = draw(st.sampled_from([1, 7, 8, 9, 63, 64, 65, 128, 255, 256, 257, 320])
             | st.integers(1, 600), label="m")
    d = draw(st.integers(1, 24), label="d")
    kind = _CODEBOOK_KIND[arch]
    k = draw(st.integers(1, min(m, 8)), label="k") if kind != "dense-sign" else None
    scaled = draw(st.booleans(), label="scaled") if kind == "dense-sign" else False
    cb = Codebook(kind, m, d, k=k, seed=draw(st.integers(0, 2**32 - 1), label="seed"),
                  scaled=scaled)
    ids = draw(st.sets(st.integers(0, d - 1), max_size=min(d, 8)), label="ids")
    top = 1 if arch in ("mapb", "bloom") else draw(st.sampled_from([1, 255, 300, 70_000]))
    v = SymbolSet(d, {i: draw(st.integers(1, top)) for i in sorted(ids)})
    return arch, serialize.ARCHS[arch].encode(cb, v), cb


def _decodes_to_codebook_m_or_refuses(data, cb):
    try:
        back = serialize.bundle_from_bytes(data, cb)
    except ValueError:
        return
    assert back.m == cb.m
    values = getattr(back, _VALUES[serialize.arch_of(data)])
    assert values.dtype == np.int64 or values.dtype == np.int8
    if not isinstance(back, bloom.BloomBundle):
        assert values.shape == (cb.m,)


@given(_bundles())
def test_bundle_round_trip_any_arch(drawn):
    arch, b, cb = drawn
    data = serialize.bundle_to_bytes(b)
    assert serialize.arch_of(data) == arch
    back = serialize.bundle_from_bytes(data, cb)
    assert type(back) is type(b) and back.m == cb.m
    assert np.array_equal(getattr(back, _VALUES[arch]), getattr(b, _VALUES[arch]))
    if arch == "mapi":
        assert back.scaled == b.scaled


@given(_bundles(), st.binary(max_size=96))
def test_bundle_decoder_on_arbitrary_payload(drawn, payload):
    _, b, cb = drawn
    _decodes_to_codebook_m_or_refuses(serialize.bundle_to_bytes(b)[:48] + payload, cb)


@given(drawn=_bundles(), cut=st.integers(0, 2**16), tail=st.binary(min_size=1, max_size=16),
       at=st.integers(0, 2**16), byte=st.integers(0, 255))
def test_bundle_decoder_on_damaged_bytes(drawn, cut, tail, at, byte):
    _, b, cb = drawn
    data = serialize.bundle_to_bytes(b)
    with pytest.raises(ValueError):
        serialize.bundle_from_bytes(data[: cut % len(data)], cb)
    with pytest.raises(ValueError):
        serialize.bundle_from_bytes(data + tail, cb)
    at %= len(data)
    _decodes_to_codebook_m_or_refuses(data[:at] + bytes([byte]) + data[at + 1 :], cb)


def test_bundle_to_bytes_refuses_what_is_not_a_bundle():
    with pytest.raises(TypeError, match="^not a serializable bundle: str$"):
        serialize.bundle_to_bytes("bundle")
