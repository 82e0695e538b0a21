import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vsakit import bloom, serialize
from vsakit.codebook import Codebook
from vsakit.setalg import SymbolSet


def expected_overlap(m, k, n):
    """Oracle side of the inversion identity: m(1 - (1-1/m)^{kn})."""
    return -m * math.expm1(k * n * math.log1p(-1.0 / m))


def test_h_mk_zero():
    assert bloom.h_mk(64, 4, 0) == 0.0


def test_h_mk_m2_k1():
    assert bloom.h_mk(2, 1, 1) == pytest.approx(1.0)


def test_h_mk_round_trip_example():
    z = expected_overlap(1000, 4, 50)
    assert z == pytest.approx(181.351, abs=0.001)  # 1000 (1 - 0.999^200)
    assert bloom.h_mk(1000, 4, z) == pytest.approx(50.0, rel=1e-9)


@pytest.mark.parametrize("m", [64, 1024, 65536])
@pytest.mark.parametrize("k", [1, 4, 16])
def test_h_mk_round_trip_grid(m, k):
    n = 1
    while k * n <= m // 2:
        est = bloom.h_mk(m, k, expected_overlap(m, k, n))
        assert abs(est - n) <= 1e-9 * n
        n = max(n + 1, int(n * 1.7))


def test_h_mk_round_trip_huge_m():
    # log1p keeps the inversion accurate when 1 - 1/m loses precision
    m = 10**8
    for n in (10, 1000, 100_000):
        est = bloom.h_mk(m, 4, expected_overlap(m, 4, n))
        assert abs(est - n) <= 1e-12 * n


def test_h_mk_monotone_in_z():
    zs = np.linspace(0, 1023, 200)
    vals = [bloom.h_mk(1024, 4, z) for z in zs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_h_mk_saturation_and_validation():
    assert math.isinf(bloom.h_mk(64, 4, 64))
    assert bloom.saturated(bloom.h_mk(64, 4, 64))
    assert not bloom.saturated(bloom.h_mk(64, 4, 10))
    with pytest.raises(ValueError):
        bloom.h_mk(64, 4, -1)
    with pytest.raises(ValueError):
        bloom.h_mk(1, 4, 0)
    with pytest.raises(ValueError):
        bloom.h_mk(64, 0, 0)


def test_bundle_is_or_of_atomic_columns():
    cb = Codebook("sparse-binary-trials", 128, 20, k=5, seed=3)
    v = SymbolSet.from_ids(20, [2, 7, 11])
    b = bloom.bundle_bloom(cb, v)
    manual = np.zeros(128, dtype=np.uint8)
    for j in (2, 7, 11):
        manual[cb.union_indices([j])] = 1
    assert np.array_equal(b.bits, manual)
    assert b.popcount() <= 5 * 3


def test_bundle_basis_and_empty():
    cb = Codebook("sparse-binary-trials", 64, 10, k=4, seed=1)
    assert np.array_equal(
        bloom.bundle_bloom(cb, SymbolSet.from_ids(10, [6])).bits,
        _dense(cb, [6]),
    )
    assert bloom.bundle_bloom(cb, SymbolSet(10)).popcount() == 0


def test_union_monotone():
    cb = Codebook("sparse-binary-trials", 64, 10, k=4, seed=1)
    small = bloom.bundle_bloom(cb, SymbolSet.from_ids(10, [1, 2]))
    big = bloom.bundle_bloom(cb, SymbolSet.from_ids(10, [1, 2, 3, 4]))
    assert (small.bits <= big.bits).all()


def _dense(cb, ids):
    """Reference filter: the OR of the dense atomic columns."""
    bits = np.zeros(cb.m, dtype=np.uint8)
    for j in ids:
        bits[cb.union_indices([j])] = 1
    return bits


@given(eighths=st.integers(1, 40), rem=st.sampled_from([0, 1, 5, 7]), d=st.integers(1, 24),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_positions_equal_dense_reference(eighths, rem, d, seed, data):
    m = 8 * eighths + rem
    k = data.draw(st.integers(1, min(m, 12)), label="k")
    cb = Codebook("sparse-binary-trials", m, d, k=k, seed=seed)
    some_ids = st.sets(st.integers(0, d - 1), max_size=min(d, 8))  # may be empty
    x, y = data.draw(some_ids, label="x"), data.draw(some_ids, label="y")
    bx, by = (bloom.bundle_bloom(cb, SymbolSet.from_ids(d, ids)) for ids in (x, y))
    dense_x, dense_y = _dense(cb, x), _dense(cb, y)

    assert np.array_equal(bx.positions, np.flatnonzero(dense_x))
    assert bx.positions.dtype == np.int64 and not bx.positions.flags.writeable
    assert np.array_equal(bx.bits, dense_x)
    assert bloom.intersection_estimate(bx, by) == bloom.h_mk(m, k, int((dense_x & dense_y).sum()))

    header = struct.pack("<4sBBBBQ32s", b"VSAB", 2, 3, 2, 0, m, serialize.codebook_hash(cb))
    set_at = np.flatnonzero(dense_x)
    width = 1 if set_at.max(initial=0) < 256 else 2  # m <= 327
    data_x = serialize.bundle_to_bytes(bx)
    assert data_x == (header + struct.pack("<BQ", width, set_at.size)
                      + set_at.astype(f"<u{width}").tobytes())
    assert np.array_equal(serialize.bundle_from_bytes(data_x, cb).positions, bx.positions)

    for bad in ([m], [-1], [0, m + 5]):
        with pytest.raises(ValueError, match="must lie in"):
            bloom.BloomBundle(bad, cb)
    if bx.positions.size:
        p = bx.positions
        for bad in (np.r_[p, p[-1]], np.r_[p[0], p]):  # a duplicate
            with pytest.raises(ValueError, match="sorted and unique"):
                bloom.BloomBundle(bad, cb)
    if bx.positions.size >= 2:
        with pytest.raises(ValueError, match="sorted and unique"):
            bloom.BloomBundle(bx.positions[::-1], cb)


def test_sized_filter_builds_no_m_sized_array():
    # At the paper's sizing (eps=0.5, delta=0.05, n=5, n_v=n_w=10) one dense
    # filter is 6.4 MB, while a 15-element set sets at most 7,245 bits.
    cb = Codebook("sparse-binary-trials", 6_366_745, 256, k=483, seed=0)
    wide = SymbolSet.from_ids(256, range(0, 120, 8))  # one gather window of 113 columns
    scattered = SymbolSet.from_ids(256, range(3, 256, 17))  # one window per column
    bloom.bundle_bloom(cb, SymbolSet.from_ids(256, [0]))  # imports numpy.random untraced
    tracemalloc.start()
    try:
        est = bloom.intersection_estimate(bloom.bundle_bloom(cb, wide),
                                          bloom.bundle_bloom(cb, scattered))
        encode_peak = tracemalloc.get_traced_memory()[1]
        data = serialize.bundle_to_bytes(bloom.bundle_bloom(cb, wide))
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        back = serialize.bundle_from_bytes(data, cb)
        decode_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert est == bloom.intersection_estimate(back, bloom.bundle_bloom(cb, scattered))
    assert back.popcount() > 7000
    assert encode_peak < 1_000_000
    assert decode_peak < 2_000_000


def test_bundle_validation():
    cb = Codebook("sparse-binary-exact", 64, 10, k=4, seed=1)
    with pytest.raises(ValueError):
        bloom.bundle_bloom(cb, SymbolSet.from_ids(10, [1]))  # wrong kind
    cb2 = Codebook("sparse-binary-trials", 64, 10, k=4, seed=1)
    with pytest.raises(ValueError):
        bloom.bundle_bloom(cb2, SymbolSet(10, {1: 2}))  # weighted
    assert bloom.BloomBundle([], cb2).popcount() == 0
    for bad in ([1.0, 2.0], [[1, 2]], [True, False]):
        with pytest.raises(ValueError, match="1-D integer"):
            bloom.BloomBundle(bad, cb2)


def test_size_estimate_single_symbol():
    # mean within 0.1 of 1 (m=4096, k=8)
    vals = []
    for seed in range(500):
        cb = Codebook("sparse-binary-trials", 4096, 4, k=8, seed=seed)
        vals.append(bloom.size_estimate(bloom.bundle_bloom(cb, SymbolSet.from_ids(4, [0]))))
    assert abs(np.mean(vals) - 1.0) <= 0.1


def test_size_estimate_n64():
    # mean within 2% of 64 (m=4096, k=8) over 1000 trials
    vals = []
    for seed in range(1000):
        cb = Codebook("sparse-binary-trials", 4096, 128, k=8, seed=seed)
        v = SymbolSet.from_ids(128, range(64))
        vals.append(bloom.size_estimate(bloom.bundle_bloom(cb, v)))
    assert abs(np.mean(vals) - 64) <= 0.02 * 64


def test_intersection_self_is_size():
    cb = Codebook("sparse-binary-trials", 256, 16, k=4, seed=9)
    b = bloom.bundle_bloom(cb, SymbolSet.from_ids(16, [0, 5, 9]))
    assert bloom.intersection_estimate(b, b) == bloom.size_estimate(b)


def test_intersection_disjoint_small():
    vals = []
    for seed in range(500):
        cb = Codebook("sparse-binary-trials", 4096, 8, k=8, seed=seed)
        b1 = bloom.bundle_bloom(cb, SymbolSet.from_ids(8, [0]))
        b2 = bloom.bundle_bloom(cb, SymbolSet.from_ids(8, [1]))
        vals.append(bloom.intersection_estimate(b1, b2))
    assert np.mean(vals) <= 0.1


def test_intersection_codebook_mismatch():
    b1 = bloom.bundle_bloom(Codebook("sparse-binary-trials", 64, 8, k=4, seed=1),
                            SymbolSet.from_ids(8, [0]))
    b2 = bloom.bundle_bloom(Codebook("sparse-binary-trials", 64, 8, k=4, seed=2),
                            SymbolSet.from_ids(8, [0]))
    with pytest.raises(ValueError):
        bloom.intersection_estimate(b1, b2)


def test_sizing_closed_form():
    res = bloom.sizing_bloom(eps=1.0, delta=0.05, n=0, n_v=0, n_w=1)
    assert res.k == 242  # ceil((196/3) ln 40)
    assert res.m == res.k  # degenerate membership-like case collapses to k


def test_sizing_delta_halving_additive():
    c1 = 98.0 / 3.0
    eps = 0.5
    k1 = 2 * c1 * math.log(2 / 0.05) / eps
    k2 = 2 * c1 * math.log(2 / 0.025) / eps
    assert k2 - k1 == pytest.approx((2 * c1 / eps) * math.log(2))
    assert bloom.sizing_bloom(eps=eps, delta=0.05, n=1, n_v=1, n_w=1).k == math.ceil(k1)
    assert bloom.sizing_bloom(eps=eps, delta=0.025, n=1, n_v=1, n_w=1).k == math.ceil(k2)


def test_sizing_swaps_and_validates():
    a = bloom.sizing_bloom(eps=0.5, delta=0.05, n=2, n_v=3, n_w=7)
    b = bloom.sizing_bloom(eps=0.5, delta=0.05, n=2, n_v=7, n_w=3)
    assert a.m == b.m and a.k == b.k
    with pytest.raises(ValueError):
        bloom.sizing_bloom(eps=0.0, delta=0.05, n=1, n_v=1, n_w=1)
    with pytest.raises(ValueError):
        bloom.sizing_bloom(eps=0.5, delta=1.0, n=1, n_v=1, n_w=1)
