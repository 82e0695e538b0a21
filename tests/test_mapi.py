import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from vsakit import mapi, rng, setalg
from vsakit.codebook import Codebook
from vsakit.setalg import BindingBundleSpec, SequenceSpec, SymbolSet


def hadamard_2x2_seed(scaled=False):
    """Seed whose dense-sign 2x2 codebook has columns (1,1) and (1,-1)."""
    for seed in range(4096):
        cb = Codebook("dense-sign", 2, 2, seed=seed, scaled=scaled)
        mat = cb.sign_matrix(0, 2)
        if mat[:, 0].tolist() == [1, 1] and mat[:, 1].tolist() == [1, -1]:
            return cb
    raise AssertionError("no 2x2 Hadamard seed in search range")


def test_bundle_basis_case():
    cb = Codebook("dense-sign", 32, 6, seed=4)
    b = mapi.bundle(cb, SymbolSet.from_ids(6, [3]))
    assert np.array_equal(b.ints, cb.sign_matrix(3, 4)[:, 0])


def test_bundle_empty_is_zero():
    cb = Codebook("dense-sign", 16, 6, seed=4)
    assert not mapi.bundle(cb, SymbolSet(6)).ints.any()


def test_bundle_fixed_columns_hand_example():
    cb = hadamard_2x2_seed()
    b = mapi.bundle(cb, SymbolSet.from_ids(2, [0, 1]))
    assert b.ints.tolist() == [2, 0]


def test_bundle_requires_dense_sign():
    cb = Codebook("sparse-binary-exact", 16, 6, k=2, seed=4)
    with pytest.raises(ValueError):
        mapi.bundle(cb, SymbolSet.from_ids(6, [1]))


def test_linearity_exact():
    cb = Codebook("dense-sign", 64, 20, seed=12)
    v = SymbolSet(20, {1: 2, 5: 1})
    w = SymbolSet(20, {5: 3, 9: 1})
    lhs = mapi.add(mapi.bundle(cb, v), mapi.bundle(cb, w))
    rhs = mapi.bundle(cb, setalg.add(v, w))
    assert np.array_equal(lhs.ints, rhs.ints)


def test_polarization_identity_exact():
    cb = Codebook("dense-sign", 48, 30, seed=5, scaled=True)
    b1 = mapi.bundle(cb, SymbolSet.from_ids(30, [0, 4, 7]))
    b2 = mapi.bundle(cb, SymbolSet.from_ids(30, [4, 9]))
    both = mapi.add(b1, b2)
    lhs = 2 * mapi.raw_dot(b1, b2)
    rhs = mapi.raw_dot(both, both) - mapi.raw_dot(b1, b1) - mapi.raw_dot(b2, b2)
    assert lhs == rhs  # exact integer algebra


def test_norm_sq_estimate_exact_hadamard():
    cb = hadamard_2x2_seed(scaled=True)
    b = mapi.bundle(cb, SymbolSet.from_ids(2, [0, 1]))
    assert mapi.norm_sq_estimate(b) == pytest.approx(2.0)
    empty = mapi.bundle(cb, SymbolSet(2))
    assert mapi.norm_sq_estimate(empty) == 0.0


def test_norm_sq_requires_scaled():
    cb = Codebook("dense-sign", 8, 4, seed=1)
    with pytest.raises(ValueError):
        mapi.norm_sq_estimate(mapi.bundle(cb, SymbolSet.from_ids(4, [0])))


def test_singleton_norm_is_exact():
    cb = Codebook("dense-sign", 2048, 10, seed=3, scaled=True)
    b = mapi.bundle(cb, SymbolSet.from_ids(10, [7]))
    assert mapi.norm_sq_estimate(b) == pytest.approx(1.0)


def test_dot_and_intersection_hadamard():
    cb = hadamard_2x2_seed(scaled=True)
    b0 = mapi.bundle(cb, SymbolSet.from_ids(2, [0]))
    b1 = mapi.bundle(cb, SymbolSet.from_ids(2, [1]))
    assert mapi.dot_estimate(b0, b0) == pytest.approx(1.0)
    assert mapi.dot_estimate(b0, b1) == pytest.approx(0.0)
    assert mapi.intersection_estimate(b0, b1) == 0
    assert mapi.symdiff_estimate(b0, b1) == pytest.approx(2.0)
    assert mapi.symdiff_estimate(b0, b0) == 0.0


_WEIGHTS = st.dictionaries(st.integers(0, 7), st.integers(1, 2**62), min_size=1, max_size=4)


@given(m=st.integers(1, 70), seed=st.integers(0, 2**32 - 1), wv=_WEIGHTS, ww=_WEIGHTS)
@example(m=64, seed=0, wv={1: 2**33, 2: 2**33}, ww={1: 2**33, 2: 2**33})  # wrapped to 0.0
def test_huge_weights_are_exact(m, seed, wv, ww):
    cb = Codebook("dense-sign", m, 8, seed=seed, scaled=True)
    v, w = SymbolSet(8, wv), SymbolSet(8, ww)
    for s in (v, w):
        if s.l1() >= 2**63:
            with pytest.raises(ValueError, match=r"below 2\*\*63"):
                mapi.bundle(cb, s)
    if max(v.l1(), w.l1()) >= 2**63:
        return
    rows = cb.sign_matrix(0, 8).tolist()  # Python-int reference for S v and S w
    a = [sum(weight * row[j] for j, weight in v.entries.items()) for row in rows]
    b = [sum(weight * row[j] for j, weight in w.entries.items()) for row in rows]
    bv, bw = mapi.bundle(cb, v), mapi.bundle(cb, w)
    assert bv.ints.tolist() == a and bw.ints.tolist() == b
    assert mapi.raw_dot(bv, bw) == sum(x * y for x, y in zip(a, b))
    assert mapi.norm_sq_estimate(bv) == sum(x * x for x in a) / m
    assert mapi.symdiff_estimate(bv, bw) == sum((x - y) ** 2 for x, y in zip(a, b)) / m


@pytest.mark.parametrize("m", [1, 63, 64, 65, 1367])
@given(seed=st.integers(0, 2**32 - 1),
       entries=st.dictionaries(st.integers(0, 4999), st.integers(1, 2**40),
                               min_size=1, max_size=12))
@example(seed=0, entries={0: 1, 1: 2, 4999: 3})  # scattered: one window per column
@example(seed=0, entries={7: 2**60, 9: 2**60 + 3, 8: 1})  # one window; |S v| near 2**61
@example(seed=0, entries={3: 1, 4: 1, 4000: 1})  # a 0/1 set: the plain sum of bits
def test_packed_bundle_equals_sign_matrix_reference(m, seed, entries):
    cb = Codebook("dense-sign", m, 5000, seed=seed)
    v = SymbolSet(5000, entries)
    ids = sorted(entries)
    # Python-int reference: each column read alone from the (m, 1) sign matrix
    cols = [cb.sign_matrix(j, j + 1)[:, 0].tolist() for j in ids]
    expected = [sum(entries[j] * col[i] for j, col in zip(ids, cols)) for i in range(m)]
    assert mapi.bundle(cb, v).ints.tolist() == expected


def _norm_case(m, d, n, seeds):
    """Per seed: the columns' words of an n-set and its one-set norm estimate."""
    words, expected = [], []
    for seed in seeds:
        cb = Codebook("dense-sign", m, d, seed=seed, scaled=True)
        ids = rng.choose_distinct(rng.Stream(seed, "set").words(0, max(n, 1)), d, n)
        words.append(cb.sign_words(ids))
        expected.append(mapi.norm_sq_estimate(mapi.bundle(cb, SymbolSet.from_ids(d, ids.tolist()))))
    return words, expected


@pytest.mark.parametrize("m", [1, 64, 119])
@pytest.mark.parametrize("n", [0, 1, 16, 40])  # 40 = d: every column
@pytest.mark.parametrize("per_stack", [1, 3, 7, 50])  # one, partial, all, more than all
def test_flat_norm_estimates_equal_one_set_path(monkeypatch, m, n, per_stack):
    words, expected = _norm_case(m, 40, n, range(7))
    monkeypatch.setattr(mapi, "_STACK_BYTES", per_stack * max(1, n * m))
    got = mapi.flat_norm_sq_estimates(m, iter(words))
    assert [x.hex() for x in got] == [x.hex() for x in expected]


def test_flat_norm_estimates_take_words_one_stack_at_a_time(monkeypatch):
    words, _ = _norm_case(64, 40, 16, range(5))
    monkeypatch.setattr(mapi, "_STACK_BYTES", 2 * 16 * 64)  # two sets per stack
    taken, taken_at_kernel = [], []
    real = mapi._signed_sums
    monkeypatch.setattr(mapi, "_signed_sums",
                        lambda *args: taken_at_kernel.append(len(taken)) or real(*args))
    got = mapi.flat_norm_sq_estimates(64, (taken.append(w) or w for w in words))
    assert len(got) == 5 and taken_at_kernel == [2, 4, 5]
    assert mapi.flat_norm_sq_estimates(64, iter([])) == []


def test_flat_norm_estimates_python_int_fallback(monkeypatch):
    words, expected = _norm_case(119, 256, 256, range(4))
    monkeypatch.setattr(mapi, "_peak", lambda a: 2**62)  # every int64 guard fails
    dots = []
    real_dot = mapi._dot
    monkeypatch.setattr(mapi, "_dot", lambda a, b: dots.append(1) or real_dot(a, b))
    assert mapi.flat_norm_sq_estimates(119, words) == expected
    assert len(dots) == 4  # each norm summed with Python ints


def test_sums_of_bundles_refuse_to_wrap():
    # Each part is below 2**63, but the sums reach 3 * 2**62 and 2**63.
    cb = Codebook("dense-sign", 64, 8, seed=0, scaled=True)
    v = SymbolSet(8, {1: 2**62})
    with pytest.raises(ValueError, match=r"below 2\*\*63"):
        mapi.encode_sequence(cb, SequenceSpec((v, v, v)))
    b = mapi.bundle(cb, v)
    with pytest.raises(ValueError, match=r"below 2\*\*63"):
        mapi.add(b, b)
    small = mapi.bundle(cb, SymbolSet(8, {2: 2**62 - 1}))
    assert mapi.add(b, small).ints.tolist() == [x + y for x, y in zip(b.ints.tolist(),
                                                                      small.ints.tolist())]
    # A total of 2**63 - 1 still encodes, exactly: R^0 S v_0 + R^1 S v_1.
    two = mapi.encode_sequence(cb, SequenceSpec((v, SymbolSet(8, {1: 2**62 - 1}))))
    c = cb.sign_matrix(1, 2)[:, 0].tolist()
    expected = [2**62 * c[i] + (2**62 - 1) * c[(i + 1) % 64] for i in range(64)]
    assert two.ints.tolist() == expected
    assert mapi.norm_sq_estimate(two) == sum(x * x for x in expected) / 64


def test_intersection_rounds_half_away_and_clamps():
    cb = Codebook("dense-sign", 4, 4, seed=0, scaled=True)
    b = mapi.bundle(cb, SymbolSet.from_ids(4, [0]))
    # synthetic bundles with known dot products
    minus = mapi.MapIBundle(-b.ints, cb, True)
    assert mapi.intersection_estimate(b, minus) == 0  # negative clamps to 0


def test_codebook_mismatch_rejected():
    b1 = mapi.bundle(Codebook("dense-sign", 8, 4, seed=1, scaled=True),
                     SymbolSet.from_ids(4, [0]))
    b2 = mapi.bundle(Codebook("dense-sign", 8, 4, seed=2, scaled=True),
                     SymbolSet.from_ids(4, [0]))
    with pytest.raises(ValueError):
        mapi.dot_estimate(b1, b2)


def test_bundle_holds_exactly_m_sums():
    cb = Codebook("dense-sign", 128, 4, seed=1)
    assert mapi.MapIBundle(np.ones(128, np.int64), cb, True).m == 128
    for bad in (np.ones(5, np.int64), np.ones(129, np.int64), np.ones((2, 64), np.int64),
                np.ones((128, 1), np.int64), np.int64(3)):
        with pytest.raises(ValueError, match="m=128"):
            mapi.MapIBundle(bad, cb, True)


def test_encode_sequence_l1_equals_bundle():
    cb = Codebook("dense-sign", 32, 10, seed=6, scaled=True)
    v = SymbolSet.from_ids(10, [2, 5])
    seq = SequenceSpec((v,))
    assert np.array_equal(mapi.encode_sequence(cb, seq).ints, mapi.bundle(cb, v).ints)


def test_encode_sequence_empty_sets():
    cb = Codebook("dense-sign", 32, 10, seed=6)
    seq = SequenceSpec((SymbolSet(10), SymbolSet(10)))
    assert not mapi.encode_sequence(cb, seq).ints.any()


def test_encode_sequence_rotates_blocks():
    cb = Codebook("dense-sign", 32, 10, seed=6)
    seq = SequenceSpec((SymbolSet(10), SymbolSet.from_ids(10, [3])))
    enc = mapi.encode_sequence(cb, seq)
    assert np.array_equal(enc.ints, np.roll(cb.sign_matrix(3, 4)[:, 0].astype(np.int64), -1))


def test_binding_bundle_single_edge():
    cb = Codebook("dense-sign", 16, 8, seed=9)
    spec = BindingBundleSpec(8, frozenset({frozenset({2, 5})}))
    enc = mapi.encode_binding_bundle(cb, spec)
    expect = cb.sign_matrix(2, 3)[:, 0].astype(np.int64) * cb.sign_matrix(5, 6)[:, 0]
    assert np.array_equal(enc.ints, expect)


def test_binding_self_inverse():
    cb = Codebook("dense-sign", 16, 8, seed=9)
    spec = BindingBundleSpec(8, frozenset({frozenset({2, 5})}))
    enc = mapi.encode_binding_bundle(cb, spec)
    recovered = enc.ints * cb.sign_matrix(5, 6)[:, 0]
    assert np.array_equal(recovered, cb.sign_matrix(2, 3)[:, 0].astype(np.int64))


@pytest.mark.parametrize("m", [1, 63, 64, 65, 160])
@pytest.mark.parametrize("arity", [2, 3, 4, 5])
def test_binding_bundle_equals_python_product_reference(m, arity):
    d = 9
    combos = list(itertools.combinations(range(d), arity))
    for seed in range(3):
        cb = Codebook("dense-sign", m, d, seed=seed)
        edges = combos[seed::11][:6]
        # Python-int reference: each bound column is the product of its entries
        rows = cb.sign_matrix(0, d).tolist()
        prods = [[math.prod(row[j] for j in edge) for row in rows] for edge in edges]
        spec = BindingBundleSpec(d, frozenset(frozenset(edge) for edge in edges))
        enc = mapi.encode_binding_bundle(cb, spec)
        assert enc.ints.tolist() == [sum(col) for col in zip(*prods)]
        # bound_words: +1 -> bit set, and the bits past m stay clear
        packed = np.zeros((len(edges), 8 * -(-m // 64)), np.uint8)
        packed[:, : -(-m // 8)] = np.packbits(np.array(prods) > 0, axis=1, bitorder="little")
        assert np.array_equal(mapi.bound_words(cb, edges), packed.view("<u8"))


def test_binding_norm_concentrates():
    sized = mapi.sizing_mapi("binding2", eps=0.5, delta=0.05, v_l1=8)
    cb = Codebook("dense-sign", sized.m, 64, seed=21, scaled=True)
    ok = 0
    for t in range(50):
        ids = rng.choose_distinct(rng.Stream(t, "edges").words(0, 16), 64, 16)
        edges = frozenset(
            frozenset({int(ids[2 * i]), int(ids[2 * i + 1])}) for i in range(8)
        )
        enc = mapi.encode_binding_bundle(
            Codebook("dense-sign", sized.m, 64, seed=1000 + t, scaled=True),
            BindingBundleSpec(64, edges),
        )
        ok += abs(mapi.norm_sq_estimate(enc) - 8) <= 0.5 * 8
    assert ok >= 45


def test_symdiff_statistical():
    sized = mapi.sizing_mapi("norm", eps=0.5, delta=0.05)
    ok = 0
    for t in range(200):
        cb = Codebook("dense-sign", sized.m, 64, seed=t, scaled=True)
        x = SymbolSet.from_ids(64, range(0, 12))
        y = SymbolSet.from_ids(64, range(8, 20))  # symmetric difference 16
        est = mapi.symdiff_estimate(mapi.bundle(cb, x), mapi.bundle(cb, y))
        ok += abs(est - 16) <= 0.5 * 16
    assert ok >= 180


def test_sequence_symbols_norm_concentrates():
    # K-dependent sizing: symbols repeated across positions still concentrate
    K, L, n = 2, 4, 6
    sized = mapi.sizing_mapi("sequence-symbols", eps=0.5, delta=0.05, K=K)
    from vsakit import harness

    cell = {"m": sized.m, "n": n, "d": 64, "L": L, "K": K, "eps": 0.5}
    outcomes = harness.run_trials("mapi", "sequence-symbols", cell, range(100))
    assert sum(o.passed for o in outcomes) >= 90


def test_jl_norm_statistical():
    sized = mapi.sizing_mapi("norm", eps=0.5, delta=0.05)
    fails = 0
    trials = 1000
    for t in range(trials):
        cb = Codebook("dense-sign", sized.m, 64, seed=t, scaled=True)
        v = SymbolSet.from_ids(64, range(16))
        est = mapi.norm_sq_estimate(mapi.bundle(cb, v))
        fails += abs(est - 16) > 0.5 * 16
    assert fails / trials <= 0.07  # 5% + slack


def test_sequence_parts_independent_chi_square():
    # coordinate 0 of S v0 and of R S v1 over many seeds: 2x2 independence
    counts = np.zeros((2, 2))
    for seed in range(10_000):
        cb = Codebook("dense-sign", 4, 2, seed=seed)
        x = cb.sign_matrix(0, 1)[:, 0][0]
        y = np.roll(cb.sign_matrix(1, 2)[:, 0], -1)[0]
        counts[(x + 1) // 2, (y + 1) // 2] += 1
    total = counts.sum()
    row = counts.sum(axis=1, keepdims=True)
    col = counts.sum(axis=0, keepdims=True)
    expected = row @ col / total
    chi2 = ((counts - expected) ** 2 / expected).sum()
    assert chi2 < 10.828  # df=1 critical value at p=0.001


def test_sizing_pairs_closed_form():
    res = mapi.sizing_mapi("pairs", N=16, M=100, delta=0.01)
    assert res.m == 1179
    assert res.formula == "mapi.pairs"


def test_sizing_norm_scalings():
    c = 8.0
    base = c * 0.5**-2 * math.log(2 / 0.05)
    assert mapi.sizing_mapi("norm", eps=0.5, delta=0.05).m == math.ceil(base)
    assert mapi.sizing_mapi("norm", eps=0.25, delta=0.05).m == math.ceil(4 * base)
    bumped = c * 0.5**-2 * math.log(2 * math.e / 0.05)
    assert bumped - base == pytest.approx(c * 0.5**-2)
    assert mapi.sizing_mapi("norm", eps=0.5, delta=0.05 / math.e).m == math.ceil(bumped)


def test_sizing_monotonicity():
    small = mapi.sizing_mapi("sequence", eps=0.5, delta=0.05, L=2).m
    assert mapi.sizing_mapi("sequence", eps=0.5, delta=0.05, L=4).m >= small
    assert mapi.sizing_mapi("sequence-symbols", eps=0.5, delta=0.05, K=2).m <= \
        mapi.sizing_mapi("sequence-symbols", eps=0.5, delta=0.05, K=3).m


def test_sizing_missing_and_invalid():
    with pytest.raises(ValueError):
        mapi.sizing_mapi("pairs", N=16, delta=0.01)  # missing M
    with pytest.raises(ValueError):
        mapi.sizing_mapi("norm", eps=-1, delta=0.05)
    with pytest.raises(ValueError):
        mapi.sizing_mapi("norm", eps=0.5, delta=1.5)
    with pytest.raises(ValueError):
        mapi.sizing_mapi("no-task", eps=0.5, delta=0.05)


def test_sizing_bindingk_present():
    res = mapi.sizing_mapi("bindingK", eps=0.5, delta=0.05, v_l1=8, k=3)
    assert res.m >= mapi.sizing_mapi("binding2", eps=0.5, delta=0.05, v_l1=8).m
