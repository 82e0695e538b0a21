import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from vsakit import hopfield
from vsakit.codebook import Codebook


def sign_hv(*vals):
    return np.array(vals, dtype=np.int8)


def patterns_from(cb, n):
    return [cb.sign_matrix(j, j + 1)[:, 0] for j in range(n)]


def test_train_single_pattern():
    x = sign_hv(1, -1, 1)
    net = hopfield.train([x])
    expect = np.outer(x, x).astype(np.int64)
    np.fill_diagonal(expect, 0)
    assert np.array_equal(net.weights, expect)


def test_train_invariants_random():
    cb = Codebook("dense-sign", 48, 8, seed=3)
    net = hopfield.train(patterns_from(cb, 8))
    assert np.array_equal(net.weights, net.weights.T)
    assert not net.weights.diagonal().any()


def test_train_hand_entry():
    net = hopfield.train([sign_hv(1, 1, -1), sign_hv(1, -1, 1)])
    assert net.weights[0, 1] == 0  # 1*1 + 1*(-1)


def test_stored_pattern_is_fixed_point():
    x = sign_hv(1, -1, 1, 1, -1)
    net = hopfield.train([x])
    result = hopfield.recall(net, x)
    assert result.converged and result.iters == 1
    assert np.array_equal(result.vector, x)


def test_recall_hand_example_erased():
    x = sign_hv(1, 1, -1, 1)
    net = hopfield.train([x])
    probe = np.array([1, 1, 0, 0])
    step = hopfield.recall_step(net, probe)
    assert np.array_equal(step, x)  # W y = x (x^T y) - y = 2x - y, signge recovers x


def test_signge_maps_zero_up():
    assert hopfield.signge(np.array([0, -1, 2])).tolist() == [1, -1, 1]


def test_recall_is_deterministic():
    cb = Codebook("dense-sign", 64, 4, seed=9)
    net = hopfield.train(patterns_from(cb, 4))
    probe = hopfield.corrupt(patterns_from(cb, 4)[0], 20, 0, seed=5)
    r1 = hopfield.recall(net, probe)
    r2 = hopfield.recall(net, probe)
    assert np.array_equal(r1.vector, r2.vector) and r1.iters == r2.iters


def test_corrupt_counting_identity():
    cb = Codebook("dense-sign", 128, 2, seed=4)
    x = cb.sign_matrix(0, 1)[:, 0]
    for e, f in ((0, 0), (10, 0), (0, 7), (13, 5)):
        y = hopfield.corrupt(x, e, f, seed=e * 31 + f)
        assert int(y.astype(np.int64) @ x.astype(np.int64)) == 128 - e - 2 * f
        assert int(np.count_nonzero(y == 0)) == e
    assert np.array_equal(hopfield.corrupt(x, 0, 0, seed=1), x)
    assert not hopfield.corrupt(x, 128, 0, seed=1).any()
    with pytest.raises(ValueError):
        hopfield.corrupt(x, 100, 29, seed=1)


def test_probe_entries_validated():
    net = hopfield.train([sign_hv(1, -1, 1)])
    for bad in (np.array([2, 0, 0]), np.array([1, 0]), np.ones((3, 1)), np.int64(1)):
        with pytest.raises(ValueError):
            hopfield.recall_step(net, bad)
        with pytest.raises(ValueError):
            hopfield.recall(net, bad)


def test_train_and_corrupt_refuse_non_sign_or_non_1d_input():
    bad_inputs = (np.array([1, 0, -1]), np.array([1, 2, -1]), np.array([0.5, 1.0, -1.0]),
                  np.ones((3, 1), np.int8), np.ones((1, 3), np.int8), np.int8(1))
    for bad in bad_inputs:
        with pytest.raises(ValueError, match=r"1-D array of \+-1"):
            hopfield.corrupt(bad, 0, 0, seed=1)
        with pytest.raises(ValueError, match=r"1-D array of \+-1"):
            hopfield.train([sign_hv(1, -1, 1), bad])
    with pytest.raises(ValueError, match="at least one"):
        hopfield.train([])
    with pytest.raises(ValueError, match="same shape"):
        hopfield.train([sign_hv(1, -1, 1), sign_hv(1, -1)])
    assert hopfield.corrupt(np.array([1.0, -1.0]), 0, 0, seed=1).dtype == np.int8


def test_sizing_fixed_point():
    res = hopfield.sizing_hopfield(n=10, delta=0.01)
    assert res.m == 457
    # the returned m satisfies the inequality itself
    assert res.m >= 4 * 10 * math.log(2 * res.m / 0.01)
    assert res.m - 1 < 4 * 10 * math.log(2 * (res.m - 1) / 0.01)  # smallest such m


def test_sizing_monotone_in_delta():
    ms = [hopfield.sizing_hopfield(n=10, delta=d).m for d in (0.001, 0.01, 0.1, 0.5)]
    assert ms == sorted(ms, reverse=True)


def test_thin_keep_all_identical():
    cb = Codebook("dense-sign", 48, 4, seed=6)
    pats = patterns_from(cb, 4)
    net = hopfield.train(pats)
    thinned = hopfield.thin(net, range(48))
    probe = hopfield.corrupt(pats[1], 10, 0, seed=2)
    assert np.array_equal(hopfield.recall(net, probe).vector, hopfield.recall(thinned, probe).vector)


def test_thin_rejects_empty_and_oob():
    net = hopfield.train([sign_hv(1, -1, 1)])
    with pytest.raises(ValueError):
        hopfield.thin(net, [])
    with pytest.raises(IndexError):
        hopfield.thin(net, [5])


def test_thin_recovery_statistical():
    n, delta = 4, 0.05
    m = 4 * hopfield.sizing_hopfield(n=n, delta=delta).m  # m much larger than needed
    keep_size = math.ceil(4 * n * math.log(2 * m / delta))
    ok = 0
    for seed in range(100):
        cb = Codebook("dense-sign", m, n, seed=seed)
        pats = patterns_from(cb, n)
        net = hopfield.train(pats)
        thinned = hopfield.thin(net, range(keep_size))
        out = hopfield.recall(thinned, pats[0])
        ok += out.converged and np.array_equal(out.vector, pats[0])
    assert ok >= 93


@pytest.mark.parametrize("m", [7, 8, 65, 96])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_factored_recall_equals_dense_weights(m, n):
    cb = Codebook("dense-sign", m, n, seed=m * 10 + n)
    net = hopfield.train(patterns_from(cb, n))
    s = net.patterns.astype(np.int64)
    w = s @ s.T - n * np.eye(m, dtype=np.int64)  # the reference W, built here
    assert np.array_equal(net.weights, w)
    gen = np.random.default_rng(m + n)
    keeps = [[0], [m - 1], range(0, m, 2), range(m // 2), gen.choice(m, m // 3 + 1, replace=False)]
    for _ in range(5):
        y = gen.integers(-1, 2, size=m)  # probes with zeros
        assert np.array_equal(net.apply(y), w @ y)
        for keep in keeps:
            k = np.asarray(list(keep))
            assert np.array_equal(hopfield.thin(net, keep).apply(y), w[:, k] @ y[k])


def test_recall_builds_no_m_by_m_array():
    m, n = 4096, 8
    pats = patterns_from(Codebook("dense-sign", m, n, seed=2), n)
    probe = hopfield.corrupt(pats[0], m // 4, 0, seed=3)
    tracemalloc.start()
    try:
        net = hopfield.train(pats)
        assert np.array_equal(hopfield.recall(net, probe).vector, pats[0])
        assert hopfield.recall(hopfield.thin(net, range(m // 2)), pats[0]).converged
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20  # one m x m int64 W alone is 128 MiB


@pytest.mark.parametrize("m", [7, 65])
def test_apply_block_equals_column_calls(m):
    n, k = 4, 6
    net = hopfield.train(patterns_from(Codebook("dense-sign", m, n, seed=m), n))
    block = np.random.default_rng(m).integers(-1, 2, size=(m, k))
    for each in (net, hopfield.thin(net, range(0, m, 3))):
        out = each.apply(block)
        assert out.shape == (m, k)
        for j in range(k):
            assert np.array_equal(out[:, j], each.apply(block[:, j]))


def test_net_rejects_non_sign_patterns_and_bad_mask():
    for bad in (np.ones(3), np.zeros((3, 2)), np.ones((0, 2)), np.array([[1, 2]])):
        with pytest.raises(ValueError):
            hopfield.HopfieldNet(bad, np.ones(len(bad), np.int8))
    with pytest.raises(ValueError):
        hopfield.HopfieldNet(np.ones((3, 2)), np.ones(2, np.int8))
    with pytest.raises(ValueError):
        hopfield.HopfieldNet(np.ones((3, 2)), np.array([1, 2, 0]))


def test_hpm_zero_weights():
    cb = Codebook("dense-sign", 8, 4, seed=1, scaled=True)
    b = hopfield.hpm_encode(cb, {}, d_seed=3)
    assert hopfield.hpm_norm_estimate(b) == 0.0


def hadamard_cb():
    for seed in range(4096):
        cb = Codebook("dense-sign", 2, 2, seed=seed, scaled=True)
        mat = cb.sign_matrix(0, 2)
        if abs(int(mat[:, 0] @ mat[:, 1])) == 0:
            return cb
    raise AssertionError("no orthogonal 2x2 codebook found")


def test_hpm_exact_when_columns_orthonormal():
    cb = hadamard_cb()  # scaled columns are orthonormal, error term vanishes
    b = hopfield.hpm_encode(cb, {0: 1.0, 1: 2.0}, d_seed=7)
    assert hopfield.hpm_norm_estimate(b) == pytest.approx(5.0)


def test_hpm_norm_invariant_under_global_d_flip():
    cb = Codebook("dense-sign", 32, 16, seed=5, scaled=True)
    v = {1: 1.0, 4: 1.0, 9: 2.0}
    b = hopfield.hpm_encode(cb, v, d_seed=11)
    signs = hopfield.diag_signs(11, 16)
    support = np.array(sorted(v))
    cols = cb.sign_columns(support).astype(float)
    weights = np.array([v[i] for i in sorted(v)])
    flipped = (cols * (weights * -signs[support]) / cb.m) @ cols.T
    assert np.allclose(hopfield.hpm_norm_estimate(b), (flipped * flipped).sum())


def test_hpm_matrix_symmetry():
    cb = Codebook("dense-sign", 64, 32, seed=8, scaled=True)
    b = hopfield.hpm_encode(cb, {2: 1.0, 7: 3.0, 30: 2.0}, d_seed=1)
    assert np.allclose(b.matrix, b.matrix.T, rtol=0, atol=1e-15)


def test_hpm_requires_scaled_dense():
    with pytest.raises(ValueError):
        hopfield.hpm_encode(Codebook("dense-sign", 8, 4, seed=1), {0: 1.0}, d_seed=1)


def test_hpm_dot_seed_mismatch():
    cb = Codebook("dense-sign", 16, 8, seed=2, scaled=True)
    b1 = hopfield.hpm_encode(cb, {0: 1.0}, d_seed=1)
    b2 = hopfield.hpm_encode(cb, {1: 1.0}, d_seed=2)
    with pytest.raises(ValueError):
        hopfield.hpm_dot_estimate(b1, b2)


def test_hpm_dot_statistical():
    sized = hopfield.sizing_hpm("hpm-norm", eps=0.5, delta=0.05, d=64)
    ok = 0
    for seed in range(60):
        cb = Codebook("dense-sign", sized.m, 64, seed=seed, scaled=True)
        x = {int(i): 1.0 for i in range(8)}
        y = {int(i): 1.0 for i in range(4, 12)}
        bx = hopfield.hpm_encode(cb, x, d_seed=seed)
        by = hopfield.hpm_encode(cb, y, d_seed=seed)
        est = hopfield.hpm_dot_estimate(bx, by)
        ok += abs(est - 4.0) <= 0.5 * 8.0  # tr(XY), +-eps ||X||_F ||Y||_F
    assert ok >= 54


def test_sizing_hpm_tasks():
    norm = hopfield.sizing_hpm("hpm-norm", eps=0.25, delta=0.05, d=512)
    dot = hopfield.sizing_hpm("hpm-dot", eps=0.25, delta=0.05, d=512)
    assert dot.m > norm.m  # eps^-2 vs eps^-1
    with pytest.raises(ValueError):
        hopfield.sizing_hpm("hpm-norm", eps=0.0, delta=0.05, d=512)


_LEAF = hopfield._LEAF


@pytest.mark.parametrize("n", [1, 7, 8, 127, 128, 129, _LEAF - 1, _LEAF, _LEAF + 1,
                               2 * _LEAF + 3, 1365**2])
def test_sum_products_is_numpy_sum_bit_for_bit(n):
    gen = np.random.default_rng(n)
    a, b = gen.standard_normal(n) * 1e3, gen.standard_normal(n)
    assert repr(hopfield._sum_products(a, b)) == repr(float((a * b).sum()))
    zeros, ones = np.full(n, -0.0), np.ones(n)  # every product is -0.0
    assert repr(hopfield._sum_products(zeros, ones)) == repr(float((zeros * ones).sum())) == "0.0"


def test_sum_products_on_matrices_bit_for_bit():
    gen = np.random.default_rng(7)
    for m in (100, 333, 1365):
        a, b = gen.standard_normal((m, m)), gen.standard_normal((m, m))
        assert repr(hopfield._sum_products(a, b)) == repr(float((a * b).sum()))
        assert repr(hopfield._sum_products(a, a)) == repr(float((a * a).sum()))


def _sized_hpm_pair():
    cb = Codebook("dense-sign", 1365, 512, seed=4, scaled=True)
    return (hopfield.hpm_encode(cb, {j: 1.0 for j in range(8)}, d_seed=4),
            hopfield.hpm_encode(cb, {j: 1.0 for j in range(4, 12)}, d_seed=4))


def test_hpm_encode_and_estimates_keep_two_matrices():
    m = 1365
    tracemalloc.start()
    try:
        bx, by = _sized_hpm_pair()
        hopfield.hpm_norm_estimate(bx)
        hopfield.hpm_dot_estimate(bx, by)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * m * m * 8 + 2**20  # a copy or an m x m product would add m^2 * 8


def test_estimate_leaves_no_reference_to_bundles():
    gc.disable()
    try:
        bx, by = _sized_hpm_pair()
        ref = weakref.ref(bx.matrix)
        hopfield.hpm_dot_estimate(bx, by)
        hopfield.hpm_norm_estimate(bx)
        del bx, by
        assert ref() is None  # freed by reference counting alone, no cycle
    finally:
        gc.enable()


def test_hpm_bundle_copies_a_callers_array_only():
    cb = Codebook("dense-sign", 16, 8, seed=2, scaled=True)
    encoded = hopfield.hpm_encode(cb, {1: 1.0, 3: 2.0}, d_seed=5)
    assert not encoded.matrix.flags.writeable
    kept = hopfield.HpmBundle(encoded.matrix, cb, 5)
    assert kept.matrix is encoded.matrix  # read-only, owned, float64, C order
    mine = np.ones((16, 16))
    bundle = hopfield.HpmBundle(mine, cb, 5)
    mine[0, 0] = 7.0
    assert bundle.matrix[0, 0] == 1.0 and not bundle.matrix.flags.writeable
    for other in (np.ones((16, 16), np.float32), np.asfortranarray(np.ones((16, 16))),
                  encoded.matrix[:, :], encoded.matrix.tolist()):
        copied = hopfield.HpmBundle(other, cb, 5).matrix
        assert copied is not other and copied.dtype == np.float64
        assert copied.flags.c_contiguous and copied.flags.owndata
        assert not copied.flags.writeable


def test_hpm_bundle_rejects_wrong_shape():
    cb = Codebook("dense-sign", 64, 8, seed=1, scaled=True)
    for shape in ((1, 64), (64,), (64, 63), (65, 65), (64, 64, 1)):
        with pytest.raises(ValueError, match=r"\(64, 64\)"):
            hopfield.HpmBundle(np.ones(shape), cb, 5)


def test_hpm_encode_rejects_non_integral_symbol():
    cb = Codebook("dense-sign", 16, 8, seed=2, scaled=True)
    with pytest.raises(ValueError, match="not an integer"):
        hopfield.hpm_encode(cb, {1.5: 1.0}, d_seed=5)
    integral = hopfield.hpm_encode(cb, {2.0: 1.0}, d_seed=5)
    assert np.array_equal(integral.matrix, hopfield.hpm_encode(cb, {2: 1.0}, d_seed=5).matrix)
