import gc
import math
import re
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from vsakit import hopfield, sizing
from vsakit.codebook import Codebook

from raw_columns import sign_matrix


def sign_hv(*vals):
    return np.array(vals, dtype=np.int8)


def patterns_from(cb, n):
    return [sign_matrix(cb, j, j + 1)[:, 0] for j in range(n)]


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
    x = sign_matrix(cb, 0, 1)[:, 0]
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
    res = sizing.size("hopfield", "store", n=10, delta=0.01)
    assert res.m == 457
    # the returned m satisfies the inequality itself
    assert res.m >= 4 * 10 * math.log(2 * res.m / 0.01)
    assert res.m - 1 < 4 * 10 * math.log(2 * (res.m - 1) / 0.01)  # smallest such m


def test_sizing_monotone_in_delta():
    ms = [sizing.size("hopfield", "store", n=10, delta=d).m for d in (0.001, 0.01, 0.1, 0.5)]
    assert ms == sorted(ms, reverse=True)


@pytest.mark.parametrize("m", [7, 8, 65, 96])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_factored_recall_equals_dense_weights(m, n):
    cb = Codebook("dense-sign", m, n, seed=m * 10 + n)
    net = hopfield.train(patterns_from(cb, n))
    s = net.patterns.astype(np.int64)
    w = s @ s.T - n * np.eye(m, dtype=np.int64)  # the reference W, built here
    assert np.array_equal(net.weights, w)
    gen = np.random.default_rng(m + n)
    for _ in range(5):
        y = gen.integers(-1, 2, size=m)  # probes with zeros
        assert np.array_equal(net.apply(y), w @ y)


def test_recall_builds_no_m_by_m_array():
    m, n = 4096, 8
    pats = patterns_from(Codebook("dense-sign", m, n, seed=2), n)
    probe = hopfield.corrupt(pats[0], m // 4, 0, seed=3)
    tracemalloc.start()
    try:
        net = hopfield.train(pats)
        assert np.array_equal(hopfield.recall(net, probe).vector, pats[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20  # one m x m int64 W alone is 128 MiB


@pytest.mark.parametrize("m", [7, 65])
def test_apply_block_equals_column_calls(m):
    n, k = 4, 6
    net = hopfield.train(patterns_from(Codebook("dense-sign", m, n, seed=m), n))
    block = np.random.default_rng(m).integers(-1, 2, size=(m, k))
    out = net.apply(block)
    assert out.shape == (m, k)
    for j in range(k):
        assert np.array_equal(out[:, j], net.apply(block[:, j]))


@pytest.mark.parametrize("m,n", [(8, 2), (65, 5)])
def test_apply_refuses_integer_probes_outside_zero_and_signs(m, n):
    net = hopfield.train(patterns_from(Codebook("dense-sign", m, n, seed=m + n), n))
    for bad in (2, -3, np.iinfo(np.int64).min, 2.0**63):
        y = np.ones(m, dtype=np.asarray(bad).dtype)
        y[1] = bad
        with pytest.raises(ValueError, match=r"probe entries must be in \{0, -1, \+1\}"):
            net.apply(y)
        with pytest.raises(ValueError, match=r"probe entries must be in \{0, -1, \+1\}"):
            net.apply(np.stack([y, np.zeros_like(y)], axis=1))


def test_apply_refuses_non_integral_probes():
    net = hopfield.train(patterns_from(Codebook("dense-sign", 64, 3, seed=1), 3))
    for bad in (np.full(64, 0.5), np.full(64, np.nan), np.full(64, np.inf),
                np.full(64, 2.0**63), np.full(64, "1"), np.full(64, 1j)):
        with pytest.raises(ValueError, match=r"probe entries must be in \{0, -1, \+1\}"):
            net.apply(bad)
    y = np.random.default_rng(2).integers(-1, 2, size=64)
    assert np.array_equal(net.apply(y.astype(np.float64)), net.apply(y))
    assert np.array_equal(net.apply(y.tolist()), net.apply(y))


def test_recall_and_corrupt_name_a_non_integral_count():
    cb = Codebook("dense-sign", 32, 2, seed=3)
    net = hopfield.train(patterns_from(cb, 2))
    x = patterns_from(cb, 1)[0]
    for bad in (2.5, "3", None):
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            hopfield.recall(net, x, max_iters=bad)
        with pytest.raises(ValueError, match="erasures must be an integer"):
            hopfield.corrupt(x, bad, 0, seed=1)
        with pytest.raises(ValueError, match="flips must be an integer"):
            hopfield.corrupt(x, 0, bad, seed=1)
    assert hopfield.recall(net, x, max_iters=2.0).iters == 1
    assert np.array_equal(hopfield.corrupt(x, 3.0, np.int64(2), seed=1),
                          hopfield.corrupt(x, 3, 2, seed=1))


def test_net_rejects_non_sign_patterns():
    for bad in (np.ones(3), np.zeros((3, 2)), np.ones((0, 2)), np.array([[1, 2]])):
        with pytest.raises(ValueError, match="patterns"):
            hopfield.HopfieldNet(bad)
    net = hopfield.HopfieldNet(np.ones((3, 2)))
    assert net.patterns.dtype == np.int8 and not net.patterns.flags.writeable


def test_hpm_zero_weights():
    cb = Codebook("dense-sign", 8, 4, seed=1, scaled=True)
    b = hopfield.hpm_encode(cb, {}, d_seed=3)
    assert hopfield.hpm_norm_estimate(b) == 0.0


def hadamard_cb():
    for seed in range(4096):
        cb = Codebook("dense-sign", 2, 2, seed=seed, scaled=True)
        mat = sign_matrix(cb, 0, 2)
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
    sized = sizing.size("hopfield", "hpm-norm", eps=0.5, delta=0.05, d=64)
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


#: Unit roundoff of float64.
_U = Fraction(1, 2**53)


def _gram_form(cb, vx, vy, d_seed) -> Fraction:
    """tr(M_x M_y) exactly: (1/m^2) sum over j, l of w_j w'_l G_jl^2.

    w = V D are the signed weights, each float64 weight read as its exact
    rational, and G = S^T S is the integer Gram matrix of the +-1 columns,
    read from the raw stream (``raw_columns.sign_matrix``). With vy = vx
    this is ||M_x||_F^2.
    """
    s = sign_matrix(cb, 0, cb.d).astype(np.int64)
    gram = (s.T @ s).tolist()
    signs = hopfield.diag_signs(d_seed, cb.d).tolist()
    wx = [Fraction(float(v)) * sign for v, sign in zip(vx, signs)]
    wy = [Fraction(float(v)) * sign for v, sign in zip(vy, signs)]
    total = sum(wx[j] * wy[l] * gram[j][l] ** 2
                for j in range(cb.d) if wx[j] for l in range(cb.d) if wy[l])
    return total / cb.m**2


def _rounding_bound(m: int, n: int, l1x: Fraction, l1y: Fraction) -> Fraction:
    """Largest |float estimate - Gram form| that float64 rounding allows.

    With gamma_k = k u / (1 - k u), a sum of k float terms in any order, each
    term carrying one more rounding, is off by at most gamma_k times the sum
    of their magnitudes.
    - Encoder entry: fl(w_j / m) (one rounding) times +-1 (exact), summed
      over the n support columns: off by at most gamma_n A, where
      A = ||w||_1 / m bounds every entry.
    - Estimate: m^2 products (one rounding each) summed in numpy's pairwise
      order. An addend passes through at most 15 additions in its lane of a
      128-element block, 3 to join the 8 lanes, 7 for the block's remainder,
      ceil(log2(m^2 / 128)) + 1 tree levels above the blocks, and two
      additions of margin: depth D = 28 + ceil(log2(m^2 / 128)) at most.
    So the estimate is off by at most m^2 A_x A_y ((1 + gamma_n)^2
    (1 + gamma_(D+1)) - 1), and m^2 A_x A_y = ||w_x||_1 ||w_y||_1.
    """
    depth = 28 + max(0, math.ceil(math.log2(m * m / 128)))

    def gamma(k):
        return k * _U / (1 - k * _U)

    return l1x * l1y * ((1 + gamma(n)) ** 2 * (1 + gamma(depth + 1)) - 1)


def _l1(v) -> Fraction:
    return sum((abs(Fraction(float(w))) for w in v), Fraction(0))


@pytest.mark.parametrize("m", [1, 63, 64, 65, 200, 1365])
def test_hpm_estimates_match_exact_gram_form(m):
    d = 24
    weighted = np.zeros(d)
    weighted[[1, 4, 9, 17, 23]] = [0.5, -2.0, 3.25, 1 / 3, 1e-3]  # and 19 zero entries
    diagonals = {
        "unit": np.isin(np.arange(d), range(8)).astype(float),
        "unit-shifted": np.isin(np.arange(d), range(4, 12)).astype(float),
        "weighted": weighted,
        "explicit-zeros": {0: 0.0, 3: 2.0, 4: -1.5, 9: 0.0, 11: 7.0},
        "all-zero": np.zeros(d),
    }
    pairs = [("unit", "unit-shifted"), ("weighted", "explicit-zeros"),
             ("unit", "weighted"), ("weighted", "all-zero")]
    for seed in range(3):
        cb = Codebook("dense-sign", m, d, seed=seed, scaled=True)
        dense = {name: hopfield._diag_vector(v, d) for name, v in diagonals.items()}
        bundles = {name: hopfield.hpm_encode(cb, v, d_seed=seed + 7)
                   for name, v in diagonals.items()}
        for name, v in dense.items():
            est = hopfield.hpm_norm_estimate(bundles[name])
            exact = _gram_form(cb, v, v, seed + 7)
            bound = _rounding_bound(m, int(np.count_nonzero(v)), _l1(v), _l1(v))
            assert abs(Fraction(est) - exact) <= bound, (name, seed)
        for x, y in pairs:
            est = hopfield.hpm_dot_estimate(bundles[x], bundles[y])
            exact = _gram_form(cb, dense[x], dense[y], seed + 7)
            n = max(np.count_nonzero(dense[x]), np.count_nonzero(dense[y]))
            bound = _rounding_bound(m, int(n), _l1(dense[x]), _l1(dense[y]))
            assert abs(Fraction(est) - exact) <= bound, (x, y, seed)


def test_sizing_hpm_tasks():
    norm = sizing.size("hopfield", "hpm-norm", eps=0.25, delta=0.05, d=512)
    dot = sizing.size("hopfield", "hpm-dot", eps=0.25, delta=0.05, d=512)
    assert dot.m > norm.m  # eps^-2 vs eps^-1
    with pytest.raises(ValueError):
        sizing.size("hopfield", "hpm-norm", eps=0.0, delta=0.05, d=512)


@pytest.mark.parametrize("n", [1, 7, 8, 127, 128, 129, 65535, 65536, 65537, 131075, 1365**2])
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


@pytest.mark.parametrize("n", [0, 1, 127, 129, 65537, 1365**2])
def test_sum_products_into_an_operand_is_numpy_sum_bit_for_bit(n):
    gen = np.random.default_rng(n + 1)
    a, b = gen.standard_normal(n) * 1e3, gen.standard_normal(n)
    expected = repr(float((a * b).sum()))
    assert repr(hopfield._sum_products(a, b, b)) == expected  # overwrites b
    square = repr(float((a * a).sum()))
    assert repr(hopfield._sum_products(a, a, a)) == square  # overwrites a
    signed = np.where(np.arange(n) % 3 == 0, -0.0, 0.0)  # every product a signed zero
    ones = -np.ones(n)
    expected = repr(float((signed * ones).sum()))
    assert expected == "0.0"
    assert repr(hopfield._sum_products(signed, ones, ones)) == expected
    assert repr(hopfield._sum_products(signed, signed, signed)) == expected


def _hpm_instances(m: int) -> list:
    """(cb, V, W, d_seed) instances at m over d=512: norm and dot, both column layouts,
    weighted and empty diagonals, in an order that reuses each buffer after every kind."""
    close = {j: 1.0 for j in range(4, 12)}  # span 7 < 4n + 64: Fortran-ordered columns
    scattered = {j: 1.0 for j in (0, 100, 250, 511)}  # span 511: C-ordered columns
    weighted = {3: 0.5, 9: -2.0, 40: 3.25, 41: 1 / 3, 300: 0.0}
    pairs = [(close, None), (scattered, None), (weighted, None), ({}, None), (close, None),
             (close, scattered), (weighted, close), (scattered, {}), ({}, weighted),
             (close, close), (scattered, weighted)]
    return [(Codebook("dense-sign", m, 512, seed=seed, scaled=True), v, w, seed + 7)
            for seed in range(2) for v, w in pairs]


def _bundle_path(cb, V, W, d_seed) -> float:
    bx = hopfield.hpm_encode(cb, V, d_seed)
    if W is None:
        return hopfield.hpm_norm_estimate(bx)
    return hopfield.hpm_dot_estimate(bx, hopfield.hpm_encode(cb, W, d_seed))


@pytest.mark.parametrize("m", [1, 63, 64, 65, 1365])
def test_hpm_estimates_equal_the_bundle_path_bit_for_bit(m):
    instances = _hpm_instances(m)
    if m > 1:  # both memory orders of sign_columns reach the matmul
        assert not instances[0][0].sign_columns(sorted(instances[0][1])).flags.c_contiguous
        assert instances[1][0].sign_columns(sorted(instances[1][1])).flags.c_contiguous
    got = hopfield.hpm_estimates(instances)
    assert [repr(e) for e in got] == [repr(_bundle_path(*i)) for i in instances]


def test_hpm_estimates_fill_two_buffers_per_m(monkeypatch):
    fresh = []
    kernel = hopfield._hpm_matrix

    def spy(cb, V, d_seed, out=None):
        fresh.append(out is None)
        return kernel(cb, V, d_seed, out)

    monkeypatch.setattr(hopfield, "_hpm_matrix", spy)
    instances = _hpm_instances(64)[:4] + _hpm_instances(65)[5:8] + _hpm_instances(64)[9:11]
    got = hopfield.hpm_estimates(instances)
    monkeypatch.undo()
    assert [repr(e) for e in got] == [repr(_bundle_path(*i)) for i in instances]
    # m=64 norms: one fresh buffer; m=65 dots: two; m=64 again: two more
    assert fresh == [True, False, False, False,
                     True, True, False, False, False, False,
                     True, True, False, False]
    assert hopfield.hpm_estimates([]) == []


def test_hpm_estimates_checks_each_instance():
    cb = Codebook("dense-sign", 8, 4, seed=1, scaled=True)
    for bad, message in (((Codebook("dense-sign", 8, 4, seed=1), {0: 1.0}, None, 1), "scaled"),
                         ((cb, {0: 1.0}, {4: 1.0}, 1), "outside universe")):
        with pytest.raises(ValueError, match=message):
            hopfield.hpm_estimates([(cb, {1: 1.0}, None, 1), bad])


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
    assert peak < 3 * m * m * 8 + 2**20  # one m x m product at a time; a copy would add m^2 * 8
    cb = Codebook("dense-sign", m, 512, seed=4, scaled=True)
    instances = [(cb, {j: 1.0 for j in range(8)}, {j: 1.0 for j in range(s, s + 8)}, 4)
                 for s in (4, 100, 300)]
    tracemalloc.start()
    try:
        hopfield.hpm_estimates(instances)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * m * m * 8 + 2**20  # three dot instances, two buffers


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


def test_corrupt_and_hpm_encode_refuse_a_non_integral_seed():
    cb = Codebook("dense-sign", 32, 8, seed=3, scaled=True)
    x = patterns_from(cb, 1)[0]
    with pytest.raises(ValueError, match="stream seed must be an integer, got 1.5"):
        hopfield.corrupt(x, 5, 0, seed=1.5)
    with pytest.raises(ValueError, match="stream seed must be an integer, got 1.5"):
        hopfield.hpm_encode(cb, {2: 1.0}, d_seed=1.5)
    assert np.array_equal(hopfield.corrupt(x, 5, 0, seed=1.0), hopfield.corrupt(x, 5, 0, seed=1))


def test_hpm_bundle_rejects_wrong_shape():
    cb = Codebook("dense-sign", 64, 8, seed=1, scaled=True)
    for shape in ((1, 64), (64,), (64, 63), (65, 65), (64, 64, 1)):
        with pytest.raises(ValueError, match=r"\(64, 64\)"):
            hopfield.HpmBundle(np.ones(shape), cb, 5)


@pytest.mark.parametrize("key", [True, np.True_, False, np.False_])
def test_hpm_encode_rejects_bool_symbol(key):
    cb = Codebook("dense-sign", 16, 8, seed=2, scaled=True)
    message = f"diagonal index {re.escape(repr(key))} is not an integer"
    with pytest.raises(ValueError, match=message):
        hopfield.hpm_encode(cb, {key: 1.0}, d_seed=5)


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
def test_hpm_encode_rejects_non_finite_weight(weight):
    cb = Codebook("dense-sign", 16, 8, seed=2, scaled=True)
    message = f"diagonal weight at index 3 is not finite: {weight}"
    array = np.ones(8)
    array[3] = weight
    for V in ({1: 1.0, 3: weight}, array):
        with pytest.raises(ValueError, match=re.escape(message)):
            hopfield.hpm_encode(cb, V, d_seed=5)
        with pytest.raises(ValueError, match=re.escape(message)):
            hopfield.hpm_estimates([(cb, {0: 1.0}, V, 5)])


@pytest.mark.parametrize("weight", [True, np.True_, False, np.False_])
def test_hpm_encode_rejects_bool_weight(weight):
    cb = Codebook("dense-sign", 16, 8, seed=2, scaled=True)
    for V, index in (({1: 1.0, 3: weight}, 3), (np.full(8, weight), 0), ([weight] * 8, 0)):
        message = f"diagonal weight at index {index} is a bool, not a number"
        with pytest.raises(ValueError, match=re.escape(message)):
            hopfield.hpm_encode(cb, V, d_seed=5)
        with pytest.raises(ValueError, match=re.escape(message)):
            hopfield.hpm_estimates([(cb, {0: 1.0}, V, 5)])


def test_hpm_encode_rejects_non_integral_symbol():
    cb = Codebook("dense-sign", 16, 8, seed=2, scaled=True)
    with pytest.raises(ValueError, match="not an integer"):
        hopfield.hpm_encode(cb, {1.5: 1.0}, d_seed=5)
    integral = hopfield.hpm_encode(cb, {2.0: 1.0}, d_seed=5)
    assert np.array_equal(integral.matrix, hopfield.hpm_encode(cb, {2: 1.0}, d_seed=5).matrix)
