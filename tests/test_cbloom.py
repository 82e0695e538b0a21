import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vsakit import cbloom, rng, setalg
from vsakit.codebook import Codebook
from vsakit.setalg import SymbolSet


def random_weighted_pair(d, seed, max_weight=4, max_support=6):
    words = rng.Stream(seed, "pairgen").words(0, 4 * max_support + 2)
    n_a = 1 + int(words[0] % np.uint64(max_support))
    n_b = 1 + int(words[1] % np.uint64(max_support))
    ids_a = rng.choose_distinct(words[2 : 2 + n_a], d, n_a)
    ids_b = rng.choose_distinct(words[2 + n_a : 2 + n_a + n_b], d, n_b)
    tail = words[2 + n_a + n_b :]
    wa = {int(s): 1 + int(tail[i] % np.uint64(max_weight)) for i, s in enumerate(ids_a)}
    wb = {int(s): 1 + int(tail[n_a + i] % np.uint64(max_weight)) for i, s in enumerate(ids_b)}
    return SymbolSet(d, wa), SymbolSet(d, wb)


def test_bundle_atomic_and_doubled():
    cb = Codebook("sparse-binary-exact", 64, 12, k=5, seed=3)
    single = cbloom.bundle_count(cb, SymbolSet(12, {4: 1}))
    double = cbloom.bundle_count(cb, SymbolSet(12, {4: 2}))
    column = np.zeros(64, dtype=np.int8)
    column[cb.exact_indices([4])[0]] = 1
    assert np.array_equal(single.counts, column)
    assert np.array_equal(double.counts, 2 * single.counts)


def test_mass_conservation_exact():
    cb = Codebook("sparse-binary-exact", 97, 30, k=7, seed=5)
    for seed in range(50):
        v, _ = random_weighted_pair(30, seed)
        assert cbloom.bundle_count(cb, v).mass() == 7 * v.l1()


def test_linearity_exact():
    cb = Codebook("sparse-binary-exact", 64, 12, k=3, seed=1)
    v = SymbolSet(12, {0: 1, 3: 2})
    w = SymbolSet(12, {3: 1, 8: 4})
    lhs = cbloom.add(cbloom.bundle_count(cb, v), cbloom.bundle_count(cb, w))
    rhs = cbloom.bundle_count(cb, setalg.add(v, w))
    assert np.array_equal(lhs.counts, rhs.counts)


def test_self_intersection_is_l1():
    cb = Codebook("sparse-binary-exact", 64, 12, k=3, seed=1)
    v = SymbolSet(12, {0: 2, 5: 3})
    b = cbloom.bundle_count(cb, v)
    assert cbloom.generalized_intersection_estimate(b, b) == v.l1()


def test_one_sided_bias_never_violated():
    # (1/k)(x wedge y) >= v wedge w for every seed, deterministic
    for seed in range(1000):
        cb = Codebook("sparse-binary-exact", 53, 24, k=4, seed=seed)
        v, w = random_weighted_pair(24, seed)
        est = cbloom.generalized_intersection_estimate(
            cbloom.bundle_count(cb, v), cbloom.bundle_count(cb, w)
        )
        assert est >= setalg.wedgedot(v, w)


def test_disjoint_supports_near_zero():
    vals = []
    for seed in range(300):
        cb = Codebook("sparse-binary-exact", 8192, 4, k=8, seed=seed)
        b1 = cbloom.bundle_count(cb, SymbolSet.from_ids(4, [0]))
        b2 = cbloom.bundle_count(cb, SymbolSet.from_ids(4, [1]))
        vals.append(cbloom.generalized_intersection_estimate(b1, b2))
    assert np.mean(vals) <= 0.05


def test_l1_estimate_identities():
    cb = Codebook("sparse-binary-exact", 128, 8, k=4, seed=2)
    v = SymbolSet(8, {0: 1, 1: 2})
    w = SymbolSet(8, {1: 2, 2: 3})
    bv, bw = cbloom.bundle_count(cb, v), cbloom.bundle_count(cb, w)
    assert cbloom.l1_distance_estimate(bv, bv, v.l1(), v.l1()) == 0.0
    est = cbloom.l1_distance_estimate(bv, bw, v.l1(), w.l1())
    assert est <= setalg.l1_distance(v, w) == 4
    empty = cbloom.bundle_count(cb, SymbolSet(8))
    assert cbloom.l1_distance_estimate(bv, empty, v.l1(), 0) == v.l1()


def test_statistical_overshoot_bound():
    eps, delta = 0.5, 0.05
    sized = cbloom.sizing_cbloom(eps=eps, delta=delta, K_b=2, n_v=2, n_w=2)
    fails = 0
    trials = 200
    for seed in range(trials):
        cb = Codebook("sparse-binary-exact", sized.m, 16, k=sized.k, seed=seed)
        v = SymbolSet(16, {0: 2, 1: 1, 2: 2})
        w = SymbolSet(16, {0: 2, 1: 1, 3: 2})  # wedgedot 3, n_v = n_w = 2
        est = cbloom.generalized_intersection_estimate(
            cbloom.bundle_count(cb, v), cbloom.bundle_count(cb, w)
        )
        overshoot = est - setalg.wedgedot(v, w)
        assert overshoot >= 0.0
        fails += overshoot >= eps
    assert fails / trials <= delta + 3 * math.sqrt(delta * (1 - delta) / trials)


def test_sizing_closed_form():
    res = cbloom.sizing_cbloom(eps=1.0, delta=math.exp(-3), K_b=1, n_v=3, n_w=5)
    assert res.k == 2
    assert res.m == math.ceil(12 * math.pi**2 * 2 * 15)


def test_sizing_eps_scaling_and_degenerate():
    m1 = cbloom.sizing_cbloom(eps=1.0, delta=0.05, K_b=1, n_v=4, n_w=4).m
    m2 = cbloom.sizing_cbloom(eps=0.5, delta=0.05, K_b=1, n_v=4, n_w=4).m
    assert 3.5 * m1 <= m2 <= 4.5 * m1  # eps^-2 combined scaling, up to ceilings
    degenerate = cbloom.sizing_cbloom(eps=1.0, delta=0.05, K_b=1, n_v=0, n_w=9)
    assert degenerate.m == 2  # floor value: estimator is exact when one side is empty


def test_sizing_validation():
    with pytest.raises(ValueError):
        cbloom.sizing_cbloom(eps=1.0, delta=0.05, K_b=0, n_v=1, n_w=1)
    with pytest.raises(ValueError):
        cbloom.sizing_cbloom(eps=-1.0, delta=0.05, K_b=1, n_v=1, n_w=1)


def test_codebook_kind_enforced():
    cb = Codebook("sparse-binary-trials", 64, 8, k=4, seed=2)
    with pytest.raises(ValueError):
        cbloom.bundle_count(cb, SymbolSet.from_ids(8, [0]))


def test_bundle_holds_exactly_m_counts():
    cb = Codebook("sparse-binary-exact", 50, 8, k=4, seed=2)
    assert cbloom.CountBundle(np.ones(50), cb).mass() == 50
    for bad in (np.ones(7), np.ones(51), np.ones((2, 25)), np.ones((50, 1)), np.int64(1)):
        with pytest.raises(ValueError, match="expected m=50"):
            cbloom.CountBundle(bad, cb)


@given(seed=st.integers(0, 2**32 - 1),
       entries=st.dictionaries(st.integers(0, 39), st.integers(1, 2**58), max_size=12))
def test_bundle_count_equals_per_column_reference(seed, entries):
    # m = 6 and k = 3: columns share rows, so np.add.at must add repeated rows.
    cb = Codebook("sparse-binary-exact", 6, 40, k=3, seed=seed)
    counts = np.zeros(6, dtype=np.int64)
    for j, w in entries.items():
        counts[cb.exact_indices([j])[0]] += w
    b = cbloom.bundle_count(cb, SymbolSet(40, entries))
    assert np.array_equal(b.counts, counts)
    assert b.mass() == 3 * sum(entries.values())


def test_huge_weights_are_exact_or_refused():
    cb = Codebook("sparse-binary-exact", 16, 4, k=3, seed=0)
    with pytest.raises(ValueError, match=r"below 2\*\*63"):
        cbloom.bundle_count(cb, SymbolSet(4, {0: 2**62, 1: 2**62, 2: 2**62}))
    b = cbloom.bundle_count(cb, SymbolSet(4, {0: 2**62, 1: 2**62 - 1}))
    assert b.mass() == 3 * (2**63 - 1)  # past int64: summed as Python ints
    assert cbloom.generalized_intersection_estimate(b, b) == float(2**63 - 1)
    with pytest.raises(ValueError, match=r"below 2\*\*63"):
        cbloom.add(b, b)
    one = cbloom.bundle_count(cb, SymbolSet(4, {3: 1}))
    assert cbloom.add(one, one).mass() == 6
