import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vsakit import cbloom, rng, setalg, sizing
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
    lhs = cbloom.bundle_count(cb, v).counts + cbloom.bundle_count(cb, w).counts
    rhs = cbloom.bundle_count(cb, setalg.add(v, w))
    assert np.array_equal(lhs, rhs.counts)


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
    sized = sizing.size("cbloom", "intersection", eps=eps, delta=delta, K_b=2, n_v=2, n_w=2)
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
    res = sizing.size("cbloom", "intersection", eps=1.0, delta=math.exp(-3), K_b=1, n_v=3, n_w=5)
    assert res.k == 2
    assert res.m == math.ceil(12 * math.pi**2 * 2 * 15)


def test_sizing_eps_scaling_and_degenerate():
    m1 = sizing.size("cbloom", "intersection", eps=1.0, delta=0.05, K_b=1, n_v=4, n_w=4).m
    m2 = sizing.size("cbloom", "intersection", eps=0.5, delta=0.05, K_b=1, n_v=4, n_w=4).m
    assert 3.5 * m1 <= m2 <= 4.5 * m1  # eps^-2 combined scaling, up to ceilings
    degenerate = sizing.size("cbloom", "intersection", eps=1.0, delta=0.05, K_b=1, n_v=0, n_w=9)
    assert degenerate.m == 2  # floor value: estimator is exact when one side is empty


def test_sizing_validation():
    with pytest.raises(ValueError):
        sizing.size("cbloom", "intersection", eps=1.0, delta=0.05, K_b=0, n_v=1, n_w=1)
    with pytest.raises(ValueError):
        sizing.size("cbloom", "intersection", eps=-1.0, delta=0.05, K_b=1, n_v=1, n_w=1)


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


def test_bundle_owns_frozen_counts_and_copies_the_callers():
    cb = Codebook("sparse-binary-exact", 50, 8, k=4, seed=2)
    encoded = cbloom.bundle_count(cb, SymbolSet(8, {0: 2, 5: 1}))
    assert not encoded.counts.flags.writeable
    assert cbloom.CountBundle(encoded.counts, cb).counts is encoded.counts
    mine = np.zeros(50, dtype=np.int64)
    bundle = cbloom.CountBundle(mine, cb)
    mine[0] = 7
    assert bundle.counts is not mine and bundle.counts[0] == 0
    assert not bundle.counts.flags.writeable
    for other in (encoded.counts[::-1], np.ones(50, dtype=np.int32), np.ones(50).tolist()):
        copied = cbloom.CountBundle(other, cb).counts
        assert copied is not other and copied.dtype == np.int64
        assert copied.flags.owndata and not copied.flags.writeable


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


def _same_bundle(got, want):
    assert got.codebook == want.codebook
    assert np.array_equal(got.counts, want.counts) and got.counts.dtype == np.int64
    assert got.counts.flags.owndata and not got.counts.flags.writeable


def _dense_min_sum(cb, v, w):
    """The min-sum of the dense bundles of v and w: generalized_intersection_estimate's, times k."""
    bv, bw = cbloom.bundle_count(cb, v), cbloom.bundle_count(cb, w)
    total = cbloom._total(np.minimum(bv.counts, bw.counts))
    assert total / cb.k == cbloom.generalized_intersection_estimate(bv, bw)
    return total


def _kernel_sets(weights, d, ids=None):
    """The v and w that ``min_sums`` reads from the weights of n columns ``ids`` (0..n-1) of [d]."""
    ids = range(len(weights[0])) if ids is None else ids
    return [SymbolSet(d, {j: wt for j, wt in zip(ids, side) if wt}) for side in weights]


#: Weights of columns 0..5 in v and in w: zero leaves a column out, and most
#: columns sit in both sets, usually with different weights.
_column_weights = st.lists(st.tuples(st.integers(0, 2**58), st.integers(0, 2**58)),
                           min_size=0, max_size=6)


@given(seeds=st.lists(st.integers(0, 2**64 - 1), max_size=5), columns=_column_weights)
def test_min_sums_equal_each_seeds_dense_bundles(seeds, columns):
    # m = 6 and k = 3: columns share rows, so a key sums several columns' weights.
    v, w = (list(side) for side in zip(*columns)) if columns else ([], [])
    template = Codebook("sparse-binary-exact", 6, 10, k=3)
    ids = np.broadcast_to(np.arange(len(columns)), (len(seeds), len(columns)))
    got = cbloom.min_sums(6, template.exact_indices_across(seeds, ids), v, w)
    assert all(type(total) is int for total in got)
    assert got == [_dense_min_sum(template.with_seed(seed), *_kernel_sets((v, w), 10))
                   for seed in seeds]


def test_min_sums_of_empty_sets_and_no_seed():
    template = Codebook("sparse-binary-exact", 97, 30, k=7)
    ids = [[4, 5], [6, 7], [8, 9]]
    rows = template.exact_indices_across([1, 2, 3], np.array(ids))
    assert cbloom.min_sums(97, rows, [0, 0], [3, 1]) == [0, 0, 0]
    assert cbloom.min_sums(97, rows, [2, 0], [0, 5]) == [
        _dense_min_sum(template.with_seed(seed), *_kernel_sets(([2, 0], [0, 5]), 30, row))
        for seed, row in zip((1, 2, 3), ids)]
    assert cbloom.min_sums(97, rows[:, :0], [], []) == [0, 0, 0]
    assert cbloom.min_sums(97, rows[:0], [2, 1], [1, 2]) == []


def test_min_sums_are_exact_past_int64_and_refuse_what_bundle_count_refuses():
    # Every count is below 2**63, but k * 2**62 of them are not: the totals sum Python ints.
    template = Codebook("sparse-binary-exact", 4, 8, k=3)
    seeds, big = [5, 6, 7], [2**62 - 1, 2**62]
    rows = template.exact_indices_across(seeds, np.array([[0, 1]] * 3))
    got = cbloom.min_sums(4, rows, big, big[::-1])
    assert got == [_dense_min_sum(template.with_seed(s), *_kernel_sets((big, big[::-1]), 8))
                   for s in seeds]
    assert min(got) >= 3 * (2**62 - 1)
    heavy = SymbolSet(8, {0: 2**62, 1: 2**62})
    with pytest.raises(ValueError) as alone:
        cbloom.bundle_count(template, heavy)
    for v, w in (([2**62, 2**62], [1, 1]), ([1, 1], [2**62, 2**62])):
        with pytest.raises(ValueError) as kernel:
            cbloom.min_sums(4, rows, v, w)
        assert str(kernel.value) == str(alone.value)


def test_min_sums_split_a_stack_whose_keys_would_pass_int64():
    m = 2**61  # four seeds' keys s * m + row reach past 2**63
    template = Codebook("sparse-binary-exact", m, 8, k=2)
    seeds = [rng.mix64(s) for s in range(4)]
    rows = template.exact_indices_across(seeds, np.array([[0, 1, 2]] * 4))
    v, w = [1, 2, 0], [3, 2, 4]
    assert cbloom.min_sums(m, rows, v, w) == [
        cbloom.min_sums(m, rows[s : s + 1], v, w)[0] for s in range(4)]
    assert cbloom.min_sums(m, rows, v, v) == [2 * 3] * 4  # x wedgedot x = k ||v||_1
    with pytest.raises(ValueError, match=r"m below 2\*\*63, got 9223372036854775808"):
        cbloom.min_sums(2**63, rows[:1], v, w)


def test_min_sums_refuse_inputs_they_would_misread():
    one, two = np.zeros((1, 1, 2), np.int64), np.zeros((1, 2, 2), np.int64)
    for rows, v, w, message in (
            (one, [-1], [1], "min_sums weights of v must be nonnegative, got [-1]"),
            (one, [1], [-2], "min_sums weights of w must be nonnegative, got [-2]"),
            (two, [1], [1, 1],
             "min_sums needs one weight of v per column: 2 columns, got 1 weights"),
            (two, [1, 1], [1, 1, 1],
             "min_sums needs one weight of w per column: 2 columns, got 3 weights"),
            (np.zeros((2, 2), np.int64), [1, 1], [1, 1],
             "min_sums needs rows as a (seeds, n, k) stack, got shape (2, 2)")):
        with pytest.raises(ValueError, match=re.escape(message)):
            cbloom.min_sums(10, rows, v, w)
