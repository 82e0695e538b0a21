import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from vsakit import mapb, mapi, rng
from vsakit.codebook import Codebook
from vsakit.setalg import BindingBundleSpec, SequenceSpec, SymbolSet


def brute_force_agreement(n):
    """Independent oracle: literally enumerate the 2^(n-1) co-bundled patterns."""
    total = Fraction(0)
    for pattern in product((-1, 1), repeat=n - 1):
        s = 1 + sum(pattern)
        total += Fraction(1) if s > 0 else Fraction(1, 2) if s == 0 else Fraction(0)
    return total / 2 ** (n - 1)


@pytest.mark.parametrize("n,expected", [(1, Fraction(1)), (2, Fraction(3, 4)),
                                        (3, Fraction(3, 4)), (4, Fraction(11, 16))])
def test_agreement_probability_pinned(n, expected):
    assert mapb.agreement_probability(n) == expected


@pytest.mark.parametrize("n", range(1, 13))
def test_agreement_probability_matches_brute_force(n):
    assert mapb.agreement_probability(n) == brute_force_agreement(n)


def test_agreement_probability_refuses_huge():
    with pytest.raises(ValueError):
        mapb.agreement_probability(40)


def test_agreement_advantage_bounds():
    # paper's lower constant holds "for large enough n"; it first holds at n=5
    conforming = [
        n
        for n in range(4, 25)
        if float(mapb.agreement_probability(n)) - 0.5 >= 1 / math.sqrt(7 * n)
    ]
    assert conforming == list(range(5, 25))
    for n in range(4, 25):
        adv = float(mapb.agreement_probability(n)) - 0.5
        assert adv <= 1.5 / math.sqrt(n)


@pytest.mark.parametrize("r,expected", [(1, Fraction(1)), (2, Fraction(3, 4)),
                                        (3, Fraction(5, 8))])
def test_chain_agreement_small(r, expected):
    assert mapb.chain_agreement_probability(r) == expected


@pytest.mark.parametrize("r", range(1, 11))
def test_chain_agreement_closed_form(r):
    assert mapb.chain_agreement_probability(r) == Fraction(1, 2) + Fraction(1, 2**r)


def test_bundle_sign_basis_case():
    cb = Codebook("dense-sign", 16, 6, seed=2)
    b = mapb.bundle_sign(cb, SymbolSet.from_ids(6, [4]))
    assert np.array_equal(b.signs, cb.sign_matrix(4, 5)[:, 0])


def test_bundle_sign_output_always_pm1():
    for seed in range(20):
        cb = Codebook("dense-sign", 33, 12, seed=seed)
        b = mapb.bundle_sign(cb, SymbolSet.from_ids(12, range(4)))
        assert set(np.unique(b.signs)) <= {-1, 1}


def test_odd_cardinality_is_tie_free():
    cb = Codebook("dense-sign", 64, 12, seed=7)
    v = SymbolSet.from_ids(12, [0, 3, 8])
    assert np.array_equal(
        mapb.bundle_sign(cb, v, tie_seed=1).signs,
        mapb.bundle_sign(cb, v, tie_seed=2).signs,
    )


def test_even_cardinality_ties_are_seeded():
    cb = Codebook("dense-sign", 256, 12, seed=7)
    v = SymbolSet.from_ids(12, [0, 3])
    b1 = mapb.bundle_sign(cb, v, tie_seed=1)
    b2 = mapb.bundle_sign(cb, v, tie_seed=1)
    b3 = mapb.bundle_sign(cb, v, tie_seed=2)
    assert np.array_equal(b1.signs, b2.signs)
    assert not np.array_equal(b1.signs, b3.signs)  # some tie broke differently
    # non-tie coordinates agree regardless of the tie seed
    sums = cb.sign_columns([0, 3]).astype(int).sum(axis=1)
    settled = sums != 0
    assert np.array_equal(b1.signs[settled], b3.signs[settled])


def test_bundle_sign_tie_coordinate_hand_example():
    # columns (1,1) and (1,-1): sums (2,0), so coord 0 is 1 and coord 1 is a coin
    cb = next(
        c
        for c in (Codebook("dense-sign", 2, 2, seed=s) for s in range(4096))
        if c.sign_matrix(0, 2).tolist() == [[1, 1], [1, -1]]
    )
    seen = set()
    for tie_seed in range(8):
        b = mapb.bundle_sign(cb, SymbolSet.from_ids(2, [0, 1]), tie_seed=tie_seed)
        assert b.signs[0] == 1
        seen.add(int(b.signs[1]))
    assert seen == {-1, 1}  # the tie coordinate takes both values across seeds


def test_bundle_sign_rejects_weighted():
    cb = Codebook("dense-sign", 16, 6, seed=2)
    with pytest.raises(ValueError):
        mapb.bundle_sign(cb, SymbolSet(6, {1: 2}))


def test_member_threshold_value():
    # sqrt(2 * 10000 * ln(200000)) ~= 494.08
    assert mapb.member_threshold(10_000, 1000, 0.01) == pytest.approx(494.08, abs=0.01)
    assert mapb.member_threshold(10_000, 1000, 0.01) == pytest.approx(
        math.sqrt(2 * 10_000 * math.log(2 * 1000 / 0.01))
    )


def test_membership_single_atomic_scores_m():
    cb = Codebook("dense-sign", 512, 32, seed=3)
    b = mapb.bundle_sign(cb, SymbolSet.from_ids(32, [9]))
    res = mapb.membership_test(b, 9, delta=0.05)
    assert res.score == 512
    assert res.contained and not res.degraded


def test_membership_statistical():
    sized = mapb.sizing_mapb("member", n=4, d=64, delta=0.05)
    good = 0
    for seed in range(100):
        cb = Codebook("dense-sign", sized.m, 64, seed=seed)
        stored = {1, 17, 40, 63}
        b = mapb.bundle_sign(cb, SymbolSet.from_ids(64, stored), tie_seed=seed)
        ok = all(
            mapb.membership_test(b, j, 0.05).contained == (j in stored) for j in range(64)
        )
        good += ok
    assert good >= 85


def test_empty_intersection_same_atomic():
    cb = Codebook("dense-sign", 256, 8, seed=5)
    b = mapb.bundle_sign(cb, SymbolSet.from_ids(8, [2]))
    assert mapb.empty_intersection_test(b, b, 0.05).contained  # dot = m


def test_empty_intersection_refuses_bundles_of_different_codebooks():
    # The same set {1, 2} on codebooks seeded 1 and 2 scores -20, below the
    # threshold, so it would read as disjoint; the test refuses the pair.
    b1, b2 = (mapb.bundle_sign(Codebook("dense-sign", 512, 16, seed=seed),
                               SymbolSet.from_ids(16, [1, 2]), tie_seed=0) for seed in (1, 2))
    assert int(mapb._scores(b1.words, b2.words, 512)) == -20
    assert -20 < mapb.empty_intersection_threshold(512, 0.05)
    with pytest.raises(ValueError, match="bundles come from different codebooks"):
        mapb.empty_intersection_test(b1, b2, 0.05)
    same = mapb.bundle_sign(b1.codebook, SymbolSet.from_ids(16, [1, 2]), tie_seed=0)
    assert mapb.empty_intersection_test(b1, same, 0.05).score == 512


def test_empty_intersection_disjoint_statistical():
    empty_calls = 0
    for seed in range(200):
        cb = Codebook("dense-sign", 4096, 64, seed=seed)
        b1 = mapb.bundle_sign(cb, SymbolSet.from_ids(64, [0]), tie_seed=seed)
        b2 = mapb.bundle_sign(cb, SymbolSet.from_ids(64, [1]), tie_seed=seed + 1)
        empty_calls += not mapb.empty_intersection_test(b1, b2, 0.05).contained
    assert empty_calls >= 186  # 95% minus binomial slack


def test_empty_intersection_overlap_detected():
    # |X n Y| = 1 with |X| = |Y| = 4 at the sized dimension
    sized = mapb.sizing_mapb("empty-intersection", nx=4, ny=4, delta=0.05)
    nonempty_calls = 0
    for seed in range(200):
        cb = Codebook("dense-sign", sized.m, 64, seed=seed)
        b1 = mapb.bundle_sign(cb, SymbolSet.from_ids(64, [0, 1, 2, 3]), tie_seed=seed)
        b2 = mapb.bundle_sign(cb, SymbolSet.from_ids(64, [3, 10, 11, 12]), tie_seed=seed + 1)
        nonempty_calls += mapb.empty_intersection_test(b1, b2, 0.05).contained
    assert nonempty_calls >= 186


def test_iterated_bundle_depth_flags_membership():
    cb = Codebook("dense-sign", 128, 8, seed=6)
    chained = mapb.iterated_bundle(cb, range(3), tie_seed=4)
    assert chained.depth == 3
    assert mapb.membership_test(chained, 0, 0.05).degraded


def test_iterated_bundle_r1_is_identity():
    cb = Codebook("dense-sign", 64, 4, seed=1)
    v = cb.sign_matrix(2, 3)[:, 0]
    assert np.array_equal(mapb.iterated_bundle(cb, [2]).signs, v)


def test_iterated_bundle_agreement_empirical():
    m, trials = 4096, 50
    for r in (2, 3):
        truth = float(mapb.chain_agreement_probability(r))
        agree = 0
        for t in range(trials):
            cb = Codebook("dense-sign", m, r, seed=1000 * r + t)
            chained = mapb.iterated_bundle(cb, range(r), tie_seed=t)
            agree += int((chained.signs == cb.sign_matrix(0, 1)[:, 0]).sum())
        frac = agree / (m * trials)
        sigma = math.sqrt(truth * (1 - truth) / (m * trials))
        assert abs(frac - truth) <= 4 * sigma


def test_sequence_membership_recovers_position():
    d, L = 32, 3
    sized = mapb.sizing_mapb("sequence-member", n=2, d=d, L=L, delta=0.05)
    hits = misses = 0
    for seed in range(60):
        cb = Codebook("dense-sign", sized.m, d, seed=seed)
        seq = SequenceSpec((SymbolSet.from_ids(d, [5]), SymbolSet.from_ids(d, [9]),
                            SymbolSet(d)))
        b = mapb.bundle_sequence_sign(cb, seq, tie_seed=seed)
        hits += mapb.sequence_membership_test(b, 5, 0.05).contained
        hits += mapb.sequence_membership_test(b, d + 9, 0.05).contained
        # same symbol, wrong position
        misses += not mapb.sequence_membership_test(b, d + 5, 0.05).contained
        misses += not mapb.sequence_membership_test(b, 2 * d + 9, 0.05).contained
    assert hits >= 110 and misses >= 110


def test_sequence_membership_scores_equal_single_tests():
    d, L = 40, 3
    for seed in range(4):
        cb = Codebook("dense-sign", 517, d, seed=seed)
        seq = SequenceSpec((SymbolSet.from_ids(d, [5, 7]), SymbolSet.from_ids(d, [9]),
                            SymbolSet.from_ids(d, [5, 39])))
        b = mapb.bundle_sequence_sign(cb, seq, tie_seed=seed)
        for ell in range(L):
            syms = [39, 0, 5, 9, 5, 7]
            rolled = np.roll(b.signs.astype(np.int64), ell)  # <x, R^ell c> = <roll(x, ell), c>
            expected = [int(rolled @ cb.sign_matrix(s, s + 1)[:, 0]) for s in syms]
            assert mapb.sequence_membership_scores(b, ell, syms).tolist() == expected
            assert [mapb.sequence_membership_test(b, ell * d + s, 0.05).score
                    for s in syms] == expected


def test_sequence_membership_range_check():
    cb = Codebook("dense-sign", 64, 8, seed=1)
    seq = SequenceSpec((SymbolSet.from_ids(8, [1]), SymbolSet(8)))
    b = mapb.bundle_sequence_sign(cb, seq)
    with pytest.raises(IndexError):
        mapb.sequence_membership_test(b, 16, 0.05)
    assert mapb.sequence_membership_scores(b, 1, [1, 2]).shape == (2,)
    for ell in (-1, 2, 7):
        with pytest.raises(IndexError, match="L = 2"):
            mapb.sequence_membership_scores(b, ell, [1, 2])


def test_kv_single_pair_scores_m():
    cb = Codebook("dense-sign", 128, 16, seed=8)
    spec = mapb.KeyValueSpec(16, ((2, 9),))
    b = mapb.bundle_kv_sign(cb, spec)
    res = mapb.kv_membership_test(b, (2, 9), 0.05)
    assert res.score == 128 and res.contained


def test_kv_eight_pairs_in_and_out():
    d, n = 32, 8
    sized = mapb.sizing_mapb("kv-member", n=n, d=d, delta=0.05)
    good = 0
    for seed in range(50):
        cb = Codebook("dense-sign", sized.m, d, seed=seed)
        pairs = tuple((q, 16 + q) for q in range(n))
        b = mapb.bundle_kv_sign(cb, mapb.KeyValueSpec(d, pairs), tie_seed=seed)
        stored_in = all(mapb.kv_membership_test(b, p, 0.05).contained for p in pairs)
        # same keys bound to shifted (absent) values
        absent_out = all(
            not mapb.kv_membership_test(b, (q, 16 + (q + 3) % 16), 0.05).contained
            for q in range(n)
        )
        good += stored_in and absent_out
    assert good >= 42


def test_kv_query_role_violations():
    cb = Codebook("dense-sign", 64, 16, seed=8)
    b = mapb.bundle_kv_sign(cb, mapb.KeyValueSpec(16, ((2, 9),)))
    with pytest.raises(ValueError):
        mapb.kv_membership_test(b, (9, 3), 0.05)  # query key is a stored value id
    with pytest.raises(ValueError):
        mapb.kv_membership_test(b, (3, 2), 0.05)  # query value is a stored key id


def test_kv_spec_validation():
    with pytest.raises(ValueError):
        mapb.KeyValueSpec(8, ((1, 1),))  # key set meets value set
    with pytest.raises(ValueError):
        mapb.KeyValueSpec(8, ((1, 4), (1, 5)))  # duplicate key
    mapb.KeyValueSpec(8, ((1, 4), (2, 4)))  # shared value is allowed


def test_sizing_member_closed_form():
    assert mapb.sizing_mapb("member", n=10, d=1000, delta=0.01).m == 1843


def test_sizing_scalings():
    base = mapb.sizing_mapb("member", n=10, d=256, delta=0.05)
    doubled = mapb.sizing_mapb("member", n=20, d=256, delta=0.05)
    assert doubled.m in (2 * base.m, 2 * base.m - 1)  # linear before ceiling
    seq1 = mapb.sizing_mapb("sequence-member", n=10, d=256, L=1, delta=0.05)
    assert seq1.m == base.m  # L=1 collapses to the member formula
    with pytest.raises(ValueError):
        mapb.sizing_mapb("member", n=10, d=256, delta=0.0)
    with pytest.raises(ValueError):
        mapb.sizing_mapb("member", n=10, delta=0.05)  # missing d


def test_sizing_empty_intersection():
    res = mapb.sizing_mapb("empty-intersection", nx=4, ny=4, delta=0.05)
    assert res.m == math.ceil(24.0 * math.log(1 / 0.05) * 16)


def test_membership_scores_equal_single_tests():
    for seed in range(5):
        cb = Codebook("dense-sign", 301, 64, seed=seed)
        b = mapb.bundle_sign(cb, SymbolSet.from_ids(64, [2, 9, 33, 60]), tie_seed=seed)
        ids = [63, 0, 9, 9, 41, 2]
        expected = [mapb.membership_test(b, j, 0.05).score for j in ids]
        assert mapb.membership_scores(b, ids).tolist() == expected
        assert mapb.membership_scores(b, range(64)).tolist() == [
            mapb.membership_test(b, j, 0.05).score for j in range(64)
        ]


def test_membership_out_of_range_symbol():
    cb = Codebook("dense-sign", 64, 16, seed=1)
    b = mapb.bundle_sign(cb, SymbolSet.from_ids(16, [3]))
    with pytest.raises(IndexError):
        mapb.membership_test(b, 16, 0.05)
    with pytest.raises(IndexError):
        mapb.membership_scores(b, [0, 16])
    with pytest.raises(IndexError):
        mapb.membership_scores(b, [-1])


# -- the packed-word form against the int8 reference it replaced ---------------


def _ref_sign(sums, cb_seed, tie_seed, step=0):
    """np.sign of the sums, each zero replaced by the step's seeded coin."""
    out = np.sign(sums).astype(np.int8)
    ties = out == 0
    if ties.any():
        words = rng.Stream(cb_seed, "mapb-tie", tie_seed, step).words(0, -(-sums.size // 64))
        out[ties] = rng.signs_from_words(words, sums.size)[:, 0][ties]
    return out


def _ref_chain(vectors, cb_seed, tie_seed):
    x = vectors[0].astype(np.int8)
    for step, v in enumerate(vectors[1:], start=1):
        x = _ref_sign(x.astype(np.int64) + v, cb_seed, tie_seed, step)
    return x


@pytest.mark.parametrize("m", [1, 63, 64, 65, 128, 1367])
def test_word_form_equals_int8_reference(m):
    d, L = 16, 3
    for seed in range(3):
        cb = Codebook("dense-sign", m, d, seed=seed)
        cols = cb.sign_columns(range(d)).astype(np.int64)
        # set bundles of two symbols: every coordinate where they differ ties
        v, w = SymbolSet.from_ids(d, [1, 6]), SymbolSet.from_ids(d, [6, 11, 12, 15])
        bv, bw = mapb.bundle_sign(cb, v, tie_seed=seed), mapb.bundle_sign(cb, w, tie_seed=9)
        ref_v = _ref_sign(mapi.bundle(cb, v).ints, cb.seed, seed)
        ref_w = _ref_sign(mapi.bundle(cb, w).ints, cb.seed, 9)
        assert np.array_equal(bv.signs, ref_v) and np.array_equal(bw.signs, ref_w)
        assert mapb.membership_scores(bv, range(d)).tolist() == (ref_v @ cols).tolist()
        assert mapb.empty_intersection_test(bv, bw, 0.05).score == int(ref_v @ ref_w.astype(int))
        # sequence: position-qualified j = ell*d + sym scores the rotated column
        seq = SequenceSpec((v, SymbolSet.from_ids(d, [3]), w))
        bs = mapb.bundle_sequence_sign(cb, seq, tie_seed=seed)
        ref_s = _ref_sign(mapi.encode_sequence(cb, seq).ints, cb.seed, seed)
        assert np.array_equal(bs.signs, ref_s)
        for j in range(L * d):
            ell, sym = divmod(j, d)
            expected = int(ref_s @ np.roll(cols[:, sym], -ell))
            assert mapb.sequence_membership_test(bs, j, 0.05).score == expected
        # key-value: the bound column is the Hadamard product c_q * c_w
        spec = mapb.KeyValueSpec(d, ((0, 8), (2, 9)))
        bk = mapb.bundle_kv_sign(cb, spec, tie_seed=seed)
        edges = BindingBundleSpec(d, frozenset(frozenset(p) for p in spec.pairs))
        ref_k = _ref_sign(mapi.encode_binding_bundle(cb, edges).ints, cb.seed, seed)
        assert np.array_equal(bk.signs, ref_k)
        for q, val in product(range(8), range(8, d)):
            if q not in (8, 9) and val not in (0, 2):
                expected = int(ref_k @ (cols[:, q] * cols[:, val]))
                assert mapb.kv_membership_test(bk, (q, val), 0.05).score == expected
        # chains: every step after the first ties wherever the inputs disagree
        vecs = [cb.sign_matrix(j, j + 1)[:, 0] for j in range(5)]
        for r in (1, 2, 5):
            chained = mapb.iterated_bundle(cb, range(r), tie_seed=seed)
            ref_c = _ref_chain(vecs[:r], cb.seed, seed)
            assert np.array_equal(chained.signs, ref_c)
            assert mapb.membership_scores(chained, range(d)).tolist() == (ref_c @ cols).tolist()


def test_bundle_words_are_checked():
    cb = Codebook("dense-sign", 65, 4, seed=0)
    ok = mapb.MapBBundle(np.array([2**64 - 1, 1], np.uint64), cb, 0)
    assert ok.m == 65 and ok.signs.tolist() == [1] * 65
    assert not ok.words.flags.writeable and not ok.signs.flags.writeable
    for words in (np.zeros(1, np.uint64), np.zeros(3, np.uint64), np.zeros((2, 1), np.uint64),
                  np.zeros(2, np.int64), [0, 0]):
        with pytest.raises(ValueError, match="m=65 needs 2 uint64 words"):
            mapb.MapBBundle(words, cb, 0)
    for pad in (1, 2, 63):
        with pytest.raises(ValueError, match="padding bits past m=65"):
            mapb.MapBBundle(np.array([0, 1 << pad], np.uint64), cb, 0)
    with pytest.raises(ValueError, match="positive"):  # m comes from the codebook
        mapb.MapBBundle(np.zeros(0, np.uint64), Codebook("dense-sign", 0, 4), 0)
    for sparse in (Codebook("sparse-binary-trials", 65, 4, k=3),
                   Codebook("sparse-binary-exact", 65, 4, k=3)):
        with pytest.raises(ValueError, match="dense-sign"):
            mapb.MapBBundle(np.zeros(2, np.uint64), sparse, 0)


def test_iterated_bundle_checks_its_columns():
    cb = Codebook("dense-sign", 64, 4, seed=1)
    for empty in ([], range(0), np.zeros(0, np.int64)):
        with pytest.raises(ValueError, match="at least one"):
            mapb.iterated_bundle(cb, empty)
    for ids in ([4], [0, -1], [1, 2, 7]):
        with pytest.raises(IndexError):
            mapb.iterated_bundle(cb, ids)
    with pytest.raises(ValueError, match="dense-sign"):
        mapb.iterated_bundle(Codebook("sparse-binary-exact", 64, 4, k=3), [0, 1])
