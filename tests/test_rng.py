from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vsakit import rng


def test_stream_windows_are_pure():
    s = rng.Stream(42, "codebook", "dense-sign")
    whole = s.words(0, 40)
    assert np.array_equal(s.words(3, 8), whole[12:20])
    assert np.array_equal(rng.Stream(42, "codebook", "dense-sign").words(0, 40), whole)


def test_different_tags_give_different_streams():
    a = rng.Stream(42, "a").words(0, 8)
    b = rng.Stream(42, "b").words(0, 8)
    c = rng.Stream(43, "a").words(0, 8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_tag_types():
    assert rng.stream_id("x", 3) == rng.stream_id("x", 3)
    assert rng.stream_id("x", 3) != rng.stream_id(3, "x")


def test_extend_id_continues_the_fold():
    head = rng.stream_id("trial", 7, '{"m": 1}')
    for tail in [(), (0,), (3,), (2**64 + 5,), ("x", 4), (-1,)]:
        assert rng.extend_id(head, *tail) == rng.stream_id("trial", 7, '{"m": 1}', *tail)


def test_signs_from_words_layout():
    words = np.array([0b101, 0], dtype=np.uint64)
    col = rng.signs_from_words(words, 4)[:, 0]
    assert col.tolist() == [1, -1, 1, -1]  # little-endian bit order


def test_choose_distinct_is_distinct_and_in_range():
    s = rng.Stream(7, "t")
    for trial in range(200):
        words = s.words(trial, 12)
        out = rng.choose_distinct(words, 37, 12)
        assert len(set(out.tolist())) == 12
        assert out.min() >= 0 and out.max() < 37


def test_choose_distinct_full_range_is_permutation():
    words = rng.Stream(3, "p").words(0, 16)
    out = rng.choose_distinct(words, 16, 16)
    assert sorted(out.tolist()) == list(range(16))


def test_known_raw_words_pinned():
    # Freeze the stream so silent RNG drift is caught. These literal words
    # were recorded from the original one-generator-per-call implementation.
    assert rng.stream_id("pin") == 2925312851618788452
    assert rng.Stream(12345, "pin").words(0, 6).tolist() == [
        5180748607473926712, 6140411999179225874, 12929025977015240518,
        6168682178704401652, 16604953857284006424, 14584847189732172000,
    ]
    assert rng.Stream(12345, "pin", 7).words(3, 5).tolist() == [
        10768862915389906275, 12910929128661720538, 7786988039255859524,
        6799518604384328901, 1335551750409553749,
    ]
    assert rng.Stream(12345, "pin").words(0, 2).dtype == np.uint64


@pytest.mark.parametrize("block", [0, 1, 5, 2**40, 2**64 - 1, 2**64 + 3, 2**200 + 7, -1])
@pytest.mark.parametrize("n", [1, 3, 4, 7, 22])
def test_words_match_numpy_philox_reference(block, n):
    s = rng.Stream(2023, "ref", block % 11)
    ref = np.random.Philox(key=np.array([s.seed, s.sid], dtype=np.uint64))
    ref.advance(block % 2**256)
    expected = ref.random_raw(n)
    assert np.array_equal(s.words(block, n), expected)
    # the reused generator carries nothing from one call into the next
    rng.Stream(1, "other").words(block + 1, 9)
    assert np.array_equal(s.words(block, n), expected)


def _choose_distinct_dict_loop(words, m, k):
    # The original one-word-at-a-time loop, kept as the reference.
    swap = {}
    out = np.empty(k, dtype=np.int64)
    for t in range(k):
        r = t + int(words[t] % np.uint64(m - t))
        vt = swap.get(t, t)
        out[t] = swap.get(r, r)
        swap[r] = vt
    return out


@pytest.mark.parametrize("m", [1, 16, 256, 7580])
@pytest.mark.parametrize("k", [0, 1, 8, 256])
def test_choose_distinct_matches_dict_loop(m, k):
    k = min(m, k)
    s = rng.Stream(5, "choose", m, k)
    for block in range(20):
        words = s.words(block * 64, k + 3)
        got = rng.choose_distinct(words, m, k)
        assert got.dtype == np.int64
        assert np.array_equal(got, _choose_distinct_dict_loop(words, m, k))


@st.composite
def _rows_draws(draw):
    m = draw(st.integers(1, 300))
    k = draw(st.sampled_from([0, 1, m, draw(st.integers(0, m))]))  # k = m included
    rows = draw(st.integers(0, 5))
    extra = draw(st.integers(0, 3))
    words = draw(st.lists(st.integers(0, 2**64 - 1), min_size=rows * (k + extra),
                          max_size=rows * (k + extra)))
    return np.array(words, dtype=np.uint64).reshape(rows, k + extra), m, k


@given(_rows_draws())
def test_choose_distinct_rows_equal_row_wise_choose_distinct(case):
    words, m, k = case
    got = rng.choose_distinct_rows(words, m, k)
    assert got.dtype == np.int64 and got.shape == (words.shape[0], k)
    for row, out in zip(words, got):
        assert np.array_equal(out, rng.choose_distinct(row, m, k))
        assert np.array_equal(out, _choose_distinct_dict_loop(row, m, k))


def _swap_free(offsets) -> bool:
    r = [t + o for t, o in enumerate(offsets)]
    return len(set(r)) == len(r)


@pytest.mark.parametrize("m, k", [(256, 63), (256, 64), (256, 65), (256, 256),
                                  (1000, 249), (1000, 251), (1000, 1000), (40, 9), (40, 11)])
def test_choose_distinct_rows_mix_swap_free_and_repeating_rows(m, k):
    # Rows of all-zero offsets (r_t = t) are swap-free; a row with
    # offset_1 = offset_0 - 1 repeats r_0 at r_1 and must run the swap loop.
    s = rng.Stream(9, "mixed", m, k)
    seen = set()
    for block in range(8):
        words = s.words(block * 64, 6 * k).reshape(6, k)
        words[0] = 0
        words[3, :k // 2] = 0
        for row in (1, 4):
            c = 1 + int(words[row, 0] % np.uint64(m - 1))
            words[row, :2] = [c, c - 1]
        moduli = np.arange(m, m - k, -1, dtype=np.uint64)
        seen.update(_swap_free(row) for row in (words % moduli).tolist())
        got = rng.choose_distinct_rows(words, m, k)
        assert got.dtype == np.int64 and got.shape == (6, k)
        for row, out in zip(words, got):
            assert np.array_equal(out, _choose_distinct_dict_loop(row, m, k))
    assert seen == {True, False}


def test_stream_seed_must_be_integral():
    with pytest.raises(ValueError, match="stream seed must be an integer, got 1.5"):
        rng.Stream(1.5, "t")
    for bad in (2.7, True, "3", None):
        with pytest.raises(ValueError, match="stream seed"):
            rng.Stream(bad, "t")
    assert rng.Stream(np.int64(3), "t").words(0, 4).tolist() == rng.Stream(3, "t").words(0, 4).tolist()
    assert rng.Stream(np.uint64(3), "t").seed == rng.Stream(3.0, "t").seed == 3
    assert rng.Stream(-1, "t").seed == 2**64 - 1


def test_choose_distinct_rows_rejects_bad_shapes():
    with pytest.raises(ValueError, match="needs 3 words"):
        rng.choose_distinct_rows(np.zeros((4, 2), dtype=np.uint64), 10, 3)
    with pytest.raises(ValueError):
        rng.choose_distinct_rows(np.zeros((1, 5), dtype=np.uint64), 4, 5)
    with pytest.raises(ValueError, match="cannot choose -1 distinct indices from range 10"):
        rng.choose_distinct_rows(np.zeros((4, 2), dtype=np.uint64), 10, -1)


def test_choose_distinct_rejects_too_few_words():
    with pytest.raises(ValueError, match="needs 3 words"):
        rng.choose_distinct(np.zeros(2, dtype=np.uint64), 10, 3)
    with pytest.raises(ValueError):
        rng.choose_distinct(np.zeros(5, dtype=np.uint64), 4, 5)


def test_cached_string_tags_hash_as_before():
    import hashlib

    for tag in ["codebook", "dense-sign", "inst", "", "\u00e9t\u00e9"]:
        digest = hashlib.blake2b(tag.encode("utf-8"), digest_size=8).digest()
        assert rng._tag_word(tag) == int.from_bytes(digest, "little")
        assert rng._tag_word(tag) == int.from_bytes(digest, "little")  # cached
    assert rng.stream_id("codebook", "dense-sign", 64, 256, 0) == 8103671085877235479


def test_memoized_stream_ids_keep_their_values_and_errors():
    assert rng.stream_id("x", 3) == rng.stream_id("x", np.int64(3)) == rng.stream_id("x", True + 2)
    rng.stream_id("x", 1)  # cached; an equal float must still be refused
    for bad, name in [(1.0, "float"), ([1], "list"), (None, "NoneType")]:
        with pytest.raises(TypeError, match=f"stream tag must be str or int, got {name}"):
            rng.stream_id("x", bad)
    assert rng.stream_id("codebook", "dense-sign", 64, 256, 0) == 8103671085877235479


@pytest.mark.parametrize("block", [0, 5, 2**64 - 1, 2**64, 2**64 + 3, 2**200])
@pytest.mark.parametrize("seed", [0, 9, 2**64 - 1, -1, 2**64 + 7, np.int64(7), 3.0])
def test_keyed_window_equals_stream_words(seed, block):
    tags = ("codebook", "dense-sign", 119, 256, 0)
    sid = rng.stream_id(*tags)
    expected = rng.Stream(seed, *tags).words(block, 9)
    assert np.array_equal(rng.keyed_words(seed, sid, block, 9), expected)


def test_keyed_window_seed_must_be_integral():
    for bad in (1.5, True, "3", None):
        with pytest.raises(ValueError, match="stream seed"):
            rng.keyed_words(bad, rng.stream_id("t"), 0, 4)


@pytest.mark.parametrize("m", [1, 63, 64, 65, 1151])
def test_words_from_bits_packs_a_stack_row_by_row(m):
    """Bits pack along the last axis: a (rows, m) stack packs as each row alone."""
    bits = (rng.Stream(m, "pack-stack").words(0, 5 * m).reshape(5, m) & np.uint64(1)).astype(bool)
    stack = rng.words_from_bits(bits)
    assert stack.dtype == np.uint64 and stack.shape == (5, -(-m // 64))
    assert np.array_equal(stack, [rng.words_from_bits(row) for row in bits])
    both = np.stack([bits, ~bits])  # any leading axes
    assert np.array_equal(rng.words_from_bits(both),
                          [[rng.words_from_bits(row) for row in half] for half in both])
    assert rng.words_from_bits(bits[:0]).shape == (0, -(-m // 64))


@pytest.mark.parametrize("m", [1, 7, 63, 64, 65, 128, 517])
def test_packing_and_unpacking_are_inverse_with_zero_padding(m):
    bits = rng.Stream(m, "pack-test").words(0, 3 * m).reshape(3, m) & np.uint64(1)
    bits = bits.astype(np.uint8)
    words = np.array([rng.words_from_bits(row) for row in bits])
    assert words.dtype == np.uint64 and words.shape == (3, -(-m // 64))
    mask = rng.last_word_mask(m)
    assert int(mask) == (1 << (m % 64 or 64)) - 1
    assert not (words[:, -1] & ~mask).any()  # the padding bits are zero
    assert np.array_equal(rng.bits_from_words(words, m), bits)
    for i in (0, m // 2, m - 1):  # entry i is bit i % 64 of word i // 64
        assert int(words[1, i // 64]) >> (i % 64) & 1 == bits[1, i]
    raw = rng.Stream(m, "pack-test").words(0, 3 * -(-m // 64)).reshape(3, -1)
    raw[:, -1] &= mask  # any words with zero padding round-trip
    assert np.array_equal([rng.words_from_bits(row) for row in rng.bits_from_words(raw, m)], raw)
    signs = rng.signs_from_words(words.ravel(), m, 3)
    assert signs.shape == (m, 3) and signs.flags.f_contiguous
    assert np.array_equal(signs, 2 * bits.T.astype(np.int8) - 1)


#: The draw count, stream and chi-square critical values of the draw-law tests,
#: fixed before their first run. Each critical value is the level-1e-6 upper
#: quantile of chi-square with the test's degrees of freedom (scipy's
#: ``chi2.isf(1e-6, df)``, rounded down), so a sound draw fails one test in a
#: million.
_LAW_DRAWS = 60_000
_LAW_CRITICAL = {119: 207.19, 5: 35.88, 7: 40.52}


def _chi_square(counts: np.ndarray) -> float:
    """Pearson's statistic of ``counts`` against equal expected counts."""
    expected = counts.sum() / len(counts)
    return float(((counts - expected) ** 2).sum() / expected)


def _law_words(tag: str, count: int) -> np.ndarray:
    return rng.Stream(0, "draw-law", tag).words(0, count)


def test_choose_distinct_rows_draws_every_ordered_triple_of_six_alike():
    base6 = np.array([36, 6, 1])  # one code per ordered triple of [6]
    tuples = rng.choose_distinct_rows(_law_words("choose", 3 * _LAW_DRAWS).reshape(-1, 3), 6, 3)
    counts = np.bincount(tuples @ base6, minlength=216)
    distinct = np.array(list(permutations(range(6), 3))) @ base6  # the 120 triples
    assert counts[distinct].sum() == _LAW_DRAWS  # no draw repeats an element
    assert _chi_square(counts[distinct]) < _LAW_CRITICAL[119]


def test_bounded_from_words_draws_every_value_alike():
    values = rng.bounded_from_words(_law_words("bounded", _LAW_DRAWS), 6)
    counts = np.bincount(values, minlength=6)
    assert len(counts) == 6 and _chi_square(counts) < _LAW_CRITICAL[5]


def test_sign_bits_draw_every_three_bit_pattern_alike():
    # (60, N) signs, column c from word c: 20 patterns of 3 consecutive entries a word
    signs = rng.signs_from_words(_law_words("signs", _LAW_DRAWS), 60, _LAW_DRAWS)
    bits = (signs > 0).reshape(20, 3, _LAW_DRAWS)
    counts = np.bincount((bits * np.array([4, 2, 1])[:, None]).sum(axis=1).ravel(), minlength=8)
    assert _chi_square(counts) < _LAW_CRITICAL[7]
