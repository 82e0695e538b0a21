import numpy as np
import pytest

from vsakit import codebook, rng
from vsakit.codebook import Codebook
from vsakit.hypervector import rotate


def test_dense_sign_columns_are_signs():
    cb = Codebook("dense-sign", 4, 10, seed=3)
    for j in range(10):
        assert set(np.unique(cb.sign_matrix(j, j + 1)[:, 0])) <= {-1, 1}


def test_column_out_of_range():
    cb = Codebook("dense-sign", 4, 10, seed=3)
    with pytest.raises(IndexError):
        cb.sign_matrix(10, 11)[:, 0]
    with pytest.raises(IndexError):
        cb.sign_matrix(-1, 0)[:, 0]


def test_column_determinism_against_block_generation():
    # single-column regeneration equals extraction from full-matrix generation
    for trial in range(1000):
        seed = rng.mix64(trial)
        j = trial % 50
        cb = Codebook("dense-sign", 96, 50, seed=seed)
        assert np.array_equal(cb.sign_matrix(0, 50)[:, j], cb.sign_matrix(j, j + 1)[:, 0])


def test_sparse_block_vs_single_column():
    cb = Codebook("sparse-binary-trials", 128, 40, k=7, seed=5)
    singles = [cb.union_indices([j]).tolist() for j in range(40)]
    again = [cb.union_indices([j]).tolist() for j in range(40)]
    assert singles == again


@pytest.mark.parametrize("kind,check", [
    ("sparse-binary-exact", lambda pc, k: pc == k),
    ("sparse-binary-trials", lambda pc, k: 1 <= pc <= k),
])
def test_sparsity_invariants(kind, check):
    k = 9
    hits_upper = 0
    for seed in range(10):
        cb = Codebook(kind, 211, 1000, k=k, seed=seed)
        for j in range(1000):
            if kind == "sparse-binary-trials":
                rows = cb.union_indices([j])
            else:
                rows = cb.exact_indices([j])[0]
            pc = np.unique(rows).size  # rows set in column j
            assert check(pc, k)
            hits_upper += pc == k
    assert hits_upper > 0  # trials variant reaches k sometimes; exact always


def test_exact_k_three_ones_example():
    cb = Codebook("sparse-binary-exact", 16, 8, k=3, seed=11)
    assert np.unique(cb.exact_indices([0])[0]).size == 3


def test_empirical_near_orthogonality_dense():
    # |<scaled_i, scaled_j>| <= 5/sqrt(m) for >= 99% of 1000 random pairs
    m = 10_000
    cb = Codebook("dense-sign", m, 2000, seed=77)
    cols = cb.sign_matrix(0, 2000).astype(np.int64)
    ok = 0
    for t in range(1000):
        i, j = (2 * t) % 2000, (2 * t + 1) % 2000
        dot = int(cols[:, i] @ cols[:, j])
        ok += abs(dot / m) <= 5 / np.sqrt(m)
    assert ok >= 990


def test_rotation_group_laws():
    x = np.array([1, -1, 1, 1, -1, 1, -1, -1], dtype=np.int8)
    m = x.size
    for a in range(m + 2):
        for b in range(m + 2):
            lhs = rotate(rotate(x, a), b)
            rhs = rotate(x, (a + b) % m)
            assert np.array_equal(lhs, rhs)
    assert np.array_equal(rotate(x, m), x)


def test_rotate_examples():
    x = np.array([1, 2, 3])
    assert rotate(x, 1).tolist() == [2, 3, 1]
    y = np.array([1, 2, 3, 4])
    assert rotate(y, 2).tolist() == [3, 4, 1, 2]


def test_codebook_json_round_trip():
    cb = Codebook("sparse-binary-trials", 32, 10, k=4, seed=123, scaled=True)
    assert Codebook.from_json(cb.to_json()) == cb
    assert '"rng_version"' in cb.to_json()


def test_codebook_validation():
    with pytest.raises(ValueError):
        Codebook("dense-sign", 0, 4)
    with pytest.raises(ValueError):
        Codebook("sparse-binary-exact", 8, 4)  # missing k
    with pytest.raises(ValueError):
        Codebook("sparse-binary-exact", 8, 4, k=9)  # k > m
    with pytest.raises(ValueError):
        Codebook("no-such-kind", 8, 4)


@pytest.mark.parametrize("ids", [
    [7, 3, 5, 4],  # unsorted, contiguous window
    [2, 9, 2, 2, 40],  # duplicates
    list(range(10, 30)),  # sorted, contiguous
    [0, 999, 500, 123, 999],  # scattered, with a duplicate
    [998],
], ids=["unsorted", "duplicates", "contiguous", "scattered", "single"])
def test_sign_columns_equal_stacked_single_columns(ids):
    for m in (1, 64, 65, 300):
        cb = Codebook("dense-sign", m, 1000, seed=m)
        got = cb.sign_columns(ids)
        assert got.dtype == np.int8
        assert np.array_equal(got, np.stack([cb.sign_matrix(j, j + 1)[:, 0] for j in ids], axis=1))
        # sign_words: the same signs packed, +1 -> bit set, bits past m clear
        words = cb.sign_words(ids)
        assert words.dtype == np.uint64 and words.shape == (len(ids), -(-m // 64))
        packed = np.packbits(got.T > 0, axis=1, bitorder="little")
        padded = np.zeros((len(ids), 8 * words.shape[1]), np.uint8)
        padded[:, : packed.shape[1]] = packed
        assert np.array_equal(words, padded.view("<u8"))


def _gather_cases():
    # (kind, m, k) for dense columns of 1 to 24 drawn words and sparse columns
    # of k in {1, 8, 483} draws (4 to 484 drawn words).
    dense = [("dense-sign", m, None) for m in (1, 63, 64, 65, 1367)]
    sparse = [(kind, m, k) for kind in ("sparse-binary-trials", "sparse-binary-exact")
              for m in (1, 63, 64, 65, 1367) for k in (1, 8, 483) if k <= m]
    return dense + sparse


@pytest.mark.parametrize("kind,m,k", _gather_cases())
@pytest.mark.parametrize("side", ["window", "per-column"])
def test_gathers_equal_stacked_single_column_windows(monkeypatch, kind, m, k, side):
    drawn = 4 * -(-(k or -(-m // 64)) // 4)  # words one column's window takes
    n = 4
    widest = n + codebook._WORDS_PER_CALL * (n - 1) // drawn  # widest one-window span
    span = widest if side == "window" else widest + 1
    lo = 5
    ids = [lo + span - 1, lo, lo + span // 2, lo]  # unsorted, with a duplicate
    cb = Codebook(kind, m, lo + span + 3, k=k, seed=m + (k or 0))
    singles = [cb._column_words(j, 1) for j in ids]

    calls = []
    words = rng.Stream.words
    monkeypatch.setattr(rng.Stream, "words", lambda s, *a: calls.append(a) or words(s, *a))
    if kind == "dense-sign":
        nwords = -(-m // 64)
        expected = np.stack([w[:nwords] for w in singles])
        expected[:, -1] &= np.uint64(2**64 - 1 if m % 64 == 0 else (1 << m % 64) - 1)
        assert np.array_equal(cb.sign_words(ids), expected)
    elif kind == "sparse-binary-trials":
        rows = [rng.bounded_from_words(w[:k], m) for w in singles]
        assert np.array_equal(cb.union_indices(ids), np.unique(np.concatenate(rows)))
    else:
        rows = [np.sort(rng.choose_distinct(w[:k], m, k)) for w in singles]
        got = cb.exact_indices(ids)
        assert got.dtype == np.int64 and np.array_equal(got, np.stack(rows))
    assert len(calls) == (1 if side == "window" else n)


def test_exact_indices_kind_and_empty():
    cb = Codebook("sparse-binary-exact", 50, 10, k=6, seed=2)
    assert cb.exact_indices([]).shape == (0, 6)
    got = cb.exact_indices(list(range(10)))
    for j in range(10):
        expected = np.sort(rng.choose_distinct(cb._column_words(j, 1)[:6], 50, 6))
        assert np.array_equal(got[j], expected)
        assert np.array_equal(cb.exact_indices([j])[0], expected)
    with pytest.raises(IndexError):
        cb.exact_indices([3, 10])
    with pytest.raises(ValueError):
        Codebook("sparse-binary-trials", 50, 10, k=6).exact_indices([0])


def test_sign_columns_memory_layout_is_stable():
    # Float products of gathered columns (hopfield.hpm_encode) round
    # differently by memory layout, so each gather path keeps its layout:
    # a contiguous window is Fortran-ordered, scattered ids are C-ordered.
    cb = Codebook("dense-sign", 200, 1000, seed=4)
    assert cb.sign_columns([5, 3, 4]).flags["F_CONTIGUOUS"]
    assert cb.sign_columns([0, 900, 450]).flags["C_CONTIGUOUS"]


def test_sign_columns_out_of_range():
    cb = Codebook("dense-sign", 64, 10, seed=1)
    for ids in ([0, 10], [-1, 3], [10], [0, 3, 9, -5]):
        with pytest.raises(IndexError):
            cb.sign_columns(ids)
        with pytest.raises(IndexError):
            cb.sign_words(ids)
    assert cb.sign_columns([]).shape == (64, 0)
    assert cb.sign_words([]).shape == (0, 1)


def test_concurrent_reads_equal_serial():
    # Every thread shares the codebooks but owns its Philox generator.
    import sys
    import threading

    dense = Codebook("dense-sign", 300, 500, seed=21)
    sparse = Codebook("sparse-binary-exact", 7580, 500, k=8, seed=21)
    picks = [[3, 1, 2], [0, 499, 250], [17]]

    def read(i):
        j = (37 * i) % 500
        return (dense.sign_matrix(j, j + 1)[:, 0], dense.sign_columns(picks[i % 3]),
                sparse.exact_indices([j])[0], rng.Stream(i, "fresh").words(i, 5))

    serial = [read(i) for i in range(200)]
    barrier = threading.Barrier(4)
    mismatches = []

    def worker():
        barrier.wait()
        for i in range(200):
            if not all(np.array_equal(a, b) for a, b in zip(read(i), serial[i])):
                mismatches.append(i)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-call
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []
