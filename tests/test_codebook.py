import ast
import json
import re
from pathlib import Path

import numpy as np
import pytest

from vsakit import codebook, mapb, mapi, rng
from vsakit.codebook import Codebook
from vsakit.hypervector import rotate
from vsakit.setalg import SymbolSet

from raw_columns import column_words, sign_matrix


def test_dense_sign_columns_are_signs():
    cb = Codebook("dense-sign", 4, 10, seed=3)
    for j in range(10):
        assert set(np.unique(cb.sign_columns([j])[:, 0])) <= {-1, 1}


def test_column_out_of_range():
    cb = Codebook("dense-sign", 4, 10, seed=3)
    with pytest.raises(IndexError):
        cb.sign_columns([10])
    with pytest.raises(IndexError):
        cb.sign_columns([-1])


def test_column_determinism_against_block_generation():
    # extraction from a full-matrix gather equals the column read alone from the raw stream
    for trial in range(1000):
        seed = rng.mix64(trial)
        j = trial % 50
        cb = Codebook("dense-sign", 96, 50, seed=seed)
        assert np.array_equal(cb.sign_columns(range(50))[:, j], sign_matrix(cb, j, j + 1)[:, 0])


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
    cols = cb.sign_columns(range(2000)).astype(np.int64)
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
    for cb in (Codebook("sparse-binary-trials", 32, 10, k=4, seed=123),
               Codebook("dense-sign", 32, 10, seed=123, scaled=True)):
        assert Codebook.from_json(cb.to_json()) == cb
        assert '"rng_version"' in cb.to_json()


def test_codebook_validation():
    with pytest.raises(ValueError):
        Codebook("dense-sign", 0, 4)
    with pytest.raises(ValueError, match="codebook m must be an integer, got True"):
        Codebook("dense-sign", np.True_, 10)
    with pytest.raises(ValueError):
        Codebook("sparse-binary-exact", 8, 4)  # missing k
    with pytest.raises(ValueError):
        Codebook("sparse-binary-exact", 8, 4, k=9)  # k > m
    with pytest.raises(ValueError):
        Codebook("no-such-kind", 8, 4)


@pytest.mark.parametrize("k", [0, 1, 5, 64, -3, 2.5, "4"])
def test_dense_sign_refuses_a_sparsity(k):
    # a k would name other columns (k=5) or the same ones under another hash (k=0)
    obj = json.loads(Codebook("dense-sign", 64, 8, seed=1).to_json())
    assert Codebook.from_json(json.dumps(obj)).k is None
    for make in (lambda: Codebook("dense-sign", 64, 8, k=k, seed=1),
                 lambda: Codebook.from_json(json.dumps({**obj, "k": k}))):
        with pytest.raises(ValueError) as refused:
            make()
        assert str(refused.value) == f"dense-sign takes no sparsity k, got k={k!r}"


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
        assert np.array_equal(got, np.stack([sign_matrix(cb, j, j + 1)[:, 0] for j in ids], axis=1))
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
    singles = [column_words(cb, j, j + 1)[0] for j in ids]

    calls = []
    keyed = rng.keyed_words
    monkeypatch.setattr(rng, "keyed_words", lambda *a: calls.append(a) or keyed(*a))
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
        expected = np.sort(rng.choose_distinct(column_words(cb, j, j + 1)[0][:6], 50, 6))
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
        return (dense.sign_words([j]), dense.sign_columns(picks[i % 3]),
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


_TEMPLATES = [("dense-sign", 119, 300, None, True), ("dense-sign", 65, 300, None, False),
              ("dense-sign", 200, 1000, None, True),
              ("sparse-binary-trials", 128, 300, 7, False),
              ("sparse-binary-exact", 7580, 300, 8, False)]


@pytest.mark.parametrize("kind, m, d, k, scaled", _TEMPLATES)
@pytest.mark.parametrize("seed", [0, 12345, 2**64 - 1, 2**64 + 5, -1, np.int64(77), 4.0])
def test_seed_copy_equals_a_fresh_codebook(kind, m, d, k, scaled, seed):
    fresh = Codebook(kind, m, d, k=k, seed=seed, scaled=scaled)
    copy = Codebook(kind, m, d, k=k, seed=3, scaled=scaled).with_seed(seed)
    assert copy == fresh and hash(copy) == hash(fresh)
    assert copy.to_json() == fresh.to_json() and repr(copy) == repr(fresh)
    assert type(copy.seed) is int
    for ids in ([5, 3, 4, 3], [0, d - 1, d // 2], [7], []):
        if kind == "dense-sign":
            assert np.array_equal(copy.sign_words(ids), fresh.sign_words(ids))
            a, b = copy.sign_columns(ids), fresh.sign_columns(ids)
            assert np.array_equal(a, b) and a.strides == b.strides  # Hopfield± rounds by layout
            assert a.flags["F_CONTIGUOUS"] == b.flags["F_CONTIGUOUS"]
            assert np.array_equal(copy.sign_columns(range(2, 6)), sign_matrix(fresh, 2, 6))
        elif kind == "sparse-binary-trials":
            assert np.array_equal(copy.union_indices(ids), fresh.union_indices(ids))
        else:
            assert np.array_equal(copy.exact_indices(ids), fresh.exact_indices(ids))


def test_seed_copy_refuses_a_bad_seed_and_keeps_its_template():
    template = Codebook("dense-sign", 64, 10, seed=1)
    for bad in (1.5, True, np.True_, "3", None):
        with pytest.raises(ValueError, match="codebook seed must be an integer"):
            template.with_seed(bad)
    copy = template.with_seed(2)
    assert template.seed == 1 and copy.seed == 2
    fresh = Codebook("dense-sign", 64, 10, seed=1)
    assert np.array_equal(template.sign_words([3]), fresh.sign_words([3]))


def _count_windows(monkeypatch):
    """Per seed, how many windows the cross-seed and the one-seed gathers draw."""
    counts = {}
    keyed = rng.keyed_words

    def count(seed, *args):
        counts[seed] = counts.get(seed, 0) + 1
        return keyed(seed, *args)

    monkeypatch.setattr(rng, "keyed_words", count)
    return counts


def _fixed_span_rows(d, n, count, gen):
    """``count`` rows of n ids of [d], duplicates among them, each spanning as many columns."""
    span = min(d, 40) if n < d else d
    pattern = np.r_[0, span - 1, gen.integers(0, span, max(n - 2, 0))][:n]
    lows = gen.integers(0, d - span + 1, count)
    return np.stack([gen.permutation(pattern) + lo for lo in lows]).reshape(count, n)


@pytest.mark.parametrize("m", [1, 63, 64, 65, 119, 130])
@pytest.mark.parametrize("n", [0, 1, 16, "d"])
@pytest.mark.parametrize("count", [1, 2, 7])  # seeds in the stack
def test_sign_words_across_equal_per_seed_gathers(m, n, count):
    d = 256
    n = d if n == "d" else n
    gen = np.random.default_rng(m * 1000 + n)
    seeds = [rng.mix64(s) for s in range(count)]
    ids = _fixed_span_rows(d, n, len(seeds), gen)
    got = Codebook("dense-sign", m, d, seed=1, scaled=True).sign_words_across(seeds, ids)
    assert isinstance(got, np.ndarray)
    assert got.dtype == np.uint64 and got.shape == (count, n, -(-m // 64))
    for seed, row, words in zip(seeds, ids, got):
        assert np.array_equal(words, Codebook("dense-sign", m, d, seed=seed).sign_words(row))


@pytest.mark.parametrize("m", [1, 64, 119, 3537])
def test_sign_words_across_keep_each_seeds_window_rule(monkeypatch, m):
    d = 6000
    rows = [[0, 5000], [7, 9], [3, 3], [4000, 4001], [5, 5999], [10, 10], [0, 0], [11, 400]]
    seeds = [rng.mix64(s) for s in range(len(rows))]
    template = Codebook("dense-sign", m, d)
    counts = _count_windows(monkeypatch)
    got = template.sign_words_across(seeds, np.array(rows))
    across = dict(counts)
    counts.clear()
    for seed, row, words in zip(seeds, rows, got):
        assert np.array_equal(words, template.with_seed(seed).sign_words(row))
    assert across == counts  # every seed drew as many windows as its own gather
    assert set(counts.values()) == {1, 2}  # one window for some seeds, per column for others


def test_sign_words_across_check_ids_before_any_draw(monkeypatch):
    template = Codebook("dense-sign", 64, 10)
    counts = _count_windows(monkeypatch)
    for bad in ([-1, 3], [0, 10], [-2, 12], [10, 10]):
        rows = np.array([[0, 1], [2, 3], bad, [-5, 4]])
        with pytest.raises(IndexError) as across:
            template.sign_words_across([1, 2, 3, 4], rows)
        with pytest.raises(IndexError) as alone:
            template.with_seed(3).sign_words(bad)
        assert str(across.value) == str(alone.value)
    assert not counts
    with pytest.raises(ValueError, match="one row per seed"):
        template.sign_words_across([1, 2], np.zeros((3, 2), dtype=np.int64))
    with pytest.raises(ValueError, match="one row per seed"):
        template.sign_words_across([1, 2], [1, 2])
    with pytest.raises(ValueError, match="requires a dense-sign codebook"):
        Codebook("sparse-binary-exact", 64, 10, k=2).sign_words_across([1], [[0]])
    empty = template.sign_words_across([], np.empty((0, 3), dtype=np.int64))
    assert empty.dtype == np.uint64 and empty.shape == (0, 3, 1)


@pytest.mark.parametrize("m, k", [(1, 1), (6, 3), (64, 64), (7580, 8), (8192, 484)])
@pytest.mark.parametrize("n", [0, 1, 7, "d"])
@pytest.mark.parametrize("count", [1, 2, 7])  # seeds in the stack
def test_exact_indices_across_equal_per_seed_gathers(monkeypatch, m, k, n, count):
    d = 256
    n = d if n == "d" else n
    gen = np.random.default_rng(m * 1000 + n)
    seeds = [rng.mix64(s) for s in range(count)]
    ids = _fixed_span_rows(d, n, len(seeds), gen)
    template = Codebook("sparse-binary-exact", m, d, k=k)
    windows = _count_windows(monkeypatch)
    got = template.exact_indices_across(seeds, ids)
    across = dict(windows)
    windows.clear()
    assert got.dtype == np.int64 and got.shape == (count, n, k)
    for seed, row, rows in zip(seeds, ids, got):
        assert np.array_equal(rows, template.with_seed(seed).exact_indices(row))
    assert across == windows  # every seed drew as many windows as its own gather


def test_exact_indices_across_check_ids_before_any_draw(monkeypatch):
    template = Codebook("sparse-binary-exact", 64, 10, k=3)
    counts = _count_windows(monkeypatch)
    for bad in ([-1, 3], [0, 10], [10, 10]):
        rows = np.array([[0, 1], bad, [-5, 4]])
        with pytest.raises(IndexError) as across:
            template.exact_indices_across([1, 2, 3], rows)
        with pytest.raises(IndexError) as alone:
            template.with_seed(2).exact_indices(bad)
        assert str(across.value) == str(alone.value)
    assert not counts
    with pytest.raises(ValueError, match="one row per seed"):
        template.exact_indices_across([1, 2], np.zeros((3, 2), dtype=np.int64))
    with pytest.raises(ValueError, match="one row per seed"):
        template.exact_indices_across([1, 2], [1, 2])
    empty = template.exact_indices_across([], np.empty((0, 3), dtype=np.int64))
    assert empty.dtype == np.int64 and empty.shape == (0, 3, 3)


def _id_readers(d=300):
    """Every way a caller hands symbol ids to one gather, each taking a list of ids."""
    dense = Codebook("dense-sign", 119, d, seed=1)
    bundle = mapb.bundle_sign(dense, SymbolSet.from_ids(d, [1, 2, 3]))
    return {
        "sign_words": dense.sign_words,
        "sign_columns": dense.sign_columns,
        "union_indices": Codebook("sparse-binary-trials", 128, d, k=7, seed=1).union_indices,
        "exact_indices": Codebook("sparse-binary-exact", 7580, d, k=8, seed=1).exact_indices,
        "sign_words_across": lambda ids: dense.sign_words_across([5], [ids])[0],
        "exact_indices_across": lambda ids: Codebook("sparse-binary-exact", 7580, d, k=8)
        .exact_indices_across([1], [ids])[0],
        "membership_test": lambda ids: [mapb.membership_test(bundle, j, 0.05) for j in ids],
    }


@pytest.mark.parametrize("reader", list(_id_readers()))
@pytest.mark.parametrize("bad, shown", [(2.5, "2.5"), ("2", "'2'"), (True, "True"),
                                        (np.True_, "True"), (np.float64(2.5), "2.5"),
                                        (None, "None"), (float("nan"), "nan"),
                                        (float("inf"), "inf")])
def test_ids_that_are_not_integers_are_refused(reader, bad, shown):
    read = _id_readers()[reader]
    message = f"symbol id must be an integer, got {re.escape(shown)}$"
    cases = [[bad], [3, bad]]
    if reader != "membership_test":
        cases += [(bad, 4), np.array([3, bad], dtype=object)]
    for ids in cases:
        with pytest.raises(ValueError, match=message):
            read(ids)


@pytest.mark.parametrize("reader", list(_id_readers()))
def test_integral_ids_of_any_type_read_as_their_integers(reader):
    read = _id_readers()[reader]
    expected = read([2, 7, 3])
    for ids in ([2.0, 7.0, 3.0], np.array([2.0, 7.0, 3.0]), (2, 7, 3), [np.int64(2), 7, 3],
                np.array([2, 7, 3], dtype=np.int32), np.array([2, 7, 3], dtype=np.uint64),
                np.array([2, 7, 3], dtype=np.uint8)):
        got = read(ids)
        if isinstance(expected, list):
            assert all(np.array_equal(a, b) for a, b in zip(got, expected))
        else:
            assert np.array_equal(got, expected)
    for huge in (2**70, -2**70, float(2**70), np.uint64(2**64 - 1)):
        with pytest.raises(IndexError, match=f"symbol id {int(huge)} out of range"):
            read([1, huge])
    if reader != "membership_test":
        with pytest.raises(ValueError, match="symbol id must be an integer, got True"):
            read(np.array([True, False]))


def test_binding_refuses_ids_that_are_not_integers():
    cb = Codebook("dense-sign", 119, 300, seed=1)
    bundle = mapb.bundle_kv_sign(cb, mapb.KeyValueSpec(300, ((1, 2), (3, 4))))
    for pair, shown in (((2.5, 1), "2.5"), (("3", 4), "'3'"), ((True, 2), "True"),
                        ((1, np.False_), "False")):
        message = f"a symbol id must be an integer, got {re.escape(shown)}$"
        with pytest.raises(ValueError, match=message):
            mapb.kv_membership_scores(bundle, [pair])
        with pytest.raises(ValueError, match=message):
            mapi.bound_words(cb, [pair])
    assert np.array_equal(mapi.bound_words(cb, [(1.0, 2.0)]), mapi.bound_words(cb, [(1, 2)]))


@pytest.mark.parametrize("m", [119, 1367])
@pytest.mark.parametrize("ids", [[[0, 1], [2, 3]], [[0, 255], [1, 2]], [[5]], 3, np.int64(3),
                                 np.zeros((2, 0, 3), dtype=np.int64)])
def test_one_seed_gathers_refuse_ids_that_are_not_1d(m, ids):
    dense = Codebook("dense-sign", m, 256, seed=1)
    sparse = [Codebook("sparse-binary-trials", m, 256, k=7, seed=1).union_indices,
              Codebook("sparse-binary-exact", m, 256, k=8, seed=1).exact_indices]
    shape = np.shape(ids)
    for read in [dense.sign_words, dense.sign_columns, *sparse]:
        with pytest.raises(ValueError, match=re.escape(f"1-D sequence, got shape {shape}")):
            read(ids)
    with pytest.raises(ValueError, match="one row per seed"):
        dense.sign_words_across([1, 2], [ids, ids])


def test_one_function_holds_the_window_rule():
    """The window rule lives in one gather, and a codebook draws through ``rng.keyed_words``."""
    tree = ast.parse(Path(codebook.__file__).read_text(encoding="utf-8"))
    readers = {func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
               for node in ast.walk(func)
               if isinstance(node, ast.Name) and node.id == "_WORDS_PER_CALL"}
    assert len(readers) == 1, f"the window rule is read by {sorted(readers)}"
    streams = [node.lineno for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr == "Stream"
               or isinstance(node, ast.Name) and node.id == "Stream"
               or isinstance(node, ast.alias) and node.name == "Stream"]
    assert streams == [], f"codebook.py names rng.Stream at lines {streams}"


#: (m, d, j0, j1): each m with each kind of range, in a universe that cycles over five sizes.
_RANGES = {"full": lambda d: (0, d), "empty": lambda d: (d // 2, d // 2),
           "first": lambda d: (0, 1), "inner": lambda d: (d // 3, max(d // 3 + 1, 2 * d // 3)),
           "last": lambda d: (d - 1, d)}
_RANGE_GRID = [(m, d, *span(d))
               for i, m in enumerate((1, 7, 63, 64, 65, 128, 200, 651, 1365, 4000))
               for r, span in enumerate(_RANGES.values())
               for d in [(1, 2, 16, 64, 300)[(i + r) % 5]]]


@pytest.mark.parametrize("m, d, j0, j1", _RANGE_GRID)
def test_sign_columns_of_a_range_equal_the_raw_stream_reference(m, d, j0, j1):
    cb = Codebook("dense-sign", m, d, seed=m * 1000 + d)
    got, expected = cb.sign_columns(range(j0, j1)), sign_matrix(cb, j0, j1)
    assert got.dtype == expected.dtype == np.int8 and got.shape == expected.shape == (m, j1 - j0)
    assert np.array_equal(got, expected)
    assert got.strides == expected.strides and got.flags["F_CONTIGUOUS"]


@pytest.mark.parametrize("kind", ["sparse-binary-trials", "sparse-binary-exact"])
def test_sparse_kinds_refuse_a_scaled_view(kind):
    message = f"{kind} takes no scaled view, got scaled=True"
    obj = json.loads(Codebook(kind, 64, 8, k=3, seed=1).to_json())
    assert obj["scaled"] is False and Codebook.from_json(json.dumps(obj)).scaled is False
    for make in (lambda: Codebook(kind, 64, 8, k=3, seed=1, scaled=True),
                 lambda: Codebook.from_json(json.dumps({**obj, "scaled": True}))):
        with pytest.raises(ValueError) as refused:
            make()
        assert str(refused.value) == message


@pytest.mark.parametrize("kind, k", [("dense-sign", None), ("sparse-binary-trials", 3),
                                     ("sparse-binary-exact", 3)])
def test_every_kind_refuses_m_past_int64(kind, k):
    """Row indices and bundle lengths are int64: m = 2**63 - 1 is the largest codebook."""
    assert Codebook(kind, 2**63 - 1, 8, k=k, seed=1).m == 2**63 - 1
    for m in (2**63, 2**64 - 1, 2**64 + 5, float(2**63)):
        with pytest.raises(ValueError, match=f"^codebook m must be below 2\\*\\*63, "
                                             f"got m={int(m)}$"):
            Codebook(kind, m, 8, k=k, seed=1)


def test_codebook_json_refuses_m_past_int64():
    obj = json.loads(Codebook("sparse-binary-exact", 64, 8, k=3, seed=1).to_json())
    message = f"^codebook m must be below 2\\*\\*63, got m={2**64 - 1}$"
    with pytest.raises(ValueError, match=message):
        Codebook.from_json(json.dumps({**obj, "m": 2**64 - 1}))


def test_exact_indices_at_the_largest_m_are_rows():
    """At m = 2**63 - 1 every drawn row is in [0, m): the offsets fit in int64."""
    cb = Codebook("sparse-binary-exact", 2**63 - 1, 8, k=3, seed=1)
    rows = cb.exact_indices([0, 1, 2, 3])
    assert rows.shape == (4, 3) and (rows >= 0).all()
    assert all(len(set(row)) == 3 for row in rows.tolist())
    trials = Codebook("sparse-binary-trials", 2**63 - 1, 8, k=3, seed=1)
    assert (trials.union_indices([0, 1, 2, 3]) >= 0).all()


def _names(tree, *names):
    """Lines at which ``tree`` names one of ``names``: a use, an attribute, a def or an import."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if any(getattr(node, field, None) in names for field in ("attr", "name", "id")))


def test_one_gather_draws_and_no_range_accessor_remains():
    """In ``codebook.py`` only ``_gather`` draws (``rng.keyed_words``), and no module keeps
    the range accessor ``sign_matrix`` or its ``_column_words``."""
    tree = ast.parse(Path(codebook.__file__).read_text(encoding="utf-8"))
    gather = next(node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "_gather")
    assert _names(tree, "keyed_words") == _names(gather, "keyed_words") != []
    named = {path.name: _names(ast.parse(path.read_text(encoding="utf-8")),
                               "sign_matrix", "_column_words")
             for path in Path(codebook.__file__).parent.glob("*.py")}
    assert {name: lines for name, lines in named.items() if lines} == {}


def test_codebook_refuses_a_scaled_flag_that_is_not_a_bool():
    with pytest.raises(ValueError, match="^codebook scaled must be true or false, got 1$"):
        Codebook("dense-sign", 64, 8, seed=1, scaled=1)


def test_codebook_json_refuses_another_rng_version():
    obj = {**json.loads(Codebook("dense-sign", 64, 8, seed=1).to_json()), "rng_version": "old"}
    with pytest.raises(ValueError, match="^codebook was generated with rng 'old'"):
        Codebook.from_json(json.dumps(obj))


def test_codebook_refuses_d_past_int64_ids():
    """Symbol ids are int64, so d is at most 2**63: an id past int64 is out of range."""
    cb = Codebook("dense-sign", 64, 2**63, seed=1)
    with pytest.raises(IndexError, match=f"^symbol id {2**63} out of range"):
        cb.sign_words([2**63])
    for d in (2**63 + 1, 2**64):
        with pytest.raises(ValueError, match=f"^codebook d must be at most 2\\*\\*63, got d={d}$"):
            Codebook("dense-sign", 64, d, seed=1)
