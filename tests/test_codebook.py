import numpy as np
import pytest

from vsakit import rng
from vsakit.codebook import Codebook, atomic
from vsakit.hypervector import Hypervector, Rotation, bind, rotate


def test_dense_sign_columns_are_signs():
    cb = Codebook("dense-sign", 4, 10, seed=3)
    for j in range(10):
        assert set(np.unique(cb.column_ints(j))) <= {-1, 1}


def test_atomic_out_of_range():
    cb = Codebook("dense-sign", 4, 10, seed=3)
    with pytest.raises(IndexError):
        atomic(cb, 10)
    with pytest.raises(IndexError):
        atomic(cb, -1)


def test_atomic_deterministic():
    cb = Codebook("dense-sign", 64, 100, seed=9)
    assert atomic(cb, 17) == atomic(cb, 17)
    assert atomic(Codebook("dense-sign", 64, 100, seed=9), 17) == atomic(cb, 17)


def test_column_determinism_against_block_generation():
    # single-column regeneration equals extraction from full-matrix generation
    for trial in range(1000):
        seed = rng.mix64(trial)
        j = trial % 50
        cb = Codebook("dense-sign", 96, 50, seed=seed)
        assert np.array_equal(cb.sign_matrix(0, 50)[:, j], cb.column_ints(j))


def test_sparse_block_vs_single_column():
    cb = Codebook("sparse-binary-trials", 128, 40, k=7, seed=5)
    singles = [cb.column_indices(j).tolist() for j in range(40)]
    again = [cb.column_indices(j).tolist() for j in range(40)]
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
            pc = int(cb.column_ints(j).sum())
            assert check(pc, k)
            hits_upper += pc == k
    assert hits_upper > 0  # trials variant reaches k sometimes; exact always


def test_exact_k_three_ones_example():
    cb = Codebook("sparse-binary-exact", 16, 8, k=3, seed=11)
    assert int(atomic(cb, 0).values.sum()) == 3


def test_scaled_atomic_scaling():
    cb = Codebook("dense-sign", 16, 8, seed=2, scaled=True)
    v = atomic(cb, 3)
    assert v.domain == "scaled-real"
    assert np.allclose(np.abs(v.values), 1 / 4.0)
    cbk = Codebook("sparse-binary-exact", 16, 8, k=4, seed=2, scaled=True)
    assert np.isclose(atomic(cbk, 1).values.sum(), 1.0)  # k ones scaled by 1/k


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
    x = Hypervector(np.array([1, -1, 1, 1, -1, 1, -1, -1], dtype=np.int8), "sign")
    m = x.m
    for a in range(m + 2):
        for b in range(m + 2):
            lhs = rotate(rotate(x, Rotation(a)), Rotation(b))
            rhs = rotate(x, Rotation((a + b) % m))
            assert lhs == rhs
    assert rotate(x, Rotation(m)) == x


def test_rotate_examples():
    x = Hypervector(np.array([1, 2, 3]), "integer")
    assert rotate(x, Rotation(1)).values.tolist() == [2, 3, 1]
    y = Hypervector(np.array([1, 2, 3, 4]), "integer")
    assert rotate(y, Rotation(2)).values.tolist() == [3, 4, 1, 2]


def test_bind_examples():
    a = Hypervector(np.array([1, -1], dtype=np.int8), "sign")
    b = Hypervector(np.array([1, 1], dtype=np.int8), "sign")
    assert bind([a, b]).values.tolist() == [1, -1]
    assert bind([a, a]).values.tolist() == [1, 1]  # x (x) x = ones
    ones = Hypervector(np.ones(2, dtype=np.int8), "sign")
    assert bind([a, ones]) == a


def test_bind_rejects_bad_inputs():
    a = Hypervector(np.array([1, -1], dtype=np.int8), "sign")
    c = Hypervector(np.array([1, 0], dtype=np.int8), "binary")
    with pytest.raises(ValueError):
        bind([a, c])
    with pytest.raises(ValueError):
        bind([a, Hypervector(np.array([1, -1, 1], dtype=np.int8), "sign")])


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
