import csv
import io
import json
import math
import threading

import numpy as np
import pytest

from vsakit import harness, hopfield, mapi
from vsakit.codebook import Codebook
from vsakit.setalg import SymbolSet


def small_config(**overrides):
    base = dict(
        arch="mapi",
        task="norm",
        grid={"m": [64, 128], "n": [1, 4], "d": [32], "eps": [0.5]},
        trials=20,
        seed=7,
    )
    base.update(overrides)
    return harness.ExperimentConfig(**base)


def test_cells_deterministic_order():
    config = small_config()
    cells = config.cells()
    assert len(cells) == 4
    assert cells == config.cells()
    assert cells[0]["m"] == 64 and cells[1]["m"] == 64  # sorted keys, listed order


def test_trial_seed_is_pure_split():
    cell = {"m": 64, "n": 1}
    assert harness.trial_seed(7, cell, 0) == harness.trial_seed(7, cell, 0)
    assert harness.trial_seed(7, cell, 0) != harness.trial_seed(7, cell, 1)
    assert harness.trial_seed(8, cell, 0) != harness.trial_seed(7, cell, 0)
    assert harness.trial_seed(7, {"m": 65, "n": 1}, 0) != harness.trial_seed(7, cell, 0)


def test_trial_seed_continues_the_stream_fold():
    cell = {"m": 64, "n": 1}
    cell_json = json.dumps(cell, sort_keys=True)
    for master, index in [(7, 0), (7, 3), (2**64 - 1, 5), (-1, 2), (7, 2**64 + 1)]:
        expected = harness.rng.stream_id("trial", master & (2**64 - 1), cell_json, index)
        assert harness.trial_seed(master, cell, index) == expected


def test_trial_seed_takes_only_integral_seeds():
    cell = {"m": 64, "n": 1}
    for same in (np.int64(7), 7.0):
        assert harness.trial_seed(same, cell, 0) == harness.trial_seed(7, cell, 0)
    assert harness.trial_seed(7, cell, np.int64(2)) == harness.trial_seed(7, cell, 2)
    with pytest.raises(ValueError, match="master seed must be an integer, got 1.5"):
        harness.trial_seed(1.5, cell, 0)
    with pytest.raises(ValueError, match="trial index must be an integer, got 0.5"):
        harness.trial_seed(7, cell, 0.5)


def test_run_deterministic_and_thread_invariant():
    config = small_config()
    csv1, side1 = harness.run(config, threads=1)
    csv2, side2 = harness.run(config, threads=8)
    assert csv1 == csv2
    assert side1 == side2
    assert csv1.splitlines()[0] == ",".join(harness.COLUMNS)


def test_deterministic_task_has_zero_failures():
    # eps large enough that the estimator always passes
    config = harness.ExperimentConfig(
        arch="cbloom", task="intersection",
        grid={"m": [512], "k": [4], "d": [16], "n": [2], "n_v": [2], "n_w": [2],
              "K_b": [1], "eps": [100.0]},
        trials=1, seed=3,
    )
    csv_text, _ = harness.run(config)
    row = csv_text.splitlines()[1].split(",")
    assert row[harness.COLUMNS.index("failures")] == "0"
    assert row[harness.COLUMNS.index("error")] == ""


def test_invalid_cell_emits_error_row():
    config = harness.ExperimentConfig(
        arch="mapb", task="member",
        grid={"m": [64], "n": [100], "d": [32], "delta": [0.05]},  # n > d
        trials=5, seed=1,
    )
    csv_text, _ = harness.run(config)
    row = csv_text.splitlines()[1].split(",")
    assert row[-1] != ""
    assert row[harness.COLUMNS.index("emp_fail_rate")] == ""


_NORM = {"n": [1], "d": [32], "eps": [0.5]}
_BINDING = {"m": [64], "d": [32], "E": [2], "eps": [0.5]}
_CBLOOM = {"m": [64], "k": [3], "n_v": [2], "n_w": [3], "eps": [0.5]}
_RECALL = {"m": [64], "n": [2]}


@pytest.mark.parametrize("arch,task,grid,message", [
    ("mapi", "norm", {"m": [[64]], **_NORM}, "parameter 'm' must be a number, got [64]"),
    ("mapi", "norm", {"m": ["abc"], **_NORM}, "parameter 'm' must be a number, got 'abc'"),
    ("mapi", "norm", {"m": ["64"], **_NORM}, "parameter 'm' must be a number, got '64'"),
    ("mapi", "norm", {"m": [True], **_NORM}, "parameter 'm' must be a number, got True"),
    ("mapi", "norm", {"m": [64], **_NORM, "eps": ["0.5"]},
     "parameter 'eps' must be a number, got '0.5'"),
    ("mapi", "norm", {"m": [64], **_NORM, "eps": [False]},
     "parameter 'eps' must be a number, got False"),
    ("mapi", "norm", {"m": [1e999], **_NORM}, "parameter 'm' must be a number, got inf"),
    ("mapi", "binding2", {**_BINDING, "arity": [[2]]},
     "parameter 'arity' must be a number, got [2]"),
    ("cbloom", "l1", {**_CBLOOM, "d": [[64]]}, "parameter 'd' must be a number, got [64]"),
    ("cbloom", "intersection", _CBLOOM, "task needs parameter 'd'"),
    ("cbloom", "l1", {**_CBLOOM, "d": [32], "K_b": [[1]]},
     "parameter 'K_b' must be a number, got [1]"),
    ("cbloom", "intersection", {**_CBLOOM, "d": [32], "n": [None]},
     "parameter 'n' must be a number, got None"),
    ("hopfield", "recall", {**_RECALL, "erasures": [{}]},
     "parameter 'erasures' must be a number, got {}"),
    ("hopfield", "recall", {**_RECALL, "flips": [[1]]},
     "parameter 'flips' must be a number, got [1]"),
    ("mapi", "norm", {"m": [64.9], **_NORM}, "parameter 'm' must be an integer, got 64.9"),
    ("hopfield", "recall", {**_RECALL, "erasures": [2.5]},
     "parameter 'erasures' must be an integer, got 2.5"),
    ("mapi", "norm", {"m": [math.nan], **_NORM}, "parameter 'm' must be an integer, got nan"),
], ids=["list", "string", "numeric-string", "bool", "eps-string", "eps-bool", "inf",
        "arity-list", "cbloom-d-list", "cbloom-no-d", "K_b-list", "cbloom-n-null",
        "erasures-object", "flips-list", "m-fraction", "erasures-fraction", "m-nan"])
def test_uncastable_cell_value_is_an_error_row(arch, task, grid, message):
    config = small_config(arch=arch, task=task, grid=grid, trials=2)
    csv_text, _ = harness.run(config)
    row = next(csv.reader(io.StringIO(csv_text.splitlines()[1])))
    assert row[harness.COLUMNS.index("error")] == message


#: One valid cell of every task that reads a rate, eps or delta.
_RATE_CELLS = {
    ("mapi", "norm"): {"m": 64, "n": 3, "d": 32, "eps": 0.5},
    ("mapi", "sequence"): {"m": 64, "n": 3, "d": 32, "L": 3, "eps": 0.5},
    ("mapi", "sequence-symbols"): {"m": 64, "n": 3, "d": 32, "L": 3, "K": 2, "eps": 0.5},
    ("mapi", "binding2"): {"m": 64, "d": 32, "E": 4, "eps": 0.5},
    ("mapi", "bindingK"): {"m": 64, "d": 32, "E": 4, "arity": 3, "eps": 0.5},
    ("mapb", "member"): {"m": 64, "n": 3, "d": 32, "delta": 0.1},
    ("mapb", "sequence-member"): {"m": 64, "n": 3, "d": 32, "L": 3, "delta": 0.1},
    ("mapb", "kv-member"): {"m": 64, "n": 3, "d": 32, "delta": 0.1},
    ("mapb", "empty-intersection"): {"m": 64, "d": 32, "nx": 4, "ny": 4, "n": 0, "delta": 0.1},
    ("bloom", "size"): {"m": 64, "k": 3, "n": 3, "d": 32, "eps": 0.5},
    ("bloom", "intersection"): {"m": 64, "k": 3, "d": 32, "n": 2, "n_v": 2, "n_w": 3,
                                "eps": 0.5},
    ("cbloom", "intersection"): {"m": 64, "k": 3, "d": 32, "n_v": 2, "n_w": 3, "eps": 0.5},
    ("cbloom", "l1"): {"m": 64, "k": 3, "d": 32, "n_v": 2, "n_w": 3, "eps": 0.5},
    ("hopfield", "hpm-norm"): {"m": 64, "d": 32, "n": 3, "eps": 0.5},
    ("hopfield", "hpm-dot"): {"m": 64, "d": 32, "n": 3, "eps": 0.5},
}


def test_rate_cells_cover_every_task_that_reads_a_rate():
    no_rate = {("mapi", "pairs"), ("mapb", "depth"), ("hopfield", "store"),
               ("hopfield", "recall"), ("hopfield", "kv-recall")}
    assert set(_RATE_CELLS) == set(harness.TASKS) - no_rate


@pytest.mark.parametrize("bad", [0.0, -0.5, math.nan, math.inf],
                         ids=["zero", "negative", "nan", "inf"])
@pytest.mark.parametrize("arch,task", sorted(_RATE_CELLS))
def test_impossible_rate_is_an_error_row(arch, task, bad):
    cell = _RATE_CELLS[arch, task]
    rate = "eps" if "eps" in cell else "delta"
    expected = {"eps": f"eps must be positive and finite, got {bad}",
                "delta": f"delta must be in (0, 1), got {bad}"}[rate]
    for value, error in ((cell[rate], ""), (bad, expected)):
        grid = {name: [v] for name, v in {**cell, rate: value}.items()}
        csv_text, _ = harness.run(small_config(arch=arch, task=task, grid=grid, trials=2))
        row = next(csv.reader(io.StringIO(csv_text.splitlines()[1])))
        assert row[harness.COLUMNS.index("error")] == error


@pytest.mark.parametrize("field", ["trials", "seed"])
@pytest.mark.parametrize("value", [None, [1], {"n": 1}, 1e999, 2.5, True, "7"])
def test_non_numeric_trials_or_seed_is_a_config_error(field, value):
    obj = {"arch": "mapi", "task": "norm", "trials": 2, "seed": 1,
           "grid": {"m": [64], "n": [1], "d": [32], "eps": [0.5]}}
    obj[field] = value
    with pytest.raises(ValueError, match=f"config '{field}' must be an integer"):
        harness.ExperimentConfig.from_json(json.dumps(obj))
    # Built directly, the same check and message apply before any trial runs.
    with pytest.raises(ValueError, match=f"config '{field}' must be an integer"):
        harness.run(harness.ExperimentConfig(**obj))


def test_one_philox_per_thread(monkeypatch):
    # A harness run reuses one generator per thread; building one per
    # Stream.words call would show here as thousands of constructions.
    made = []
    real = np.random.Philox

    def counting(*args, **kwargs):
        made.append(threading.get_ident())
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    config = small_config(grid={"m": [64, 119], "n": [1, 16], "d": [256], "eps": [0.5]},
                          trials=10)
    expected, _ = harness.run(config)
    out = []
    worker = threading.Thread(target=lambda: out.append(harness.run(config)[0]))
    worker.start()
    worker.join()
    assert out == [expected]
    assert made.count(worker.ident) == 1
    assert all(made.count(ident) <= 1 for ident in made)


def test_depth_task_uses_L_column():
    config = harness.ExperimentConfig(
        arch="mapb", task="depth",
        grid={"m": [512], "L": [1, 3]},
        trials=10, seed=2,
    )
    csv_text, _ = harness.run(config)
    rows = [line.split(",") for line in csv_text.splitlines()[1:]]
    assert [r[harness.COLUMNS.index("L")] for r in rows] == ["1", "3"]
    assert all(r[harness.COLUMNS.index("failures")] == "0" for r in rows)


def test_unknown_task_rejected():
    with pytest.raises(ValueError):
        harness.ExperimentConfig("mapi", "nope", {"m": [1]}, 1, 0)
    with pytest.raises(ValueError):
        harness.run_trials("mapi", "nope", {}, [0])
    with pytest.raises(ValueError, match=r"unknown experiment task \('mapi', 'nope'\)"):
        harness.run_trials("mapi", "nope", {}, [0, 1])


def test_config_from_json():
    text = json.dumps({
        "arch": "bloom", "task": "intersection",
        "grid": {"m": [512], "k": [4], "d": [64], "n": [2], "n_v": [3], "n_w": [3],
                 "eps": [1.0]},
        "trials": 4, "seed": 11,
    })
    config = harness.ExperimentConfig.from_json(text)
    csv_text, sidecar = harness.run(config)
    assert len(csv_text.splitlines()) == 2
    assert sidecar["rng_version"] == harness.rng.RNG_VERSION
    with pytest.raises(ValueError):
        harness.ExperimentConfig.from_json(json.dumps({"arch": "bloom"}))


def test_trial_records_match_aggregate():
    config = small_config(grid={"m": [64], "n": [4], "d": [32], "eps": [0.5]})
    cell = config.cells()[0]
    records = harness.trial_records(config, cell)
    assert len(records) == config.trials
    assert all(r.seed == harness.trial_seed(config.seed, cell, r.index) for r in records)
    csv_text, _ = harness.run(config)
    failures = int(csv_text.splitlines()[1].split(",")[harness.COLUMNS.index("failures")])
    assert failures == sum(not r.outcome.passed for r in records)


_SHARED = {"m": 256, "k": 4, "n": 2, "d": 32, "L": 2, "K": 1, "eps": 2.0,
           "delta": 0.2, "M": 2, "n_x": 2, "n_y": 2, "E": 2, "nx": 2, "ny": 2,
           "n_v": 2, "n_w": 2, "K_b": 1, "erasures": 8}


def test_every_registered_task_runs():
    for (arch, task) in harness.TASKS:
        (outcome,) = harness.run_trials(arch, task, dict(_SHARED), [5])
        assert isinstance(outcome.passed, (bool, int))


@pytest.mark.parametrize("arch_task", sorted(harness.TASKS))
def test_run_trials_equal_one_trial_at_a_time(arch_task):
    seeds = [5, 6, 2**64 - 1, 5]
    batch = harness.run_trials(*arch_task, dict(_SHARED), seeds)
    assert batch == [harness.run_trials(*arch_task, dict(_SHARED), [s])[0] for s in seeds]


def _mapi_norm_trial(cell, seed):
    """The one-trial MAP-I norm path: a SymbolSet, a bundle and its norm estimate."""
    m, n, d, eps = cell["m"], cell["n"], cell["d"], cell["eps"]
    cb = Codebook("dense-sign", m, d, seed=seed, scaled=True)
    v = SymbolSet.from_ids(d, harness._draw_subset(seed, "set", d, n).tolist())
    return harness._within(mapi.norm_sq_estimate(mapi.bundle(cb, v)), n, eps * n)


@pytest.mark.parametrize("n", [-1, 0, 1, 16, 64])  # 64 = d; -1 is an error on both paths
@pytest.mark.parametrize("per_stack", [1, 4, 10, 100])
def test_mapi_norm_trials_equal_one_set_path(monkeypatch, n, per_stack):
    cell = {"m": 119, "n": n, "d": 64, "eps": 0.5}
    seeds = [harness.trial_seed(3, cell, t) for t in range(10)]
    monkeypatch.setattr(mapi, "_STACK_BYTES", per_stack * max(1, n * 119))
    if n < 0:
        bad_size = "cannot draw -1 distinct symbols from universe 64"
        with pytest.raises(ValueError, match=bad_size):
            harness.run_trials("mapi", "norm", cell, seeds)
        with pytest.raises(ValueError, match=bad_size):
            _mapi_norm_trial(cell, seeds[0])
        return
    assert harness.run_trials("mapi", "norm", cell, seeds) == [
        _mapi_norm_trial(cell, s) for s in seeds]


def _set_draw_chunk(monkeypatch, rows, size):
    """Make ``_draw_subsets`` stack ``rows`` seeds per chunk for draws of ``size``."""
    monkeypatch.setattr(harness, "_DRAW_BYTES", rows * 8 * max(size, 1))


@pytest.mark.parametrize("d, size", sorted({(d, size) for d in (1, 7, 256)
                                            for size in (0, 1, 16, d - 1, d) if size <= d}))
@pytest.mark.parametrize("count", [1, 2, 4, 5, 6])  # the chunk is 5 seeds
def test_draw_subsets_equal_row_wise_draws(monkeypatch, d, size, count):
    _set_draw_chunk(monkeypatch, 5, size)
    seeds = [harness.trial_seed(11, {"d": d, "n": size}, t) for t in range(count)]
    rows = list(harness._draw_subsets(seeds, "set", d, size))
    assert len(rows) == count
    for seed, row in zip(seeds, rows):
        assert row.dtype == np.int64
        assert np.array_equal(row, harness._draw_subset(seed, "set", d, size))


@pytest.mark.parametrize("count", [63, 64, 65])
def test_draw_subsets_across_default_chunks(count):
    d = size = 256
    assert harness._DRAW_BYTES // (8 * size) == 64
    seeds = [harness.trial_seed(12, {"d": d}, t) for t in range(count)]
    rows = list(harness._draw_subsets(seeds, "suppX", d, size))
    assert len(rows) == count
    for seed, row in zip(seeds, rows):
        assert np.array_equal(row, harness._draw_subset(seed, "suppX", d, size))


def test_draw_subsets_raise_at_the_first_draw():
    draws = harness._draw_subsets([1, 2], "set", 8, 9)  # lazy: nothing drawn yet
    with pytest.raises(ValueError, match="cannot draw 9 distinct symbols from universe 8"):
        next(draws)
    assert list(harness._draw_subsets([], "set", 8, 9)) == []
    with pytest.raises(ValueError, match="cannot draw -1 distinct symbols from universe 8"):
        next(harness._draw_subsets([1, 2], "set", 8, -1))


def _mapi_norm_reference(cell, seeds):
    """The per-seed norm trials the batched draws replaced, kept as the reference.

    Per seed: its codebook, then its drawn set, then the gather of its words.
    """
    m, n, d = cell["m"], cell["n"], cell["d"]

    def words(seed):
        cb = Codebook("dense-sign", m, d, seed=seed, scaled=True)
        return cb.sign_words(harness._draw_subset(seed, "set", d, n))

    return [harness._within(est, n, cell["eps"] * n)
            for est in mapi.flat_norm_sq_estimates(m, map(words, seeds))]


@pytest.mark.parametrize("m", [1, 64, 119, 130])
@pytest.mark.parametrize("d, n", sorted({(d, n) for d in (1, 2, 256)
                                         for n in (0, 1, 16, d - 1, d) if 0 <= n <= d}))
def test_mapi_norm_trials_equal_per_seed_reference(monkeypatch, m, d, n):
    _set_draw_chunk(monkeypatch, 3, n)
    cell = {"m": m, "n": n, "d": d, "eps": 0.5}
    seeds = [harness.trial_seed(4, cell, t) for t in range(8)]
    assert harness.run_trials("mapi", "norm", cell, seeds) == _mapi_norm_reference(cell, seeds)


def _hpm_trial(cell, seed, dot):
    """The one-trial Hopfield± path: a fresh bundle per support and the public estimators."""
    m, n, d, eps = cell["m"], cell["n"], cell["d"], cell["eps"]
    cb = Codebook("dense-sign", m, d, seed=seed, scaled=True)
    x_ids = harness._draw_subset(seed, "suppX", d, n)
    bx = hopfield.hpm_encode(cb, {int(i): 1.0 for i in x_ids}, d_seed=seed)
    if not dot:
        return harness._within(hopfield.hpm_norm_estimate(bx), n, eps * n)
    y_ids = harness._draw_subset(seed, "suppY", d, n)
    by = hopfield.hpm_encode(cb, {int(i): 1.0 for i in y_ids}, d_seed=seed)
    truth = len(set(x_ids.tolist()) & set(y_ids.tolist()))
    return harness._within(hopfield.hpm_dot_estimate(bx, by), truth, eps * n)


@pytest.mark.parametrize("task", ["hpm-norm", "hpm-dot"])
@pytest.mark.parametrize("m, n, d", [(1, 2, 8), (63, 0, 16), (64, 3, 16), (65, 16, 16),
                                     (200, 8, 512)])
def test_hpm_trials_equal_the_bundle_path(task, m, n, d):
    cell = {"m": m, "n": n, "d": d, "eps": 0.5}
    seeds = [harness.trial_seed(3, cell, t) for t in range(6)]
    assert harness.run_trials("hopfield", task, cell, seeds) == [
        _hpm_trial(cell, s, task == "hpm-dot") for s in seeds]


#: The sized Hopfield± cells' CSVs (m=1365, d=512, n=8, eps 0.7071, 20 trials,
#: seed 0), recorded before the trials ran through reused buffers.
_SIZED_HPM_CSV = {
    "hpm-norm": "hopfield,hpm-norm,1365,,8,512,,0.7071,,20,0,0.0,"
                "0.01024760831354259,0.030186370406150687,0,philox4x64-block-v1,",
    "hpm-dot": "hopfield,hpm-dot,1365,,8,512,,0.7071,,20,0,0.0,"
               "0.007004763246521483,0.01584135034684485,0,philox4x64-block-v1,",
}


@pytest.mark.parametrize("task", sorted(_SIZED_HPM_CSV))
def test_sized_hpm_csv_bytes(task):
    grid = {"m": [1365], "d": [512], "n": [8], "eps": [0.7071]}
    csv_text, _ = harness.run(harness.ExperimentConfig("hopfield", task, grid, 20, 0))
    assert csv_text == ",".join(harness.COLUMNS) + "\n" + _SIZED_HPM_CSV[task] + "\n"


@pytest.mark.parametrize("task", ["hpm-norm", "hpm-dot"])
@pytest.mark.parametrize("grid, tail", [
    ({"m": [-1], "d": [512], "n": [8]}, "-1,,8,512,,0.7071,,3,0,,,,0,"
     "philox4x64-block-v1,m and d must be positive"),
    ({"m": [0], "d": [512], "n": [8]}, "0,,8,512,,0.7071,,3,0,,,,0,"
     "philox4x64-block-v1,m and d must be positive"),
    ({"m": [64], "d": [4], "n": [8]}, "64,,8,4,,0.7071,,3,0,,,,0,"
     "philox4x64-block-v1,cannot draw 8 distinct symbols from universe 4"),
    ({"m": [64], "d": [512], "n": [-1]}, "64,,-1,512,,0.7071,,3,0,,,,0,"
     "philox4x64-block-v1,cannot draw -1 distinct symbols from universe 512"),
])
def test_hpm_bad_cells_keep_their_rows(task, grid, tail):
    grid = {**grid, "eps": [0.7071]}
    csv_text, _ = harness.run(harness.ExperimentConfig("hopfield", task, grid, 3, 0))
    assert csv_text.splitlines()[1] == f"hopfield,{task},{tail}"


@pytest.mark.parametrize("grid, row", [
    ({"m": [64], "n": [40], "d": [32], "eps": [0.5]},
     "mapi,norm,64,,40,32,,0.5,,3,0,,,,7,philox4x64-block-v1,"
     "cannot draw 40 distinct symbols from universe 32"),
    ({"m": ["abc"], "n": [4], "d": [32], "eps": [0.5]},
     "mapi,norm,abc,,4,32,,0.5,,3,0,,,,7,philox4x64-block-v1,"
     "\"parameter 'm' must be a number, got 'abc'\""),
    ({"m": [64], "n": [4], "d": [0], "eps": [0.5]},
     "mapi,norm,64,,4,0,,0.5,,3,0,,,,7,philox4x64-block-v1,m and d must be positive"),
    ({"m": [0], "n": [4], "d": [32], "eps": [0.5]},
     "mapi,norm,0,,4,32,,0.5,,3,0,,,,7,philox4x64-block-v1,m and d must be positive"),
    ({"m": [64], "n": [4], "d": [32]},
     "mapi,norm,64,,4,32,,,,3,0,,,,7,philox4x64-block-v1,task needs parameter 'eps'"),
    ({"m": [64], "n": [2.5], "d": [32], "eps": [0.5]},
     "mapi,norm,64,,2.5,32,,0.5,,3,0,,,,7,philox4x64-block-v1,"
     "\"parameter 'n' must be an integer, got 2.5\""),
    ({"m": [64], "n": [-1], "d": [32], "eps": [0.5]},
     "mapi,norm,64,,-1,32,,0.5,,3,0,,,,7,philox4x64-block-v1,"
     "cannot draw -1 distinct symbols from universe 32"),
    # A seed's codebook is checked before its set is drawn, and n = d, which
    # draws no set, skips no check.
    ({"m": [0], "n": [40], "d": [32], "eps": [0.5]},
     "mapi,norm,0,,40,32,,0.5,,3,0,,,,7,philox4x64-block-v1,m and d must be positive"),
    ({"m": [64], "n": [0], "d": [0], "eps": [0.5]},
     "mapi,norm,64,,0,0,,0.5,,3,0,,,,7,philox4x64-block-v1,m and d must be positive"),
    ({"m": [64], "n": [-1], "d": [-1], "eps": [0.5]},
     "mapi,norm,64,,-1,-1,,0.5,,3,0,,,,7,philox4x64-block-v1,m and d must be positive"),
    ({"m": [0], "n": [32], "d": [32], "eps": [0.5]},
     "mapi,norm,0,,32,32,,0.5,,3,0,,,,7,philox4x64-block-v1,m and d must be positive"),
    ({"m": [64], "n": [32], "d": [32], "eps": [0.5]},
     "mapi,norm,64,,32,32,,0.5,,3,0,0.0,6.3125,10.4375,7,philox4x64-block-v1,"),
])
def test_mapi_norm_bad_cells_keep_their_rows(grid, row):
    csv_text, _ = harness.run(harness.ExperimentConfig("mapi", "norm", grid, 3, 7))
    assert csv_text.splitlines()[1] == row


def test_kv_member_rows_with_one_or_two_value_ids():
    # d = 2 and d = 3 leave one and two value ids: the wrong-value shift is 1
    # (at d = 2 it maps a value to itself, so no wrong pair is queried).
    grid = {"m": [1, 4, 16], "n": [1], "d": [2, 3], "delta": [0.9]}
    csv_text, _ = harness.run(harness.ExperimentConfig("mapb", "kv-member", grid, 20, 3))
    assert csv_text.splitlines()[1:] == [
        "mapb,kv-member,1,,1,2,,,0.9,20,20,1.0,1.0,1.0,3,philox4x64-block-v1,",
        "mapb,kv-member,4,,1,2,,,0.9,20,0,0.0,0.0,0.0,3,philox4x64-block-v1,",
        "mapb,kv-member,16,,1,2,,,0.9,20,0,0.0,0.0,0.0,3,philox4x64-block-v1,",
        "mapb,kv-member,1,,1,3,,,0.9,20,20,1.0,1.0,1.0,3,philox4x64-block-v1,",
        "mapb,kv-member,4,,1,3,,,0.9,20,20,1.0,1.0,1.0,3,philox4x64-block-v1,",
        "mapb,kv-member,16,,1,3,,,0.9,20,1,0.05,0.05,1.0,3,philox4x64-block-v1,",
    ]


def _count_trials(monkeypatch) -> list:
    """Record every seed that a harness.run_trials call runs from now on."""
    seeds = []
    real = harness.run_trials

    def counted(arch, task, cell, batch):
        seeds.extend(batch)
        return real(arch, task, cell, batch)

    monkeypatch.setattr(harness, "run_trials", counted)
    return seeds


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("grid", [
    {"m": [64], "n": [4], "d": [32], "eps": [0.5]},
    {"m": [64, 96, 128], "n": [1, 4], "d": [32], "eps": [0.5]},
])
def test_each_trial_runs_exactly_once(monkeypatch, grid, threads):
    seeds = _count_trials(monkeypatch)
    config = small_config(grid=grid, trials=5)
    harness.run(config, threads=threads)
    assert len(seeds) == len(config.cells()) * config.trials
    assert len(set(seeds)) == len(seeds)
