import ast
import csv
import io
import json
import math
import re
import threading
from pathlib import Path

import numpy as np
import pytest

from vsakit import cbloom, harness, hopfield, mapb, mapi, rng, setalg, sizing
from vsakit.codebook import Codebook
from vsakit.setalg import SymbolSet

from exact_laws import (binomial_two_sided_p, mapb_agreement, mapb_wrong_law, mapi_norm_fail,
                        mapi_norm_q_law)
from test_golden import _GRIDS


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


def test_numpy_float_grid_value_prints_as_a_number():
    config = small_config(grid={"m": [64], "n": [1], "d": [32], "eps": [0.5]})
    as_numpy = small_config(grid={"m": [64], "n": [1], "d": [32], "eps": [np.float64(0.5)]})
    assert harness.run(as_numpy)[0] == harness.run(config)[0]


@pytest.mark.parametrize("scalar", [np.int64, np.int32, np.uint16], ids=lambda t: t.__name__)
def test_numpy_integer_grid_value_runs_as_its_python_value(scalar):
    grid = {"m": [64], "n": [4], "d": [32], "eps": [0.5]}
    config = small_config(grid=grid, trials=3)
    as_numpy = small_config(grid={**grid, "m": [scalar(64)], "n": [np.int64(4)]}, trials=3)
    csv_text, sidecar = harness.run(as_numpy)
    assert csv_text == harness.run(config)[0]
    assert json.dumps(sidecar, sort_keys=True) == json.dumps(harness.run(config)[1], sort_keys=True)
    (cell,) = as_numpy.cells()
    assert [r.seed for r in harness.trial_records(as_numpy, cell)] == [
        harness.trial_seed(7, {"d": 32, "eps": 0.5, "m": 64, "n": 4}, t) for t in range(3)]


def test_numpy_bool_grid_value_is_an_error_row_as_a_bool_is():
    grid = {"m": [64], "n": [4], "d": [32], "eps": [0.5]}
    csv_text, _ = harness.run(small_config(grid={**grid, "m": [np.bool_(True)]}, trials=3))
    assert csv_text == harness.run(small_config(grid={**grid, "m": [True]}, trials=3))[0]
    (row,) = csv.DictReader(io.StringIO(csv_text))
    assert row["error"] == "parameter 'm' must be a number, got True"


def test_numpy_array_grid_value_is_its_tolist():
    grid = {"m": [64], "n": [4], "d": [32], "eps": [0.5]}
    config = small_config(grid=grid, trials=3)
    csv_text, sidecar = harness.run(small_config(grid={**grid, "m": [np.array(64)]}, trials=3))
    assert csv_text == harness.run(config)[0]
    assert json.dumps(sidecar, sort_keys=True) == json.dumps(harness.run(config)[1], sort_keys=True)
    for array, python in ((np.array(True), True), (np.array([64]), [64])):
        csv_text, _ = harness.run(small_config(grid={**grid, "m": [array]}, trials=3))
        assert csv_text == harness.run(small_config(grid={**grid, "m": [python]}, trials=3))[0]
        (row,) = csv.DictReader(io.StringIO(csv_text))
        assert row["error"] == f"parameter 'm' must be a number, got {python}"


def test_calibrate_takes_numpy_integer_params():
    params = dict(eps=0.5, delta=0.2, n=4, d=64)
    want = sizing.calibrate("mapi", "norm", params, target=0.2, trials=100, seed=9)
    got = sizing.calibrate("mapi", "norm", {**params, "n": np.int64(4), "d": np.int32(64)},
                           target=0.2, trials=100, seed=9)
    assert (got.m_star, got.rates) == (want.m_star, want.rates)


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


def test_binding2_binds_pairs_only():
    """binding2 refuses any arity but 2, naming bindingK, before it reads eps."""
    def error(task, arity, eps=0.5):
        config = small_config(task=task, grid={**_BINDING, "arity": [arity], "eps": [eps]},
                              trials=2)
        row = next(csv.reader(io.StringIO(harness.run(config)[0].splitlines()[1])))
        return row[harness.COLUMNS.index("error")]

    for arity, eps in ((3, 0.5), (1, 0.5), (0, 0.5), (3, -1.0)):
        assert error("binding2", arity, eps) == (f"binding2 binds pairs, got arity {arity}; "
                                                 f"bindingK takes any arity")
    assert error("binding2", 2) == error("bindingK", 3) == ""
    assert error("binding2", 2, -1.0) == "eps must be positive and finite, got -1.0"
    with pytest.raises(ValueError, match="binding2 binds pairs, got arity 3"):
        harness.run_trials("mapi", "binding2", {"m": 64, "d": 32, "E": 2, "eps": 0.5,
                                                "arity": 3}, [5])


def test_binding_k_reads_its_arity_from_the_sizing_input_k():
    """bindingK binds k-edges when the cell names the arity k, as the sizing input does."""
    cell = {"m": 300, "d": 256, "E": 4, "eps": 0.5}

    def outcomes(task, **more):
        return harness.run_trials("mapi", task, {**cell, **more}, range(20))

    assert outcomes("bindingK", k=3) == outcomes("bindingK", arity=3)
    assert outcomes("bindingK", k=3) != outcomes("bindingK", arity=2)
    assert outcomes("bindingK", k=3, arity=3) == outcomes("bindingK", arity=3)
    assert outcomes("binding2", k=3) == outcomes("binding2")  # binding2 reads no k
    config = small_config(task="bindingK", grid={**_BINDING, "arity": [2], "k": [3],
                                                 "eps": [-1.0]}, trials=2)
    row = next(csv.reader(io.StringIO(harness.run(config)[0].splitlines()[1])))
    assert row[harness.COLUMNS.index("error")] == ("bindingK got arity 2 and k 3; "
                                                   "give one, or equal values")


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


def _golden_cell(arch, task, changes):
    """The first cell of the task's golden grid, as a one-cell grid, with ``changes``."""
    return {**{key: values[:1] for key, values in _GRIDS[arch, task].items()}, **changes}


#: Every integer parameter of every task's known-good golden cell, optional
#: parameters included (the golden grids set each of them).
_INTEGER_PARAMS = [(arch, task, name) for (arch, task), grid in sorted(_GRIDS.items())
                   for name in sorted(grid) if name not in ("eps", "delta")]


def test_integer_params_cover_every_task():
    assert {(arch, task) for arch, task, _ in _INTEGER_PARAMS} == set(harness.TASKS)


@pytest.mark.parametrize("arch,task,name", _INTEGER_PARAMS)
def test_negative_integer_parameter_is_an_error_row(arch, task, name):
    # Never a traceback out of run, never a silent run of an instance with no meaning.
    csv_text, _ = harness.run(small_config(arch=arch, task=task, trials=2,
                                           grid=_golden_cell(arch, task, {name: [-1]})))
    (row,) = csv.DictReader(io.StringIO(csv_text))
    assert row["error"] != "" and row["failures"] == "0"


@pytest.mark.parametrize("arch,task,changes,message", [
    ("cbloom", "intersection", {"K_b": [0]}, "K_b must be >= 1, got 0"),
    ("cbloom", "l1", {"K_b": [-1]}, "K_b must be >= 1, got -1"),
    ("cbloom", "intersection", {"n_v": [-1]},
     "masses n_v, n_w and n cannot be negative, got -1, 3, 3"),
    ("cbloom", "l1", {"K_b": [1], "n": [-2]},
     "masses n_v, n_w and n cannot be negative, got 2, 3, -2"),
    ("mapi", "pairs", {"M": [-1]}, "pair count M cannot be negative, got -1"),
], ids=["K_b-zero", "K_b-negative", "n_v-negative", "n-negative-at-K_b-1", "M-negative"])
def test_bad_count_is_an_error_row(arch, task, changes, message):
    config = small_config(arch=arch, task=task, trials=2,
                          grid=_golden_cell(arch, task, changes))
    (row,) = csv.DictReader(io.StringIO(harness.run(config)[0]))
    assert row["error"] == message


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


def test_no_seeds_draw_nothing():
    """A cell whose one fault is a draw past d runs no seed and draws nothing: every task
    returns no outcome, and the tasks that draw their seeds together refuse one seed."""
    cell = {**_SHARED, "m": 8, "d": 4, "n": 9, "nx": 9, "ny": 9}  # 9 or more ids of [4]
    for arch_task in harness.TASKS:
        assert harness.run_trials(*arch_task, dict(cell), []) == [], arch_task
    for arch_task in [("mapi", "norm"), ("mapb", "empty-intersection"), ("cbloom", "l1"),
                      ("cbloom", "intersection"), ("hopfield", "hpm-norm"),
                      ("hopfield", "hpm-dot")]:
        with pytest.raises(ValueError, match="cannot draw .* distinct symbols from universe 4"):
            harness.run_trials(*arch_task, dict(cell), [5])


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


class _SeedsPerSlice(int):
    """A ``_CHUNK_BYTES`` that holds this many seeds, whatever a seed's bytes under the rule."""

    def __floordiv__(self, per_seed):
        return int(self)


def _set_chunk(monkeypatch, per_chunk):
    """Make ``harness._chunks`` slice ``per_chunk`` seeds at a time ("all": one slice)."""
    per_chunk = 2**40 if per_chunk == "all" else per_chunk
    monkeypatch.setattr(harness, "_CHUNK_BYTES", _SeedsPerSlice(per_chunk))


def _count_kernel_calls(monkeypatch):
    """The stack shapes that ``mapi._signed_sums`` is called with, in order."""
    calls = []
    real = mapi._signed_sums
    monkeypatch.setattr(mapi, "_signed_sums",
                        lambda words, *args: calls.append(words.shape) or real(words, *args))
    return calls


@pytest.mark.parametrize("n", [-1, 0, 1, 16, 64])  # 64 = d; -1 is an error on both paths
@pytest.mark.parametrize("per_chunk", [1, 4, 10, 100])
def test_mapi_norm_trials_equal_one_set_path(monkeypatch, n, per_chunk):
    cell = {"m": 119, "n": n, "d": 64, "eps": 0.5}
    seeds = [harness.trial_seed(3, cell, t) for t in range(10)]
    _set_chunk(monkeypatch, per_chunk)
    calls = _count_kernel_calls(monkeypatch)
    if n < 0:
        bad_size = "cannot draw -1 distinct symbols from universe 64"
        with pytest.raises(ValueError, match=bad_size):
            harness.run_trials("mapi", "norm", cell, seeds)
        with pytest.raises(ValueError, match=bad_size):
            _mapi_norm_trial(cell, seeds[0])
        assert calls == []
        return
    batched = harness.run_trials("mapi", "norm", cell, seeds)
    assert [shape[0] for shape in calls] == [
        min(per_chunk, 10 - start) for start in range(0, 10, per_chunk)]
    assert batched == [_mapi_norm_trial(cell, s) for s in seeds]


def _one_seed_draw(seed, tag, d, size):
    """A seed's draw as one stream window and one Fisher-Yates row, the one-seed reference."""
    return rng.choose_distinct(rng.Stream(seed, "inst", tag).words(0, max(size, 1)), d, size)


@pytest.mark.parametrize("d, size", sorted({(d, size) for d in (1, 7, 256)
                                            for size in (0, 1, 16, d - 1, d) if size <= d}))
@pytest.mark.parametrize("count", [1, 2, 4, 5, 6])
def test_draw_subsets_equal_row_wise_draws(d, size, count):
    seeds = [harness.trial_seed(11, {"d": d, "n": size}, t) for t in range(count)]
    rows = harness._draw_subsets(seeds, "set", d, size)
    assert rows.shape == (count, size) and rows.dtype == np.int64
    for seed, row in zip(seeds, rows):
        assert np.array_equal(row, _one_seed_draw(seed, "set", d, size))
        assert np.array_equal(row, harness._draw_subset(seed, "set", d, size))


@pytest.mark.parametrize("count", [255, 256, 257])
def test_draw_subsets_draw_every_seed_in_one_call(monkeypatch, count):
    d = size = 256
    calls = []
    real = rng.choose_distinct_rows
    monkeypatch.setattr(rng, "choose_distinct_rows",
                        lambda words, *args: calls.append(words.shape) or real(words, *args))
    seeds = [harness.trial_seed(12, {"d": d}, t) for t in range(count)]
    rows = harness._draw_subsets(seeds, "suppX", d, size)
    assert calls == [(count, size)]
    for seed, row in zip(seeds, rows):
        assert np.array_equal(row, _one_seed_draw(seed, "suppX", d, size))


def test_draw_subsets_raise_at_the_first_draw(monkeypatch):
    """A bad size raises before any word is drawn, whatever the seeds."""
    drawn = []
    monkeypatch.setattr(rng, "keyed_words", lambda *args: drawn.append(args))
    for seeds in ([1, 2], []):
        with pytest.raises(ValueError, match="cannot draw 9 distinct symbols from universe 8"):
            harness._draw_subsets(seeds, "set", 8, 9)
        with pytest.raises(ValueError, match="cannot draw -1 distinct symbols from universe 8"):
            harness._draw_subsets(seeds, "set", 8, -1)
    assert drawn == []
    monkeypatch.undo()
    assert harness._draw_subsets([], "set", 8, 3).shape == (0, 3)


def test_one_budget_sizes_every_batch():
    """One ``_BYTES`` budget, in the harness; codebook and MAP-I kernel take whole stacks."""
    budgets, yields = [], []
    for path in sorted(Path(harness.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        budgets += [(path.name, target.id) for node in tree.body
                    if isinstance(node, (ast.Assign, ast.AnnAssign))
                    for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                    if isinstance(target, ast.Name) and target.id.endswith("_BYTES")]
        if path.name in ("codebook.py", "mapi.py"):
            yields += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                       if isinstance(node, (ast.Yield, ast.YieldFrom))]
    assert budgets == [("harness.py", "_CHUNK_BYTES")], f"byte budgets: {budgets}"
    assert yields == [], f"generators at {yields}"


def _mapi_norm_reference(cell, seeds):
    """The per-seed norm trials the batched draws replaced, kept as the reference.

    Per seed: its codebook, then its drawn set, then the gather of its words.
    """
    m, n, d = cell["m"], cell["n"], cell["d"]

    def words(seed):
        cb = Codebook("dense-sign", m, d, seed=seed, scaled=True)
        return cb.sign_words(harness._draw_subset(seed, "set", d, n))

    return [harness._within(est, n, cell["eps"] * n)
            for est in mapi.flat_norm_sq_estimates(m, np.stack([words(s) for s in seeds]))]


@pytest.mark.parametrize("m", [1, 64, 119, 130])
@pytest.mark.parametrize("d, n", sorted({(d, n) for d in (1, 2, 256)
                                         for n in (0, 1, 16, d - 1, d) if 0 <= n <= d}))
@pytest.mark.parametrize("per_chunk", [1, 3, "all"])
def test_mapi_norm_trials_equal_per_seed_reference(monkeypatch, m, d, n, per_chunk):
    _set_chunk(monkeypatch, per_chunk)
    cell = {"m": m, "n": n, "d": d, "eps": 0.5}
    seeds = [harness.trial_seed(4, cell, t) for t in range(8)]
    assert harness.run_trials("mapi", "norm", cell, seeds) == _mapi_norm_reference(cell, seeds)


def test_mapi_norm_cell_draws_one_budget_of_windows_per_kernel_call(monkeypatch):
    """Between two kernel calls, a cell draws at most ``_CHUNK_BYTES`` of window words.

    At m = 64 a column's window is 4 words, and 16 ids of [3000] span about
    3000 columns: a seed's windows dwarf its n*m bytes of unpacked bits.
    """
    cell = {"m": 64, "n": 16, "d": 3000, "eps": 0.5}
    seeds = [harness.trial_seed(9, cell, t) for t in range(400)]
    sid = Codebook("dense-sign", 64, 3000)._sid
    drawn, per_seed = [0], {}
    keyed = rng.keyed_words

    def count(seed, stream, *args):
        words = keyed(seed, stream, *args)
        if stream == sid:  # a codebook window, not an instance draw
            drawn[-1] += 8 * words.size
            per_seed[seed] = per_seed.get(seed, 0) + 8 * words.size
        return words

    real = mapi._signed_sums
    monkeypatch.setattr(rng, "keyed_words", count)
    monkeypatch.setattr(mapi, "_signed_sums", lambda *args: drawn.append(0) or real(*args))
    assert len(harness.run_trials("mapi", "norm", cell, seeds)) == 400
    between = drawn[:-1]  # the last entry follows the last kernel call
    assert len(between) > 1 and drawn[-1] == 0
    assert max(between) <= max(harness._CHUNK_BYTES, max(per_seed.values()))


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
@pytest.mark.parametrize("per_chunk", [1, 3, "all"])  # seeds per run_trials call
def test_hpm_trials_equal_the_bundle_path(task, m, n, d, per_chunk):
    cell = {"m": m, "n": n, "d": d, "eps": 0.5}
    seeds = [harness.trial_seed(3, cell, t) for t in range(6)]
    step = len(seeds) if per_chunk == "all" else per_chunk
    assert [outcome for start in range(0, len(seeds), step)
            for outcome in harness.run_trials("hopfield", task, cell, seeds[start:start + step])
            ] == [_hpm_trial(cell, s, task == "hpm-dot") for s in seeds]


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


def _cbloom_reference(cell, seed, l1):
    """The per-seed Counting Bloom trial that the cell-level trials replaced, kept as the
    reference: per seed its codebook, its own support draw and one gather per set."""
    m, k, eps, d = harness._params(cell, "m", "k", "eps", "d")
    cb = Codebook("sparse-binary-exact", m, d, k=k, seed=seed)
    d, n_v, n_w, peak, common = harness._params(cell, "d", "n_v", "n_w", K_b=1, n=0)
    if peak < 1:
        raise ValueError(f"K_b must be >= 1, got {peak}")
    if min(n_v, n_w, common) < 0:
        raise ValueError(f"masses n_v, n_w and n cannot be negative, got {n_v}, {n_w}, {common}")
    wv, ww, wb = (harness._mass_weights(n_v, peak), harness._mass_weights(n_w, peak),
                  harness._mass_weights(common, peak))
    a, b = len(wv), len(wv) + len(ww)
    ids = harness._draw_subset(seed, "support", d, b + len(wb)).tolist()
    shared = dict(zip(ids[b:], wb))
    v = SymbolSet(d, {**dict(zip(ids[:a], wv)), **shared})
    w = SymbolSet(d, {**dict(zip(ids[a:b], ww)), **shared})
    bv, bw = cbloom.bundle_count(cb, v), cbloom.bundle_count(cb, w)
    if not l1:
        est = cbloom.generalized_intersection_estimate(bv, bw)
        truth = setalg.wedgedot(v, w)
        overshoot = est - truth
        return harness.TrialOutcome(est, truth, 0.0 <= overshoot < eps, abs(overshoot))
    est = cbloom.l1_distance_estimate(bv, bw, v.l1(), w.l1())
    truth = setalg.l1_distance(v, w)
    short = truth - est
    return harness.TrialOutcome(est, truth, 0.0 <= short < 2.0 * eps, abs(short))


@pytest.mark.parametrize("task", ["intersection", "l1"])
@pytest.mark.parametrize("count", [1, 2, 3, 4, 7])
@pytest.mark.parametrize("changes", [
    {},
    {"K_b": 2},
    {"K_b": 3, "n_v": 7, "n_w": 5, "n": 8},  # weights above 1 on both sides and in common
    {"n": 0},
    {"n_v": 0},
    {"n_v": 0, "n_w": 0, "n": 0},  # two empty sets
    {"k": 64},  # k = m: every column is all of [m]
    {"m": 1, "k": 1},
    {"d": 7, "K_b": 1, "n_v": 2, "n_w": 2, "n": 3},  # the support is all of [d]
], ids=["K_b-1", "K_b-2", "weights-above-1", "n-0", "n_v-0", "all-empty", "k-equals-m",
        "m-1", "support-d"])
@pytest.mark.parametrize("per_chunk", [1, 3, "all"])  # seeds per slice
def test_cbloom_trials_equal_per_seed_reference(monkeypatch, task, count, changes, per_chunk):
    cell = {"m": 64, "k": 3, "d": 32, "n": 2, "n_v": 2, "n_w": 3, "K_b": 1, "eps": 0.5,
            **changes}
    _set_chunk(monkeypatch, per_chunk)  # seed counts below, at and past 3
    seeds = [harness.trial_seed(5, cell, t) for t in range(count)]
    assert harness.run_trials("cbloom", task, cell, seeds) == [
        _cbloom_reference(cell, seed, task == "l1") for seed in seeds]


def _count_min_sums(monkeypatch):
    """The seed counts of the stacks that ``cbloom.min_sums`` is called with, in order."""
    calls = []
    real = cbloom.min_sums
    monkeypatch.setattr(cbloom, "min_sums",
                        lambda m, rows, *sets: calls.append(len(rows)) or real(m, rows, *sets))
    return calls


@pytest.mark.parametrize("task", ["intersection", "l1"])
@pytest.mark.parametrize("count", [1, 3, 7])
@pytest.mark.parametrize("changes", [
    {},
    {"K_b": 3, "n_v": 7, "n_w": 5, "n": 8},
    {"m": 7580, "k": 8, "d": 256, "n": 4, "n_v": 1, "n_w": 2},  # the benchmark's cell
], ids=["base", "weights-above-1", "large-m"])
@pytest.mark.parametrize("per_chunk", [1, 3, "all"])  # seeds per kernel slice
def test_cbloom_kernel_slices_equal_per_seed_reference(monkeypatch, task, count, changes,
                                                       per_chunk):
    cell = {"m": 64, "k": 3, "d": 32, "n": 2, "n_v": 2, "n_w": 3, "K_b": 1, "eps": 0.5,
            **changes}
    _set_chunk(monkeypatch, per_chunk)
    calls = _count_min_sums(monkeypatch)
    seeds = [harness.trial_seed(8, cell, t) for t in range(count)]
    assert harness.run_trials("cbloom", task, cell, seeds) == [
        _cbloom_reference(cell, seed, task == "l1") for seed in seeds]
    step = count if per_chunk == "all" else per_chunk
    assert calls == [min(step, count - start) for start in range(0, count, step)]


@pytest.mark.parametrize("task", ["intersection", "l1"])
@pytest.mark.parametrize("changes", [
    {"n": 2**61, "n_v": 2**61, "n_w": 2**61, "K_b": 2**61},
    {"n": 2**62, "n_v": 2**62 - 1, "n_w": 2**62 - 1, "K_b": 2**62},  # ||v||_1 = 2**63 - 1
    {"n": 2**62, "n_v": 2**62, "n_w": 1, "K_b": 2**62},  # ||v||_1 = 2**63: refused
    {"n": 0, "n_v": 2**62, "n_w": 2**62 + 1, "K_b": 2**61, "m": 3},  # k = m: all rows shared
], ids=["2**61", "l1-2**63-1", "l1-2**63", "no-common"])
def test_cbloom_trials_are_exact_at_any_weight(task, changes):
    """Counts below 2**63 whose min-sums are not: the trials sum them exactly, as the dense
    bundles do, or refuse the cell as a trial alone does."""
    cell = {"m": 4, "k": 3, "d": 8, "eps": 0.5, **changes}
    seeds = [harness.trial_seed(4, cell, t) for t in range(5)]
    try:
        want = [_cbloom_reference(cell, seed, task == "l1") for seed in seeds]
    except ValueError as refused:
        with pytest.raises(ValueError, match=re.escape(str(refused))):
            harness.run_trials("cbloom", task, cell, seeds)
        return
    assert harness.run_trials("cbloom", task, cell, seeds) == want


_CBLOOM_BAD_BASE = {"m": [64], "k": [3], "d": [32], "n": [2], "n_v": [2], "n_w": [3],
                    "K_b": [2], "eps": [0.5]}


#: Rows recorded at the per-seed trials (3 trials, seed 7), the same for both tasks.
@pytest.mark.parametrize("task", ["intersection", "l1"])
@pytest.mark.parametrize("changes, tail", [
    ({"K_b": [0]}, '64,3,2,32,,0.5,,3,0,,,,7,philox4x64-block-v1,"K_b must be >= 1, got 0"'),
    ({"n_v": [-1]}, '64,3,2,32,,0.5,,3,0,,,,7,philox4x64-block-v1,'
                    '"masses n_v, n_w and n cannot be negative, got -1, 3, 2"'),
    ({"m": [0]}, "0,3,2,32,,0.5,,3,0,,,,7,philox4x64-block-v1,m and d must be positive"),
    ({"k": [65]}, "64,65,2,32,,0.5,,3,0,,,,7,philox4x64-block-v1,"
                  "sparsity k must satisfy 1 <= k <= m"),
    ({"K_b": [1], "d": [5]}, "64,3,2,5,,0.5,,3,0,,,,7,philox4x64-block-v1,"
                             "cannot draw 7 distinct symbols from universe 5"),
    # A cell bad in two ways reports what a trial alone met first: the codebook,
    # then the parameters it reads next, then K_b and the masses, then the draw.
    ({"m": [0], "K_b": [0]}, "0,3,2,32,,0.5,,3,0,,,,7,philox4x64-block-v1,"
                             "m and d must be positive"),
    ({"m": [0], "n_v": ["abc"]}, "0,3,2,32,,0.5,,3,0,,,,7,philox4x64-block-v1,"
                                 "m and d must be positive"),
    ({"k": [0], "K_b": [0]}, "64,0,2,32,,0.5,,3,0,,,,7,philox4x64-block-v1,"
                             "sparsity k must satisfy 1 <= k <= m"),
    ({"K_b": [0], "d": [5]}, '64,3,2,5,,0.5,,3,0,,,,7,philox4x64-block-v1,'
                             '"K_b must be >= 1, got 0"'),
    ({"n_v": [-1], "d": [2]}, '64,3,2,2,,0.5,,3,0,,,,7,philox4x64-block-v1,'
                              '"masses n_v, n_w and n cannot be negative, got -1, 3, 2"'),
], ids=["K_b-0", "n_v-negative", "m-0", "k-past-m", "support-past-d", "m-and-K_b",
        "m-and-n_v-string", "k-and-K_b", "K_b-and-support", "n_v-and-support"])
def test_cbloom_bad_cells_keep_their_rows(task, changes, tail):
    grid = {**_CBLOOM_BAD_BASE, **changes}
    csv_text, _ = harness.run(harness.ExperimentConfig("cbloom", task, grid, 3, 7))
    assert csv_text.splitlines()[1] == f"cbloom,{task},{tail}"


def _mapb_empty_reference(cell, seed):
    """The per-seed empty-intersection trial that the batched trials replaced, kept as the
    reference: per seed its codebook, its pair of sets and two bundles."""
    m, d, nx, ny, overlap, delta = harness._params(cell, "m", "d", "nx", "ny", "n", "delta")
    cb = Codebook("dense-sign", m, d, seed=seed)
    x, y = harness._overlapping_pair(seed, "sets", d, overlap, nx - overlap, ny - overlap)
    bx = mapb.bundle_sign(cb, x, tie_seed=seed)
    by = mapb.bundle_sign(cb, y, tie_seed=rng.mix64(seed))
    decided_nonempty = mapb.empty_intersection_test(bx, by, delta).contained
    correct = decided_nonempty == (overlap > 0)
    return harness.TrialOutcome(float(decided_nonempty), float(overlap > 0), correct,
                                float(not correct))


def _count_constructions(monkeypatch, *classes):
    """How many objects of each class are built from now on."""
    built = {cls.__name__: 0 for cls in classes}
    for cls in classes:
        def counted(obj, real=cls.__post_init__, name=cls.__name__):
            built[name] += 1
            return real(obj)
        monkeypatch.setattr(cls, "__post_init__", counted)
    return built


@pytest.mark.parametrize("count", [1, 3, 7])
@pytest.mark.parametrize("changes", [
    {},
    {"n": 1},
    {"m": 1},
    {"m": 65},
    {"nx": 0, "n": 0},
    {"nx": 0, "ny": 0, "n": 0},  # every sum is zero: every coordinate is a tie
    {"nx": 4, "ny": 4, "n": 4},  # identical sets
    {"nx": 3, "ny": 5, "n": 1, "m": 200},  # odd sizes: no ties
    {"d": 8, "nx": 5, "ny": 5, "n": 2, "m": 130},  # size = d
], ids=["benchmark-n-0", "benchmark-n-1", "m-1", "m-65", "nx-0", "both-empty", "identical",
        "odd-sizes", "size-d"])
@pytest.mark.parametrize("per_chunk", [1, 3, "all"])  # seeds per slice
def test_mapb_empty_trials_equal_per_seed_reference(monkeypatch, count, changes, per_chunk):
    cell = {"m": 1151, "d": 256, "nx": 4, "ny": 4, "n": 0, "delta": 0.05, **changes}
    seeds = [harness.trial_seed(9, cell, t) for t in range(count)]
    want = [_mapb_empty_reference(cell, seed) for seed in seeds]
    _set_chunk(monkeypatch, per_chunk)
    gathers = []
    real = Codebook.sign_words_across
    monkeypatch.setattr(Codebook, "sign_words_across",
                        lambda cb, chunk, ids: gathers.append(len(chunk)) or real(cb, chunk, ids))
    built = _count_constructions(monkeypatch, Codebook, SymbolSet, mapi.MapIBundle,
                                 mapb.MapBBundle)
    assert harness.run_trials("mapb", "empty-intersection", cell, seeds) == want
    assert built == {"Codebook": 1, "SymbolSet": 0, "MapIBundle": 0, "MapBBundle": 0}
    step = count if per_chunk == "all" else per_chunk
    assert gathers == [min(step, count - start) for start in range(0, count, step)]


@pytest.mark.parametrize("changes, message", [
    ({"m": 0}, "m and d must be positive"),
    ({"n": 5}, "set sizes cannot be negative"),
    ({"n": -1}, "set sizes cannot be negative"),
    ({"d": 7}, "cannot draw 8 distinct symbols from universe 7"),
    ({"delta": 1.5}, "delta must be in (0, 1), got 1.5"),
    # A cell bad in two ways reports what a trial alone met first: its parameters,
    # then its codebook, then the part sizes, then the draw.
    ({"m": 0, "delta": 0.0}, "delta must be in (0, 1), got 0.0"),
    ({"m": 0, "n": 5}, "m and d must be positive"),
    ({"n": 5, "d": 2}, "set sizes cannot be negative"),
    ({"m": 0, "d": 7}, "m and d must be positive"),
    ({"d": 7, "delta": 0.0}, "delta must be in (0, 1), got 0.0"),
], ids=["m-0", "overlap-past-nx", "n-negative", "size-past-d", "delta", "m-and-delta",
        "m-and-overlap", "overlap-and-size", "m-and-size", "size-and-delta"])
def test_mapb_empty_bad_cells_raise_the_per_seed_errors(changes, message):
    cell = {"m": 64, "d": 32, "nx": 4, "ny": 4, "n": 0, "delta": 0.05, **changes}
    seeds = [harness.trial_seed(9, cell, t) for t in range(3)]
    with pytest.raises(ValueError) as alone:
        _mapb_empty_reference(cell, seeds[0])
    with pytest.raises(ValueError) as batched:
        harness.run_trials("mapb", "empty-intersection", cell, seeds)
    assert str(batched.value) == str(alone.value)
    assert message in str(batched.value)


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


def _one_query_outcome(wrong: int) -> harness.TrialOutcome:
    return harness.TrialOutcome(wrong, 0.0, wrong == 0, float(wrong))


def _mapb_member_reference(cell, seed):
    """The member trial by the public one-query path: one ``membership_test`` per symbol."""
    m, n, d, delta = harness._params(cell, "m", "n", "d", "delta")
    cb = Codebook("dense-sign", m, d, seed=seed)
    stored = set(harness._draw_subset(seed, "set", d, n).tolist())
    b = mapb.bundle_sign(cb, SymbolSet.from_ids(d, stored), tie_seed=seed)
    return _one_query_outcome(sum(mapb.membership_test(b, j, delta).contained != (j in stored)
                                  for j in range(d)))


def _mapb_kv_member_reference(cell, seed):
    """The kv-member trial by one-pair queries: each stored pair, then each key with its
    value shifted cyclically, unless that is a stored pair."""
    m, n, d, delta = harness._params(cell, "m", "n", "d", "delta")
    half = d // 2
    cb = Codebook("dense-sign", m, d, seed=seed)
    keys = harness._draw_subset(seed, "keys", half, n).tolist()
    words = rng.Stream(seed, "inst", "vals").words(0, n)
    pairs = [(q, half + w) for q, w in zip(keys, rng.bounded_from_words(words, d - half).tolist())]
    b = mapb.bundle_kv_sign(cb, mapb.KeyValueSpec(d, pairs), tie_seed=seed)
    tau = mapb.kv_member_threshold(m, d, delta)
    shift = 1 + int(rng.Stream(seed, "inst", "shift").words(0, 1)[0]) % max(d - half - 1, 1)
    wrong = sum(int(mapb.kv_membership_scores(b, [pair])[0]) < tau for pair in pairs)
    for q, w in pairs:
        other = (q, half + (w - half + shift) % (d - half))
        if other not in pairs:
            wrong += int(mapb.kv_membership_scores(b, [other])[0]) >= tau
    return _one_query_outcome(wrong)


def _mapb_sequence_member_reference(cell, seed):
    """The sequence-member trial by one-symbol queries, each scored at its own position."""
    m, n, d, L, delta = harness._params(cell, "m", "n", "d", "L", "delta")
    cb = Codebook("dense-sign", m, d, seed=seed)
    slots = harness._draw_subset(seed, "slots", L * d, n).tolist()
    seq = setalg.SequenceSpec(tuple(SymbolSet.from_ids(d, [j % d for j in slots if j // d == ell])
                                    for ell in range(L)))
    b = mapb.bundle_sequence_sign(cb, seq, tie_seed=seed)
    drawn = harness._draw_subset(seed, "absent", L * d, min(n + 8, L * d)).tolist()
    absent = [j for j in drawn if j not in slots][:n]
    tau = mapb.sequence_member_threshold(m, L, d, delta)
    return _one_query_outcome(sum(
        (int(mapb.sequence_membership_scores(b, j // d, [j % d])[0]) >= tau) != (j in slots)
        for j in slots + absent))


_ONE_QUERY_REFERENCES = {"member": _mapb_member_reference,
                         "kv-member": _mapb_kv_member_reference,
                         "sequence-member": _mapb_sequence_member_reference}


@pytest.mark.parametrize("task, cell", [
    ("member", {"m": 64, "n": 3, "d": 32, "delta": 0.1}),
    ("member", {"m": 24, "n": 0, "d": 8, "delta": 0.5}),  # nothing stored
    ("member", {"m": 65, "n": 8, "d": 8, "delta": 0.5}),  # all of [d] stored
    ("member", {"m": 16, "n": 2, "d": 5, "delta": 0.5}),
    ("kv-member", {"m": 64, "n": 3, "d": 32, "delta": 0.1}),
    ("kv-member", {"m": 4, "n": 1, "d": 2, "delta": 0.9}),  # the shifted pair is the stored one
    ("kv-member", {"m": 16, "n": 1, "d": 3, "delta": 0.5}),  # shift 1
    ("kv-member", {"m": 20, "n": 2, "d": 5, "delta": 0.5}),  # shift 1
    ("sequence-member", {"m": 64, "n": 3, "d": 32, "L": 3, "delta": 0.1}),
    ("sequence-member", {"m": 40, "n": 3, "d": 5, "L": 2, "delta": 0.5}),  # L d < n + 8
    ("sequence-member", {"m": 70, "n": 6, "d": 3, "L": 2, "delta": 0.5}),  # no slot left absent
    ("sequence-member", {"m": 64, "n": 0, "d": 4, "L": 2, "delta": 0.5}),  # no query at all
], ids=["member", "member-n-0", "member-n-d", "member-d-5", "kv", "kv-d-2", "kv-d-3", "kv-d-5",
        "seq", "seq-few-slots", "seq-all-slots", "seq-n-0"])
def test_mapb_member_trials_equal_one_query_reference(task, cell):
    seeds = [harness.trial_seed(4, cell, t) for t in range(30)] + [0, 2**64 - 1]
    want = [_ONE_QUERY_REFERENCES[task](cell, seed) for seed in seeds]
    got = harness.run_trials("mapb", task, cell, seeds)
    assert [vars(o) for o in got] == [vars(o) for o in want]
    assert [type(o.estimate) for o in got] == [int] * len(seeds)


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


@pytest.mark.parametrize("arch, task, cell", [
    ("mapi", "norm", {"m": 119, "n": 16, "d": 256, "eps": 0.5}),
    ("mapi", "norm", {"m": 64, "n": 32, "d": 32, "eps": 0.5}),  # n = d: no set drawn
    ("cbloom", "l1", {"m": 64, "k": 3, "d": 32, "n": 2, "n_v": 2, "n_w": 3, "eps": 0.5}),
    ("cbloom", "intersection", {"m": 64, "k": 3, "d": 32, "n": 2, "n_v": 2, "n_w": 3,
                                "eps": 0.5}),
    ("hopfield", "hpm-norm", {"m": 64, "d": 32, "n": 4, "eps": 0.5}),
    ("hopfield", "hpm-dot", {"m": 64, "d": 32, "n": 4, "eps": 0.5}),
])
def test_batched_tasks_check_one_codebook_per_cell(monkeypatch, arch, task, cell):
    built = []
    real = Codebook.__post_init__
    monkeypatch.setattr(Codebook, "__post_init__", lambda cb: built.append(cb) or real(cb))
    seeds = [harness.trial_seed(6, cell, t) for t in range(7)]
    assert len(harness.run_trials(arch, task, cell, seeds)) == 7
    assert len(built) <= 1


def test_mapi_norm_exact_law_is_a_law():
    for m, n in [(1, 1), (3, 4), (12, 16)]:
        law = mapi_norm_q_law(m, n)
        assert len(law) == m * n * n + 1 and math.isclose(law.sum(), 1.0)
        assert math.isclose(law @ np.arange(len(law)), m * n)  # E[Y_i^2] = n
    assert mapi_norm_fail(1, 1, 0.5) == 0.0  # one row of one symbol: Q = 1 = n
    assert math.isclose(mapi_norm_fail(1, 2, 0.5), 1.0)  # Q is 0 or 4, never within 1 of 2


def test_mapb_law_parts():
    assert [mapb_agreement(n) for n in (1, 2, 3, 4)] == [1.0, 0.75, 0.75, 0.6875]
    # One stored column scores m = 4 >= tau = sqrt(8 ln(4/0.9)) = 3.46, and the absent
    # one scores 4, a false alarm, with probability 1/16.
    expected, sd = mapb_wrong_law("member", 4, 1, 2, 0.9)
    assert math.isclose(expected, 1 / 16) and math.isclose(sd, math.sqrt(15) / 16)
    # tau = 2 sqrt(4 ln(3/0.9)) = 4.39: the stored pair, at 4, is always missed, and the
    # shifted pair can score no more
    assert mapb_wrong_law("kv-member", 4, 1, 3, 0.9) == (1.0, 0.0)


@pytest.mark.parametrize("task, ms", [("member", [300, 450, 600]), ("kv-member", [600, 800, 1000])])
def test_mapb_mean_wrong_counts_follow_the_exact_law(task, ms):
    """Each cell's ``mean_abs_err`` (its mean wrong count) is near its exact E[wrong].

    The cells, T = 1000, master seed 0 and the bound, five of the law's upper
    bounds on the standard error, were fixed before the first run; a mismatch
    is a finding about the harness, not a reason to move them.
    """
    trials, n, d, delta = 1000, 10, 256, 0.05
    grid = {"m": ms, "n": [n], "d": [d], "delta": [delta]}
    rows = list(csv.DictReader(io.StringIO(
        harness.run(harness.ExperimentConfig("mapb", task, grid, trials, 0))[0])))
    assert [int(row["m"]) for row in rows] == ms
    for row in rows:
        expected, sd = mapb_wrong_law(task, int(row["m"]), n, d, delta)
        assert 0.2 < expected < 6  # a cell with power
        assert abs(float(row["mean_abs_err"]) - expected) <= 5 * sd / math.sqrt(trials), (
            row["m"], row["mean_abs_err"], expected)


def test_mapi_norm_failure_counts_follow_the_exact_law():
    """Each cell's failure count is a plausible Bin(T, exact P(fail)) draw.

    The cells, T = 4000, master seed 0 and the two-sided level 1e-6 were
    fixed before the first run; a mismatch is a finding about the harness,
    not a reason to move them.
    """
    trials, level = 4000, 1e-6
    config = harness.ExperimentConfig("mapi", "norm", {"m": [12, 20, 30], "n": [16], "d": [256],
                                                       "eps": [0.5]}, trials, 0)
    rows = list(csv.DictReader(io.StringIO(harness.run(config)[0])))
    assert [row["m"] for row in rows] == ["12", "20", "30"]
    for row in rows:
        p = mapi_norm_fail(int(row["m"]), 16, 0.5)
        assert 0.01 < p < 0.5  # a cell with power
        failures = int(row["failures"])
        assert binomial_two_sided_p(failures, trials, p) >= level, (row["m"], failures, p * trials)
