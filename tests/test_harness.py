import json
from fractions import Fraction

import pytest

from vsakit import harness


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
        harness.run_trial("mapi", "nope", {}, 0)


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


def test_oracle_check_setalg():
    a = {"d": 8, "entries": [[1, 1], [2, 1]]}
    b = {"d": 8, "entries": [[2, 1], [3, 1]]}
    assert harness.oracle_check("setalg", "intersection", {"a": a, "b": b}) == 1
    assert harness.oracle_check("setalg", "wedgedot", {"a": a, "b": b}) == 1


def test_oracle_check_agreement_and_bounds():
    assert harness.oracle_check("mapb", "agreement", {"n": 4}) == Fraction(11, 16)
    assert harness.oracle_check("mapb", "chain-agreement", {"r": 3}) == Fraction(5, 8)
    with pytest.raises(ValueError):
        harness.oracle_check("mapb", "agreement", {"n": 40})
    with pytest.raises(ValueError):
        harness.oracle_check("mapi", "norm", {})


def test_trial_records_match_aggregate():
    config = small_config(grid={"m": [64], "n": [4], "d": [32], "eps": [0.5]})
    cell = config.cells()[0]
    records = harness.trial_records(config, cell)
    assert len(records) == config.trials
    assert all(r.seed == harness.trial_seed(config.seed, cell, r.index) for r in records)
    csv_text, _ = harness.run(config)
    failures = int(csv_text.splitlines()[1].split(",")[harness.COLUMNS.index("failures")])
    assert failures == sum(not r.outcome.passed for r in records)


def test_every_registered_task_runs():
    shared = {"m": 256, "k": 4, "n": 2, "d": 32, "L": 2, "K": 1, "eps": 2.0,
              "delta": 0.2, "M": 2, "n_x": 2, "n_y": 2, "E": 2, "nx": 2, "ny": 2,
              "n_v": 2, "n_w": 2, "K_b": 1, "erasures": 8}
    for (arch, task) in harness.TASKS:
        outcome = harness.run_trial(arch, task, dict(shared), seed=5)
        assert isinstance(outcome.passed, (bool, int))


def _count_trials(monkeypatch) -> list:
    """Record the seed of every harness.run_trial call from now on."""
    seeds = []
    real = harness.run_trial

    def counted(arch, task, cell, seed):
        seeds.append(seed)
        return real(arch, task, cell, seed)

    monkeypatch.setattr(harness, "run_trial", counted)
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
