import json

import pytest

from vsakit import bloom, cbloom, harness, hopfield, mapb, mapi, sizing


#: One parameter dict per arch covering every formula of that arch.
_SIZABLE_PARAMS = {
    "mapi": dict(eps=0.5, delta=0.05, N=8, M=8, L=2, K=2, k=3, v_l1=4),
    "mapb": dict(n=4, d=64, L=2, nx=4, ny=4, delta=0.05),
    "bloom": dict(eps=0.5, delta=0.05, n=5, n_v=10, n_w=10),
    "cbloom": dict(eps=0.5, delta=0.05, K_b=2, n_v=4, n_w=4),
    "hopfield": dict(n=8, eps=0.5, delta=0.05, d=64),
}


def test_dispatch_matches_calculators_bit_for_bit():
    pairs = [
        (("mapi", "norm"), dict(eps=0.5, delta=0.05), mapi.sizing_mapi, ("norm",)),
        (("mapi", "pairs"), dict(N=64, M=50, delta=0.05), mapi.sizing_mapi, ("pairs",)),
        (("mapb", "member"), dict(n=10, d=256, delta=0.05), mapb.sizing_mapb, ("member",)),
        (("bloom", "intersection"), dict(eps=0.5, delta=0.05, n=5, n_v=10, n_w=10),
         bloom.sizing_bloom, ()),
        (("cbloom", "intersection"), dict(eps=0.5, delta=0.05, K_b=2, n_v=4, n_w=4),
         cbloom.sizing_cbloom, ()),
        (("hopfield", "store"), dict(n=16, delta=0.05), hopfield.sizing_hopfield, ()),
        (("hopfield", "hpm-norm"), dict(eps=0.5, delta=0.05, d=512),
         hopfield.sizing_hpm, ("hpm-norm",)),
    ]
    for (arch, task), params, fn, extra in pairs:
        via_dispatch = sizing.size(arch, task, **params)
        direct = fn(*extra, **params)
        assert via_dispatch == direct


def test_unknown_pair_rejected():
    with pytest.raises(ValueError):
        sizing.size("mapi", "no-such-task", eps=0.5, delta=0.05)
    with pytest.raises(ValueError):
        sizing.size("nothing", "norm", eps=0.5, delta=0.05)


def test_constants_are_the_sizing_registry():
    sizable = {f"{arch}.{task}" for (arch, task), entry in harness.TASKS.items() if entry.size}
    assert sizable == set(sizing.CONSTANTS)  # so every formula has a trial to calibrate
    for formula in sizing.CONSTANTS:
        arch, task = formula.split(".")
        assert sizing.size(arch, task, **_SIZABLE_PARAMS[arch]).formula == formula
    with pytest.raises(ValueError, match="unknown sizing formula"):
        sizing.constants_for("nope.x")
    with pytest.raises(ValueError, match="unknown sizing formula"):
        sizing.size("mapi", "nope")


def test_extra_params_ignored_missing_still_raise():
    res = sizing.size("mapi", "norm", eps=0.5, delta=0.05, n=4, d=64)
    assert res.m == mapi.sizing_mapi("norm", eps=0.5, delta=0.05).m
    with pytest.raises(ValueError):
        sizing.size("mapi", "norm", eps=0.5, n=4)


def test_all_calculators_reject_bad_rates():
    with pytest.raises(ValueError):
        sizing.size("mapi", "norm", eps=0.5, delta=1.0)
    with pytest.raises(ValueError):
        sizing.size("bloom", "intersection", eps=-0.5, delta=0.05, n=1, n_v=1, n_w=1)
    with pytest.raises(ValueError):
        sizing.size("cbloom", "intersection", eps=0.5, delta=0.0, K_b=1, n_v=1, n_w=1)
    with pytest.raises(ValueError):
        sizing.size("hopfield", "store", n=4, delta=2.0)


def test_result_json_round_trip():
    res = sizing.size("bloom", "intersection", eps=0.5, delta=0.05, n=5, n_v=10, n_w=10)
    obj = json.loads(res.to_json())
    assert obj["m"] == res.m and obj["k"] == res.k
    assert obj["formula"] == "bloom.intersection"


def test_constants_override():
    default = mapi.sizing_mapi("norm", eps=0.5, delta=0.05)
    doubled = mapi.sizing_mapi("norm", eps=0.5, delta=0.05, C=16.0)
    assert 2 * default.m - 2 <= doubled.m <= 2 * default.m
    with pytest.raises(ValueError):
        sizing.constants_for("mapi.norm", {"bogus": 1.0})


def test_calibrate_trivial_task_hits_floor():
    # eps so large that any dimension passes
    result = sizing.calibrate(
        "mapi", "norm", dict(eps=10.0, delta=0.05, n=4, d=64),
        target=0.05, trials=100, seed=1,
    )
    assert result.m_star == 1
    assert result.ratio == result.m_theory


def test_calibrate_deterministic_and_bounded():
    params = dict(eps=0.5, delta=0.2, n=4, d=64)
    a = sizing.calibrate("mapi", "norm", params, target=0.2, trials=100, seed=9)
    b = sizing.calibrate("mapi", "norm", params, target=0.2, trials=100, seed=9)
    assert a.m_star == b.m_star
    assert a.m_star <= a.m_theory
    assert a.ratio >= 1.0


def test_calibrate_runs_each_trial_once(monkeypatch):
    calls = []  # one entry per seed that a run_trials call runs
    real = harness.run_trials
    monkeypatch.setattr(harness, "run_trials",
                        lambda *args: calls.extend(args[3]) or real(*args))
    result = sizing.calibrate("mapi", "norm", dict(eps=0.5, delta=0.2, n=4, d=64),
                              target=0.2, trials=100, seed=9)
    assert len(calls) == 100 * len(result.rates)


def test_calibrate_validation():
    with pytest.raises(ValueError):
        sizing.calibrate("mapi", "norm", dict(eps=0.5, delta=0.05, n=4, d=64),
                         target=0.05, trials=50, seed=1)
    with pytest.raises(ValueError):
        sizing.calibrate("mapi", "norm", dict(eps=0.5, delta=0.05, n=4, d=64),
                         target=0.0, trials=100, seed=1)
