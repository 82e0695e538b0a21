import ast
import inspect
import json
import math
import re
import textwrap

import numpy as np
import pytest

from vsakit import harness, sizing


#: One parameter dict per arch covering every formula of that arch.
_SIZABLE_PARAMS = {
    "mapi": dict(eps=0.5, delta=0.05, N=8, M=8, L=2, K=2, k=3, v_l1=4),
    "mapb": dict(n=4, d=64, L=2, nx=4, ny=4, delta=0.05),
    "bloom": dict(eps=0.5, delta=0.05, n=5, n_v=10, n_w=10),
    "cbloom": dict(eps=0.5, delta=0.05, K_b=2, n_v=4, n_w=4),
    "hopfield": dict(n=8, eps=0.5, delta=0.05, d=64),
}


def test_unknown_pair_rejected():
    with pytest.raises(ValueError):
        sizing.size("mapi", "no-such-task", eps=0.5, delta=0.05)
    with pytest.raises(ValueError):
        sizing.size("nothing", "norm", eps=0.5, delta=0.05)


def test_constants_are_the_sizing_registry():
    for formula in sizing.CONSTANTS:  # so every formula has a trial to calibrate
        arch, task = formula.split(".")
        assert (arch, task) in harness.TASKS
        assert sizing.size(arch, task, **_SIZABLE_PARAMS[arch]).formula == formula
    with pytest.raises(ValueError, match="unknown sizing formula"):
        sizing.size("nope", "x")
    with pytest.raises(ValueError, match="unknown sizing formula"):
        sizing.size("mapi", "nope")


def test_extra_params_ignored_missing_still_raise():
    res = sizing.size("mapi", "norm", eps=0.5, delta=0.05, n=4, d=64)
    assert res.m == sizing.size("mapi", "norm", eps=0.5, delta=0.05).m
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
    for arch, task in (("mapi", "norm"), ("bloom", "intersection"),
                       ("cbloom", "intersection"), ("hopfield", "hpm-dot")):
        params = {**_SIZABLE_PARAMS[arch], "eps": math.inf}
        with pytest.raises(ValueError, match="eps must be positive and finite, got inf"):
            sizing.size(arch, task, **params)


def test_result_json_round_trip():
    res = sizing.size("bloom", "intersection", eps=0.5, delta=0.05, n=5, n_v=10, n_w=10)
    obj = json.loads(res.to_json())
    assert obj["m"] == res.m and obj["k"] == res.k
    assert obj["formula"] == "bloom.intersection"


def test_constants_override():
    default = sizing.size("mapi", "norm", eps=0.5, delta=0.05)
    doubled = sizing.size("mapi", "norm", eps=0.5, delta=0.05, C=16.0)
    assert 2 * default.m - 2 <= doubled.m <= 2 * default.m
    assert doubled.constants == {"C": 16.0}
    assert sizing.size("mapi", "norm", eps=0.5, delta=0.05, bogus=1.0, base=3.0) == default


@pytest.mark.parametrize("value", [True, False, "16", [16.0]])
def test_constant_override_must_be_a_number(value):
    message = f"sizing parameter 'C' must be a number, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        sizing.size("mapi", "norm", eps=0.5, delta=0.05, C=value)


def test_huge_constant_override_is_refused():
    with pytest.raises(ValueError, match="sizing parameter 'kc' must be finite, got 1000"):
        sizing.size("cbloom", "intersection", eps=0.5, delta=0.05, K_b=1, n_v=1, n_w=1,
                    kc=10**400)


def test_cbloom_constants_override():
    params = dict(eps=0.5, delta=0.05, K_b=2, n_v=4, n_w=4)
    default = sizing.size("cbloom", "intersection", **params)
    assert default.constants == sizing.CONSTANTS["cbloom.intersection"]
    kc = sizing.size("cbloom", "intersection", **params, kc=4.0 / 3.0)
    assert kc.k == math.ceil((4.0 / 3.0) * 2 * math.log(1.0 / 0.05) / 0.5) > default.k
    assert kc.constants == {"kc": 4.0 / 3.0, "mc": default.constants["mc"]}
    mc = sizing.size("cbloom", "intersection", **params, mc=1)
    assert (mc.k, mc.m) == (default.k, math.ceil(default.k * 4 * 4 / 0.5))
    assert mc.constants == {"kc": default.constants["kc"], "mc": 1.0}


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


_NORM = dict(eps=0.5, delta=0.05)
_MEMBER = dict(n=10, d=256, delta=0.05)
_CALIBRATE = dict(params=dict(eps=0.5, delta=0.05, n=4, d=16), target=0.3, trials=100, seed=0)


def _sizing_call(call: str, changes: dict):
    if call == "calibrate":
        return sizing.calibrate("mapi", "norm", **{**_CALIBRATE, **changes})
    formula, params = {"norm": ("norm", _NORM), "member": ("member", _MEMBER)}[call]
    return sizing.size("mapi" if call == "norm" else "mapb", formula, **{**params, **changes})


@pytest.mark.parametrize("call, changes, error", [
    ("norm", {"eps": True}, "sizing parameter 'eps' must be a number, got True"),
    ("member", {"d": np.True_}, "sizing parameter 'd' must be a number, got True"),
    ("norm", {"eps": "0.5"}, "sizing parameter 'eps' must be a number, got '0.5'"),
    ("norm", {"eps": [0.5]}, "sizing parameter 'eps' must be a number, got [0.5]"),
    ("member", {"n": np.array([10])}, "sizing parameter 'n' must be a number, got [10]"),
    ("member", {"n": 10 + 0j}, "sizing parameter 'n' must be a number, got (10+0j)"),
    ("norm", {"N": "8"}, "sizing parameter 'N' must be a number, got '8'"),  # echoed only
    ("norm", {"C": np.True_}, "sizing parameter 'C' must be a number, got True"),
    ("calibrate", {"trials": "200"}, "calibration trials must be an integer, got '200'"),
    ("calibrate", {"trials": True}, "calibration trials must be an integer, got True"),
    ("calibrate", {"target": "0.05"}, "target failure rate must be a number, got '0.05'"),
    # a numpy number reads as its Python value, an int as an int
    ("member", {"n": np.int64(10)}, None),
    ("member", {"d": np.array(256), "delta": np.float64(0.05)}, None),
    ("norm", {"eps": np.float32(0.5), "C": np.float64(8.0), "N": np.uint8(8)}, None),
    ("calibrate", {"trials": np.int64(100), "target": np.float64(0.3)}, None),
], ids=["bool", "numpy-bool", "string", "list", "array", "complex", "echoed-string",
        "override-numpy-bool", "trials-string", "trials-bool", "target-string", "numpy-int",
        "numpy-0d-and-float", "numpy-float32-and-override", "calibrate-numpy"])
def test_sizing_reads_every_number_by_one_rule(call, changes, error):
    if error is not None:
        with pytest.raises(ValueError, match=re.escape(error)):
            _sizing_call(call, changes)
        return
    canonical = {name: value.item() for name, value in changes.items()}
    got, want = _sizing_call(call, changes), _sizing_call(call, canonical)
    assert got.to_json() == want.to_json()
    if call != "calibrate":
        assert all(type(got.inputs[name]) is type(value) for name, value in want.inputs.items())


def test_no_formula_checks_its_own_domain():
    """Only size() refuses inputs: a formula of the table is only its arithmetic."""
    for formula in {bound.formula for bound in sizing._BOUNDS.values()}:
        tree = ast.parse(textwrap.dedent(inspect.getsource(formula)))
        raised = [ast.unparse(node.exc) for node in ast.walk(tree)
                  if isinstance(node, ast.Raise) and node.exc is not None]
        assert not [text for text in raised if text.startswith("ValueError")], formula.__name__


def _least_store_m(n, delta, C) -> int:
    """The smallest integer m >= 1 with m >= C n ln(2m/delta), by counting up."""
    m = 1
    while m < C * n * math.log(2.0 * m / delta):
        m += 1
    return m


@pytest.mark.parametrize("n, delta, C", [
    (4, 0.05, 0.01), (1, 0.9, 1.1), (1, 0.99, 1.35), (16, 0.5, 0.01), (2, 0.3, 0.1),
    (1, 0.05, 0.3), (8, 0.9, 0.05), (1, 0.05, 4.0), (16, 0.05, 4.0), (100, 0.3, 1.0)])
def test_hopfield_store_is_the_least_integer_even_for_small_constants(n, delta, C):
    assert sizing.size("hopfield", "store", n=n, delta=delta, C=C).m == _least_store_m(n, delta, C)


@pytest.mark.parametrize("arch, params", [
    ("bloom", dict(eps=0.9, delta=0.5, n=2, n_v=2, n_w=2, d=16)),
    ("cbloom", dict(eps=0.5, delta=0.2, K_b=1, n_v=1, n_w=2, d=16)),
])
def test_calibrate_without_k_runs_the_sized_k(monkeypatch, arch, params):
    cells = []
    real = harness.run_trials
    monkeypatch.setattr(harness, "run_trials",
                        lambda *args: cells.append(args[2]) or real(*args))
    theory = sizing.size(arch, "intersection", **params)
    result = sizing.calibrate(arch, "intersection", params, target=0.2, trials=100, seed=3)
    assert result.m_theory == theory.m
    assert cells and all(cell["k"] == theory.k for cell in cells)
    assert sorted(cell["m"] for cell in cells) == sorted(result.rates)


def test_calibrate_starts_at_a_given_k():
    params = dict(eps=1.0, delta=0.5, n=1, n_v=1, n_w=1, d=16)
    result = sizing.calibrate("bloom", "intersection", {**params, "k": 120.0}, target=0.2,
                              trials=100, seed=0)
    assert min(result.rates) == result.m_star == 120


def test_calibrate_refuses_a_bound_that_fails_at_its_theoretical_m():
    theory = sizing.size("mapi", "norm", eps=0.5, delta=0.05, C=0.01)
    assert theory.m == 1
    message = "search range exhausted: theoretical m=1 fails empirically (rate 0.5200 > 0.4375)"
    with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
        sizing.calibrate("mapi", "norm", dict(eps=0.5, delta=0.05, n=4, d=64, C=0.01),
                         target=0.3, trials=100, seed=9)


def test_hopfield_store_counts_up_from_a_fixed_point_just_below_an_integer():
    """Here m = C n ln(2m/delta) has its fixed point just above 2 and is met from below.

    The iteration stops within its tolerance below 2, so the integer search starts
    at 2, which fails the inequality, and counts up to 3.
    """
    result = sizing.size("hopfield", "store", n=1, delta=0.05, C=0.4564098228373726)
    assert result.m == _least_store_m(1, 0.05, 0.4564098228373726) == 3


@pytest.mark.parametrize("n, delta", [(1, 0.5), (2, 0.05), (4, 0.3), (8, 0.9), (3, 0.1),
                                      (100, 0.01)])
@pytest.mark.parametrize("shift", [0.0, -1e-9, 1e-9])
def test_hopfield_store_sizes_a_constant_at_the_tangent(n, delta, shift):
    """At C n = e delta / 2 the fixed point is a tangent: 100 steps crawl toward it unconverged."""
    C = math.e * delta / (2 * n) * (1 + shift)
    result = sizing.size("hopfield", "store", n=n, delta=delta, C=C)
    assert result.m == _least_store_m(n, delta, C) == 1
    assert result.extras == {"iterations": 100}


def test_sizing_result_refuses_m_below_1():
    with pytest.raises(ValueError, match="^sized dimension m must be >= 1$"):
        sizing.SizingResult(0, "mapi.norm")
