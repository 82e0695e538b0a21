"""One number rule: every reader of a caller's scalar reads it by ``setalg.number``.

``sizing.size``, the harness's cell parameters and the Hopfield± diagonal
refuse the same values, each with a ``ValueError`` that names the value.
"""

import ast
import csv
import inspect
import io
import math
import re
import textwrap
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from vsakit import harness, hopfield, mapb, setalg, sizing
from vsakit.codebook import Codebook
from vsakit.setalg import SymbolSet

_SRC = Path(setalg.__file__).parent
_REFUSED = object()  # the canonical form of a value that every reader must refuse

#: The hostile values, each with its canonical Python value. A numpy value's
#: is its ``tolist()``, a Fraction's its float and a Decimal's its int.
_HOSTILE = [
    (np.True_, _REFUSED), (Decimal(64), 64), ("64", _REFUSED),
    (None, _REFUSED), ([64], _REFUSED), (1.5, 1.5),
    (math.nan, math.nan), (math.inf, math.inf), (10**400, 10**400),
    (Fraction(64), 64.0), (np.int64(64), 64), (np.array(64), 64),
]
_HOSTILE_IDS = ["np-true", "decimal", "digit-string", "none", "list", "fraction-1.5", "nan", "inf",
                "10**400", "fraction-64", "np-int64", "np-0d-array"]

_CB = Codebook("dense-sign", 16, 8, seed=2, scaled=True)


def _csv_outcome(value):
    config = harness.ExperimentConfig("mapi", "norm", {"m": [value], "n": [3], "d": [32],
                                                       "eps": [0.5]}, 3, 1)
    csv_text, _ = harness.run(config)
    (row,) = csv.DictReader(io.StringIO(csv_text))
    if row["error"]:
        raise ValueError(row["error"])
    return csv_text


#: Each reader: a call of one value, and the text its refusal must hold.
_READERS = {
    "size": (lambda v: sizing.size("mapb", "member", n=v, d=256, delta=0.05).to_json(), "'n'"),
    "run_trials": (lambda v: harness.run_trials("mapi", "norm", {"m": v, "n": 3, "d": 32,
                                                                 "eps": 0.5}, [1, 2, 3]), "'m'"),
    "run": (_csv_outcome, "'m'"),
    "hpm_encode": (lambda v: hopfield.hpm_encode(_CB, {2: v}, 3).matrix.tobytes(),
                   "weight at index 2"),
    "hpm_estimates": (lambda v: hopfield.hpm_estimates([(_CB, {2: v}, None, 3)]),
                      "weight at index 2"),
}


def _outcome(read, value):
    """What ``read`` gives for ``value``: its result, or the message of its ValueError.

    Any other exception propagates, and fails the test.
    """
    try:
        return "result", read(value)
    except ValueError as refused:
        return "refused", str(refused)


@pytest.mark.parametrize("reader", list(_READERS))
@pytest.mark.parametrize("value, canonical", _HOSTILE, ids=_HOSTILE_IDS)
def test_every_reader_reads_a_hostile_value_as_its_canonical_value_or_refuses_it(
        reader, value, canonical):
    read, name = _READERS[reader]
    got = _outcome(read, value)
    if got[0] == "refused":
        assert name in got[1] or canonical is not _REFUSED and got == _outcome(read, canonical)
    else:
        assert canonical is not _REFUSED and got == _outcome(read, canonical), got


def test_number_reads_a_real_as_its_kind():
    for value in (3, 3.5, -2**70, math.inf, math.nan):
        assert setalg.number(value, "x") is value
    assert setalg.number(np.int64(3), "x") == 3 and type(setalg.number(np.int64(3), "x")) is int
    assert setalg.number(np.float32(0.5), "x") == 0.5
    assert setalg.number(Fraction(1, 4), "x") == 0.25
    assert type(setalg.number(2, "x", float)) is float
    assert setalg.number(4.0, "x", int) == 4 and type(setalg.number(4.0, "x", int)) is int
    assert setalg.number(10**400, "x", int) == 10**400
    for value, kind, message in [
        (True, None, "x must be a number, got True"),
        (np.False_, float, "x must be a number, got False"),
        (Decimal(1), None, "x must be a number, got Decimal('1')"),
        (1j, None, "x must be a number, got 1j"),
        (math.inf, int, "x must be a number, got inf"),
        (-math.inf, int, "x must be a number, got -inf"),
        (10**400, float, f"x must be a number, got {10**400}"),
        (Fraction(10**400), None, f"x must be finite, got {10**400}"),
        (math.nan, int, "x must be an integer, got nan"),
        (2.5, int, "x must be an integer, got 2.5"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            setalg.number(value, "x", kind)


def test_size_refuses_a_fraction_past_the_float_range():
    message = f"sizing parameter 'n' must be finite, got {10**400}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sizing.size("mapb", "member", n=Fraction(10**400), d=256, delta=0.05)


@pytest.mark.parametrize("changes, message", [
    ({"L": 1.5}, "sizing parameter 'L' must be an integer, got 1.5"),
    ({"n": 2.5}, "sizing parameter 'n' must be an integer, got 2.5"),
    ({"d": 256.5}, "sizing parameter 'd' must be an integer, got 256.5"),
], ids=["L", "n", "d"])
def test_size_refuses_a_count_that_is_not_whole(changes, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sizing.size("mapb", "sequence-member", **{"n": 4, "d": 256, "L": 2, "delta": 0.05,
                                                  **changes})


def test_size_refuses_a_fractional_sequence_length_that_a_trial_refuses():
    with pytest.raises(ValueError, match=r"^sizing parameter 'L' must be an integer, got 1\.5$"):
        sizing.size("mapi", "sequence", eps=0.5, delta=0.05, L=1.5)
    with pytest.raises(ValueError, match=r"^parameter 'L' must be an integer, got 1\.5$"):
        harness.run_trials("mapi", "sequence", {"m": 64, "n": 2, "d": 32, "L": 1.5, "eps": 0.5},
                           [1])


def test_size_echoes_a_whole_float_count_as_given():
    whole = sizing.size("mapi", "sequence", eps=0.5, delta=0.05, L=4.0)
    assert whole.inputs["L"] == 4.0 and type(whole.inputs["L"]) is float
    assert whole.m == sizing.size("mapi", "sequence", eps=0.5, delta=0.05, L=4).m


_NORM_CELL = {"m": 64, "n": 3, "d": 32, "eps": 0.5}


@pytest.mark.parametrize("changes, message", [
    ({"m": np.True_}, "parameter 'm' must be a number, got True"),
    ({"m": np.False_}, "parameter 'm' must be a number, got False"),
    ({"m": Decimal(64)}, "parameter 'm' must be a number, got Decimal('64')"),
    ({"eps": np.True_}, "parameter 'eps' must be a number, got True"),
    ({"eps": Decimal("0.5")}, "parameter 'eps' must be a number, got Decimal('0.5')"),
], ids=["m-np-true", "m-np-false", "m-decimal", "eps-np-true", "eps-decimal"])
def test_run_trials_refuses_a_numpy_bool_and_a_decimal(changes, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        harness.run_trials("mapi", "norm", {**_NORM_CELL, **changes}, [1, 2])


def test_a_rate_past_the_float_range_is_an_error_row():
    config = harness.ExperimentConfig("mapi", "norm", {"m": [64], "n": [3], "d": [32],
                                                       "eps": [10**400]}, 2, 1)
    (row,) = csv.DictReader(io.StringIO(harness.run(config)[0]))
    assert row["error"] == f"parameter 'eps' must be a number, got {10**400}"


@pytest.mark.parametrize("value", [Fraction(64), Decimal(64)], ids=["fraction", "decimal"])
def test_experiment_config_refuses_a_grid_value_that_json_cannot_hold(value):
    message = f"grid values of 'm' must be JSON, got [{value!r}]"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        harness.ExperimentConfig("mapi", "norm", {"m": [value], "n": [3], "d": [32],
                                                  "eps": [0.5]}, 2, 1)


@pytest.mark.parametrize("V, message", [
    ({2: "2.5"}, "diagonal weight at index 2 must be a number, got '2.5'"),
    ({2: None}, "diagonal weight at index 2 must be a number, got None"),
    ({1: [1.0]}, "diagonal weight at index 1 must be a number, got [1.0]"),
    ({2: Decimal("2.5")}, "diagonal weight at index 2 must be a number, got Decimal('2.5')"),
    ({2: 10**400}, f"diagonal weight at index 2 must be a number, got {10**400}"),
    ({None: 1.0}, "diagonal index must be an integer, got None"),
    ({"2": 1.0}, "diagonal index must be an integer, got '2'"),
    (np.array(["1", "0", "2.5", "0", "0", "0", "0", "0"]),
     "diagonal weights must be integers or floats, got dtype <U3"),
    (np.array([1.0, 0, 0, 0, 0, 0, 0, Fraction(1, 2)], dtype=object),
     "diagonal weights must be integers or floats, got dtype object"),
    ([1.0, 0, 0, 0, 0, 0, 0, 1j],
     "diagonal weights must be integers or floats, got dtype complex128"),
], ids=["str-weight", "none-weight", "list-weight", "decimal-weight", "huge-weight", "none-index",
        "str-index", "str-array", "object-array", "complex-array"])
def test_hpm_encode_and_estimates_refuse_a_diagonal_they_would_misread(V, message):
    cb = Codebook("dense-sign", 16, 8, seed=2, scaled=True)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        hopfield.hpm_encode(cb, V, d_seed=3)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        hopfield.hpm_estimates([(cb, V, None, 3)])


def test_hpm_reads_a_numpy_or_fraction_weight_as_its_float():
    cb = Codebook("dense-sign", 16, 8, seed=2, scaled=True)
    want = hopfield.hpm_encode(cb, {2: 2.5, 5: 64.0}, d_seed=3).matrix
    for V in ({2: Fraction(5, 2), 5: 64}, {np.int64(2): np.float64(2.5), 5.0: np.array(64)},
              np.array([0, 0, 2.5, 0, 0, 64, 0, 0], np.float32)):
        assert np.array_equal(hopfield.hpm_encode(cb, V, d_seed=3).matrix, want)


_MAPB_CB = Codebook("dense-sign", 64, 8, seed=2)
_MAPB_B = mapb.bundle_sign(_MAPB_CB, SymbolSet.from_ids(8, [1, 2]), tie_seed=2)

#: The two MAP-B tests that read a rate, each a call of one delta.
_MAPB_TESTS = {
    "membership_test": lambda delta: mapb.membership_test(_MAPB_B, 1, delta),
    "empty_intersection_test": lambda delta: mapb.empty_intersection_test(_MAPB_B, _MAPB_B, delta),
}


@pytest.mark.parametrize("test", list(_MAPB_TESTS))
@pytest.mark.parametrize("delta, shown", [
    ("0.05", "'0.05'"), ([0.05], "[0.05]"), (None, "None"), (True, "True"),
    (Decimal("0.05"), "Decimal('0.05')"), (np.array([0.05]), "[0.05]"), (0.05j, "0.05j")])
def test_mapb_tests_refuse_a_delta_that_is_no_number(test, delta, shown):
    with pytest.raises(ValueError, match=f"^delta must be a number, got {re.escape(shown)}$"):
        _MAPB_TESTS[test](delta)


@pytest.mark.parametrize("test", list(_MAPB_TESTS))
@pytest.mark.parametrize("delta, shown", [
    (1.5, "1.5"), (0.0, "0.0"), (0, "0"), (1, "1"), (-2, "-2"), (np.float64(1.0), "1.0"),
    (np.int64(3), "3"), (math.nan, "nan"), (math.inf, "inf"), (10**400, str(10**400)),
    (Fraction(3, 2), "3/2")])
def test_mapb_tests_keep_the_range_message_of_a_number(test, delta, shown):
    with pytest.raises(ValueError, match=f"^delta must be in \\(0, 1\\), got {shown}$"):
        _MAPB_TESTS[test](delta)


@pytest.mark.parametrize("test", list(_MAPB_TESTS))
def test_mapb_tests_read_a_numpy_or_fraction_delta_as_its_float(test):
    expected = _MAPB_TESTS[test](0.05)
    for delta in (np.float64(0.05), np.array(0.05), Fraction(1, 20)):
        assert _MAPB_TESTS[test](delta) == expected


@pytest.mark.parametrize("rates, message", [
    (dict(eps="0.5"), "eps must be a number, got '0.5'"),
    (dict(eps=None), "eps must be a number, got None"),
    (dict(eps=0.5, delta=[0.05]), "delta must be a number, got [0.05]"),
    (dict(eps=math.inf, delta="x"), "eps must be positive and finite, got inf"),  # eps first
    (dict(eps=0), "eps must be positive and finite, got 0"),
    (dict(delta=1), "delta must be in (0, 1), got 1"),
])
def test_check_rates_reads_each_rate_given_by_the_number_rule(rates, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sizing.check_rates(**rates)
    sizing.check_rates(eps=10**400, delta=Fraction(1, 2))  # an int or fraction in range passes


def _function(module, name: str) -> ast.FunctionDef:
    return ast.parse(textwrap.dedent(inspect.getsource(getattr(module, name)))).body[0]


def test_the_number_rule_lives_in_setalg_alone():
    """``numbers.Real`` is read only in setalg, and the two former private rules keep none."""
    for path in sorted(_SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        reads = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                 and node.attr == "Real" and ast.unparse(node.value) == "numbers"]
        assert not reads or path.name == "setalg.py", path.name
    for module, name in ((harness, "_params"), (hopfield, "_diag_vector")):
        tree = _function(module, name)
        assert not [node for node in ast.walk(tree) if isinstance(node, ast.Try)], name
        casts = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name) and node.func.id in ("int", "float")]
        assert not casts, (name, casts)
