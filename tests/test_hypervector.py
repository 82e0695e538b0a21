import ast
from pathlib import Path

import numpy as np
import pytest

from vsakit import harness, mapb, mapi
from vsakit.hypervector import rotate


def test_negative_shift_undoes_rotation():
    x = np.arange(5)
    for ell in range(-6, 7):
        assert np.array_equal(rotate(rotate(x, ell), -ell), x)
    assert rotate(x, -1).tolist() == [4, 0, 1, 2, 3]


def test_rotate_returns_a_new_array_of_the_same_dtype():
    x = np.array([1, -1, 1], dtype=np.int8)
    y = rotate(x, 1)
    y[0] = 0
    assert x.tolist() == [1, -1, 1] and y.dtype == np.int8


def test_positions_are_integers():
    x = np.arange(5)
    for ell in (2, np.int64(2), 2.0, np.float64(2.0)):
        assert rotate(x, ell).tolist() == [2, 3, 4, 0, 1]
    for bad in (1.5, True, np.True_, "1", None):
        with pytest.raises(ValueError, match="position ell must be an integer"):
            rotate(x, bad)


def test_a_stack_rotates_row_by_row():
    x = np.arange(10).reshape(2, 5)
    assert rotate(x, 2).tolist() == [[2, 3, 4, 0, 1], [7, 8, 9, 5, 6]]
    assert rotate(x, 7).tolist() == rotate(x, 2).tolist() == [rotate(row, -3).tolist() for row in x]


def _defs(module) -> dict:
    """Each function of ``module``, methods included, by its name."""
    tree = ast.parse(Path(module.__file__).read_text())
    return {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def _calls(node, name: str) -> list:
    """The calls under ``node`` of ``name``, bare or as an attribute."""
    return [call for call in ast.walk(node) if isinstance(call, ast.Call)
            and ast.unparse(call.func).rsplit(".", 1)[-1] == name]


def _loops(node) -> list:
    return [loop for loop in ast.walk(node) if isinstance(loop, (ast.For, ast.While))]


def test_sequences_have_one_rotation_rule():
    """R^ell is ``rotate`` alone, reached through ``mapi.rotated_words`` alone.

    ``np.roll`` is in hypervector.py only. ``rotated_words`` gathers once,
    outside its one loop, over distinct positions. The sequence encoder, the
    MAP-B sequence query and the sequence-member trial each call one
    composite-column reader and hold no loop statement. MAP-B's queries
    unpack no bundle: its only bit codecs pack the signs of sums
    (``_threshold``) and unpack the public +-1 view (``MapBBundle.signs``).
    """
    for path in sorted(Path(mapi.__file__).parent.glob("*.py")):
        rolls = [node for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Attribute) and node.attr == "roll"]
        assert not rolls or path.name == "hypervector.py", path.name
    codecs = {"_threshold": {"words_from_bits"}, "signs": {"signs_from_words"}}
    for name, node in _defs(mapb).items():
        used = {codec for codec in ("bits_from_words", "words_from_bits", "signs_from_words")
                if _calls(node, codec)}
        assert used <= codecs.get(name, set()), name
    rotated = _defs(mapi)["rotated_words"]
    (loop,) = _loops(rotated)
    assert len(_calls(rotated, "sign_words")) == len(_calls(rotated, "rotate")) == 1
    assert not _calls(loop, "sign_words")
    for node in (_defs(mapi)["encode_sequence"], _defs(mapb)["sequence_membership_scores"]):
        assert len(_calls(node, "rotated_words")) == 1 and not _loops(node), node.name
        assert not _calls(node, "bundle") and not _calls(node, "sign_words"), node.name
    trial = _defs(harness)["_trial_mapb_sequence_member"]
    assert not _loops(trial) and len(_calls(trial, "sequence_membership_scores")) == 1
