"""One codebook-fit rule: every entry point refuses a codebook or bundle that does not fit it.

A codebook fits a use only in its own kind and universe, and two bundles
compose only on one codebook. ``Codebook.require`` and
``codebook.same_codebook`` decide both; these tests check that every
encoder, bundle constructor, pair estimator, accessor and the bundle
reader refuse a misfit with a ValueError naming its user.
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import vsakit
from vsakit import bloom, cbloom, codebook, hopfield, mapb, mapi, serialize
from vsakit.codebook import Codebook
from vsakit.setalg import BindingBundleSpec, SequenceSpec, SymbolSet

D = 8
_OTHER = {"dense-sign": "sparse-binary-exact", "sparse-binary-trials": "sparse-binary-exact",
          "sparse-binary-exact": "sparse-binary-trials"}


def _cb(kind, seed=1, m=64):
    """A codebook of ``kind`` over [D]: scaled if dense, as Hopfield± asks, else of k=3."""
    if kind == "dense-sign":
        return Codebook(kind, m, D, seed=seed, scaled=True)
    return Codebook(kind, m, D, k=3, seed=seed)


def _set(d):
    return SymbolSet.from_ids(d, [1, 2])


# (user, kind, encode(cb, d)): each encoder of an input over [d].
ENCODERS = {
    "mapi.bundle": ("MAP-I", "dense-sign", lambda cb, d: mapi.bundle(cb, _set(d))),
    "mapi.encode_sequence": ("MAP-I", "dense-sign",
                             lambda cb, d: mapi.encode_sequence(cb, SequenceSpec((_set(d),)))),
    "mapi.encode_binding_bundle": ("MAP-I", "dense-sign", lambda cb, d: mapi.encode_binding_bundle(
        cb, BindingBundleSpec(d, frozenset({frozenset({1, 2})})))),
    "mapb.bundle_sign": ("MAP-B", "dense-sign", lambda cb, d: mapb.bundle_sign(cb, _set(d))),
    "mapb.bundle_sequence_sign": ("MAP-B", "dense-sign", lambda cb, d: mapb.bundle_sequence_sign(
        cb, SequenceSpec((_set(d),)))),
    "mapb.bundle_kv_sign": ("MAP-B", "dense-sign",
                            lambda cb, d: mapb.bundle_kv_sign(cb, mapb.KeyValueSpec(d, ((1, 2),)))),
    "mapb.iterated_bundle": ("MAP-B", "dense-sign", lambda cb, d: mapb.iterated_bundle(cb, [1, 2])),
    "bloom.bundle_bloom": ("bloom", "sparse-binary-trials",
                           lambda cb, d: bloom.bundle_bloom(cb, _set(d))),
    "cbloom.bundle_count": ("counting bloom", "sparse-binary-exact",
                            lambda cb, d: cbloom.bundle_count(cb, _set(d))),
    "cbloom.bundle_counts": ("counting bloom", "sparse-binary-exact",
                             lambda cb, d: cbloom.bundle_counts(cb, [_set(D), _set(d)])),
    "hopfield.hpm_encode": ("Hopfield±", "dense-sign",
                            lambda cb, d: hopfield.hpm_encode(cb, {1: 1.0}, 0)),
    "hopfield.hpm_estimates": ("Hopfield±", "dense-sign",
                               lambda cb, d: hopfield.hpm_estimates([(cb, {1: 1.0}, {2: 1.0}, 0)])),
}
#: The encoders that take an input over a universe of their own.
WITH_UNIVERSE = [name for name in ENCODERS if not name.startswith(("hopfield", "mapb.iterated"))]

# (user, kind, build(cb)): each bundle class, built directly on ``cb``.
BUNDLES = {
    "MapIBundle": ("MAP-I", "dense-sign", lambda cb: mapi.MapIBundle(np.zeros(cb.m), cb)),
    "MapBBundle": ("MAP-B", "dense-sign",
                   lambda cb: mapb.MapBBundle(np.zeros(-(-cb.m // 64), np.uint64), cb)),
    "BloomBundle": ("bloom", "sparse-binary-trials", lambda cb: bloom.BloomBundle([1, 5], cb)),
    "CountBundle": ("counting bloom", "sparse-binary-exact",
                    lambda cb: cbloom.CountBundle(np.zeros(cb.m, np.int64), cb)),
    "HpmBundle": ("Hopfield±", "dense-sign",
                  lambda cb: hopfield.HpmBundle(np.zeros((cb.m, cb.m)), cb, 0)),
}

# (encoder, estimate(b1, b2)): each estimator of a pair of bundles, and an encoder of its bundles.
PAIRS = {
    "mapi.add": ("mapi.bundle", mapi.add),
    "mapi.raw_dot": ("mapi.bundle", mapi.raw_dot),
    "mapi.dot_estimate": ("mapi.bundle", mapi.dot_estimate),
    "mapi.intersection_estimate": ("mapi.bundle", mapi.intersection_estimate),
    "mapb.empty_intersection_test": ("mapb.bundle_sign",
                                     lambda b1, b2: mapb.empty_intersection_test(b1, b2, 0.05)),
    "bloom.intersection_estimate": ("bloom.bundle_bloom", bloom.intersection_estimate),
    "cbloom.generalized_intersection_estimate": ("cbloom.bundle_count",
                                                 cbloom.generalized_intersection_estimate),
    "cbloom.l1_distance_estimate": ("cbloom.bundle_count",
                                    lambda b1, b2: cbloom.l1_distance_estimate(b1, b2, 2, 2)),
    "hopfield.hpm_dot_estimate": ("hopfield.hpm_encode", hopfield.hpm_dot_estimate),
}

# (kind, read(cb)): each Codebook accessor.
ACCESSORS = {
    "sign_words": ("dense-sign", lambda cb: cb.sign_words([1])),
    "sign_words_across": ("dense-sign", lambda cb: cb.sign_words_across([0], [[1]])),
    "sign_columns": ("dense-sign", lambda cb: cb.sign_columns([1])),
    "union_indices": ("sparse-binary-trials", lambda cb: cb.union_indices([1])),
    "exact_indices": ("sparse-binary-exact", lambda cb: cb.exact_indices([1])),
}


def _wrong_kind(user, kind, got):
    return re.escape(f"{user} requires a {kind} codebook, got {got!r}")


@pytest.mark.parametrize("name", ENCODERS)
def test_every_encoder_refuses_a_codebook_of_another_kind(name):
    user, kind, encode = ENCODERS[name]
    encode(_cb(kind), D)  # it fits its own kind
    with pytest.raises(ValueError, match=_wrong_kind(user, kind, _OTHER[kind])):
        encode(_cb(_OTHER[kind]), D)


@pytest.mark.parametrize("name", WITH_UNIVERSE)
def test_every_encoder_refuses_an_input_over_another_universe(name):
    user, kind, encode = ENCODERS[name]
    with pytest.raises(ValueError, match=re.escape(f"{user}: universe {D + 1} != codebook "
                                                   f"universe {D}")):
        encode(_cb(kind), D + 1)


@pytest.mark.parametrize("name", BUNDLES)
def test_every_bundle_refuses_a_codebook_of_another_kind(name):
    user, kind, build = BUNDLES[name]
    build(_cb(kind))
    with pytest.raises(ValueError, match=_wrong_kind(user, kind, _OTHER[kind])):
        build(_cb(_OTHER[kind]))


@pytest.mark.parametrize("name", PAIRS)
@pytest.mark.parametrize("other", [dict(seed=2), dict(m=65)], ids=["seed", "m"])
def test_every_pair_estimator_refuses_bundles_of_another_codebook(name, other):
    encoder, estimate = PAIRS[name]
    user, kind, encode = ENCODERS[encoder]
    cb = _cb(kind)
    estimate(encode(cb, D), encode(cb, D))
    foreign = encode(_cb(kind, **{"seed": 1, **other}), D)
    message = re.escape(f"{user}: bundles come from different codebooks")
    with pytest.raises(ValueError, match=message):
        estimate(encode(cb, D), foreign)


@pytest.mark.parametrize("name", ACCESSORS)
def test_every_accessor_refuses_a_codebook_of_another_kind(name):
    kind, read = ACCESSORS[name]
    read(_cb(kind))
    with pytest.raises(ValueError, match=_wrong_kind(name, kind, _OTHER[kind])):
        read(_cb(_OTHER[kind]))


@pytest.mark.parametrize("arch", serialize.ARCHS)
def test_bundle_reader_refuses_a_bundle_built_on_a_codebook_of_another_kind(arch):
    """Bytes that name a wrong-kind codebook of the right m decode to no bundle."""
    user, kind, _ = BUNDLES[serialize.ARCHS[arch].bundle.__name__]
    data = serialize.bundle_to_bytes(serialize.ARCHS[arch].encode(_cb(kind), _set(D)))
    wrong = _cb(_OTHER[kind])
    end = serialize._HEADER.size  # the header names ``wrong``: its scaled flag and its hash
    head = data[:7] + bytes([wrong.scaled]) + data[8 : end - 32] + serialize.codebook_hash(wrong)
    data = head + data[end:]
    with pytest.raises(ValueError, match=_wrong_kind(user, kind, wrong.kind)):
        serialize.bundle_from_bytes(data, wrong)


def _raised_strings(node):
    """Every string constant inside the ``raise`` statements under ``node``."""
    for stmt in ast.walk(node):
        if isinstance(stmt, ast.Raise):
            for part in ast.walk(stmt):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    yield part.lineno, part.value


def test_codebook_py_alone_decides_fit_and_layout():
    """Outside ``codebook.py`` no module reads a codebook's kind or window layout, or refuses a
    misfit on its own."""
    misfits = []
    for path in sorted(Path(vsakit.__file__).parent.glob("*.py")):
        if path.name == "codebook.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        misfits += [f"{path.name}:{node.lineno} reads .{node.attr}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and node.attr in ("kind", "_blocks_per_column", "_words_per_column")]
        misfits += [f"{path.name}:{line} raises {text!r}" for line, text in _raised_strings(tree)
                    if "different codebooks" in text or "codebook universe" in text]
    assert misfits == []
    tree = ast.parse(Path(codebook.__file__).read_text(encoding="utf-8"))
    assert any("different codebooks" in text for _, text in _raised_strings(tree))
