"""One codebook-fit rule: every entry point refuses a codebook or bundle that does not fit it.

A codebook fits a use only in its own kind and universe, and two bundles
compose only on one codebook. ``Codebook.require`` and
``codebook.same_codebook`` decide both; these tests check that every
encoder, bundle constructor, pair estimator, accessor and the bundle
reader refuse a misfit with a ValueError naming its user.

Bundles also hold their values by one rule: every bundle class takes its
array through ``codebook.held``, and only ``rng`` packs or unpacks bits.
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
    "exact_indices_across": ("sparse-binary-exact",
                             lambda cb: cb.exact_indices_across([0], [[1]])),
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


def test_bundle_sign_checks_its_codebook_once_and_its_bundle_once(monkeypatch):
    """``bundle_sign`` checks the fit of its codebook, then its gather's and its bundle's: no
    MAP-I encoder or bundle checks it in between."""
    checks = []
    real = Codebook.require
    monkeypatch.setattr(Codebook, "require",
                        lambda cb, *args: checks.append(args) or real(cb, *args))
    mapb.bundle_sign(_cb("dense-sign"), _set(D), tie_seed=3)
    assert checks == [("dense-sign", "MAP-B", D), ("dense-sign", "sign_words"),
                      ("dense-sign", "MAP-B")]


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


def test_bundle_reader_checks_the_codebook_kind_before_the_mapi_scaled_flag():
    """MAP-I bytes naming a sparse codebook, their scaled flag left at 1, name the wrong kind."""
    data = serialize.bundle_to_bytes(mapi.bundle(_cb("dense-sign"), _set(D)))
    assert data[7] == 1
    wrong = _cb("sparse-binary-exact")
    end = serialize._HEADER.size
    data = data[: end - 32] + serialize.codebook_hash(wrong) + data[end:]
    with pytest.raises(ValueError, match=_wrong_kind("MAP-I", "dense-sign", wrong.kind)):
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


# (field, dtype, values(cb)): each bundle class's array and a valid value of it on ``cb``.
HELD = {
    "MapIBundle": ("ints", np.int64, lambda cb: np.arange(cb.m) - 3),
    "MapBBundle": ("words", np.uint64, lambda cb: np.full(-(-cb.m // 64), 5, np.uint64)),
    "BloomBundle": ("positions", np.int64, lambda cb: np.array([1, 5, 9])),
    "CountBundle": ("counts", np.int64, lambda cb: np.arange(cb.m)),
    "HpmBundle": ("matrix", np.float64, lambda cb: np.ones((cb.m, cb.m))),
}
_CLASSES = {"MapIBundle": mapi.MapIBundle, "MapBBundle": mapb.MapBBundle,
            "BloomBundle": bloom.BloomBundle, "CountBundle": cbloom.CountBundle,
            "HpmBundle": hopfield.HpmBundle}


def _hold(name, values, cb):
    """A bundle of class ``name`` holding ``values`` on ``cb``."""
    return _CLASSES[name](values, cb, *((0,) if name == "HpmBundle" else ()))


def test_held_covers_every_bundle_class():
    assert set(HELD) == set(_CLASSES) == set(BUNDLES)


@pytest.mark.parametrize("name", HELD)
def test_every_bundle_keeps_a_frozen_owned_array_and_copies_any_other(name):
    field, dtype, values = HELD[name]
    cb = _cb(BUNDLES[name][1])
    frozen = values(cb)
    frozen.setflags(write=False)
    kept = _hold(name, frozen, cb)
    assert getattr(kept, field) is frozen
    assert kept.m == kept.codebook.m == cb.m
    mine = values(cb)
    others = [mine, frozen[:], np.repeat(frozen, 2, axis=0)[::2]]
    if name != "MapBBundle":  # MAP-B takes only uint64 arrays
        others += [frozen.tolist(), frozen.astype(np.float32 if dtype == np.float64 else np.int32)]
    for other in others:
        b = _hold(name, other, cb)
        got = getattr(b, field)
        assert got is not other and got.dtype == dtype and np.array_equal(got, frozen)
        assert got.flags.owndata and got.flags.c_contiguous and not got.flags.writeable
        assert b.m == b.codebook.m
    got = getattr(_hold(name, mine, cb), field)
    mine[0] += 1  # the caller's array changes; the bundle's does not
    assert np.array_equal(got, frozen)


@pytest.mark.parametrize("bad", [[0.7, 1.9, -2.5, 3.2], [np.nan, 1.0], [1e30, 1.0],
                                 [np.inf, 1.0], [-np.inf, 1.0], [2.0**63, 1.0]])
def test_an_int64_bundle_refuses_floats_its_copy_would_change(bad):
    m = len(bad)
    dense, sparse = Codebook("dense-sign", m, D), Codebook("sparse-binary-exact", m, D, k=1)
    for build, user in ((lambda v: mapi.MapIBundle(v, dense), "MAP-I bundle"),
                        (lambda v: cbloom.CountBundle(v, sparse), "count bundle")):
        for values in (bad, np.array(bad)):
            with pytest.raises(ValueError, match=f"{user} entries must be whole numbers in "
                                                 f"int64, got "):
                build(values)


def test_an_int64_bundle_refuses_bools_strings_and_objects():
    dense, sparse = Codebook("dense-sign", 4, D), Codebook("sparse-binary-exact", 4, D, k=1)
    for bad, dtype in (([True, False, True, True], "bool"), (["1", "2", "3", "4"], "<U1"),
                       (np.array([1, 2, 3, 4], dtype=object), "object"),
                       ([2**64, 1, 2, 3], "object")):
        with pytest.raises(ValueError, match=f"MAP-I bundle entries must be integers, "
                                             f"got {dtype} values"):
            mapi.MapIBundle(bad, dense)
        with pytest.raises(ValueError, match=f"count bundle entries must be integers, "
                                             f"got {dtype} values"):
            cbloom.CountBundle(bad, sparse)


def test_an_int64_bundle_refuses_a_bool_mixed_into_a_list():
    dense, sparse = Codebook("dense-sign", 4, D), Codebook("sparse-binary-exact", 4, D, k=1)
    trials = Codebook("sparse-binary-trials", 64, D, k=1)
    for build, user, good, bad in (
            (lambda v: mapi.MapIBundle(v, dense), "MAP-I bundle", [1, 1, 2, 3], [1, True, 2, 3]),
            (lambda v: cbloom.CountBundle(v, sparse), "count bundle", [0, 1, 0, 2],
             (0, 1, 0, np.True_)),
            (lambda v: bloom.BloomBundle(v, trials), "bloom bundle", [1, 5], [True, 5])):
        build(good)
        with pytest.raises(ValueError, match=f"^{user} entries must be integers, got bool values$"):
            build(bad)


def test_an_int64_bundle_takes_whole_floats_and_casts_integers():
    dense = Codebook("dense-sign", 4, D)
    assert mapi.MapIBundle([1.0, -2.0, 0.0, -2.0**63], dense).ints.tolist() == [1, -2, 0, -2**63]
    assert mapi.MapIBundle(np.array([1, 2, 3, 4], np.uint8), dense).ints.tolist() == [1, 2, 3, 4]
    sparse = Codebook("sparse-binary-exact", 4, D, k=1)
    assert cbloom.CountBundle(np.ones(4), sparse).counts.tolist() == [1, 1, 1, 1]
    with pytest.raises(ValueError, match="count bundle entries must be nonnegative"):
        cbloom.CountBundle(np.array([2**64 - 1, 0, 0, 0], np.uint64), sparse)
    trials = Codebook("sparse-binary-trials", 4, D, k=1)
    with pytest.raises(ValueError, match=re.escape("bloom positions must lie in [0, 4)")):
        bloom.BloomBundle(np.array([2**64 - 1], np.uint64), trials)
    with pytest.raises(ValueError, match="1-D integer"):
        bloom.BloomBundle([1.0, 2.0], trials)


def _calls(node):
    """``(owner, name)`` of every call under ``node``: ``np.array(...)`` is ("np", "array")."""
    for call in ast.walk(node):
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute):
            owner = call.func.value
            yield (owner.id if isinstance(owner, ast.Name) else None), call.func.attr


def test_rng_alone_packs_bits_and_held_alone_copies_a_bundle():
    """Outside ``rng.py`` no module packs or unpacks bits, and no bundle class's
    ``__post_init__`` copies or freezes its own array: each calls ``held``. (Encoders that
    freeze their own fresh output, such as ``cbloom.bundle_count``, are not bundle classes.)"""
    found, posts = [], {}
    for path in sorted(Path(vsakit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name != "rng.py":
            found += [f"{path.name} calls np.{name}" for owner, name in _calls(tree)
                      if owner == "np" and name in ("packbits", "unpackbits")]
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.name in BUNDLES:
                posts[cls.name] = next(f for f in cls.body if getattr(f, "name", None)
                                       == "__post_init__")
    for name, post in posts.items():
        calls = list(_calls(post))
        found += [f"{name}.__post_init__ calls {owner}.{attr}" for owner, attr in calls
                  if attr in ("copy", "setflags") or (owner, attr) == ("np", "array")]
        if not any(isinstance(c, ast.Call) and getattr(c.func, "id", None) == "held"
                   for c in ast.walk(post)):
            found.append(f"{name}.__post_init__ does not call held")
    assert set(posts) == set(BUNDLES)
    assert found == []
