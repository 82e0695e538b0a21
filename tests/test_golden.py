"""Byte identity: SHA-256 digests of every harness CSV, sizing and calibrate JSON,
and of the wire bytes of one bundle per arch.

Each registered (arch, task) runs one small fixed grid with 3 trials and, if
it reads optional parameters, the same grid without them, so the default
paths run too. The digests cover the CSV text and the sidecar JSON. A change
to a drawn bit, an estimator, a threshold or the output format shows here.
Record new digests only together with an ``RNG_VERSION`` or ``CSV_VERSION``
change, and new wire digests only with a bundle format version change.
"""

import csv
import hashlib
import io
import json

import pytest

from vsakit import harness, hopfield, rng, serialize, sizing
from vsakit.codebook import Codebook
from vsakit.setalg import SymbolSet

#: One grid per registered task, holding only the parameters it reads.
_GRIDS = {
    ("mapi", "norm"): {"m": [64, 160], "n": [3], "d": [32], "eps": [0.5]},
    ("mapi", "pairs"): {"m": [64, 160], "d": [32], "M": [2], "n_x": [4], "n_y": [4],
                        "n": [3]},
    ("mapi", "sequence"): {"m": [64, 160], "n": [3], "d": [32], "L": [3], "eps": [0.5]},
    ("mapi", "sequence-symbols"): {"m": [64, 160], "n": [3], "d": [32], "L": [3], "K": [2],
                                   "eps": [0.5]},
    ("mapi", "binding2"): {"m": [64, 160], "d": [32], "E": [4], "arity": [2], "eps": [0.5]},
    ("mapi", "bindingK"): {"m": [64, 160], "d": [32], "E": [4], "arity": [3], "eps": [0.5]},
    ("mapb", "member"): {"m": [64, 160], "n": [3], "d": [32], "delta": [0.1]},
    ("mapb", "sequence-member"): {"m": [64, 160], "n": [3], "d": [32], "L": [3],
                                  "delta": [0.1]},
    ("mapb", "kv-member"): {"m": [64, 160], "n": [3], "d": [32], "delta": [0.1]},
    ("mapb", "empty-intersection"): {"m": [64, 160], "d": [32], "nx": [4], "ny": [4],
                                     "n": [0, 2], "delta": [0.1]},
    ("mapb", "depth"): {"m": [64, 160], "L": [1, 3]},
    ("bloom", "size"): {"m": [64, 160], "k": [3], "n": [3], "d": [32], "eps": [0.5]},
    ("bloom", "intersection"): {"m": [64, 160], "k": [3], "d": [32], "n": [2], "n_v": [2],
                                "n_w": [3], "eps": [0.5]},
    ("cbloom", "intersection"): {"m": [64, 160], "k": [3], "d": [32], "n": [3], "n_v": [2],
                                 "n_w": [3], "K_b": [2], "eps": [0.5]},
    ("cbloom", "l1"): {"m": [64, 160], "k": [3], "d": [32], "n": [3], "n_v": [2],
                       "n_w": [3], "K_b": [2], "eps": [0.5]},
    ("hopfield", "store"): {"m": [64, 160], "n": [3]},
    ("hopfield", "recall"): {"m": [64, 160], "n": [3], "erasures": [16], "flips": [4]},
    ("hopfield", "kv-recall"): {"m": [64, 160], "n": [3]},
    ("hopfield", "hpm-norm"): {"m": [64, 160], "d": [32], "n": [3], "eps": [0.5]},
    ("hopfield", "hpm-dot"): {"m": [64, 160], "d": [32], "n": [3], "eps": [0.5]},
}

#: Parameters a trial reads with a default when the cell leaves them out.
_OPTIONAL = {
    ("mapi", "binding2"): ("arity",),
    ("mapi", "bindingK"): ("arity",),
    ("cbloom", "intersection"): ("K_b", "n"),
    ("cbloom", "l1"): ("K_b", "n"),
    ("hopfield", "recall"): ("erasures", "flips"),
}

#: One parameter dict per arch covering every formula of that arch.
_SIZING_PARAMS = {
    "mapi": dict(eps=0.5, delta=0.05, N=8, M=8, L=2, K=2, k=3, v_l1=4),
    "mapb": dict(n=4, d=64, L=2, nx=4, ny=4, delta=0.05),
    "bloom": dict(eps=0.5, delta=0.05, n=5, n_v=10, n_w=10),
    "cbloom": dict(eps=0.5, delta=0.05, K_b=2, n_v=4, n_w=4),
    "hopfield": dict(n=8, eps=0.5, delta=0.05, d=64),
}

_RUN_SHA256 = {
    "mapi.norm": "5297eded1042f6221f7c174e4d651285b30b8ab84809eb59694d7962460a4dd4",
    "mapi.pairs": "50423e9c9d61ccc9822243f95c815abc16bc45f6a91d2e557993629328e82e62",
    "mapi.sequence": "a0e07c72f5e931ddf872f21c45c8851364d0e641db24bff2ba321d0689e0a614",
    "mapi.sequence-symbols": "5b7a96b6d55a35d178d6c3d7304a7395214317270d88e7eb3ecd77eefd16c6dc",
    "mapi.binding2": "9895a8ecf2d033e937546f61649ff8714c91d8a264edec3449dc077c6228b22a",
    "mapi.bindingK": "fcf75ee73530009c9bfad4f9548ae9afd10971ca39342c37b01fe4e2054d60c1",
    "mapb.member": "456adf3efa03d0cbc3fb3812b0571538247d124feecdafb06b863251fa746076",
    "mapb.sequence-member": "b8b9f14cabe5be01fdb940a08ee3bf945e4305d6efba400a43d2b533de8dbb2d",
    "mapb.kv-member": "0d712f5021e82d435d38668ac18ec86208628ee865f33a3f21befa023465f8fd",
    "mapb.empty-intersection": "c4c16aa6d74f3801116a41a3832c38ffbc8b3a6fe03e66d5558cb3004f5be6d9",
    "mapb.depth": "3690fbf866cf211c51c773ede01c83d3e6ba81c18032f17289c9fb6fcc170686",
    "bloom.size": "9c297d68222ef38e3d9df5d63366fd2f6b9653bfcfde709c1d305558fb64e495",
    "bloom.intersection": "88b54e4654536545abca5f5d10557b516f733ef583ac8c042106fe4ab0f33bba",
    "cbloom.intersection": "c37eaea55294b99d0b857b814f9fef16398d40ba29ba4c91044f2659f67ebdf6",
    "cbloom.l1": "45a9bfb815236307731c65271645d60009b538509ec76181d0b2dccce884251a",
    "hopfield.store": "2a12a1984aed034d671954a9724076592206d3add1643392ccfe20a7cc88aed2",
    "hopfield.recall": "b8eb9ebcc94231c09e5c20b0fe89f90fd2e44b32e419eab9ea7b7d17906709ba",
    "hopfield.kv-recall": "0b58f2c7b1be5b120468996cb519db875ba628fe61d4a9c04f34a73ffc46b608",
    "hopfield.hpm-norm": "eb2ba26a5b810379374c500d46719fa7c38906ef9953c3c5dc9f0bd993f1afac",
    "hopfield.hpm-dot": "24c6482837d3b40258942a271fba157e64cea44bb3e1a0f70897ff297aca847e",
}
_SIZE_SHA256 = "50c0e499e3083c6c19d2c31415fd0db984a13c4ed9dccbc073036ddfa18a772c"
_CALIBRATE_SHA256 = "fb29640cb8e6b285e927f5f24890825d547a4a8c3a46d1d5eb2f7aad6f58263c"
_WIRE_SHA256 = {
    "bloom": "d06e37cf4d80f339d5e470f6efc5543a3e4f90f7519e9e334d00a65da3232932",
    "cbloom": "1e087edbbeaa6606a09b84af335d73d30530deff57078d32dcfc0cef6e686cfc",
    "mapb": "729120a42f7feccfabdf398a4fdb948acef9ac38f12f8bd6733278243cbab74c",
    "mapi": "6a7150f01798eee713e67ea964bb7bc69945678d2127760860cc11d88b67814e",
}
_HPM_SHA256 = "65f214103068cec913650fa03675e17dbec37de889ac4888172ddd6a66e66b63"


def _wire_bytes(kind: str) -> bytes:
    """Bundle format v2 bytes of one seeded bundle of ``kind``."""
    weighted = SymbolSet(64, {1: 1, 9: 3, 20: 300, 63: 2})
    cb, v = {
        "mapi": (Codebook("dense-sign", 300, 64, seed=3, scaled=True), weighted),
        "mapb": (Codebook("dense-sign", 301, 64, seed=4), SymbolSet.from_ids(64, range(0, 60, 8))),
        # 15 elements at the sized bloom.intersection cell (eps=0.5, delta=0.05, n=5, n_v=n_w=10)
        "bloom": (Codebook("sparse-binary-trials", 6_366_745, 256, k=483, seed=0),
                  SymbolSet.from_ids(256, range(0, 120, 8))),
        "cbloom": (Codebook("sparse-binary-exact", 500, 64, k=5, seed=6), weighted),
    }[kind]
    return serialize.bundle_to_bytes(serialize.ARCHS[kind].encode(cb, v))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run_text(arch: str, task: str) -> str:
    """CSV and sidecar of the task's grid, then of the grid without optionals."""
    grid = _GRIDS[(arch, task)]
    grids = [grid]
    if (arch, task) in _OPTIONAL:
        grids.append({k: v for k, v in grid.items() if k not in _OPTIONAL[(arch, task)]})
    parts = []
    for g in grids:
        csv_text, sidecar = harness.run(harness.ExperimentConfig(arch, task, g, 3, 11))
        rows = list(csv.DictReader(io.StringIO(csv_text)))
        assert rows and all(row["error"] == "" for row in rows)
        parts += [csv_text, json.dumps(sidecar, sort_keys=True)]
    return "\n".join(parts)


def _size_text() -> str:
    return "\n".join(sizing.size(*formula.split("."), **_SIZING_PARAMS[formula.split(".")[0]])
                     .to_json() for formula in sorted(sizing.CONSTANTS))


def _calibrate_text() -> str:
    return sizing.calibrate("mapi", "norm", dict(eps=0.5, delta=0.2, n=4, d=64),
                            target=0.2, trials=100, seed=9).to_json()


def _hpm_text() -> str:
    """repr of both Hopfield± estimates on five seeded instances at the sized
    hpm-dot cell (m=1365, d=512, support 8): every float bit shows."""
    m, d, n = 1365, 512, 8
    lines = []
    for seed in range(5):
        cb = Codebook("dense-sign", m, d, seed=seed, scaled=True)
        bundles = []
        for tag in ("x", "y"):
            ids = rng.choose_distinct(rng.Stream(seed, "golden-hpm", tag).words(0, n), d, n)
            bundles.append(hopfield.hpm_encode(cb, {int(i): 1.0 for i in ids}, d_seed=seed))
        bx, by = bundles
        lines.append(f"{hopfield.hpm_norm_estimate(bx)!r} {hopfield.hpm_dot_estimate(bx, by)!r}")
    return "\n".join(lines)


def test_grids_cover_every_task():
    assert set(_GRIDS) == set(harness.TASKS)
    assert set(_RUN_SHA256) == {f"{arch}.{task}" for arch, task in harness.TASKS}


@pytest.mark.parametrize("key", sorted(_RUN_SHA256))
def test_run_bytes_unchanged(key):
    assert _sha256(_run_text(*key.split(".", 1))) == _RUN_SHA256[key]


def test_size_json_unchanged():
    assert _sha256(_size_text()) == _SIZE_SHA256


def test_calibrate_json_unchanged():
    assert _sha256(_calibrate_text()) == _CALIBRATE_SHA256


def test_hpm_estimates_unchanged():
    assert _sha256(_hpm_text()) == _HPM_SHA256


@pytest.mark.parametrize("kind", sorted(_WIRE_SHA256))
def test_wire_bytes_unchanged(kind):
    assert hashlib.sha256(_wire_bytes(kind)).hexdigest() == _WIRE_SHA256[kind]
