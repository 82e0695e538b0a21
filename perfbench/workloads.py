"""The benchmark's four workloads, driven through vsakit's public functions.

A workload has a set-up step (sizing, config and codebook files, resident
bundles) and a *round*: a fixed list of operations whose outputs are hashed
and checked against ``digests.json``. A run plays rounds until its time is
up. Rounds are keyed by a round seed; workload seed ``s`` plays round seeds
``8 * (s % 4) + r % 8`` for ``r = 0, 1, 2, ...``, so every seed maps onto
the 32 round seeds whose digests were recorded, and the same seed always
gives the same inputs.

Why these four (see README.md for the layer map):

- ``small-trials``: sub-millisecond trials, so per-trial fixed costs (one
  Philox object per ``Stream.words`` call, ``choose_distinct``) dominate.
- ``sized-trials``: paper-sized MAP-B, Bloom, Hopfield± and Hopfield cells
  whose working sets exceed L2; batching, packing and the m x m matrices.
- ``grid-threads``: multi-cell grids at ``--threads 2``, the only workload
  that runs the harness worker pool.
- ``wire``: closed-loop encode, serialize, deserialize and query requests,
  the library's encode-and-query use.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

ROUNDS_PER_SEED = 8
SEED_VARIANTS = 4

WIRE_KINDS = ("mapi", "mapb", "bloom", "cbloom")
WIRE_REQUESTS_PER_KIND = 25
WIRE_SET_SIZES = {"mapi": 8, "mapb": 10, "bloom": 15, "cbloom": 6}
WIRE_TICK_EVERY = 20  # requests between two host-speed probes


def round_seed(seed: int, r: int) -> int:
    return ROUNDS_PER_SEED * (seed % SEED_VARIANTS) + r % ROUNDS_PER_SEED


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Op:
    """One user-visible operation: an experiment or calibrate call, or a request."""

    name: str
    latency_s: float
    attempted: int  # experiment cells, 1 per calibrate call or request
    failed: int
    trials: int  # trials the call asked for (0 for a request)
    digest_key: str  # the output in Round.outputs that pins this operation


@dataclass
class Round:
    ops: list[Op] = field(default_factory=list)
    outputs: dict[str, bytes] = field(default_factory=dict)  # digest key -> bytes

    @property
    def busy_s(self) -> float:
        return sum(op.latency_s for op in self.ops)


# -- trial workloads ---------------------------------------------------------


@dataclass(frozen=True)
class Experiment:
    name: str
    arch: str
    task: str
    grid: dict
    trials: int
    threads: int

    @property
    def cells(self) -> int:
        return int(np.prod([len(values) for values in self.grid.values()]))


@dataclass(frozen=True)
class Calibration:
    name: str
    arch: str
    task: str
    params: dict
    target: float
    trials: int


def _small_trials(size) -> list:
    m_norm = size("mapi", "norm", eps=0.5, delta=0.05).m
    cb = size("cbloom", "intersection", eps=0.25, delta=0.05, K_b=1, n_v=1, n_w=2)
    m_empty = size("mapb", "empty-intersection", nx=4, ny=4, delta=0.05).m
    return [
        Experiment("mapi-norm", "mapi", "norm",
                   {"m": [64, m_norm], "n": [1, 16, 256], "d": [256], "eps": [0.5]}, 100, 1),
        Experiment("cbloom-l1", "cbloom", "l1",
                   {"m": [cb.m], "k": [cb.k], "d": [256], "n": [4], "n_v": [1], "n_w": [2],
                    "K_b": [1], "eps": [0.25]}, 300, 1),
        Experiment("mapb-empty", "mapb", "empty-intersection",
                   {"m": [m_empty], "d": [256], "nx": [4], "ny": [4], "n": [0, 1],
                    "delta": [0.05]}, 60, 1),
        Calibration("mapi-norm-calibrate", "mapi", "norm",
                    {"eps": 0.5, "delta": 0.05, "n": 16, "d": 256}, 0.05, 100),
    ]


def _sized_trials(size) -> list:
    m_member = size("mapb", "member", n=10, d=256, delta=0.05).m
    bl = size("bloom", "intersection", eps=0.5, delta=0.05, n=5, n_v=10, n_w=10)
    hpm_eps = 0.7071
    m_hpm = size("hopfield", "hpm-dot", eps=hpm_eps, delta=0.05, d=512).m
    m_store = size("hopfield", "store", n=16, delta=0.05).m
    return [
        Experiment("mapb-member", "mapb", "member",
                   {"m": [m_member], "n": [10], "d": [256], "delta": [0.05]}, 12, 1),
        Experiment("bloom-intersection", "bloom", "intersection",
                   {"m": [bl.m], "k": [bl.k], "d": [256], "n": [5], "n_v": [10],
                    "n_w": [10], "eps": [0.5]}, 8, 1),
        Experiment("hpm-dot", "hopfield", "hpm-dot",
                   {"m": [m_hpm], "d": [512], "n": [8], "eps": [hpm_eps]}, 8, 1),
        Experiment("hopfield-store", "hopfield", "store",
                   {"m": [m_store], "n": [16]}, 12, 1),
    ]


def _grid_threads(size) -> list:
    ms = [size("mapb", "member", n=n, d=256, delta=0.05).m for n in (5, 10)]
    m_norm = size("mapi", "norm", eps=0.5, delta=0.05).m
    return [
        Experiment("mapb-member-grid", "mapb", "member",
                   {"m": ms, "n": [5, 10], "d": [256], "delta": [0.05]}, 6, 2),
        Experiment("mapi-norm", "mapi", "norm",
                   {"m": [64, m_norm], "n": [1, 16, 256], "d": [256], "eps": [0.5]}, 50, 2),
    ]


def _error_cells(csv_bytes: bytes) -> int:
    rows = list(csv.DictReader(io.StringIO(csv_bytes.decode("utf-8"))))
    return sum(1 for row in rows if row.get("error"))


class TrialWorkload:
    """Batch use: ``vsakit experiment`` / ``calibrate`` through ``cli.main``."""

    def __init__(self, name: str, make_calls):
        self.name = name
        self._make_calls = make_calls

    def setup(self, vsakit, workdir: Path, seed: int):
        calls = self._make_calls(vsakit.size)
        for call in calls:
            if isinstance(call, Experiment):
                config = {"arch": call.arch, "task": call.task, "grid": call.grid,
                          "trials": call.trials, "seed": 0}
                (workdir / f"{call.name}.json").write_text(json.dumps(config), encoding="utf-8")
        return calls

    @staticmethod
    def work(rnd: Round) -> int:
        """Trials the calls asked for; the harness's spot-check re-runs are not output."""
        return sum(op.trials for op in rnd.ops)

    def play(self, vsakit, workdir: Path, calls, rseed: int, tick=None) -> Round:
        """Run every call once; ``tick(i)`` is called, untimed, before call ``i``."""
        out = Round()
        for call in calls:
            if tick is not None:
                tick(len(out.ops))
            op, out.outputs[call.name] = self._run(vsakit, workdir, call, rseed)
            out.ops.append(op)
        return out

    @staticmethod
    def _run(vsakit, workdir: Path, call, rseed: int) -> tuple[Op, bytes]:
        result = workdir / f"{call.name}.out"
        result.unlink(missing_ok=True)
        if isinstance(call, Experiment):
            argv = ["experiment", "--config", str(workdir / f"{call.name}.json"),
                    "--threads", str(call.threads), "--seed", str(rseed), "--out", str(result)]
            attempted = call.cells
        else:
            argv = ["calibrate", "--arch", call.arch, "--task", call.task,
                    "--target", repr(call.target), "--trials", str(call.trials),
                    "--seed", str(rseed), "--out", str(result)]
            for key, value in call.params.items():
                argv += ["--param", f"{key}={value}"]
            attempted = 1
        start = perf_counter()
        try:
            code = vsakit.cli.main(argv)
        except Exception as bad:  # an escaped exception fails the call, not the run
            print(f"{call.name}: {type(bad).__name__}: {bad}", file=sys.stderr)
            code = -1
        latency = perf_counter() - start
        if code != 0 or not result.exists():
            return Op(call.name, latency, attempted, attempted, 0, call.name), b""
        data = result.read_bytes()
        if isinstance(call, Experiment):
            trials = call.cells * call.trials
            failed = _error_cells(data)
        else:
            trials = call.trials * len(json.loads(data)["rates"])
            failed = 0
        return Op(call.name, latency, attempted, failed, trials, call.name), data


# -- wire --------------------------------------------------------------------


@dataclass
class WireState:
    codebooks: dict
    universes: dict
    resident: dict


class WireWorkload:
    """One client in a closed loop: encode, serialize, deserialize, query."""

    name = "wire"

    def setup(self, vsakit, workdir: Path, seed: int) -> WireState:
        from vsakit import Codebook, SymbolSet, bloom, cbloom, mapi

        size = vsakit.size
        variant = seed % SEED_VARIANTS
        bl = size("bloom", "intersection", eps=0.5, delta=0.05, n=5, n_v=10, n_w=10)
        cbl = size("cbloom", "intersection", eps=0.25, delta=0.05, K_b=1, n_v=1, n_w=2)
        params = {
            "mapi": ("dense-sign", size("mapi", "pairs", N=64, M=50, delta=0.05).m, 1000, None, True),
            "mapb": ("dense-sign", size("mapb", "member", n=10, d=256, delta=0.05).m, 256, None, False),
            "bloom": ("sparse-binary-trials", bl.m, 256, bl.k, False),
            "cbloom": ("sparse-binary-exact", cbl.m, 256, cbl.k, False),
        }
        codebooks, universes = {}, {}
        for kind, (cb_kind, m, d, k, scaled) in params.items():
            path = workdir / f"{kind}.codebook.json"
            path.write_text(Codebook(cb_kind, m, d, k=k, seed=1000 + variant,
                                     scaled=scaled).to_json(), encoding="utf-8")
            codebooks[kind] = Codebook.from_json(path.read_text(encoding="utf-8"))
            universes[kind] = d
        gen = np.random.default_rng([variant, 7])
        resident = {}  # MAP-B requests test membership in the decoded bundle itself
        for kind, encode in (("mapi", mapi.bundle), ("bloom", bloom.bundle_bloom),
                             ("cbloom", cbloom.bundle_count)):
            ids = gen.choice(universes[kind], WIRE_SET_SIZES[kind], replace=False)
            resident[kind] = encode(codebooks[kind], SymbolSet.from_ids(universes[kind], ids.tolist()))
        return WireState(codebooks, universes, resident)

    @staticmethod
    def work(rnd: Round) -> int:
        return sum(1 for op in rnd.ops if not op.failed)

    @staticmethod
    def requests(state: WireState, rseed: int) -> list[tuple]:
        """The round's requests, interleaved by kind: (kind, ids, symbol)."""
        gen = np.random.default_rng([rseed, 11])
        out = []
        for _ in range(WIRE_REQUESTS_PER_KIND):
            for kind in WIRE_KINDS:
                d = state.universes[kind]
                ids = sorted(gen.choice(d, WIRE_SET_SIZES[kind], replace=False).tolist())
                symbol = ids[0] if gen.integers(2) else int(gen.integers(d))
                out.append((kind, ids, symbol))
        return out

    def play(self, vsakit, workdir: Path, state: WireState, rseed: int, tick=None) -> Round:
        """Send every request once; ``tick(i)`` is called, untimed, before every
        ``WIRE_TICK_EVERY``-th request ``i``."""
        out = Round()
        answers = []
        for i, (kind, ids, symbol) in enumerate(self.requests(state, rseed)):
            if tick is not None and i % WIRE_TICK_EVERY == 0:
                tick(i)
            start = perf_counter()
            try:
                answer = _request(vsakit, state, kind, ids, symbol)
                failed = 0
            except Exception as bad:  # a failing request is counted, the loop goes on
                print(f"wire {kind}: {type(bad).__name__}: {bad}", file=sys.stderr)
                answer = f"{kind} error {type(bad).__name__}"
                failed = 1
            latency = perf_counter() - start
            answers.append(answer)
            out.ops.append(Op(kind, latency, 1, failed, 0, "answers"))
        out.outputs["answers"] = "\n".join(answers).encode("utf-8")
        return out


def _request(vsakit, state: WireState, kind: str, ids, symbol: int) -> str:
    mapi, mapb, bloom, cbloom, serialize = (
        vsakit.mapi, vsakit.mapb, vsakit.bloom, vsakit.cbloom, vsakit.serialize)
    cb = state.codebooks[kind]
    fresh = vsakit.SymbolSet.from_ids(state.universes[kind], ids)
    encode = {"mapi": mapi.bundle, "mapb": mapb.bundle_sign, "bloom": bloom.bundle_bloom,
              "cbloom": cbloom.bundle_count}[kind]
    decoded = serialize.bundle_from_bytes(serialize.bundle_to_bytes(encode(cb, fresh)), cb)
    if kind == "mapb":
        test = mapb.membership_test(decoded, symbol, 0.05)
        return f"mapb {test.contained} {test.score!r}"
    resident = state.resident[kind]
    if kind == "mapi":
        return f"mapi {mapi.intersection_estimate(decoded, resident)!r}"
    if kind == "bloom":
        return f"bloom {bloom.intersection_estimate(decoded, resident)!r}"
    return f"cbloom {cbloom.generalized_intersection_estimate(decoded, resident)!r}"


WORKLOADS = {
    "small-trials": TrialWorkload("small-trials", _small_trials),
    "sized-trials": TrialWorkload("sized-trials", _sized_trials),
    "grid-threads": TrialWorkload("grid-threads", _grid_threads),
    "wire": WireWorkload(),
}
