"""Monte Carlo experiment engine: seeded trials against the exact oracle.

A grid of parameter cells is expanded from a config; every trial draws its
instance and codebook from a seed derived purely from (master seed, cell
parameters, trial index), so results are byte-identical for every run of
the same config and seed. Cells run once each, in order, one trial after
another through :func:`trial_records`. One aggregated CSV row is emitted per
cell in deterministic cell order; the full per-cell parameter dicts and the
config echo go to a JSON sidecar.

CSV schema (version v1)::

    arch, task, m, k, n, d, L, eps, delta, trials, failures, emp_fail_rate,
    mean_abs_err, max_abs_err, seed, rng_version, error

Tasks whose natural parameter is not one of (m, k, n, d, L, eps, delta)
still run; the extra parameters appear only in the sidecar. The MAP-B
depth-decay task reports its chain depth r in the L column.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np

from . import bloom, cbloom, hopfield, mapb, mapi, rng, setalg
from .codebook import Codebook
from .hypervector import Hypervector
from .setalg import SequenceSpec, SymbolSet

CSV_VERSION = "v1"
COLUMNS = (
    "arch", "task", "m", "k", "n", "d", "L", "eps", "delta", "trials",
    "failures", "emp_fail_rate", "mean_abs_err", "max_abs_err", "seed",
    "rng_version", "error",
)

@dataclass(frozen=True)
class TrialOutcome:
    estimate: float
    truth: float
    passed: bool
    abs_err: float


@dataclass(frozen=True)
class TrialRecord:
    cell: dict
    index: int
    seed: int
    outcome: TrialOutcome


@dataclass(frozen=True)
class ExperimentConfig:
    arch: str
    task: str
    grid: dict[str, list]
    trials: int
    seed: int
    out: str | None = None

    def __post_init__(self):
        if (self.arch, self.task) not in TASKS:
            raise ValueError(f"unknown experiment task ({self.arch!r}, {self.task!r})")
        if not self.grid or any(not values for values in self.grid.values()):
            raise ValueError("grid must be nonempty with nonempty value lists")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("config must be a JSON object")
        try:
            grid = obj["grid"]
            if not isinstance(grid, dict) or not all(isinstance(v, list) for v in grid.values()):
                raise ValueError("grid must map each parameter name to a list of values")
            return cls(
                arch=obj["arch"],
                task=obj["task"],
                grid=grid,
                trials=int(obj["trials"]),
                seed=int(obj.get("seed", 0)),
                out=obj.get("out"),
            )
        except KeyError as missing:
            raise ValueError(f"config is missing {missing}") from None

    def cells(self) -> list[dict]:
        keys = sorted(self.grid)
        return [dict(zip(keys, combo)) for combo in product(*(self.grid[k] for k in keys))]


def trial_seed(master: int, cell: dict, index: int) -> int:
    """Documented pure split: fold (master, canonical cell JSON, index)."""
    cell_json = json.dumps(cell, sort_keys=True)
    return rng.stream_id("trial", int(master) & ((1 << 64) - 1), cell_json, index)


# -- instance sampling helpers -------------------------------------------------


def _draw_subset(seed: int, tag: str, d: int, size: int) -> np.ndarray:
    if size > d:
        raise ValueError(f"cannot draw {size} distinct symbols from universe {d}")
    words = rng.Stream(seed, "inst", tag).words(0, max(size, 1))
    return rng.choose_distinct(words, d, size)


def _overlapping_pair(seed: int, tag: str, d: int, n_common: int, n_x: int, n_y: int):
    """Two 0/1 sets with |X n Y| = n_common, |X\\Y| = n_x, |Y\\X| = n_y."""
    if min(n_common, n_x, n_y) < 0:
        raise ValueError("set sizes cannot be negative (is the overlap too large?)")
    ids = _draw_subset(seed, tag, d, n_common + n_x + n_y)
    common, only_x, only_y = (
        ids[:n_common],
        ids[n_common : n_common + n_x],
        ids[n_common + n_x :],
    )
    x = SymbolSet.from_ids(d, np.concatenate([common, only_x]).tolist())
    y = SymbolSet.from_ids(d, np.concatenate([common, only_y]).tolist())
    return x, y


def _params(cell: dict, cast, *names: str) -> list:
    """The named cell parameters passed through ``cast`` (int or float)."""
    out = []
    for name in names:
        if name not in cell:
            raise ValueError(f"task needs parameter {name!r}")
        out.append(cast(cell[name]))
    return out


# -- trial functions ------------------------------------------------------------


def _within(estimate, truth, tolerance) -> TrialOutcome:
    """An estimate that passes when it is within ``tolerance`` of the truth."""
    err = abs(estimate - truth)
    return TrialOutcome(estimate, truth, err <= tolerance, err)


def _trial_mapi_norm(cell: dict, seed: int) -> TrialOutcome:
    m, n, d = _params(cell, int, "m", "n", "d")
    (eps,) = _params(cell, float, "eps")
    cb = Codebook("dense-sign", m, d, seed=seed, scaled=True)
    v = SymbolSet.from_ids(d, _draw_subset(seed, "set", d, n).tolist())
    return _within(mapi.norm_sq_estimate(mapi.bundle(cb, v)), n, eps * n)


def _trial_mapi_pairs(cell: dict, seed: int) -> TrialOutcome:
    m, d, pairs, n_x, n_y, n_common = _params(cell, int, "m", "d", "M", "n_x", "n_y", "n")
    cb = Codebook("dense-sign", m, d, seed=seed, scaled=True)
    worst = 0.0
    all_exact = True
    for i in range(pairs):
        x, y = _overlapping_pair(seed, f"pair{i}", d, n_common, n_x - n_common, n_y - n_common)
        bx, by = mapi.bundle(cb, x), mapi.bundle(cb, y)
        truth = setalg.intersection_size(x, y)
        worst = max(worst, abs(mapi.dot_estimate(bx, by) - truth))
        all_exact &= mapi.intersection_estimate(bx, by) == truth
    return TrialOutcome(worst, 0.0, all_exact, worst)


def _trial_mapi_sequence(cell: dict, seed: int) -> TrialOutcome:
    m, n, d, L = _params(cell, int, "m", "n", "d", "L")
    (eps,) = _params(cell, float, "eps")
    cb = Codebook("dense-sign", m, d, seed=seed, scaled=True)
    sets = [
        SymbolSet.from_ids(d, _draw_subset(seed, f"set{ell}", d, n).tolist())
        for ell in range(L)
    ]
    seq = SequenceSpec(tuple(sets))
    truth = seq.total_l1()
    return _within(mapi.norm_sq_estimate(mapi.encode_sequence(cb, seq)), truth, eps * truth)


def _trial_mapi_sequence_symbols(cell: dict, seed: int) -> TrialOutcome:
    m, n, d, L, K = _params(cell, int, "m", "n", "d", "L", "K")
    (eps,) = _params(cell, float, "eps")
    if K > L:
        raise ValueError("overlap K cannot exceed sequence length L")
    cb = Codebook("dense-sign", m, d, seed=seed, scaled=True)
    symbols = _draw_subset(seed, "syms", d, n)
    members: list[list[int]] = [[] for _ in range(L)]
    for i, sym in enumerate(symbols):  # each symbol sits in K distinct positions
        for pos in _draw_subset(seed, f"pos{i}", L, K):
            members[pos].append(int(sym))
    seq = SequenceSpec(tuple(SymbolSet.from_ids(d, ids) for ids in members))
    truth = n * K
    return _within(mapi.norm_sq_estimate(mapi.encode_sequence(cb, seq)), truth, eps * truth)


def _random_edges(seed: int, d: int, count: int, arity: int) -> setalg.BindingBundleSpec:
    edges: set[frozenset[int]] = set()
    attempt = 0
    while len(edges) < count:
        edge = frozenset(_draw_subset(seed, f"edge{attempt}", d, arity).tolist())
        edges.add(edge)
        attempt += 1
        if attempt > 100 * count:
            raise ValueError("could not draw enough distinct edges")
    return setalg.BindingBundleSpec(d, frozenset(edges))


def _trial_mapi_binding(cell: dict, seed: int) -> TrialOutcome:
    m, d, edges = _params(cell, int, "m", "d", "E")
    arity = int(cell.get("arity", 2))
    (eps,) = _params(cell, float, "eps")
    cb = Codebook("dense-sign", m, d, seed=seed, scaled=True)
    spec = _random_edges(seed, d, edges, arity)
    return _within(mapi.norm_sq_estimate(mapi.encode_binding_bundle(cb, spec)), edges, eps * edges)


def _trial_mapb_member(cell: dict, seed: int) -> TrialOutcome:
    m, n, d = _params(cell, int, "m", "n", "d")
    (delta,) = _params(cell, float, "delta")
    cb = Codebook("dense-sign", m, d, seed=seed)
    stored = set(_draw_subset(seed, "set", d, n).tolist())
    b = mapb.bundle_sign(cb, SymbolSet.from_ids(d, stored), tie_seed=seed)
    wrong = sum(
        mapb.membership_test(b, j, delta).contained != (j in stored) for j in range(d)
    )
    return TrialOutcome(wrong, 0.0, wrong == 0, float(wrong))


def _trial_mapb_sequence_member(cell: dict, seed: int) -> TrialOutcome:
    m, n, d, L = _params(cell, int, "m", "n", "d", "L")
    (delta,) = _params(cell, float, "delta")
    cb = Codebook("dense-sign", m, d, seed=seed)
    slots = _draw_subset(seed, "slots", L * d, n)  # distinct (position, symbol)
    members: list[list[int]] = [[] for _ in range(L)]
    for j in slots:
        members[int(j) // d].append(int(j) % d)
    seq = SequenceSpec(tuple(SymbolSet.from_ids(d, ids) for ids in members))
    b = mapb.bundle_sequence_sign(cb, seq, tie_seed=seed)
    stored = set(int(j) for j in slots)
    absent = [int(j) for j in _draw_subset(seed, "absent", L * d, min(n + 8, L * d))
              if int(j) not in stored][:n]
    wrong = sum(not mapb.sequence_membership_test(b, j, delta).contained for j in stored)
    wrong += sum(mapb.sequence_membership_test(b, j, delta).contained for j in absent)
    return TrialOutcome(wrong, 0.0, wrong == 0, float(wrong))


def _trial_mapb_kv_member(cell: dict, seed: int) -> TrialOutcome:
    m, n, d = _params(cell, int, "m", "n", "d")
    (delta,) = _params(cell, float, "delta")
    half = d // 2
    if n > half:
        raise ValueError("need n <= d/2 keys")
    cb = Codebook("dense-sign", m, d, seed=seed)
    keys = _draw_subset(seed, "keys", half, n)
    vals = half + rng.bounded_from_words(rng.Stream(seed, "inst", "vals").words(0, n), d - half)
    pairs = tuple((int(q), int(w)) for q, w in zip(keys, vals))
    b = mapb.bundle_kv_sign(cb, mapb.KeyValueSpec(d, pairs), tie_seed=seed)
    stored = set(pairs)
    wrong = sum(not mapb.kv_membership_test(b, pair, delta).contained for pair in stored)
    shift = 1 + int(rng.Stream(seed, "inst", "shift").words(0, 1)[0] % np.uint64(d - half - 1))
    for q, w in pairs:  # same key, cyclically shifted (hence wrong) value
        other = half + (w - half + shift) % (d - half)
        if (q, other) not in stored:
            wrong += mapb.kv_membership_test(b, (q, other), delta).contained
    return TrialOutcome(wrong, 0.0, wrong == 0, float(wrong))


def _trial_mapb_empty_intersection(cell: dict, seed: int) -> TrialOutcome:
    m, d, nx, ny, overlap = _params(cell, int, "m", "d", "nx", "ny", "n")
    (delta,) = _params(cell, float, "delta")
    cb = Codebook("dense-sign", m, d, seed=seed)
    x, y = _overlapping_pair(seed, "sets", d, overlap, nx - overlap, ny - overlap)
    bx = mapb.bundle_sign(cb, x, tie_seed=seed)
    by = mapb.bundle_sign(cb, y, tie_seed=rng.mix64(seed))
    decided_nonempty = mapb.empty_intersection_test(bx, by, delta).contained
    correct = decided_nonempty == (overlap > 0)
    return TrialOutcome(float(decided_nonempty), float(overlap > 0), correct, float(not correct))


def _trial_mapb_depth(cell: dict, seed: int) -> TrialOutcome:
    m, r = _params(cell, int, "m", "L")  # chain depth rides in the L column
    cb = Codebook("dense-sign", m, max(r, 1), seed=seed)
    vectors = [Hypervector(cb.column_ints(j), "sign") for j in range(r)]
    chained = mapb.iterated_bundle(vectors, tie_seed=seed, codebook=cb)
    agree = float((chained.signs == vectors[0].values).mean())
    truth = float(mapb.chain_agreement_probability(r))
    return _within(agree, truth, 3.0 * math.sqrt(truth * (1.0 - truth) / m))


def _trial_bloom_size(cell: dict, seed: int) -> TrialOutcome:
    m, k, n, d = _params(cell, int, "m", "k", "n", "d")
    (eps,) = _params(cell, float, "eps")
    cb = Codebook("sparse-binary-trials", m, d, k=k, seed=seed)
    v = SymbolSet.from_ids(d, _draw_subset(seed, "set", d, n).tolist())
    return _within(bloom.size_estimate(bloom.bundle_bloom(cb, v)), n, eps)


def _trial_bloom_intersection(cell: dict, seed: int) -> TrialOutcome:
    m, k, d, n, n_v, n_w = _params(cell, int, "m", "k", "d", "n", "n_v", "n_w")
    (eps,) = _params(cell, float, "eps")
    cb = Codebook("sparse-binary-trials", m, d, k=k, seed=seed)
    x, y = _overlapping_pair(seed, "sets", d, n, n_v, n_w)
    est = bloom.intersection_estimate(bloom.bundle_bloom(cb, x), bloom.bundle_bloom(cb, y))
    return _within(est, setalg.intersection_size(x, y), eps)


def _mass_weights(total: int, peak: int) -> list[int]:
    """Split ``total`` into weights in [1, peak] (fewest parts, near-even)."""
    if total == 0:
        return []
    count = -(-total // peak)
    base, extra = divmod(total, count)
    return [base + 1] * extra + [base] * (count - extra)


def _cbloom_instance(cell: dict, seed: int):
    """Weighted sets with ||v-w||_inf <= K_b and the requested difference masses.

    The common (wedge) part carries identical weights in both sets, so the
    difference masses are exactly n_v and n_w.
    """
    d, n_v, n_w = _params(cell, int, "d", "n_v", "n_w")
    peak = int(cell.get("K_b", 1))
    common = int(cell.get("n", 0))
    parts = [_mass_weights(n_v, peak), _mass_weights(n_w, peak), _mass_weights(common, peak)]
    sizes = [len(p) for p in parts]
    ids = _draw_subset(seed, "support", d, sum(sizes))
    only_v, only_w, both = np.split(ids, np.cumsum(sizes)[:-1])
    shared = {int(s): w for s, w in zip(both, parts[2])}
    v = SymbolSet(d, {**{int(s): w for s, w in zip(only_v, parts[0])}, **shared})
    w = SymbolSet(d, {**{int(s): w for s, w in zip(only_w, parts[1])}, **shared})
    return v, w


def _trial_cbloom_intersection(cell: dict, seed: int) -> TrialOutcome:
    m, k = _params(cell, int, "m", "k")
    (eps,) = _params(cell, float, "eps")
    cb = Codebook("sparse-binary-exact", m, int(cell["d"]), k=k, seed=seed)
    v, w = _cbloom_instance(cell, seed)
    est = cbloom.generalized_intersection_estimate(
        cbloom.bundle_count(cb, v), cbloom.bundle_count(cb, w)
    )
    truth = setalg.wedgedot(v, w)
    overshoot = est - truth
    return TrialOutcome(est, truth, 0.0 <= overshoot < eps, abs(overshoot))


def _trial_cbloom_l1(cell: dict, seed: int) -> TrialOutcome:
    m, k = _params(cell, int, "m", "k")
    (eps,) = _params(cell, float, "eps")
    cb = Codebook("sparse-binary-exact", m, int(cell["d"]), k=k, seed=seed)
    v, w = _cbloom_instance(cell, seed)
    est = cbloom.l1_distance_estimate(
        cbloom.bundle_count(cb, v), cbloom.bundle_count(cb, w), v.l1(), w.l1()
    )
    truth = setalg.l1_distance(v, w)
    short = truth - est  # estimator never overestimates
    return TrialOutcome(est, truth, 0.0 <= short < 2.0 * eps, abs(short))


def _hopfield_patterns(cell: dict, seed: int):
    m, n = _params(cell, int, "m", "n")
    cb = Codebook("dense-sign", m, n, seed=seed)
    return [Hypervector(cb.column_ints(j), "sign") for j in range(n)]


def _trial_hopfield_store(cell: dict, seed: int) -> TrialOutcome:
    patterns = _hopfield_patterns(cell, seed)
    net = hopfield.train(patterns)
    stable = sum(hopfield.recall_step(net, p) == p for p in patterns)
    return TrialOutcome(stable, len(patterns), stable == len(patterns),
                        float(len(patterns) - stable))


def _trial_hopfield_recall(cell: dict, seed: int, kv: bool) -> TrialOutcome:
    patterns = _hopfield_patterns(cell, seed)
    half = patterns[0].m // 2
    if kv:
        probe = patterns[0].values.astype(np.int64).copy()
        probe[half:] = 0  # key half kept, value half erased
    else:
        erasures = int(cell.get("erasures", half))
        probe = hopfield.corrupt(patterns[0], erasures, int(cell.get("flips", 0)), seed)
    result = hopfield.recall(hopfield.train(patterns), probe)
    ok = result.converged and result.vector == patterns[0]
    return TrialOutcome(float(ok), 1.0, ok, float(not ok))


def _trial_hpm(cell: dict, seed: int, dot: bool) -> TrialOutcome:
    m, d, support = _params(cell, int, "m", "d", "n")
    (eps,) = _params(cell, float, "eps")
    cb = Codebook("dense-sign", m, d, seed=seed, scaled=True)
    x_ids = _draw_subset(seed, "suppX", d, support)
    bx = hopfield.hpm_encode(cb, {int(i): 1.0 for i in x_ids}, d_seed=seed)
    if not dot:
        return _within(hopfield.hpm_norm_estimate(bx), support, eps * support)
    y_ids = _draw_subset(seed, "suppY", d, support)
    by = hopfield.hpm_encode(cb, {int(i): 1.0 for i in y_ids}, d_seed=seed)
    truth = len(set(x_ids.tolist()) & set(y_ids.tolist()))
    # ||X||_F ||Y||_F = support
    return _within(hopfield.hpm_dot_estimate(bx, by), truth, eps * support)


TASKS: dict[tuple[str, str], Callable[[dict, int], TrialOutcome]] = {
    ("mapi", "norm"): _trial_mapi_norm,
    ("mapi", "pairs"): _trial_mapi_pairs,
    ("mapi", "sequence"): _trial_mapi_sequence,
    ("mapi", "sequence-symbols"): _trial_mapi_sequence_symbols,
    ("mapi", "binding2"): _trial_mapi_binding,
    ("mapi", "bindingK"): _trial_mapi_binding,
    ("mapb", "member"): _trial_mapb_member,
    ("mapb", "sequence-member"): _trial_mapb_sequence_member,
    ("mapb", "kv-member"): _trial_mapb_kv_member,
    ("mapb", "empty-intersection"): _trial_mapb_empty_intersection,
    ("mapb", "depth"): _trial_mapb_depth,
    ("bloom", "size"): _trial_bloom_size,
    ("bloom", "intersection"): _trial_bloom_intersection,
    ("cbloom", "intersection"): _trial_cbloom_intersection,
    ("cbloom", "l1"): _trial_cbloom_l1,
    ("hopfield", "store"): _trial_hopfield_store,
    ("hopfield", "recall"): lambda cell, seed: _trial_hopfield_recall(cell, seed, kv=False),
    ("hopfield", "kv-recall"): lambda cell, seed: _trial_hopfield_recall(cell, seed, kv=True),
    ("hopfield", "hpm-norm"): lambda cell, seed: _trial_hpm(cell, seed, dot=False),
    ("hopfield", "hpm-dot"): lambda cell, seed: _trial_hpm(cell, seed, dot=True),
}


def run_trial(arch: str, task: str, cell: dict, seed: int) -> TrialOutcome:
    """Run one seeded trial of a registered task."""
    try:
        fn = TASKS[(arch, task)]
    except KeyError:
        raise ValueError(f"unknown experiment task ({arch!r}, {task!r})") from None
    return fn(cell, seed)


def trial_records(config: ExperimentConfig, cell: dict) -> list[TrialRecord]:
    """Run every trial of one cell once, in index order: the one trial loop."""
    seeds = [trial_seed(config.seed, cell, t) for t in range(config.trials)]
    return [TrialRecord(cell, t, seed, run_trial(config.arch, config.task, cell, seed))
            for t, seed in enumerate(seeds)]


def oracle_check(arch: str, task: str, instance: dict):
    """Exact ground truth for small instances (see mapb.ENUMERATION_STATE_LIMIT)."""
    if arch == "setalg":
        a = SymbolSet.from_json_obj(instance["a"])
        b = SymbolSet.from_json_obj(instance["b"])
        fn = {
            "intersection": setalg.intersection_size,
            "wedgedot": setalg.wedgedot,
            "l1": setalg.l1_distance,
            "symdiff": setalg.symmetric_difference_size,
        }.get(task)
        if fn is None:
            raise ValueError(f"unknown setalg oracle {task!r}")
        return fn(a, b)
    if arch == "mapb" and task == "agreement":
        return mapb.agreement_probability(int(instance["n"]))
    if arch == "mapb" and task == "chain-agreement":
        return mapb.chain_agreement_probability(int(instance["r"]))
    raise ValueError(f"no exact oracle for ({arch!r}, {task!r})")


# -- aggregation and CSV --------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _run_cell(config: ExperimentConfig, cell: dict) -> dict:
    try:
        outcomes = [record.outcome for record in trial_records(config, cell)]
    except (ValueError, IndexError) as bad:
        return {"cell": cell, "failures": 0, "errs": [], "error": str(bad)}
    return {"cell": cell, "failures": sum(not o.passed for o in outcomes),
            "errs": [o.abs_err for o in outcomes], "error": ""}


def _row(config: ExperimentConfig, agg: dict) -> list[str]:
    cell, errs = agg["cell"], agg["errs"]
    return [
        _fmt(v)
        for v in (
            config.arch,
            config.task,
            cell.get("m"),
            cell.get("k"),
            cell.get("n"),
            cell.get("d"),
            cell.get("L"),
            cell.get("eps"),
            cell.get("delta"),
            config.trials,
            agg["failures"],
            agg["failures"] / config.trials if not agg["error"] else "",
            sum(errs) / len(errs) if errs else "",
            max(errs) if errs else "",
            config.seed,
            rng.RNG_VERSION,
            agg["error"],
        )
    ]


def run(config: ExperimentConfig, threads: int = 1) -> tuple[str, dict]:
    """Run every grid cell once, in cell order; returns (csv_text, sidecar_dict).

    ``threads`` must be >= 1 but changes nothing: trials run one after
    another in the calling thread, so every value gives the same bytes.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    cells = config.cells()
    results = [_run_cell(config, cell) for cell in cells]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS)
    for agg in results:
        writer.writerow(_row(config, agg))
    sidecar = {
        "csv_version": CSV_VERSION,
        "rng_version": rng.RNG_VERSION,
        "arch": config.arch,
        "task": config.task,
        "trials": config.trials,
        "seed": config.seed,
        "cells": cells,
    }
    return buf.getvalue(), sidecar
