"""Monte Carlo experiment engine: seeded trials against the exact oracle.

A grid of parameter cells is expanded from a config; every trial draws its
instance and codebook from a seed derived purely from (master seed, cell
parameters, trial index), so results are byte-identical for every run of
the same config and seed. Cells run once each, in order, through
:func:`trial_records`, which folds the master seed and cell once and
extends that fold by each trial index, then hands all of the cell's trial
seeds to one :func:`run_trials` call. Each registered task runs a cell's
seeds through its ``trials(cell, seeds)``: most tasks run one seed after
another (``_each``). MAP-I ``norm`` builds each seed's codebook on its
own, draws the sets of a chunk of seeds in one call (``_draw_subsets``;
no draw at all when n = d, since the set is then all of [d]) and builds
and measures the bundles of many seeds at once (see
``mapi.flat_norm_sq_estimates``). Hopfield± draws its supports the same
way and encodes every seed's matrices into the same two m x m buffers
(``hopfield.hpm_estimates``). Either way every outcome is the one a trial
alone gives. One aggregated CSV
row is emitted per cell in deterministic cell order; the full per-cell
parameter dicts and the config echo go to a JSON sidecar.

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
from functools import partial
from itertools import islice, product, repeat
from typing import Callable, Iterator

import numpy as np

from . import bloom, cbloom, hopfield, mapb, mapi, rng, setalg
from .codebook import Codebook
from .setalg import SequenceSpec, SymbolSet
from .sizing import SizingResult, check_rates

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
        object.__setattr__(self, "trials", setalg.integral(self.trials, "config 'trials'"))
        object.__setattr__(self, "seed", setalg.integral(self.seed, "config 'seed'"))
        if not (isinstance(self.arch, str) and isinstance(self.task, str)):
            raise ValueError(f"arch and task must be strings, got {self.arch!r}, {self.task!r}")
        if self.out is not None and not isinstance(self.out, str):
            raise ValueError(f"out must be a string or null, got {self.out!r}")
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
                trials=obj["trials"],
                seed=obj.get("seed", 0),
                out=obj.get("out"),
            )
        except KeyError as missing:
            raise ValueError(f"config is missing {missing}") from None

    def cells(self) -> list[dict]:
        keys = sorted(self.grid)
        return [dict(zip(keys, combo)) for combo in product(*(self.grid[k] for k in keys))]


def trial_seed(master: int, cell: dict, index: int) -> int:
    """Documented pure split: fold (master, canonical cell JSON, index).

    ``master`` and ``index`` must be integers (an integral float or a numpy
    integer counts as one).
    """
    prefix = _trial_prefix(master, json.dumps(cell, sort_keys=True))
    return rng.extend_id(prefix, setalg.integral(index, "trial index"))


def _trial_prefix(master: int, cell_json: str) -> int:
    """The fold of ("trial", master, cell JSON), which every trial seed of the cell extends."""
    master = setalg.integral(master, "master seed") & ((1 << 64) - 1)
    return rng.stream_id("trial", master, cell_json)


# -- instance sampling helpers -------------------------------------------------


def _draw_words(seed: int, tag: str, d: int, size: int) -> np.ndarray:
    """The raw words a draw of ``size`` distinct symbols from [d] reads."""
    if not 0 <= size <= d:
        raise ValueError(f"cannot draw {size} distinct symbols from universe {d}")
    return rng.Stream(seed, "inst", tag).words(0, max(size, 1))


def _draw_subset(seed: int, tag: str, d: int, size: int) -> np.ndarray:
    """``size`` distinct symbols of [d], in draw order, from the seed's ``tag`` stream."""
    return rng.choose_distinct(_draw_words(seed, tag, d, size), d, size)


#: Most bytes of raw words (seeds x words per draw x 8) that ``_draw_subsets``
#: stacks for one ``rng.choose_distinct_rows`` call.
_DRAW_BYTES = 2**17


def _draw_subsets(seeds, tag: str, d: int, size: int) -> Iterator[np.ndarray]:
    """``_draw_subset(seed, tag, d, size)`` of each seed, in order, bit for bit.

    The draws are taken lazily, a chunk of seeds at a time: the chunk's words
    (at most ``_DRAW_BYTES`` bytes, or one seed's) go through one
    ``choose_distinct_rows`` call, in which the rows whose swap positions
    never repeat skip the swap loop. A bad ``size`` raises at the first draw.
    """
    nwords = max(size, 1)
    per_chunk = max(1, _DRAW_BYTES // (8 * nwords))
    seeds = iter(seeds)
    while chunk := [_draw_words(seed, tag, d, size) for seed in islice(seeds, per_chunk)]:
        yield from rng.choose_distinct_rows(np.concatenate(chunk).reshape(-1, nwords), d, size)


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


def _params(cell: dict, cast, *names: str, **defaults) -> list:
    """The named cell parameters passed through ``cast`` (int or float), in order.

    Each keyword names an optional parameter and its default; it is read
    after the required ``names``. Every ``eps`` and ``delta`` must pass
    ``check_rates``, so an impossible rate makes an error row.
    """
    out = []
    for name in (*names, *defaults):
        if name not in cell and name not in defaults:
            raise ValueError(f"task needs parameter {name!r}")
        value = cell.get(name, defaults.get(name))
        try:
            if isinstance(value, (bool, str)):  # int() and float() would take them
                raise TypeError(value)
            number = cast(value)
        except (TypeError, OverflowError):
            raise ValueError(f"parameter {name!r} must be a number, got {value!r}") from None
        except ValueError:  # int(nan)
            number = math.nan
        if cast is int and number != value:
            raise ValueError(f"parameter {name!r} must be an integer, got {value!r}")
        if name in ("eps", "delta"):
            check_rates(**{name: number})
        out.append(number)
    return out


# -- trial functions ------------------------------------------------------------


def _within(estimate, truth, tolerance) -> TrialOutcome:
    """An estimate that passes when it is within ``tolerance`` of the truth."""
    err = abs(estimate - truth)
    return TrialOutcome(estimate, truth, err <= tolerance, err)


def _trials_mapi_norm(cell: dict, seeds: list[int]) -> list[TrialOutcome]:
    """The norm trials of a cell: per seed, only its codebook and the gather of words.

    The seeds' n-sets come from ``_draw_subsets``, a chunk of seeds per
    draw, and ``mapi.flat_norm_sq_estimates`` bundles and measures them a
    stack at a time; both take the seeds lazily. When n = d the set is all
    of [d] whatever the words say, and a bundle is an integer sum over its
    columns, so no set is drawn and every seed gathers ``range(d)``.
    """
    m, n, d = _params(cell, int, "m", "n", "d")
    (eps,) = _params(cell, float, "eps")
    codebooks = (Codebook("dense-sign", m, d, seed=seed, scaled=True) for seed in seeds)
    sets = repeat(np.arange(d)) if n == d else _draw_subsets(seeds, "set", d, n)
    # map builds each seed's codebook before it draws the seed's set, so a bad
    # m or d raises before a bad n, as in a trial alone.
    words = map(Codebook.sign_words, codebooks, sets)
    return [_within(est, n, eps * n) for est in mapi.flat_norm_sq_estimates(m, words)]


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
    m, d, edges, arity = _params(cell, int, "m", "d", "E", arity=2)
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
    contained = mapb.membership_scores(b, np.arange(d)) >= mapb.member_threshold(m, d, delta)
    truth = np.zeros(d, dtype=bool)
    truth[list(stored)] = True
    wrong = int(np.count_nonzero(contained != truth))
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
    wrong = 0
    for ell in range(L):  # one roll of the bundle per queried position
        here = [j % d for j in stored if j // d == ell]
        gone = [j % d for j in absent if j // d == ell]
        if not (here or gone):
            continue
        tau = mapb.sequence_member_threshold(m, L, d, delta)
        scores = mapb.sequence_membership_scores(b, ell, here + gone)
        wrong += int(np.count_nonzero(scores[: len(here)] < tau))
        wrong += int(np.count_nonzero(scores[len(here):] >= tau))
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
    # A shift in [1, d - half - 1]; at d = 2 and d = 3 it is 1.
    spread = np.uint64(max(d - half - 1, 1))
    shift = 1 + int(rng.Stream(seed, "inst", "shift").words(0, 1)[0] % spread)
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
    chained = mapb.iterated_bundle(cb, range(r), tie_seed=seed)
    # <x, S_0> = m - 2 * (disagreements), so the agreeing coordinates count (m + score) / 2
    agree = (m + int(mapb.membership_scores(chained, [0])[0])) // 2 / m
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
    d, n_v, n_w, peak, common = _params(cell, int, "d", "n_v", "n_w", K_b=1, n=0)
    wv, ww, wb = _mass_weights(n_v, peak), _mass_weights(n_w, peak), _mass_weights(common, peak)
    a, b = len(wv), len(wv) + len(ww)
    ids = _draw_subset(seed, "support", d, b + len(wb)).tolist()
    shared = dict(zip(ids[b:], wb))
    v = SymbolSet(d, {**dict(zip(ids[:a], wv)), **shared})
    w = SymbolSet(d, {**dict(zip(ids[a:b], ww)), **shared})
    return v, w


def _trial_cbloom(cell: dict, seed: int, l1: bool) -> TrialOutcome:
    m, k = _params(cell, int, "m", "k")
    (eps,) = _params(cell, float, "eps")
    (d,) = _params(cell, int, "d")
    cb = Codebook("sparse-binary-exact", m, d, k=k, seed=seed)
    v, w = _cbloom_instance(cell, seed)
    bv, bw = cbloom.bundle_count(cb, v), cbloom.bundle_count(cb, w)
    if not l1:
        est = cbloom.generalized_intersection_estimate(bv, bw)
        truth = setalg.wedgedot(v, w)
        overshoot = est - truth  # estimator never underestimates
        return TrialOutcome(est, truth, 0.0 <= overshoot < eps, abs(overshoot))
    est = cbloom.l1_distance_estimate(bv, bw, v.l1(), w.l1())
    truth = setalg.l1_distance(v, w)
    short = truth - est  # estimator never overestimates
    return TrialOutcome(est, truth, 0.0 <= short < 2.0 * eps, abs(short))


def _hopfield_net(cell: dict, seed: int) -> hopfield.HopfieldNet:
    """The net trained on codebook columns 0..n-1, drawn as one (m, n) window."""
    m, n = _params(cell, int, "m", "n")
    patterns = Codebook("dense-sign", m, n, seed=seed).sign_matrix(0, n)
    return hopfield.HopfieldNet(patterns)


def _trial_hopfield_store(cell: dict, seed: int) -> TrialOutcome:
    net = _hopfield_net(cell, seed)
    s = net.patterns  # every pattern probed at once: one block apply
    stable = int((hopfield.signge(net.apply(s)) == s).all(axis=0).sum())
    return TrialOutcome(stable, net.n, stable == net.n, float(net.n - stable))


def _trial_hopfield_recall(cell: dict, seed: int, kv: bool) -> TrialOutcome:
    net = _hopfield_net(cell, seed)
    first = net.patterns[:, 0]
    half = net.m // 2
    if kv:
        probe = net.patterns[:, 0].astype(np.int64)
        probe[half:] = 0  # key half kept, value half erased
    else:
        erasures, flips = _params(cell, int, erasures=half, flips=0)
        probe = hopfield.corrupt(first, erasures, flips, seed)
    result = hopfield.recall(net, probe)
    ok = result.converged and np.array_equal(result.vector, first)
    return TrialOutcome(float(ok), 1.0, ok, float(not ok))


def _trials_hpm(cell: dict, seeds: list[int], dot: bool) -> list[TrialOutcome]:
    """The Hopfield± trials of a cell: every seed's draws, then one ``hpm_estimates`` call.

    Every seed's codebook is built, then its 0/1 supports (X, and Y for the
    dot task) are drawn with ``_draw_subsets``, so a bad cell fails here,
    with the error a trial alone gives, before any m x m buffer exists.
    """
    m, d, support = _params(cell, int, "m", "d", "n")
    (eps,) = _params(cell, float, "eps")
    codebooks = [Codebook("dense-sign", m, d, seed=seed, scaled=True) for seed in seeds]

    def supports(tag: str) -> list[dict]:
        return [dict.fromkeys(ids.tolist(), 1.0) for ids in _draw_subsets(seeds, tag, d, support)]

    xs = supports("suppX")
    ys = supports("suppY") if dot else [None] * len(seeds)
    instances = list(zip(codebooks, xs, ys, seeds))
    estimates = hopfield.hpm_estimates(instances)
    if not dot:
        return [_within(est, support, eps * support) for est in estimates]
    # ||X||_F ||Y||_F = support
    return [_within(est, len(x.keys() & y.keys()), eps * support)
            for est, (_, x, y, _) in zip(estimates, instances)]


@dataclass(frozen=True)
class Task:
    """A registered (arch, task): its seeded trials and, if sizable, its sizing function.

    ``trials(cell, seeds)`` runs one trial per seed of one cell and returns
    their outcomes in seed order.
    """

    trials: Callable[[dict, list[int]], list[TrialOutcome]]
    size: Callable[..., SizingResult] | None = None


def _each(trial: Callable[[dict, int], TrialOutcome]):
    """A one-seed trial as a task's ``trials``: the seeds run one after another."""
    return lambda cell, seeds: [trial(cell, seed) for seed in seeds]


#: The one registry of (arch, task). A sizable entry carries its sizing
#: function already bound to its task; ``sizing.size`` and ``calibrate``
#: dispatch through it, and its keys are exactly those of ``sizing.CONSTANTS``.
TASKS: dict[tuple[str, str], Task] = {
    ("mapi", "norm"): Task(_trials_mapi_norm, partial(mapi.sizing_mapi, "norm")),
    ("mapi", "pairs"): Task(_each(_trial_mapi_pairs), partial(mapi.sizing_mapi, "pairs")),
    ("mapi", "sequence"): Task(_each(_trial_mapi_sequence),
                               partial(mapi.sizing_mapi, "sequence")),
    ("mapi", "sequence-symbols"): Task(_each(_trial_mapi_sequence_symbols),
                                       partial(mapi.sizing_mapi, "sequence-symbols")),
    ("mapi", "binding2"): Task(_each(_trial_mapi_binding),
                               partial(mapi.sizing_mapi, "binding2")),
    ("mapi", "bindingK"): Task(_each(_trial_mapi_binding),
                               partial(mapi.sizing_mapi, "bindingK")),
    ("mapb", "member"): Task(_each(_trial_mapb_member), partial(mapb.sizing_mapb, "member")),
    ("mapb", "sequence-member"): Task(_each(_trial_mapb_sequence_member),
                                      partial(mapb.sizing_mapb, "sequence-member")),
    ("mapb", "kv-member"): Task(_each(_trial_mapb_kv_member),
                                partial(mapb.sizing_mapb, "kv-member")),
    ("mapb", "empty-intersection"): Task(_each(_trial_mapb_empty_intersection),
                                         partial(mapb.sizing_mapb, "empty-intersection")),
    ("mapb", "depth"): Task(_each(_trial_mapb_depth)),
    ("bloom", "size"): Task(_each(_trial_bloom_size)),
    ("bloom", "intersection"): Task(_each(_trial_bloom_intersection), bloom.sizing_bloom),
    ("cbloom", "intersection"): Task(_each(partial(_trial_cbloom, l1=False)),
                                     cbloom.sizing_cbloom),
    ("cbloom", "l1"): Task(_each(partial(_trial_cbloom, l1=True))),
    ("hopfield", "store"): Task(_each(_trial_hopfield_store), hopfield.sizing_hopfield),
    ("hopfield", "recall"): Task(_each(partial(_trial_hopfield_recall, kv=False))),
    ("hopfield", "kv-recall"): Task(_each(partial(_trial_hopfield_recall, kv=True))),
    ("hopfield", "hpm-norm"): Task(partial(_trials_hpm, dot=False),
                                   partial(hopfield.sizing_hpm, "hpm-norm")),
    ("hopfield", "hpm-dot"): Task(partial(_trials_hpm, dot=True),
                                  partial(hopfield.sizing_hpm, "hpm-dot")),
}


def run_trials(arch: str, task: str, cell: dict, seeds) -> list[TrialOutcome]:
    """Run one seeded trial of a registered task per seed, all in one call."""
    try:
        trials = TASKS[(arch, task)].trials
    except KeyError:
        raise ValueError(f"unknown experiment task ({arch!r}, {task!r})") from None
    return trials(cell, list(seeds))


def trial_records(config: ExperimentConfig, cell: dict) -> list[TrialRecord]:
    """Run every trial of one cell once, in index order, in one ``run_trials`` call."""
    prefix = _trial_prefix(config.seed, json.dumps(cell, sort_keys=True))  # once per cell
    seeds = [rng.extend_id(prefix, t) for t in range(config.trials)]
    outcomes = run_trials(config.arch, config.task, cell, seeds)
    return [TrialRecord(cell, t, seed, outcome)
            for t, (seed, outcome) in enumerate(zip(seeds, outcomes, strict=True))]


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
