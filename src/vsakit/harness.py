"""Monte Carlo experiment engine: seeded trials against the exact oracle.

A grid of parameter cells is expanded from a config; every trial draws its
instance and codebook from a seed derived purely from (master seed, cell
parameters, trial index), so results are byte-identical for every run of the
same config and seed. :data:`TASKS` maps each registered (arch, task) to its
trials; the bounds that size them live in :mod:`sizing`. Cells run once
each, in order: for each one, :func:`trial_records` folds the master seed
and cell once, extends that fold by each trial index and hands all of the
cell's seeds to one :func:`run_trials` call. Most tasks run one seed after
another (``_each``); MAP-I ``norm``, MAP-B ``empty-intersection``,
Counting Bloom and Hopfield± draw a cell's seeds together, and every
outcome is still the one a trial alone gives. These four check one
codebook per cell, a template. Hopfield± gives each seed a copy that
differs only in its seed (``Codebook.with_seed``). The other three run a
slice of seeds at a time: ``_draw_subsets`` draws the slice's sets as one
array, the template gathers every seed's columns in one call
(``Codebook.sign_words_across``, ``Codebook.exact_indices_across``), and
one kernel call measures them (``mapi.flat_norm_sq_estimates``,
``mapb.bundle_sign_across``, ``cbloom.min_sums``). One rule sizes every
slice (``_chunks``): a seed holds its draw's words, the most window words
its gather can draw and the bytes its kernel holds, and a slice holds at
most ``_CHUNK_BYTES`` of them. Slicing never changes a result.
One aggregated CSV row is written per cell as the cell finishes; the full
per-cell parameter dicts and the config echo go to a JSON sidecar.

A trial reads each cell parameter by its name: the rates ``eps`` and
``delta`` are floats that must pass ``sizing.check_rates``, and every
other parameter is an integer. A cell that breaks this rule, or that no
instance fits, gives an error row.

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
from itertools import product
from typing import Callable, Iterator

import numpy as np

from . import bloom, cbloom, hopfield, mapb, mapi, rng, setalg
from .codebook import Codebook
from .setalg import SequenceSpec, SymbolSet
from .sizing import check_rates

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
        # A numpy value is the Python value of its ``tolist()``: np.int64(64) and
        # np.array(64) run as 64, np.bool_ is refused as a bool is, and
        # np.array([64]) as the list [64] is.
        object.__setattr__(self, "grid", {
            name: [v.tolist() if isinstance(v, (np.generic, np.ndarray)) else v for v in values]
            for name, values in self.grid.items()})
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


def _draw_subsets(seeds: list, tag: str, d: int, size: int) -> np.ndarray:
    """``size`` distinct symbols of [d] per seed, in draw order, from its ``tag`` stream.

    Row s of the (len(seeds), size) int64 array is the draw of ``seeds[s]``.
    The size is checked before any draw, the tag's stream id is folded once,
    and every seed's words go through one ``rng.choose_distinct_rows`` call.
    """
    if not 0 <= size <= d:
        raise ValueError(f"cannot draw {size} distinct symbols from universe {d}")
    sid, nwords = rng.stream_id("inst", tag), max(size, 1)
    words = np.array([rng.keyed_words(seed, sid, 0, nwords) for seed in seeds], np.uint64)
    return rng.choose_distinct_rows(words.reshape(-1, nwords), d, size)


def _draw_subset(seed: int, tag: str, d: int, size: int) -> np.ndarray:
    """``size`` distinct symbols of [d], in draw order, from the seed's ``tag`` stream."""
    return _draw_subsets([seed], tag, d, size)[0]


#: Most bytes that a batched task holds for one slice of a cell's seeds: the
#: one budget behind every batch (``_chunks``).
_CHUNK_BYTES = 2**19


def _chunks(seeds: list, template: Codebook, size: int, kernel_bytes: int) -> Iterator[list]:
    """``seeds`` in order, in slices of at most ``_CHUNK_BYTES``, at least one seed each.

    A seed holds the words of its draw of ``size`` ids, the most window
    words that its gather of them from ``template`` can draw, and the
    ``kernel_bytes`` that the task's kernel holds for it.
    """
    per_seed = 8 * (max(size, 1) + template.window_words(size)) + kernel_bytes
    step = max(1, _CHUNK_BYTES // max(1, per_seed))
    return (seeds[i:i + step] for i in range(0, len(seeds), step))


def _pair_split(n_common: int, n_x: int, n_y: int) -> tuple[int, slice, list[int]]:
    """A pair of sets with these part sizes: its draw's size, X's ids and Y's ids in the draw.

    The draw's first n_common ids are in both sets, the next n_x in X alone
    and the last n_y in Y alone. A negative part is refused.
    """
    if min(n_common, n_x, n_y) < 0:
        raise ValueError("set sizes cannot be negative (is the overlap too large?)")
    size = n_common + n_x + n_y
    return size, slice(n_common + n_x), [*range(n_common), *range(n_common + n_x, size)]


def _overlapping_pair(seed: int, tag: str, d: int, n_common: int, n_x: int, n_y: int):
    """Two 0/1 sets with |X n Y| = n_common, |X\\Y| = n_x, |Y\\X| = n_y."""
    size, in_x, in_y = _pair_split(n_common, n_x, n_y)
    ids = _draw_subset(seed, tag, d, size)
    return SymbolSet.from_ids(d, ids[in_x].tolist()), SymbolSet.from_ids(d, ids[in_y].tolist())


def _params(cell: dict, *names: str, **defaults) -> list:
    """The named cell parameters, in order, each typed by its name.

    ``eps`` and ``delta`` are rates: floats that must pass ``check_rates``,
    so an impossible rate makes an error row. Every other parameter is an
    integer. Each keyword names an optional parameter and its default; it
    is read after the required ``names``.
    """
    out = []
    for name in (*names, *defaults):
        if name not in cell and name not in defaults:
            raise ValueError(f"task needs parameter {name!r}")
        value = cell.get(name, defaults.get(name))
        rate = name in ("eps", "delta")
        try:
            if isinstance(value, (bool, str)):  # int() and float() would take them
                raise TypeError(value)
            number = float(value) if rate else int(value)
        except (TypeError, OverflowError):
            raise ValueError(f"parameter {name!r} must be a number, got {value!r}") from None
        except ValueError:  # int(nan)
            number = math.nan
        if rate:
            check_rates(**{name: number})
        elif number != value:
            raise ValueError(f"parameter {name!r} must be an integer, got {value!r}")
        out.append(number)
    return out


# -- trial functions ------------------------------------------------------------


def _within(estimate, truth, tolerance) -> TrialOutcome:
    """An estimate that passes when it is within ``tolerance`` of the truth."""
    err = abs(estimate - truth)
    return TrialOutcome(estimate, truth, err <= tolerance, err)


def _trials_mapi_norm(cell: dict, seeds: list[int]) -> list[TrialOutcome]:
    """The norm trials of a cell: one codebook, and one kernel call a slice of seeds.

    The codebook is checked once, before any draw, so a bad m or d raises
    before a bad n, as in a trial alone. The kernel holds a seed's n*m
    unpacked bits. When n = d the set is all of [d] whatever the words say,
    and a bundle is an integer sum over its columns, so no set is drawn and
    every seed gathers ``range(d)``.
    """
    m, n, d, eps = _params(cell, "m", "n", "d", "eps")
    template = Codebook("dense-sign", m, d, scaled=True)
    estimates: list[float] = []
    for chunk in _chunks(seeds, template, n, n * m):
        if n == d:
            ids = np.broadcast_to(np.arange(d), (len(chunk), d))
        else:
            ids = _draw_subsets(chunk, "set", d, n)
        estimates += mapi.flat_norm_sq_estimates(m, template.sign_words_across(chunk, ids))
    return [_within(est, n, eps * n) for est in estimates]


def _trial_mapi_pairs(cell: dict, seed: int) -> TrialOutcome:
    m, d, pairs, n_x, n_y, n_common = _params(cell, "m", "d", "M", "n_x", "n_y", "n")
    cb = Codebook("dense-sign", m, d, seed=seed, scaled=True)
    if pairs < 0:
        raise ValueError(f"pair count M cannot be negative, got {pairs}")
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
    m, n, d, L, eps = _params(cell, "m", "n", "d", "L", "eps")
    cb = Codebook("dense-sign", m, d, seed=seed, scaled=True)
    sets = [
        SymbolSet.from_ids(d, _draw_subset(seed, f"set{ell}", d, n).tolist())
        for ell in range(L)
    ]
    seq = SequenceSpec(tuple(sets))
    truth = seq.total_l1()
    return _within(mapi.norm_sq_estimate(mapi.encode_sequence(cb, seq)), truth, eps * truth)


def _trial_mapi_sequence_symbols(cell: dict, seed: int) -> TrialOutcome:
    m, n, d, L, K, eps = _params(cell, "m", "n", "d", "L", "K", "eps")
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


def _trial_mapi_binding(cell: dict, seed: int, pairs: bool) -> TrialOutcome:
    m, d, edges, arity = _params(cell, "m", "d", "E", arity=2)
    if pairs and arity != 2:
        raise ValueError(f"binding2 binds pairs, got arity {arity}; bindingK takes any arity")
    if not pairs and "k" in cell:  # the sizing input k names the arity too
        (k,) = _params(cell, "k")
        if "arity" in cell and k != arity:
            raise ValueError(f"bindingK got arity {arity} and k {k}; give one, or equal values")
        arity = k
    (eps,) = _params(cell, "eps")  # after arity: a cell bad in both reports arity
    cb = Codebook("dense-sign", m, d, seed=seed, scaled=True)
    spec = _random_edges(seed, d, edges, arity)
    return _within(mapi.norm_sq_estimate(mapi.encode_binding_bundle(cb, spec)), edges, eps * edges)


def _decisions(scores: np.ndarray, truth: np.ndarray, tau: float) -> TrialOutcome:
    """A decision trial: it counts the queries whose ``scores >= tau`` is not their ``truth``."""
    wrong = int(np.count_nonzero((scores >= tau) != truth))
    return TrialOutcome(wrong, 0.0, wrong == 0, float(wrong))


def _trial_mapb_member(cell: dict, seed: int) -> TrialOutcome:
    m, n, d, delta = _params(cell, "m", "n", "d", "delta")
    cb = Codebook("dense-sign", m, d, seed=seed)
    stored = _draw_subset(seed, "set", d, n)
    cols = cb.sign_words(np.arange(d))
    x = mapb.bundle_sign_across(m, [cb.seed], cols[stored][None], [cb.seed])[0]
    truth = np.bincount(stored, minlength=d) > 0
    return _decisions(mapb._scores(x, cols, m), truth, mapb.member_threshold(m, d, delta))


def _trial_mapb_sequence_member(cell: dict, seed: int) -> TrialOutcome:
    m, n, d, L, delta = _params(cell, "m", "n", "d", "L", "delta")
    cb = Codebook("dense-sign", m, d, seed=seed)
    slots = _draw_subset(seed, "slots", L * d, n)  # distinct (position, symbol)
    members: list[list[int]] = [[] for _ in range(L)]
    for j in slots:
        members[int(j) // d].append(int(j) % d)
    seq = SequenceSpec(tuple(SymbolSet.from_ids(d, ids) for ids in members))
    b = mapb.bundle_sequence_sign(cb, seq, tie_seed=seed)
    stored = set(slots.tolist())
    drawn = _draw_subset(seed, "absent", L * d, min(n + 8, L * d)).tolist()
    queries = np.array(slots.tolist() + [j for j in drawn if j not in stored][:n], np.int64)
    scores = np.empty(len(queries), dtype=np.int64)
    for ell in np.unique(queries // d).tolist():  # one roll of the bundle per queried position
        at = queries // d == ell
        scores[at] = mapb.sequence_membership_scores(b, ell, queries[at] % d)
    tau = mapb.sequence_member_threshold(m, L, d, delta)
    return _decisions(scores, np.arange(len(queries)) < n, tau)


def _trial_mapb_kv_member(cell: dict, seed: int) -> TrialOutcome:
    m, n, d, delta = _params(cell, "m", "n", "d", "delta")
    half = d // 2
    if n > half:
        raise ValueError("need n <= d/2 keys")
    cb = Codebook("dense-sign", m, d, seed=seed)
    keys = _draw_subset(seed, "keys", half, n)
    vals = half + rng.bounded_from_words(rng.Stream(seed, "inst", "vals").words(0, n), d - half)
    pairs = [(int(q), int(w)) for q, w in zip(keys, vals)]
    b = mapb.bundle_kv_sign(cb, mapb.KeyValueSpec(d, pairs), tie_seed=seed)
    # A shift in [1, d - half - 1]; at d = 2 and d = 3 it is 1.
    shift = 1 + int(rng.Stream(seed, "inst", "shift").words(0, 1)[0] % max(d - half - 1, 1))
    # The stored pairs, then each key with its shifted value unless that is stored (at d = 2)
    shifted = [(q, half + (w - half + shift) % (d - half)) for q, w in pairs]
    queries = pairs + [pair for pair, own in zip(shifted, pairs) if pair != own]
    return _decisions(mapb.kv_membership_scores(b, queries), np.arange(len(queries)) < n,
                      mapb.kv_member_threshold(m, d, delta))


def _trials_mapb_empty_intersection(cell: dict, seeds: list[int]) -> list[TrialOutcome]:
    """The empty-intersection trials of a cell: one codebook, and one pass a slice of seeds.

    A trial draws its pair of sets as ``_overlapping_pair`` does, bundles X
    with tie seed ``seed`` and Y with ``rng.mix64(seed)``, and decides that
    they intersect when ``<x, y> = m - 2 * popcount(x ^ y)`` reaches
    ``mapb.empty_intersection_threshold``. The cell's codebook and part
    sizes are checked before any draw, in a trial's order. Per slice of
    seeds, ``mapb.bundle_sign_across`` bundles the X and the Y stacks, and
    one popcount scores every pair; the kernel holds a seed's size*m
    unpacked bits and two int64 sum rows.
    """
    m, d, nx, ny, overlap, delta = _params(cell, "m", "d", "nx", "ny", "n", "delta")
    template = Codebook("dense-sign", m, d)
    size, in_x, in_y = _pair_split(overlap, nx - overlap, ny - overlap)
    tau, truth = mapb.empty_intersection_threshold(m, delta), overlap > 0
    outcomes = []
    for chunk in _chunks(seeds, template, size, size * m + 16 * m):
        words = template.sign_words_across(chunk, _draw_subsets(chunk, "sets", d, size))
        x = mapb.bundle_sign_across(m, chunk, words[:, in_x], chunk)
        y = mapb.bundle_sign_across(m, chunk, words[:, in_y], [rng.mix64(s) for s in chunk])
        for score in mapb._scores(x, y, m).tolist():
            decided = score >= tau  # True: the sets intersect
            outcomes.append(TrialOutcome(float(decided), float(truth), decided == truth,
                                         float(decided != truth)))
    return outcomes


def _trial_mapb_depth(cell: dict, seed: int) -> TrialOutcome:
    m, r = _params(cell, "m", "L")  # chain depth rides in the L column
    cb = Codebook("dense-sign", m, max(r, 1), seed=seed)
    chained = mapb.iterated_bundle(cb, range(r), tie_seed=seed)
    # <x, S_0> = m - 2 * (disagreements), so the agreeing coordinates count (m + score) / 2
    agree = (m + int(mapb.membership_scores(chained, [0])[0])) // 2 / m
    truth = float(mapb.chain_agreement_probability(r))
    return _within(agree, truth, 3.0 * math.sqrt(truth * (1.0 - truth) / m))


def _trial_bloom_size(cell: dict, seed: int) -> TrialOutcome:
    m, k, n, d, eps = _params(cell, "m", "k", "n", "d", "eps")
    cb = Codebook("sparse-binary-trials", m, d, k=k, seed=seed)
    v = SymbolSet.from_ids(d, _draw_subset(seed, "set", d, n).tolist())
    return _within(bloom.size_estimate(bloom.bundle_bloom(cb, v)), n, eps)


def _trial_bloom_intersection(cell: dict, seed: int) -> TrialOutcome:
    m, k, d, n, n_v, n_w, eps = _params(cell, "m", "k", "d", "n", "n_v", "n_w", "eps")
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


def _trials_cbloom(cell: dict, seeds: list[int], l1: bool) -> list[TrialOutcome]:
    """The Counting Bloom trials of a cell: one codebook, and one kernel call a slice of seeds.

    Each trial's weighted sets have ||v-w||_inf <= K_b and the requested
    difference masses: the common (wedge) part carries identical weights in
    both sets, so the difference masses are exactly n_v and n_w. The cell's
    codebook is built and the masses checked before any support is drawn,
    so a bad cell fails with the error a trial alone gives. Per slice of
    seeds, ``cbloom.min_sums`` gives each seed's min-sum of its two
    bundles' counts without building them; it holds one key per (column,
    row) pair of v and of w. Each trial keeps its v and w, its exact truth
    and the estimators' float expressions.
    """
    m, k, eps, d = _params(cell, "m", "k", "eps", "d")
    template = Codebook("sparse-binary-exact", m, d, k=k)
    d, n_v, n_w, peak, common = _params(cell, "d", "n_v", "n_w", K_b=1, n=0)
    if peak < 1:
        raise ValueError(f"K_b must be >= 1, got {peak}")
    if min(n_v, n_w, common) < 0:
        raise ValueError(f"masses n_v, n_w and n cannot be negative, got {n_v}, {n_w}, {common}")
    wv, ww, wb = _mass_weights(n_v, peak), _mass_weights(n_w, peak), _mass_weights(common, peak)
    a, b = len(wv), len(wv) + len(ww)
    size = b + len(wb)
    # Column j of a support is v's, w's or both sets': its weight in each, 0 where absent.
    in_v, in_w = wv + [0] * len(ww) + wb, [0] * a + ww + wb
    outcomes = []
    for chunk in _chunks(seeds, template, size, 8 * k * (size + len(wb))):
        ids = _draw_subsets(chunk, "support", d, size)
        sets = []
        for row in ids.tolist():
            shared = dict(zip(row[b:], wb))
            sets.append((SymbolSet(d, {**dict(zip(row[:a], wv)), **shared}),
                         SymbolSet(d, {**dict(zip(row[a:b], ww)), **shared})))
        totals = cbloom.min_sums(m, template.exact_indices_across(chunk, ids), in_v, in_w)
        for (v, w), total in zip(sets, totals):
            if l1:
                est = v.l1() + w.l1() - 2.0 * (total / k)
                truth = setalg.l1_distance(v, w)
                short = truth - est  # estimator never overestimates
                outcomes.append(TrialOutcome(est, truth, 0.0 <= short < 2.0 * eps, abs(short)))
            else:
                est = total / k
                truth = setalg.wedgedot(v, w)
                overshoot = est - truth  # estimator never underestimates
                outcomes.append(TrialOutcome(est, truth, 0.0 <= overshoot < eps, abs(overshoot)))
    return outcomes


def _hopfield_net(cell: dict, seed: int) -> hopfield.HopfieldNet:
    """The net trained on codebook columns 0..n-1, gathered as one (m, n) window."""
    m, n = _params(cell, "m", "n")
    patterns = Codebook("dense-sign", m, n, seed=seed).sign_columns(np.arange(n))
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
        erasures, flips = _params(cell, erasures=half, flips=0)
        probe = hopfield.corrupt(first, erasures, flips, seed)
    result = hopfield.recall(net, probe)
    ok = result.converged and np.array_equal(result.vector, first)
    return TrialOutcome(float(ok), 1.0, ok, float(not ok))


def _trials_hpm(cell: dict, seeds: list[int], dot: bool) -> list[TrialOutcome]:
    """The Hopfield± trials of a cell: every seed's draws, then one ``hpm_estimates`` call.

    The cell's codebook is built, then every seed's 0/1 supports (X, and Y
    for the dot task) are drawn, so a bad cell fails here, with the error a
    trial alone gives, before any m x m buffer exists. A cell with no seeds
    draws nothing. Each seed's codebook is a copy of it under that seed.
    """
    m, d, support, eps = _params(cell, "m", "d", "n", "eps")
    codebooks = map(Codebook("dense-sign", m, d, scaled=True).with_seed, seeds)
    if not seeds:
        return []

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


def _each(trial: Callable[[dict, int], TrialOutcome]):
    """A one-seed trial as a task's ``trials``: the seeds run one after another."""
    return lambda cell, seeds: [trial(cell, seed) for seed in seeds]


#: The one registry of (arch, task), each mapped to its trials:
#: ``trials(cell, seeds)`` runs one trial per seed of one cell and returns
#: their outcomes in seed order. Every bound in ``sizing`` sizes one of these
#: entries, under the same "<arch>.<task>" name, and ``sizing.calibrate``
#: runs its trials.
TASKS: dict[tuple[str, str], Callable[[dict, list[int]], list[TrialOutcome]]] = {
    ("mapi", "norm"): _trials_mapi_norm,
    ("mapi", "pairs"): _each(_trial_mapi_pairs),
    ("mapi", "sequence"): _each(_trial_mapi_sequence),
    ("mapi", "sequence-symbols"): _each(_trial_mapi_sequence_symbols),
    ("mapi", "binding2"): _each(partial(_trial_mapi_binding, pairs=True)),
    ("mapi", "bindingK"): _each(partial(_trial_mapi_binding, pairs=False)),
    ("mapb", "member"): _each(_trial_mapb_member),
    ("mapb", "sequence-member"): _each(_trial_mapb_sequence_member),
    ("mapb", "kv-member"): _each(_trial_mapb_kv_member),
    ("mapb", "empty-intersection"): _trials_mapb_empty_intersection,
    ("mapb", "depth"): _each(_trial_mapb_depth),
    ("bloom", "size"): _each(_trial_bloom_size),
    ("bloom", "intersection"): _each(_trial_bloom_intersection),
    ("cbloom", "intersection"): partial(_trials_cbloom, l1=False),
    ("cbloom", "l1"): partial(_trials_cbloom, l1=True),
    ("hopfield", "store"): _each(_trial_hopfield_store),
    ("hopfield", "recall"): _each(partial(_trial_hopfield_recall, kv=False)),
    ("hopfield", "kv-recall"): _each(partial(_trial_hopfield_recall, kv=True)),
    ("hopfield", "hpm-norm"): partial(_trials_hpm, dot=False),
    ("hopfield", "hpm-dot"): partial(_trials_hpm, dot=True),
}


def run_trials(arch: str, task: str, cell: dict, seeds) -> list[TrialOutcome]:
    """Run one seeded trial of a registered task per seed, all in one call."""
    try:
        trials = TASKS[(arch, task)]
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
    return "" if value is None else str(value)  # str of a float is its shortest repr


def _row(config: ExperimentConfig, cell: dict) -> list[str]:
    """The CSV row of one cell: its trials run and tallied, or the error that stopped them."""
    try:
        outcomes, error = [record.outcome for record in trial_records(config, cell)], ""
    except (ValueError, IndexError) as bad:
        outcomes, error = [], str(bad)
    failures = sum(not o.passed for o in outcomes)
    errs = [o.abs_err for o in outcomes]
    return [
        _fmt(v)
        for v in (
            config.arch,
            config.task,
            *(cell.get(name) for name in COLUMNS[2:9]),
            config.trials,
            failures,
            failures / config.trials if not error else "",
            sum(errs) / len(errs) if errs else "",
            max(errs) if errs else "",
            config.seed,
            rng.RNG_VERSION,
            error,
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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS)
    for cell in cells:
        writer.writerow(_row(config, cell))
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
