"""vsakit benchmark: end-to-end metrics per workload, per-layer metrics when traced.

Run from the repository root:

    python3 perfbench/run.py --workload small-trials --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 0 --seconds 10     # every workload, one table
    python3 perfbench/run.py --record                         # re-record digests.json

The last line of a workload run is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the environment, the sample counts and ``failed_share``. With
``--trace 0`` the metrics are the end-to-end ones, with every time scaled to
a reference speed of the host (see ``Pace`` and ``measure_setup``); with
``--trace 1`` the run alternates an untraced and a traced pass over one
round (at least two of each), checks that every traced pass gives the same
counts, and reports the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

STARTED = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
SCRATCH = ROOT / ".perfbench"
SETUP_REPEATS = 7

sys.path.insert(0, str(HERE))
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def load_vsakit():
    """Import the library from this checkout's ``src`` and nothing else."""
    sys.path.insert(0, str(SRC))
    import vsakit

    if Path(vsakit.__file__).resolve().parent != SRC / "vsakit":
        raise ImportError(f"vsakit was imported from {vsakit.__file__}, not {SRC}")
    for layer in tracing.LAYERS:
        importlib.import_module(f"vsakit.{layer}")
    return vsakit


# -- environment -------------------------------------------------------------


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(vsakit, seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        sha = done.stdout.strip() or None
    tree = hashlib.sha256()
    for path in sorted((SRC / "vsakit").glob("*.py")):
        tree.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": sha,
        "src_sha256": tree.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "rng_version": vsakit.RNG_VERSION,
        "workload_seed": seed,
    }


# -- correctness -------------------------------------------------------------


def load_digests(rng_version: str) -> dict:
    if not DIGESTS.exists():
        return {}
    table = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return table["workloads"] if table.get("rng_version") == rng_version else {}


def check_round(digests: dict, workload: str, rseed: int, rnd: workloads.Round) -> int:
    """Fail every operation whose output differs from the recorded digest.

    Returns the number of failed operations (cells, calls or requests). On
    the wire one digest covers the round's whole answer stream, so a
    mismatch fails every request of the round.
    """
    expected = digests.get(workload, {}).get(str(rseed), {})
    wrong = {key for key, digest in round_digests(rnd).items() if expected.get(key) != digest}
    for op in rnd.ops:
        if op.digest_key in wrong:
            op.failed = op.attempted
    return sum(op.failed for op in rnd.ops)


def round_digests(rnd: workloads.Round) -> dict:
    return {key: workloads.sha256(data) for key, data in rnd.outputs.items()}


# -- host speed ----------------------------------------------------------------

# The shared vCPU's speed drifts by up to 2x within a minute (see README.md).
# A fixed reference kernel, timed between the operations of every round,
# follows that drift. Each operation's time is scaled by REFERENCE_NOMINAL_S
# over the mean of the reference times taken just before and just after it,
# so the end-to-end times read as if the host ran at one constant speed.
REFERENCE_NOMINAL_S = 0.004


@functools.cache
def _reference_inputs() -> tuple:
    gen = np.random.default_rng(20230124)
    table = gen.integers(0, 1 << 30, 1 << 20, dtype=np.int32)  # 4 MB, past L2
    return table, gen.integers(0, 1 << 20, 1 << 16), np.arange(4096.0)


def reference_s() -> float:
    """Seconds one fixed piece of work takes now.

    The work is of the kinds vsakit's trials and requests are made of:
    interpreter loops and dict stores, small numpy calls, fresh Philox
    generators and a gather that misses the cache. It calls numpy only,
    never vsakit, so a change to vsakit cannot move it.
    """
    big, index, small = _reference_inputs()
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(4000):
        acc += i * i
        table[(i * 7919) & 4095] = acc
    for _ in range(60):
        small = np.sqrt(small * small + 1.0)
    for key in range(30):
        acc += int(np.random.Generator(np.random.Philox(key)).integers(0, 1 << 30, 256)[0])
    for r in range(4):
        acc += int(big[index[r::4]].sum())
    return time.perf_counter() - start


class Pace:
    """Reference times taken at operation boundaries of one round.

    Called as ``pace(i)`` before operation ``i``; ``scaled(rnd)`` takes a
    closing probe after the last operation and returns every operation's
    latency scaled to the nominal reference speed.
    """

    def __init__(self):
        self.marks: list[tuple[int, float]] = []  # (operation index, reference seconds)

    def __call__(self, index: int) -> None:
        self.marks.append((index, reference_s()))

    def scaled(self, rnd: workloads.Round) -> list[float]:
        self(len(rnd.ops))
        out, k = [], 0
        for j, op in enumerate(rnd.ops):
            while k + 2 < len(self.marks) and self.marks[k + 1][0] <= j:
                k += 1
            before, after = self.marks[k][1], self.marks[k + 1][1]
            out.append(op.latency_s * 2 * REFERENCE_NOMINAL_S / (before + after))
        return out

    @property
    def reference_ms(self) -> float:
        return statistics.median(seconds for _i, seconds in self.marks) * 1e3


# -- one workload run ----------------------------------------------------------


# Set-up is mostly interpreter start and ``import numpy``, whose cost drifts
# with the host apart from the reference kernel's. So each set-up is scaled
# by spawns of an interpreter that imports numpy and nothing else.
SPAWN_REFERENCE = [sys.executable, "-c", "import numpy; print('ready', flush=True)"]
SPAWN_NOMINAL_S = 0.18


def spawn_s(cmd: list[str]) -> float:
    """Seconds from spawning ``cmd`` until it prints ``ready``."""
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        ready = time.perf_counter()
        child.stdout.read()
        code = child.wait()
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"{cmd[1]} failed with exit code {code} before it was ready")
    return ready - start


def measure_setup(name: str, seed: int) -> tuple[list[float], list[float], list[float]]:
    """Fresh-process set-up times, unscaled and scaled to SPAWN_NOMINAL_S,
    and the reference spawn times.

    Reference spawns alternate with set-ups; each set-up is scaled by the
    mean of the reference spawns just before and just after it.
    """
    raw, scaled = [], []
    references = [spawn_s(SPAWN_REFERENCE)]
    for i in range(SETUP_REPEATS):
        workdir = SCRATCH / f"setup-{os.getpid()}-{i}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            seconds = spawn_s([sys.executable, str(Path(__file__).resolve()), "--setup-child",
                               "--workload", name, "--seed", str(seed), "--workdir", str(workdir)])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        references.append(spawn_s(SPAWN_REFERENCE))
        raw.append(seconds)
        scaled.append(seconds * 2 * SPAWN_NOMINAL_S / sum(references[-2:]))
    return raw, scaled, references


def setup_child(name: str, seed: int, workdir: Path) -> int:
    vsakit = load_vsakit()
    workloads.WORKLOADS[name].setup(vsakit, workdir, seed)
    print("ready", flush=True)
    return 0


def play(vsakit, workload, workdir, state, rseed, digests, tally, tick=None) -> workloads.Round:
    rnd = workload.play(vsakit, workdir, state, rseed, tick)
    tally["failed"] += check_round(digests, workload.name, rseed, rnd)
    tally["attempted"] += sum(op.attempted for op in rnd.ops)
    return rnd


def stolen_s() -> float:
    """CPU time the hypervisor gave to other guests since boot, summed over vCPUs."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def run_timed(vsakit, workload, workdir, state, seed, seconds, digests, tally):
    """Play rounds until time is up; each figure is a median over rounds.

    Throughput and latencies use operation times scaled to the nominal
    reference speed (see ``Pace``); the unscaled figures go to the samples
    record. Latency percentiles are taken within each round and the median
    over rounds is reported, so a stall of the shared vCPU moves a few
    rounds, not the whole tail.
    """
    rounds = []  # (rate, p50, p99, raw rate, raw p50, raw p99, reference ms, steal share)
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        stolen, began, pace = stolen_s(), time.perf_counter(), Pace()
        rnd = play(vsakit, workload, workdir, state, workloads.round_seed(seed, len(rounds)),
                   digests, tally, pace)
        scaled = pace.scaled(rnd)
        share = (stolen_s() - stolen) / (time.perf_counter() - began)
        raw = [op.latency_s for op in rnd.ops]
        work = workload.work(rnd)
        rounds.append((work / sum(scaled), *np.percentile(scaled, [50, 99]) * 1e3,
                       work / sum(raw), *np.percentile(raw, [50, 99]) * 1e3,
                       pace.reference_ms, share))
    rate, p50, p99, raw_rate, raw_p50, raw_p99, ref_ms, share = (
        statistics.median(column) for column in zip(*rounds))
    setup_raw, setup, spawns = measure_setup(workload.name, seed)
    metrics = {
        "ops_per_s": (rate, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p99_ms": (p99, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    per_round = f"median over {len(rounds)} rounds of {len(rnd.ops)} operations each"
    samples = {"ops_per_s": f"median over {len(rounds)} rounds",
               "latency_p50_ms": per_round, "latency_p99_ms": per_round,
               "setup_s": f"median of {len(setup)} fresh-process set-ups, each scaled by "
                          "the reference spawns around it",
               "unscaled": {"ops_per_s": raw_rate, "latency_p50_ms": raw_p50,
                            "latency_p99_ms": raw_p99, "setup_s": statistics.median(setup_raw)},
               "reference_ms": {"median": ref_ms, "nominal": REFERENCE_NOMINAL_S * 1e3,
                                "probes_per_round": len(pace.marks)},
               "reference_spawn_s": {"median": statistics.median(spawns),
                                     "nominal": SPAWN_NOMINAL_S},
               "steal_share": {"median": share, "max": max(r[-1] for r in rounds)}}
    return metrics, samples


COUNT_SUFFIXES = (".calls", ".words", ".probes", "_bytes", ".iters", ".spans")


def layer_metrics(tracer: tracing.Tracer, requested_trials: int) -> dict:
    selfs = tracing.self_times(tracer.spans)
    out: dict[str, tuple] = {}
    calls = {layer: 0 for layer in tracing.LAYERS}
    self_s = {layer: 0.0 for layer in tracing.LAYERS}
    by_name: dict[str, list] = {}
    for span in tracer.spans:
        sid, _parent, _thread, name, start, end = span
        layer = name.split(".", 1)[0]
        calls[layer] += 1
        self_s[layer] += selfs[sid]
        by_name.setdefault(name, []).append(span)

    def named_calls(name):
        return len(by_name.get(name, ()))

    def named_self(name):
        return sum(selfs[s[0]] for s in by_name.get(name, ()))

    trial_spans = by_name.get("harness.run_trial", [])
    trial_ms = [(s[5] - s[4]) / 1e6 for s in trial_spans]
    busy = capacity = 0
    for run in by_name.get("harness.run", []):
        threads = tracer.run_threads.get(run[0], 1)
        capacity += (run[5] - run[4]) * threads
        busy += sum(t[5] - t[4] for t in trial_spans if run[4] <= t[4] and t[5] <= run[5])
    for layer in tracing.LAYERS:
        out[f"{layer}.calls"] = (calls[layer], "count")
        out[f"{layer}.self_s"] = (self_s[layer], "s")
        out[f"{layer}.failed"] = (tracer.failed.get(layer, 0), "count")
    out["rng.words.calls"] = (named_calls("rng.Stream.words"), "count")
    out["rng.choose_distinct.self_s"] = (named_self("rng.choose_distinct"), "s")
    out["codebook.column_ints.calls"] = (named_calls("codebook.Codebook.column_ints"), "count")
    out["codebook.column_indices.calls"] = (named_calls("codebook.Codebook.column_indices"),
                                            "count")
    out["mapb.membership_test.calls"] = (named_calls("mapb.membership_test"), "count")
    out["harness.run_trial.calls"] = (len(trial_spans), "count")
    out["harness.useful_ratio"] = (requested_trials / len(trial_spans) if trial_spans else 0.0,
                                   "ratio")
    out["harness.trial_p50_ms"] = (statistics.median(trial_ms) if trial_ms else 0.0, "ms")
    out["harness.parallel_eff"] = (busy / capacity if capacity else 0.0, "ratio")
    for key in ("rng.words.words", "sizing.calibrate.probes", "bloom.bundle_bytes",
                "hopfield.hpm_bytes", "hopfield.recall.iters", "serialize.wire_bytes"):
        out[key] = (tracer.counters.get(key, 0), "B" if key.endswith("_bytes") else "count")
    out["trace.spans"] = (len(tracer.spans), "count")
    return out


def run_traced(vsakit, workload, workdir, state, seed, seconds, digests, tally):
    """Alternate untraced and traced passes over one round until time is up."""
    rseed = workloads.round_seed(seed, 0)
    plain_s, traced_s, passes = [], [], []
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start < seconds:
        plain_s.append(play(vsakit, workload, workdir, state, rseed, digests, tally).busy_s)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            rnd = play(vsakit, workload, workdir, state, rseed, digests, tally)
        finally:
            tracer.uninstall()
        traced_s.append(rnd.busy_s)
        passes.append(layer_metrics(tracer, sum(op.trials for op in rnd.ops)))
    counts = [{k: v for k, (v, _u) in p.items() if k.endswith(COUNT_SUFFIXES)} for p in passes]
    repeatable = all(c == counts[0] for c in counts)
    if not repeatable:
        print("determinism self-test failed: traced counts differ between passes",
              file=sys.stderr)
    metrics = {}
    for key, (_value, unit) in passes[0].items():
        metrics[key] = (statistics.median(p[key][0] for p in passes), unit)
    metrics["trace.overhead"] = (statistics.median(traced_s) / statistics.median(plain_s) - 1.0,
                                 "ratio")
    SCRATCH.mkdir(exist_ok=True)
    spans_path = SCRATCH / f"spans-{workload.name}-seed{seed}.csv"
    tracer.write_csv(spans_path)
    samples = {"per_layer": f"median of {len(passes)} traced passes of round seed {rseed}",
               "trace.overhead": f"median of {len(traced_s)} traced and of {len(plain_s)} "
                                 "untraced passes",
               "spans_file": str(spans_path.relative_to(ROOT)),
               "counts_repeat": repeatable}
    return metrics, samples, repeatable


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    vsakit = load_vsakit()
    workload = workloads.WORKLOADS[name]
    workdir = SCRATCH / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        state = workload.setup(vsakit, workdir, seed)
        setup_main_s = time.perf_counter() - STARTED
        digests = load_digests(vsakit.RNG_VERSION)
        tally = {"attempted": 0, "failed": 0}
        if trace:
            metrics, samples, repeatable = run_traced(vsakit, workload, workdir, state, seed,
                                                      seconds, digests, tally)
        else:
            metrics, samples = run_timed(vsakit, workload, workdir, state, seed, seconds,
                                         digests, tally)
            repeatable = True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info = {
        "workload": name,
        "env": environment(vsakit, seed),
        "samples": samples,
        "failed_share": tally["failed"] / tally["attempted"],
        "setup_main_s": setup_main_s,
        "digests_recorded": bool(digests),
    }
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": tally["failed"] == 0 and repeatable and bool(digests),
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


# -- whole-benchmark modes --------------------------------------------------------

# The end-to-end metrics under the names they have on each kind of workload.
WIRE_NAMES = {"ops_per_s": "wire_ops_per_s", "latency_p50_ms": "wire_p50_ms",
              "latency_p99_ms": "wire_p99_ms"}
TRIAL_NAMES = {"ops_per_s": "trials_per_s", "latency_p50_ms": "call_p50_ms",
               "latency_p99_ms": "call_p99_ms"}


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process; prints one table of end-to-end metrics."""
    rows = []
    worst = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 2:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
        names = WIRE_NAMES if name == "wire" else TRIAL_NAMES
        for key, entry in result["metrics"].items():
            rows.append((name, names.get(key, key), entry["value"], entry["unit"],
                         info["samples"].get(key, "")))
        rows.append((name, "failed_share", info["failed_share"], "ratio",
                     f"{result['failed']} of {result['attempted']} operations"))
        worst |= not result["correct"]
    print(f"{'workload':<14}{'metric':<16}{'value':>14}  {'unit':<6}samples")
    for name, key, value, unit, samples in rows:
        print(f"{name:<14}{key:<16}{value:>14.4f}  {unit:<6}{samples}")
    return 1 if worst else 0


def record() -> int:
    """Record the digest of every round seed of every workload."""
    vsakit = load_vsakit()
    table = {}
    for name, workload in workloads.WORKLOADS.items():
        table[name] = {}
        for variant in range(workloads.SEED_VARIANTS):
            workdir = SCRATCH / f"record-{os.getpid()}"
            workdir.mkdir(parents=True, exist_ok=True)
            try:
                state = workload.setup(vsakit, workdir, variant)
                for r in range(workloads.ROUNDS_PER_SEED):
                    rseed = workloads.round_seed(variant, r)
                    rnd = workload.play(vsakit, workdir, state, rseed)
                    if any(op.failed for op in rnd.ops):
                        raise RuntimeError(f"{name} round {rseed} failed while recording")
                    table[name][str(rseed)] = round_digests(rnd)
                    print(f"{name} round {rseed} recorded", flush=True)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    DIGESTS.write_text(json.dumps({"rng_version": vsakit.RNG_VERSION, "workloads": table},
                                  indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, print a table")
    parser.add_argument("--record", action="store_true", help="re-record digests.json")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.record:
        return record()
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_child:
        return setup_child(args.workload, args.seed, Path(args.workdir))
    try:
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as missing:  # no src/ in this directory: no result to print
        print(f"error: cannot import vsakit: {missing}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
