"""Repeat the benchmark over seeds and summarise each end-to-end metric.

    python3 perfbench/baseline.py --runs 10 --seconds 10 --out perfbench/baseline.json
    python3 perfbench/baseline.py --workload small-trials --runs 5   # spread check only

Each run is a fresh ``run.py`` process with its own ``--seed`` (0, 1, ...).
For every workload and metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
inter-quartile distance as a share of the median, next to the metric's
bound from ``BENCHMARK.json``. It also prints the spread the timings have
before they are scaled to the reference speed (see ``run.Pace``). With
``--trace`` it also makes two traced runs per workload with the first seed,
keeps the first one's per-layer table and checks that both give the same
counts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import COUNT_SUFFIXES  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="add two traced runs per workload")
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"runs": args.runs, "seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workload or names:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        envs, correct, samples = [], [], []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            info, result = run_once(workload, seed, args.seconds, 0)
            envs.append(info["env"])
            samples.append(info["samples"])
            correct.append(result["correct"])
            for key, entry in result["metrics"].items():
                values.setdefault(key, []).append(entry["value"])
                units[key] = entry["unit"]
        entry = {"correct_runs": sum(correct), "env": envs[0], "samples": samples,
                 "metrics": {}}
        print(f"{workload}: {sum(correct)}/{len(correct)} runs correct")
        for key, series in values.items():
            stats = summarise(series)
            stats["unit"] = units[key]
            entry["metrics"][key] = stats
            bound = bounds.get(key)
            flag = ""
            if bound is not None and key != "setup_s" and stats["spread"] > bound / 3:
                flag = "  <- spread above a third of the bound"
                ok = False
            print(f"  {key:<14}{stats['median']:>12.4f} {units[key]:<5} "
                  f"q1 {stats['q1']:.4f} q3 {stats['q3']:.4f} "
                  f"spread {stats['spread']:.3f} (bound {bound}){flag}")
        entry["unscaled"] = {}
        for key in samples[0]["unscaled"]:
            stats = summarise([s["unscaled"][key] for s in samples])
            entry["unscaled"][key] = stats
            print(f"  {key:<14}{stats['median']:>12.4f} unscaled by the reference, "
                  f"spread {stats['spread']:.3f}")
        if args.trace:
            traced = [run_once(workload, args.first_seed, args.seconds, 1) for _ in range(2)]
            counts = [{k: v["value"] for k, v in result["metrics"].items()
                       if k.endswith(COUNT_SUFFIXES)} for _info, result in traced]
            info, result = traced[0]
            entry["traced"] = {"seed": args.first_seed,
                               "correct": all(r["correct"] for _i, r in traced),
                               "counts_repeat_across_runs": counts[0] == counts[1],
                               "samples": info["samples"],
                               "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
            print(f"  traced: correct {entry['traced']['correct']}, counts repeat across "
                  f"two runs {counts[0] == counts[1]}, overhead "
                  f"{entry['traced']['metrics']['trace.overhead']:.3f}")
            ok &= entry["traced"]["correct"] and counts[0] == counts[1]
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
