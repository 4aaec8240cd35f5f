"""Repeat the benchmark over ten seeds and summarise each metric.

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

For each workload in BENCHMARK.json it runs perfbench/run.py once per seed
(1..10) at BENCHMARK.json's run length, then one traced run on seed 1, and
reports each end-to-end metric's median, quartiles and spread (the quartile
distance as a share of the median) against the metric's bound, and the
spread of the unscaled times beside it.  With --out
the summary is written as JSON; the committed baseline.json was made this
way.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import SCALED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The summary line and the run record of one benchmark run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = ROOT / ".perfbench_runs" / f"result-{workload}-seed{seed}-trace{trace}.json"
    return summary, json.loads(record_path.read_text(encoding="utf-8"))


def summarise(values: list[float]) -> dict:
    """Median, quartiles and spread (quartile distance over median) of values."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    result = {"python": platform.python_version(), "run_seconds": seconds, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        values = {name: [] for name in bounds}
        raw = {name: [] for name in SCALED}
        for seed in SEEDS:
            summary, record = bench(workload, seed, seconds, 0)
            ok = ok and summary["correct"]
            commit, nproc, work = record["commit"], record["nproc"], record["work"]
            for name in bounds:
                values[name].append(summary["metrics"][name]["value"])
            for name in SCALED:
                raw[name].append(record["raw_end_to_end"][name]["median"])
        entry = {"seeds": list(SEEDS), "commit": commit, "nproc": nproc,
                 "work": work, "end_to_end": {}, "raw_end_to_end": {}}
        for name, vals in values.items():
            entry["end_to_end"][name] = dict(summarise(vals), bound=bounds[name])
            stats = entry["end_to_end"][name]
            print(f"{workload:8} {name:12} median {stats['median']:10.4f}  spread "
                  f"{stats['spread']:.4f}  (bound {bounds[name]}, bound/3 {bounds[name] / 3:.4f})",
                  flush=True)
        for name, vals in raw.items():
            entry["raw_end_to_end"][name] = summarise(vals)
            print(f"{workload:8} {name:12} unscaled spread "
                  f"{entry['raw_end_to_end'][name]['spread']:.4f}", flush=True)
        summary, record = bench(workload, SEEDS[0], seconds, 1)
        ok = ok and summary["correct"]
        entry["trace_overhead_s"] = record["trace_overhead_s"]
        entry["per_layer"] = {k: v["value"] for k, v in summary["metrics"].items()}
        result["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    if not ok:
        print("some runs were not correct", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
