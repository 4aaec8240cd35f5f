"""grasshodge benchmark runner.

    python3 perfbench/run.py --workload scan|tables|certify --seed N
                             --seconds S --trace 0|1

Run from anywhere in a source checkout.  Each timed run is a fresh Python
process (perfbench/workload.py), started one at a time, for as long as
--seconds allows and at least MIN_RUNS times; the end-to-end metrics are
the medians over those runs.  With --trace 1 one more, traced run follows
and the per-layer metrics come from it.  The metric names and units are the
ones BENCHMARK.json lists; setup_s, wall_s and cpu_s are scaled to a
reference host speed by a probe timed around each process's operations
(see scaled()).  A full run record goes to
.perfbench_runs/result-<workload>-seed<N>-trace<0|1>.json, and the last
line of stdout is the JSON summary.  Exits 2 when the checkout holds no
grasshodge sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from measure import PROBE_REF_S
from workload import SCAN_JOBS, SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".perfbench_runs"
MIN_RUNS = 3
# The time metrics, scaled by the host-speed probe.
SCALED = ("setup_s", "wall_s", "cpu_s")
# A process counts as hung, and is killed, after FIRST_TIMEOUT_S, or once
# later ones are timed, after HANG_FACTOR times the longest run so far
# (the traced run included, which takes a few times an untraced one).
FIRST_TIMEOUT_S = 60.0
HANG_FACTOR = 8


def run_timeout(longest: float) -> float:
    """Seconds a process may take, given the longest completed run so far."""
    return max(FIRST_TIMEOUT_S, HANG_FACTOR * longest)


def run_once(workload, seed, size, rep, trace, timeout) -> dict:
    """One fresh-process run; its record, with setup_s measured from spawn."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--check-rep", str(rep)]
    if trace:
        cmd.append("--trace")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"attempted": 1, "failed": 1, "failures": ["run timed out"]}
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(err)
        return {"attempted": 1, "failed": 1, "failures": [f"run exited {proc.returncode}"]}
    record = json.loads(lines[-1])
    record["setup_s"] = record["ready"] - spawned
    return scaled(record)


def scaled(record: dict) -> dict:
    """The record with its times at the reference speed of measure.PROBE_REF_S.

    The host's neighbours slow the same code by up to 1.8x, in phases from
    seconds to hours; the probe, timed just before and just after the
    operations, is slowed alike, so the ratio cancels the phase.  The raw
    seconds stay in the record under "raw".
    """
    before, after = record["probe_s"]
    factor = PROBE_REF_S / math.sqrt(before * after)
    record["raw"] = {name: record[name] for name in SCALED}
    record.update({name: record[name] * factor for name in SCALED})
    record["speed_factor"] = factor
    return record


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="grasshodge benchmark runner")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "grasshodge" / "__init__.py").is_file():
        print(f"no grasshodge sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    runs = []
    start = time.monotonic()
    longest = 0.0
    while True:
        t0 = time.monotonic()
        runs.append(run_once(args.workload, args.seed, args.size, len(runs), False,
                             run_timeout(longest)))
        if "wall_s" not in runs[-1]:
            break
        took = time.monotonic() - t0
        longest = max(longest, took)
        if len(runs) >= MIN_RUNS and time.monotonic() - start + took > args.seconds:
            break
    traced = None
    if args.trace and "wall_s" in runs[-1]:
        traced = run_once(args.workload, args.seed, args.size, len(runs), True,
                          run_timeout(longest))
    everything = runs + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    failures = sorted({f for r in everything for f in r["failures"]})
    complete = all("wall_s" in r for r in everything)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "jobs": SCAN_JOBS,
        "commit": git_commit(),
        "runs": len(runs),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }
    metrics = {}
    if complete:
        record["work"] = runs[0]["work"]
        record["end_to_end"] = {
            m["name"]: quartiles([r[m["name"]] for r in runs]) for m in spec["end_to_end"]
        }
        record["raw_end_to_end"] = {
            name: quartiles([r["raw"][name] for r in runs]) for name in SCALED
        }
        record["speed_factors"] = [r["speed_factor"] for r in runs]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        if traced is None:
            metrics = {m["name"]: record["end_to_end"][m["name"]]["median"]
                       for m in spec["end_to_end"]}
        else:
            untraced = record["end_to_end"]["wall_s"]["median"]
            record["wall_s_untraced_median"] = untraced
            record["wall_s_traced"] = traced["wall_s"]
            record["trace_overhead_s"] = traced["wall_s"] - untraced
            record["missing_names"] = traced["missing_names"]
            record["spans_file"] = traced["spans_file"]
            record["per_layer"] = traced["layers"]
            metrics = {m["name"]: traced["layers"][m["name"]] for m in spec["per_layer"]}
            print(f"tracing overhead {record['trace_overhead_s']:.4f} s on "
                  f"{untraced:.4f} s untraced wall time")
        metrics = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    RUN_DIR.mkdir(parents=True, exist_ok=True)
    out_path = RUN_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for why in failures:
        print(f"FAILED {why}")
    print(json.dumps({
        "correct": complete and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
