"""One timed run of a benchmark workload, in a fresh Python process.

    python3 perfbench/workload.py --workload scan --seed 1 [--size tiny]
                                  [--check-rep 0] [--trace]

Imports grasshodge from the checkout's src/, builds the workload's
operations from the seed, runs them in-process (CLI calls through
grasshodge.cli.main with stdout captured, plus a few library calls), then
checks every output outside the timed region and prints one JSON object.
The host-speed probe (measure.probe_seconds) runs just before the first
operation and just after the last, on as many processes as the operations
use; run.py scales the times by it.
A fresh process per run matters: a CLI user pays the library's caches cold
on every invocation.  With --trace the run records spans around each
module's public functions (see spans.py) and reports per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_runs"

WORKLOADS = ("scan", "tables", "certify")
SCAN_JOBS = 2

# Ranges stay fixed across seeds so that cost stays comparable; the seed
# drives the sequence files, the sampled sigma instances and the oracle
# sample.  "tiny" is for the benchmark's own tests.
SIZES = {
    "full": {
        "scan_Tmax": 100,
        "needed_T": (40, 60, 80, 100),
        "racah_T": (40, 60),
        "Nmax": 32,
        "pn_nmax": 30,
        "sigma_N": 60,
        "profile_Nmax": 24,
    },
    "tiny": {
        "scan_Tmax": 12,
        "needed_T": (8, 10),
        "racah_T": (5, 7),
        "Nmax": 6,
        "pn_nmax": 5,
        "sigma_N": 8,
        "profile_Nmax": 6,
    },
}


@dataclass(frozen=True)
class Op:
    """A CLI invocation (argv) or a library call (call = (name, N)).

    pinned ops have seed-independent stdout with a hash in
    expected_stdout.json; sequence holds the values behind a
    --sequence file the benchmark wrote.
    """

    label: str
    argv: tuple[str, ...] = ()
    call: tuple[str, int] | None = None
    sequence: tuple[Fraction, ...] | None = None
    pinned: bool = True


def _cli(*argv) -> Op:
    argv = tuple(str(a) for a in argv)
    return Op(" ".join(argv), argv)


def concave_sequence(m: int, rng: random.Random) -> tuple[Fraction, ...]:
    """m strictly increasing concave values: sorted falling increments, summed."""
    incs = sorted(
        (Fraction(rng.randint(1, 999), rng.randint(1, 999)) for _ in range(m)),
        reverse=True,
    )
    out, total = [], Fraction(0)
    for inc in incs:
        total += inc
        out.append(total)
    return tuple(out)


def build_ops(workload: str, seed: int, size: str, workdir: Path) -> tuple[list[Op], dict]:
    """The workload's operations and its work-size count, from the seed."""
    z = SIZES[size]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "scan":
        t_hi = z["scan_Tmax"]
        ops = [_cli("scan-bound", "--Tmin", 3, "--Tmax", t_hi, "--jobs", SCAN_JOBS)]
        return ops, {"half_grid_points": sum(T * (T + 1) // 2 for T in range(3, t_hi + 1))}
    if workload == "tables":
        ops = []
        workdir.mkdir(parents=True, exist_ok=True)
        for T in z["needed_T"]:
            values = concave_sequence(T - 1, rng)
            path = workdir / f"sequence-{os.getpid()}-T{T}.txt"
            path.write_text("".join(f"{v}\n" for v in values), encoding="utf-8")
            argv = ("verify-needed", "--T", str(T), "--sequence", str(path))
            ops += [
                _cli("verify-ortho", "--T", T),
                _cli("verify-needed", "--T", T),
                Op(f"verify-needed --T {T} --sequence <seeded>", argv, sequence=values,
                   pinned=False),
            ]
        ops += [_cli("table", "--kind", "racah", "--T", T) for T in z["racah_T"]]
        entries = sum(T * T for T in z["needed_T"] + z["racah_T"])
        return ops, {"table_entries": entries}
    if workload == "certify":
        N = z["sigma_N"]
        third = (N // 2 + 1) / 3
        ks = [rng.randrange(round(i * third), round((i + 1) * third)) for i in range(3)]
        ops = [
            _cli("verify-grassmannian", "--Nmax", z["Nmax"], "--method", "both"),
            _cli("verify-pn", "--nmax", z["pn_nmax"]),
            *(_cli("sigma", "--N", N, "--k", k) for k in ks),
            *(
                Op(f"primitive_profile {n}", call=("primitive_profile", n))
                for n in range(1, z["profile_Nmax"] + 1)
            ),
        ]
        certs = sum(n // 2 + 1 for n in range(1, z["Nmax"] + 1)) + len(ks)
        return ops, {"certificates": certs}
    raise ValueError(f"unknown workload {workload!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    parser.add_argument("--check-rep", type=int, default=0, help="varies the oracle sample")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import grasshodge
    import grasshodge.chowring
    import grasshodge.cli

    if Path(grasshodge.__file__).resolve().parent != SRC / "grasshodge":
        print(f"grasshodge imported from {grasshodge.__file__}, not {SRC}", file=sys.stderr)
        return 2
    ops, work = build_ops(args.workload, args.seed, args.size, RUN_DIR)
    ready = time.monotonic()

    # Loaded after the set-up time is taken: they are the benchmark's, not the program's.
    import measure
    from checks import check_op, load_pins
    from spans import Tracer

    probe_jobs = SCAN_JOBS if args.workload == "scan" else 1
    probe_before = measure.probe_seconds(probe_jobs)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    results, op_seconds = [], []
    cpu0 = measure.cpu_seconds()
    start = time.perf_counter()
    for idx, op in enumerate(ops):
        if tracer is not None:
            tracer.op = idx
        t0 = time.perf_counter()
        results.append(measure.run_op(op, grasshodge))
        if op.argv:
            op_seconds.append(time.perf_counter() - t0)
    wall = time.perf_counter() - start
    cpu = measure.cpu_seconds() - cpu0
    peak = measure.peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
    probe_after = measure.probe_seconds(probe_jobs)

    pins = load_pins()
    rng = random.Random(f"check:{args.workload}:{args.seed}:{args.check_rep}")
    failures = []
    for op, (rc, out, result) in zip(ops, results):
        why = check_op(op, rc, out, result, pins, rng)
        if why:
            failures.append(f"{op.label}: {why}")

    record = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak,
        "probe_s": [probe_before, probe_after],
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures,
        "work": work,
    }
    if tracer is not None:
        serial = {}
        if args.workload == "scan":
            serial, serial_failures = measure.serial_scan_pass(
                grasshodge.racah, SIZES[args.size]["scan_Tmax"]
            )
            record["attempted"] += 1
            record["failed"] += bool(serial_failures)
            record["failures"] += serial_failures
        record["layers"] = measure.layer_metrics(
            tracer, args.workload, SIZES[args.size], SCAN_JOBS, op_seconds, serial
        )
        record["missing_names"] = tracer.missing
        RUN_DIR.mkdir(parents=True, exist_ok=True)
        spans_path = RUN_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps([s for s in tracer.spans if s]), encoding="utf-8")
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    for op in ops:
        if op.sequence is not None:
            Path(op.argv[op.argv.index("--sequence") + 1]).unlink(missing_ok=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
