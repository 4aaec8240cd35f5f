"""Scaling series per library layer, one fresh process per size.

    python3 bench/scaling.py [--src DIR [--src DIR2]] [--layer NAME [--layer NAME2]]

Times the direct certificate,
`sigma_verdict(SigmaInstance(N, k), "direct")` (the walk, its primitivity
step and the box's staircase table), over every k of one N at
N = 30, 60, 90, 120, 200, `primitive_profile(N)` at N = 12, 24, 36,
`sigma_closed` over every k of one N at N = 60, 120, 200, 300,
`alternating_profile` of the harmonic sequence at T = 200, 400,
`orthogonality_profile(T)` at T = 100, 200, 300, 600, 1000,
`proj_commutator_check(n)` at n = 30, 60, 120, the serial scan of one T,
`bound_scan(T, T, jobs=1)`, at T = 300, 600, 1000 and the CLI's
`table --kind racah --T T` with stdout sent to devnull at T = 60, 120, 200
and its lone last column, `--s T-1`, at T = 200, 600, 1000, and the CLI's
`scan-bound --Tmin 3 --Tmax T --jobs 2` with stdout sent to devnull at
T = 100, 300, 400, and the CLI's `verify-needed --T T` (the harmonic
sequence) with stdout sent to devnull at T = 100, 200, 400, each size in
its own Python process with DIR (default: this checkout's src) first on
sys.path and the import left out of the timing, REPEAT times.  --layer
picks layers by name (default: all).
Prints one JSON object: per layer and tree the median seconds per size,
their quartiles, the median peak RSS of the process (its ru_maxrss, import
included) and of the largest child it waited for (RUSAGE_CHILDREN, so the
forked workers of a scan; 0 when it forks none), and the least-squares
slope of log(median seconds) against log(size), fitted by perfbench's
`log_log_slope`.

Given twice (parent, then change), the two trees are timed as pairs: each
repeat runs both trees back to back, alternating which runs first, so
host-load drift falls on both alike.  Per size the record then also gives
the median and quartiles of the per-pair ratio change / parent, and in how
many pairs the change ran faster.  one_sided_sizes counts the sizes where
the change ran faster in at most 2 or at least REPEAT - 2 pairs.  A
layer-level claim needs at least two such sizes: one size alone is not
enough, since an unchanged layer has read 9 of 10 pairs at one size on a
shared 2-CPU host.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT / "perfbench"))
from measure import log_log_slope  # noqa: E402

REPEAT = 10
# layer: (size variable, sizes, setup, statement)
LAYERS = {
    "sigma_direct_all_k": (
        "N",
        (30, 60, 90, 120, 200),
        "from grasshodge.lefschetz import SigmaInstance, sigma_verdict",
        "for k in range(N // 2 + 1): sigma_verdict(SigmaInstance(N, k), 'direct')",
    ),
    "primitive_profile": (
        "N",
        (12, 24, 36),
        "from grasshodge.chowring import primitive_profile",
        "primitive_profile(N)",
    ),
    "sigma_closed_all_k": (
        "N",
        (60, 120, 200, 300),
        "from grasshodge.lefschetz import SigmaInstance, sigma_closed",
        "for k in range(N // 2 + 1): sigma_closed(SigmaInstance(N, k))",
    ),
    "alternating_profile_harmonic": (
        "T",
        (200, 400),
        "from grasshodge.exactmath import harmonic_numerators\n"
        "from grasshodge.racah import alternating_profile",
        "alternating_profile(*harmonic_numerators(T - 1))",
    ),
    "orthogonality_profile": (
        "T",
        (100, 200, 300, 600, 1000),
        "from grasshodge.racah import orthogonality_profile",
        "orthogonality_profile(T)",
    ),
    "proj_commutator_check": (
        "n",
        (30, 60, 120),
        "from grasshodge.lefschetz import proj_commutator_check",
        "proj_commutator_check(n)",
    ),
    "bound_scan_one_T": (
        "T",
        (300, 600, 1000),
        "from grasshodge.racah import bound_scan",
        "bound_scan(T, T, jobs=1)",
    ),
    "table_racah_T": (
        "T",
        (60, 120, 200),
        "import contextlib, os\n"
        "from grasshodge import cli\n"
        "sink = open(os.devnull, 'w')",
        "with contextlib.redirect_stdout(sink): cli.main(['table', '--kind', 'racah', '--T', str(T)])",
    ),
    "table_racah_lone_s": (
        "T",
        (200, 600, 1000),
        "import contextlib, os\n"
        "from grasshodge import cli\n"
        "sink = open(os.devnull, 'w')",
        "with contextlib.redirect_stdout(sink):\n"
        "    cli.main(['table', '--kind', 'racah', '--T', str(T), '--s', str(T - 1)])",
    ),
    "scan_bound_cli": (
        "T",
        (100, 300, 400),
        "import contextlib, os\n"
        "from grasshodge import cli\n"
        "sink = open(os.devnull, 'w')",
        "with contextlib.redirect_stdout(sink):\n"
        "    cli.main(['scan-bound', '--Tmin', '3', '--Tmax', str(T), '--jobs', '2'])",
    ),
    "verify_needed_cli": (
        "T",
        (100, 200, 400),
        "import contextlib, os\n"
        "from grasshodge import cli\n"
        "sink = open(os.devnull, 'w')",
        "with contextlib.redirect_stdout(sink): cli.main(['verify-needed', '--T', str(T)])",
    ),
}
CHILD = """import resource, sys, time
sys.path.insert(0, {src!r})
{setup}
{var} = {size}
start = time.perf_counter()
{stmt}
print(
    time.perf_counter() - start,
    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
)
"""


def measure(src: str, var: str, size: int, setup: str, stmt: str) -> tuple[float, float, float]:
    """Seconds of the statement, peak RSS of its process and of its largest
    waited-for child, both in MB."""
    code = CHILD.format(src=src, setup=setup, var=var, size=size, stmt=stmt)
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True)
    secs, rss_kb, children_kb = out.stdout.split()
    return float(secs), int(rss_kb) / 1024, int(children_kb) / 1024


def quartiles(values: list[float]) -> list[float]:
    """[first quartile, third quartile], inclusive method."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 4), round(q3, 4)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", help="source tree; default: this checkout's src")
    parser.add_argument("--layer", action="append", choices=LAYERS, help="time only these; default: all")
    args = parser.parse_args(argv)
    srcs = args.src or [str(SRC)]
    trees = range(len(srcs))
    record = {"trees": srcs, "repeat": REPEAT, "layers": {}}
    for layer in args.layer or LAYERS:
        var, sizes, setup, stmt = LAYERS[layer]
        # runs[size index][tree] lists one (seconds, MB, children's MB) per repeat, pairs aligned
        runs = []
        for size in sizes:
            by_tree = [[] for _ in srcs]
            for rep in range(REPEAT):
                for i in trees if rep % 2 == 0 else reversed(trees):
                    by_tree[i].append(measure(srcs[i], var, size, setup, stmt))
            runs.append(by_tree)
        out = {var: list(sizes), "trees": []}
        for i in trees:
            ran = [(size, by_tree[i]) for size, by_tree in zip(sizes, runs)]
            medians = {size: statistics.median(t for t, _, _ in pairs) for size, pairs in ran}
            out["trees"].append({
                var: list(medians),
                "median_s": [round(t, 4) for t in medians.values()],
                "quartiles_s": [quartiles([t for t, _, _ in pairs]) for _, pairs in ran],
                "median_peak_rss_mb": [
                    round(statistics.median(m for _, m, _ in pairs), 1) for _, pairs in ran
                ],
                "median_peak_rss_children_mb": [
                    round(statistics.median(c for _, _, c in pairs), 1) for _, pairs in ran
                ],
                "exponent": round(log_log_slope(medians), 2),
            })
        if len(srcs) == 2:
            ratios = [
                [b / a for (a, _, _), (b, _, _) in zip(*by_tree)] for by_tree in runs
            ]
            faster = [sum(x < 1 for x in r) for r in ratios]
            out["ratio_change_over_parent"] = {
                var: list(sizes),
                "median": [round(statistics.median(r), 3) for r in ratios],
                "quartiles": [quartiles(r) for r in ratios],
                "change_faster": faster,
                "one_sided_sizes": sum(f <= 2 or f >= REPEAT - 2 for f in faster),
            }
        record["layers"][layer] = out
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
