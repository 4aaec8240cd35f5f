"""Serial scaling series per library layer, one fresh process per size.

    python3 bench/scaling.py [--src DIR [--src DIR2]] [--layer NAME [--layer NAME2]]

Times the direct certificate as the CLI runs it,
`sigma_verdict(SigmaInstance(N, k), "direct")`, over every k of one N at
N = 30, 60, 90, 120, 200, `primitive_profile(N)` at N = 12, 24, 36,
`sigma_closed` over every k of one N at N = 60, 120, 200, 300,
`alternating_profile` of the harmonic sequence at T = 200, 400,
`orthogonality_profile(T)` at T = 100, 200, 300, 600, 1000,
`proj_commutator_check(n)` at n = 30, 60, 120, the serial scan of one T,
`bound_scan(T, T, jobs=1)`, at T = 300, 600, 1000 and the CLI's
`table --kind racah --T T` with stdout sent to devnull at T = 60, 120, 200
and its lone last column, `--s T-1`, at T = 200, 600, 1000, each size in
its own Python process with DIR (default: this checkout's src) first on
sys.path and the import left out of the timing, REPEAT times.  --layer
picks layers by name (default: all).
Prints one JSON object: per layer and tree the median seconds per size,
their quartiles, the median peak RSS of the process (its ru_maxrss, import
included) and the least-squares slope of log(median seconds) against
log(size), fitted by perfbench's `log_log_slope`.

Given twice (parent, then change), the two trees are timed as pairs: each
repeat runs both trees back to back, alternating which runs first, so
host-load drift falls on both alike.  Per size the record then also gives
the median and quartiles of the per-pair ratio change / parent, and in how
many pairs the change ran faster.  Sizes in CHANGE_ONLY, where the parent
would take minutes to hours, run on the change alone; each tree's record
lists the sizes it ran.
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
        (30, 60, 90, 120),
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
        "from grasshodge.exactmath import ConcaveSequence\n"
        "from grasshodge.racah import alternating_profile",
        "alternating_profile(ConcaveSequence.harmonic(T - 1), T)",
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
}
# layer: sizes timed on the last tree given only
CHANGE_ONLY = {"sigma_direct_all_k": (200,)}
CHILD = """import resource, sys, time
sys.path.insert(0, {src!r})
{setup}
{var} = {size}
start = time.perf_counter()
{stmt}
print(time.perf_counter() - start, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def measure(src: str, var: str, size: int, setup: str, stmt: str) -> tuple[float, float]:
    """Seconds of the statement and peak RSS of its process in MB."""
    code = CHILD.format(src=src, setup=setup, var=var, size=size, stmt=stmt)
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True)
    secs, rss_kb = out.stdout.split()
    return float(secs), int(rss_kb) / 1024


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
        all_sizes = sizes + CHANGE_ONLY.get(layer, ())
        # runs[size index][tree] lists one (seconds, MB) per repeat, pairs
        # aligned; a tree that does not run a size keeps an empty list there
        runs = []
        for size in all_sizes:
            timed = trees if size in sizes else trees[-1:]
            by_tree = [[] for _ in srcs]
            for rep in range(REPEAT):
                for i in timed if rep % 2 == 0 else reversed(timed):
                    by_tree[i].append(measure(srcs[i], var, size, setup, stmt))
            runs.append(by_tree)
        out = {var: list(all_sizes), "trees": []}
        for i in trees:
            ran = [(size, by_tree[i]) for size, by_tree in zip(all_sizes, runs) if by_tree[i]]
            medians = {size: statistics.median(t for t, _ in pairs) for size, pairs in ran}
            out["trees"].append({
                var: list(medians),
                "median_s": [round(t, 4) for t in medians.values()],
                "quartiles_s": [quartiles([t for t, _ in pairs]) for _, pairs in ran],
                "median_peak_rss_mb": [
                    round(statistics.median(m for _, m in pairs), 1) for _, pairs in ran
                ],
                "exponent": round(log_log_slope(medians), 2),
            })
        if len(srcs) == 2:
            ratios = [
                [b / a for (a, _), (b, _) in zip(*by_tree)] for by_tree in runs[: len(sizes)]
            ]
            out["ratio_change_over_parent"] = {
                var: list(sizes),
                "median": [round(statistics.median(r), 3) for r in ratios],
                "quartiles": [quartiles(r) for r in ratios],
                "change_faster": [sum(x < 1 for x in r) for r in ratios],
            }
        record["layers"][layer] = out
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
