"""Serial scaling series per library layer, one fresh process per size.

    python3 bench/scaling.py [--src DIR [--src DIR2]]

Times `sigma_direct` over every k of one N at N = 30, 60, 90, 120,
`primitive_profile(N)` at N = 12, 24, 36, `sigma_closed` over every k of
one N at N = 60, 120, 200, `alternating_profile` of the harmonic
sequence at T = 200, 400, `proj_commutator_check(n)` at n = 30, 60, 120
and the serial scan of one T, `bound_scan(T, T, jobs=1)`, at T = 300,
600, 1000, each size in its own Python process with DIR
(default: this checkout's src) first on sys.path and the import left out of
the timing, and keeps the best of REPEAT runs.  Prints one JSON object: per
layer the seconds per size and the least-squares slope of log(seconds)
against log(size), fitted by perfbench's `log_log_slope`.

Given twice (parent, then change), the two trees are timed side by side:
for each size the repeats alternate which tree runs first, so host-load
drift falls on both alike, and one JSON object is printed per tree, in the
order of the --src flags.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT / "perfbench"))
from measure import log_log_slope  # noqa: E402

REPEAT = 3
# layer: (size variable, sizes, setup, statement)
LAYERS = {
    "sigma_direct_all_k": (
        "N",
        (30, 60, 90, 120),
        "from grasshodge.lefschetz import SigmaInstance, sigma_direct",
        "for k in range(N // 2 + 1): sigma_direct(SigmaInstance(N, k))",
    ),
    "primitive_profile": (
        "N",
        (12, 24, 36),
        "from grasshodge.chowring import primitive_profile",
        "primitive_profile(N)",
    ),
    "sigma_closed_all_k": (
        "N",
        (60, 120, 200),
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
}
CHILD = """import sys, time
sys.path.insert(0, {src!r})
{setup}
{var} = {size}
start = time.perf_counter()
{stmt}
print(time.perf_counter() - start)
"""


def seconds(src: str, var: str, size: int, setup: str, stmt: str) -> float:
    code = CHILD.format(src=src, setup=setup, var=var, size=size, stmt=stmt)
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True)
    return float(out.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", help="source tree; default: this checkout's src")
    args = parser.parse_args(argv)
    srcs = args.src or [str(SRC)]
    trees = range(len(srcs))
    series = [{} for _ in srcs]
    for layer, (var, sizes, setup, stmt) in LAYERS.items():
        best = [[] for _ in srcs]
        for size in sizes:
            runs = [[] for _ in srcs]
            for rep in range(REPEAT):
                for i in trees if rep % 2 == 0 else reversed(trees):
                    runs[i].append(seconds(srcs[i], var, size, setup, stmt))
            for times, tree_runs in zip(best, runs):
                times.append(min(tree_runs))
        for out, times in zip(series, best):
            out[layer] = {
                var: list(sizes),
                "seconds": [round(t, 4) for t in times],
                "exponent": round(log_log_slope(dict(zip(sizes, times))), 2),
            }
    for out in series:
        print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
