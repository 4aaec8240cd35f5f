"""Census of which certification route covers each degree of the bound.

For the harmonic sequence at each T, every degree n gets an exact verdict on
the alternating inequality plus the set of routes that certify it without
evaluating the full sum: the Cauchy-Schwarz range, the closed-form rows, and
the rescaled-Legendre regime.  This script counts route usage per T and
flags any degree left uncovered.  (For sequences from a file, use the CLI's
verify-needed subcommand instead.)

Usage:
    python3 scripts/branch_census.py --Tmin 3 --Tmax 60
"""

import argparse
import sys
from collections import Counter

from grasshodge.exactmath import decimal_approx, harmonic_numerators
from grasshodge.racah import certify_alternating_bound

ROUTES = ("cauchy", "closed-form", "legendre")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--Tmin", type=int, default=3)
    ap.add_argument("--Tmax", type=int, default=60)
    args = ap.parse_args()
    if not 3 <= args.Tmin <= args.Tmax:
        ap.error("need 3 <= Tmin <= Tmax")

    uncovered = []
    header = f"{'T':>4}  " + "".join(f"{r:>12}" for r in ROUTES) + "  min margin"
    print(header)
    for T in range(args.Tmin, args.Tmax + 1):
        _, rows = certify_alternating_bound(*harmonic_numerators(T - 1))
        counts = Counter(label for _, labels in rows for label in labels)
        margin = min((ineq.rhs - ineq.lhs) / ineq.rhs for ineq, _ in rows)
        uncovered.extend((T, n) for n, (_, labels) in enumerate(rows) if not labels)
        failed = [n for n, (ineq, _) in enumerate(rows) if not ineq.holds]
        if failed:
            print(f"inequality FAILED at T={T}, n={failed}", file=sys.stderr)
            return 1
        print(
            f"{T:>4}  "
            + "".join(f"{counts.get(r, 0):>12}" for r in ROUTES)
            + f"  {decimal_approx(margin, 6)}"
        )

    if uncovered:
        print(f"\nuncovered degrees: {uncovered}")
    else:
        print(f"\nevery degree covered by some route for T in [{args.Tmin}, {args.Tmax}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
