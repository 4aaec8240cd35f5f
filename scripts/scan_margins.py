"""Profile how close the interior Racah values get to the unit bound.

For each T in a range, scan |R_n(s,T)| over the interior grid
1 <= n <= s <= T-1 (the symmetric half; edges n=0 and s=0 sit exactly at 1)
and report the maximum, where it occurs, and the exact gap below 1.  A
violation of the bound would also be caught by the integer scan, which runs
first as a cross-check.

Usage:
    python3 scripts/scan_margins.py --Tmin 3 --Tmax 40 [--csv]
"""

import argparse
import csv
import sys
from fractions import Fraction

from grasshodge.exactmath import decimal_approx, format_ratio, format_rational
from grasshodge.racah import bound_scan, racah_grid


def interior_max(T):
    """Largest |R_n(s, T)| over 1 <= n <= s <= T-1 and its (n, s), read off
    the full grid in (n, s) order, so among equal maxima the first wins."""
    best, where = Fraction(0), None
    for n, s, w, p in racah_grid(T):
        if 1 <= n <= s and Fraction(abs(w), p) > best:
            best, where = Fraction(abs(w), p), (n, s)
    return best, where


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--Tmin", type=int, default=3)
    ap.add_argument("--Tmax", type=int, default=40)
    ap.add_argument("--csv", action="store_true", help="emit CSV instead of a table")
    args = ap.parse_args()
    if not 3 <= args.Tmin <= args.Tmax:
        ap.error("need 3 <= Tmin <= Tmax")

    report = bound_scan(args.Tmin, args.Tmax)
    if report.violations:
        hits = ", ".join(
            f"({T}, {n}, {s}, {format_ratio(w, p)})"
            for T, n, s, w, p in report.violations[:5]
        )
        print(f"bound violated at (T, n, s, value): {hits}", file=sys.stderr)
        return 1

    rows = []
    for T in range(args.Tmin, args.Tmax + 1):
        top, (n, s) = interior_max(T)
        rows.append((T, n, s, top, 1 - top))

    if args.csv:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["T", "n", "s", "max_abs", "max_abs_approx", "gap"])
        for T, n, s, top, gap in rows:
            writer.writerow(
                [T, n, s, format_rational(top), decimal_approx(top), format_rational(gap)]
            )
    else:
        print(f"{'T':>4}  {'argmax':>10}  {'max |R|':>14}  gap below 1")
        for T, n, s, top, gap in rows:
            print(
                f"{T:>4}  {f'({n},{s})':>10}  {decimal_approx(top):>14}  "
                f"{format_rational(gap)}"
            )
        grew = all(a[3] <= b[3] for a, b in zip(rows, rows[1:]))
        print(
            f"\n{report.rows_checked} grid rows checked, no violations; "
            f"interior max {'increases with T' if grew else 'is not monotone in T'}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
