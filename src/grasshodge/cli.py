"""Command-line driver for the verification suites and scans.

Every subcommand writes its report rows to standard out (JSON lines or CSV)
as they are computed and a one-line summary to standard error, then exits 0
when every check passed, 1 when some mathematical check failed, and 2 on a
usage or parse error.  Usage errors are found before the first byte of
output.  Reruns with the same flags and seed produce byte-identical output;
anything timing-dependent goes to standard error only.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from typing import Callable, Iterable, Iterator, TextIO

from . import lefschetz, racah
from .exactmath import (
    ConcaveSequence,
    decimal_approx,
    format_rational,
    parse_rational,
    random_concave,
)


class UsageError(Exception):
    """Bad flags, an infeasible range, or a malformed sequence file."""


# ---------------------------------------------------------------------------
# Output plumbing.
# ---------------------------------------------------------------------------


def _csv_cell(value) -> str:
    # the common cells first, by exact type: bool is a subclass of int
    kind = type(value)
    if kind is str:
        return value
    if kind is int:
        return str(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ";".join(str(v) for v in value)
    return str(value)


def emit_table(rows: Iterable[dict], columns: list[str], fmt: str, out: TextIO) -> None:
    """Write homogeneous rows in the fixed column order, as CSV or JSON lines.

    Each row is written as soon as the iterable yields it.  CSV always
    starts with the header row, so an empty row set still emits one line.
    Rationals are expected to arrive already serialized as "p/q" strings,
    with any decimal companion in its own column.
    """
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_csv_cell(row[c]) for c in columns])
    elif fmt == "json":
        for row in rows:
            ordered = {
                c: list(v) if isinstance(v, tuple) else v
                for c, v in ((c, row[c]) for c in columns)
            }
            out.write(json.dumps(ordered) + "\n")
    else:
        raise UsageError(f"unknown output format {fmt!r}")


class _Tally:
    """Pass rows through, counting them and checking each one on the way.

    A report's summary line needs the row count and the overall verdict,
    and with streamed rows both are known only after the last one is out.
    """

    def __init__(self, rows: Iterable[dict], passed: Callable[[dict], bool] = lambda row: True):
        self._rows = rows
        self._passed = passed
        self.count = 0
        self.ok = True

    def __iter__(self) -> Iterator[dict]:
        for row in self._rows:
            self.count += 1
            self.ok = self.ok and self._passed(row)
            yield row


def load_sequence(path: str) -> tuple[Fraction, ...]:
    """Read one value per line (rational p/q, integer, or decimal): H_1..H_m."""
    values = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                text = line.strip()
                if not text:
                    continue
                try:
                    values.append(parse_rational(text))
                except ValueError as exc:
                    raise UsageError(f"{path}:{lineno}: {exc}") from None
    except OSError as exc:
        raise UsageError(f"cannot read sequence file {path}: {exc}") from None
    if not values:
        raise UsageError(f"sequence file {path} holds no values")
    return tuple(values)


def _resolve_sequence(
    source: str, T: int, seed: int
) -> tuple[tuple[Fraction, ...], str, int | None]:
    """Turn a sequence source into T-1 leading values plus report metadata."""
    if source == "harmonic":
        return ConcaveSequence.harmonic(T - 1).values, "harmonic", None
    if source == "random":
        return random_concave(T - 1, seed).values, "random", seed
    values = load_sequence(source)
    if len(values) < T - 1:
        raise UsageError(
            f"sequence file {source} holds {len(values)} values, need {T - 1}"
        )
    return values[: T - 1], source, None


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each checks its arguments before writing anything,
# streams its rows, and returns True iff every check passed.
# ---------------------------------------------------------------------------


def _sigma_rows(args: argparse.Namespace, method: str) -> Iterator[dict]:
    """Output row for each (N, k) in the range, in (N, k) order, by method.

    The range is checked on the call, before any row is computed; an unset
    Nmin is 1.
    """
    n_lo = 1 if args.Nmin is None else args.Nmin
    if args.Nmax is None or not 1 <= n_lo <= args.Nmax:
        raise UsageError("need 1 <= Nmin <= Nmax")
    verdicts = (
        lefschetz.sigma_verdict(lefschetz.SigmaInstance(N, k), method=method)
        for N in range(n_lo, args.Nmax + 1)
        for k in range(N // 2 + 1)
        if args.k_set is None or k in args.k_set
    )
    return ({**v.to_json_dict(), "sigma_approx": decimal_approx(v.sigma)} for v in verdicts)


def cmd_verify_grassmannian(args: argparse.Namespace, out: TextIO, err: TextIO) -> bool:
    rows = _Tally(_sigma_rows(args, args.method), lambda row: row["positive"] and row["agree"])
    # some N <= Nmax holds a k with 2k <= N exactly when the smallest k fits
    if args.k_set is not None and 2 * min(args.k_set) > args.Nmax:
        raise UsageError("no (N, k) instances in the requested range")
    columns = ["N", "k", "n", "T", "sigma", "sigma_approx", "positive", "method", "agree"]
    emit_table(rows, columns, args.output_format, out)
    print(
        f"{rows.count} certificates: " + ("all positive" if rows.ok else "FAILED"),
        file=err,
    )
    return rows.ok


def cmd_verify_pn(args: argparse.Namespace, out: TextIO, err: TextIO) -> bool:
    if args.nmax is None or not 1 <= args.nmin <= args.nmax:
        raise UsageError("need 1 <= nmin <= nmax")
    checks = (
        (n, lefschetz.proj_commutator_check(n), lefschetz.chain_constant(n))
        for n in range(args.nmin, args.nmax + 1)
    )
    rows = _Tally(
        (
            {
                "n": n,
                "commutator_ok": commutes,
                "tau": format_rational(tau),
                "tau_approx": decimal_approx(tau),
                "tau_positive": tau > 0,
            }
            for n, commutes, tau in checks
        ),
        lambda row: row["commutator_ok"] and row["tau_positive"],
    )
    columns = ["n", "commutator_ok", "tau", "tau_approx", "tau_positive"]
    emit_table(rows, columns, args.output_format, out)
    print(
        f"projective model n={args.nmin}..{args.nmax}: "
        + ("all relations hold" if rows.ok else "FAILED"),
        file=err,
    )
    return rows.ok


def cmd_verify_ortho(args: argparse.Namespace, out: TextIO, err: TextIO) -> bool:
    t_lo, t_hi = _t_range(args)
    profiles = ((T, *racah.orthogonality_profile(T)) for T in range(t_lo, t_hi + 1))
    rows = _Tally(
        ({"T": T, "pairs_checked": pairs, "ok": good} for T, pairs, good in profiles),
        lambda row: row["ok"],
    )
    emit_table(rows, ["T", "pairs_checked", "ok"], args.output_format, out)
    print(
        f"orthogonality T={t_lo}..{t_hi}: " + ("exact" if rows.ok else "FAILED"),
        file=err,
    )
    return rows.ok


def cmd_verify_needed(args: argparse.Namespace, out: TextIO, err: TextIO) -> bool:
    if args.T is None or args.T < 3:
        raise UsageError("need --T at least 3")
    values, label, seed = _resolve_sequence(args.sequence_source, args.T, args.seed)
    verdicts = racah.certify_alternating_bound(values, args.T)
    rows = _Tally(
        (
            {
                **v.to_json_dict(),
                "lhs_approx": decimal_approx(v.inequality.lhs),
                "rhs_approx": decimal_approx(v.inequality.rhs),
                "sequence": label,
                "seed": seed,
            }
            for v in verdicts
        ),
        lambda row: row["holds"],
    )
    columns = [
        "T",
        "n",
        "sequence",
        "seed",
        "lhs",
        "lhs_approx",
        "rhs",
        "rhs_approx",
        "holds",
        "branches",
        "covered",
        "concave",
    ]
    emit_table(rows, columns, args.output_format, out)
    concave = verdicts[0].concave if verdicts else True
    note = "" if concave else " (sequence not concave increasing: exploratory run)"
    print(
        f"alternating bound T={args.T}, sequence={label}: "
        + ("holds for all n" if rows.ok else "FAILED")
        + note,
        file=err,
    )
    return rows.ok


def cmd_scan_bound(args: argparse.Namespace, out: TextIO, err: TextIO) -> bool:
    t_lo, t_hi = _t_range(args)
    if args.jobs < 1:
        raise UsageError("--jobs must be a positive integer")
    report = racah.bound_scan(t_lo, t_hi, jobs=args.jobs)
    out.write(json.dumps(report.to_json_dict()) + "\n")
    half_grid = sum(T * (T + 1) // 2 for T in range(t_lo, t_hi + 1))
    print(
        f"scanned {report.rows_checked} rows over T={t_lo}..{t_hi} "
        f"in {report.elapsed_ms} ms ({args.jobs} workers); "
        f"{report.points_walked} of {half_grid} half-grid points walked; "
        "the rest are strictly inside by the orthogonality norm",
        file=err,
    )
    return report.ok


def cmd_sigma(args: argparse.Namespace, out: TextIO, err: TextIO) -> bool:
    try:
        inst = lefschetz.SigmaInstance(args.N, args.k)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from None
    verdict = lefschetz.sigma_verdict(inst, method=args.method)
    d = verdict.to_json_dict()
    d["sigma_approx"] = decimal_approx(verdict.sigma)
    out.write(json.dumps(d, indent=2) + "\n")
    return verdict.positive and verdict.agree


def _racah_rows(args: argparse.Namespace, t_lo: int, t_hi: int) -> Iterator[dict]:
    """Rows of R_n(s, T) in (T, n, s) order, at every n and s or at the
    selected one; the caller has checked the selection against T = t_lo."""
    for T in range(t_lo, t_hi + 1):
        for n, s, value in racah.racah_grid(T, args.n, args.s):
            yield {
                "T": T,
                "n": n,
                "s": s,
                "value": format_rational(value),
                "value_approx": decimal_approx(value),
            }


# flag: argparse dest, per table kind
_TABLE_FLAGS = {
    "sigma": {"--Nmax": "Nmax", "--Nmin": "Nmin", "--kset": "k_set"},
    "racah": {"--T": "T", "--Tmin": "Tmin", "--Tmax": "Tmax", "--n": "n", "--s": "s"},
}


def cmd_table(args: argparse.Namespace, out: TextIO, err: TextIO) -> bool:
    other = _TABLE_FLAGS["racah" if args.kind == "sigma" else "sigma"]
    stray = [flag for flag, dest in other.items() if getattr(args, dest) is not None]
    if stray:
        raise UsageError(f"--kind {args.kind} takes no {', '.join(stray)}")
    if args.kind == "sigma":
        rows = _Tally(_sigma_rows(args, "closed"))
        columns = ["N", "k", "n", "T", "sigma", "sigma_approx", "positive"]
    elif args.kind == "racah":
        t_lo, t_hi = _t_range(args)
        # the bound T-1 only grows with T, so the first T decides
        if args.n is not None and not 0 <= args.n <= t_lo - 1:
            raise UsageError(f"need 0 <= n <= T-1, got n={args.n}, T={t_lo}")
        if args.s is not None and not 0 <= args.s <= t_lo - 1:
            raise UsageError(f"need 0 <= s <= T-1, got s={args.s}, T={t_lo}")
        rows = _Tally(_racah_rows(args, t_lo, t_hi))
        columns = ["T", "n", "s", "value", "value_approx"]
    else:
        raise UsageError(f"unknown table kind {args.kind!r}")
    emit_table(rows, columns, args.output_format, out)
    print(f"{rows.count} rows", file=err)
    return True


def _t_range(args: argparse.Namespace) -> tuple[int, int]:
    """Resolve --T / --Tmin / --Tmax into a validated inclusive range."""
    if args.T is not None:
        t_lo = t_hi = args.T
    else:
        if args.Tmin is None or args.Tmax is None:
            raise UsageError("need --T, or both --Tmin and --Tmax")
        t_lo, t_hi = args.Tmin, args.Tmax
    if not 3 <= t_lo <= t_hi:
        raise UsageError(f"need 3 <= Tmin <= Tmax, got {t_lo}..{t_hi}")
    return t_lo, t_hi


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


def _parse_k_set(text: str) -> tuple[int, ...]:
    try:
        values = tuple(sorted({int(part) for part in text.split(",") if part.strip()}))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad k list {text!r}") from None
    if not values or any(k < 0 for k in values):
        raise argparse.ArgumentTypeError(f"bad k list {text!r}")
    return values


def _add_format_flag(p: argparse.ArgumentParser, default: str = "json") -> None:
    p.add_argument(
        "--format",
        dest="output_format",
        choices=("json", "csv"),
        default=default,
        help=f"output format (default {default})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grasshodge",
        description="Exact verification suites for the hard Lefschetz "
        "certificate on Grassmannians of lines, its hypergeometric identities, "
        "and the |R_n(s,T)| <= 1 scan.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser(
        "verify-grassmannian",
        help="certificate positivity over a range of Grassmannians",
    )
    p.set_defaults(handler=cmd_verify_grassmannian)
    p.add_argument("--Nmax", type=int, required=True)
    p.add_argument("--Nmin", type=int, default=1)
    p.add_argument(
        "--kset",
        dest="k_set",
        type=_parse_k_set,
        default=None,
        help="comma-separated k values (default: every k with 2k <= N)",
    )
    p.add_argument("--method", choices=("direct", "closed", "both"), default="closed")
    _add_format_flag(p)

    p = sub.add_parser("verify-pn", help="projective-space model relations")
    p.set_defaults(handler=cmd_verify_pn)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--nmin", type=int, default=1)
    _add_format_flag(p)

    p = sub.add_parser("verify-ortho", help="weighted orthogonality of the R rows")
    p.set_defaults(handler=cmd_verify_ortho)
    p.add_argument("--T", type=int, default=None)
    p.add_argument("--Tmin", type=int, default=None)
    p.add_argument("--Tmax", type=int, default=None)
    _add_format_flag(p)

    p = sub.add_parser(
        "verify-needed",
        help="alternating bound for a concave sequence, all n at one T",
    )
    p.set_defaults(handler=cmd_verify_needed)
    p.add_argument("--T", type=int, required=True)
    p.add_argument(
        "--sequence",
        dest="sequence_source",
        default="harmonic",
        help="'harmonic', 'random', or a file with one value per line",
    )
    p.add_argument("--seed", type=int, default=0, help="seed for --sequence random")
    _add_format_flag(p)

    p = sub.add_parser("scan-bound", help="scan |R_n(s,T)| <= 1 over a T range")
    p.set_defaults(handler=cmd_scan_bound)
    p.add_argument("--T", type=int, default=None)
    p.add_argument("--Tmin", type=int, default=None)
    p.add_argument("--Tmax", type=int, default=None)
    p.add_argument(
        "--jobs",
        type=int,
        default=racah.default_jobs(),
        help="worker processes (default: the CPUs this process may run on)",
    )

    p = sub.add_parser("sigma", help="one certificate value, exact")
    p.set_defaults(handler=cmd_sigma)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=("direct", "closed", "both"), default="both")

    p = sub.add_parser("table", help="plot-ready value tables")
    p.set_defaults(handler=cmd_table)
    p.add_argument("--kind", choices=("sigma", "racah"), required=True)
    p.add_argument("--Nmax", type=int, default=None)
    p.add_argument("--Nmin", type=int, default=None, help="default 1")
    p.add_argument("--kset", dest="k_set", type=_parse_k_set, default=None)
    p.add_argument("--T", type=int, default=None)
    p.add_argument("--Tmin", type=int, default=None)
    p.add_argument("--Tmax", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--s", type=int, default=None)
    _add_format_flag(p, default="csv")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        ok = args.handler(args, sys.stdout, sys.stderr)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except racah.InexactStep as exc:
        # a step of a principal-weight walk left a remainder: a value is corrupt
        print(f"{args.command} FAILED: {exc}", file=sys.stderr)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
