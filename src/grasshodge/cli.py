"""Command-line driver for the verification suites and scans.

Every subcommand writes its report rows to standard out (JSON lines or CSV)
as they are computed and a one-line summary to standard error, then exits 0
when every check passed, 1 when some mathematical check failed, and 2 on a
usage or parse error.  Usage errors are found before the first byte of
output.  Reruns with the same flags and seed produce byte-identical output;
anything timing-dependent goes to standard error only.

The range commands, verify-grassmannian and table --kind sigma over boxes N,
verify-ortho and scan-bound over T, deal their keys to racah's range pool on
--jobs processes (default: the CPUs this process may run on).  Their output
is byte-identical whatever the worker count, failures included: a corrupt
value stops the run at the same row with the same message, and a worker
that dies ends the command with exit 1 and one line on standard error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from functools import partial
from itertools import chain
from typing import Iterable, Iterator, TextIO

from . import lefschetz, racah
from .exactmath import (
    decimal_approx,
    decimal_ratio,
    format_ratio,
    format_rational,
    harmonic_numerators,
    integer_sequence,
    parse_rational,
    random_concave,
)


class UsageError(Exception):
    """Bad flags, an infeasible range, or a malformed sequence file."""


# A principal-weight step left a remainder, or the direct walk failed its
# primitivity or degree check: a value is corrupt.  A range worker hands
# these back for its key, and the command fails on them with exit 1.
_CORRUPT = (racah.InexactStep, lefschetz.NotPrimitive)


# ---------------------------------------------------------------------------
# Output plumbing.
# ---------------------------------------------------------------------------


def _csv_cells(at: list[int], row: tuple) -> list:
    """row with the bool or sequence cell at each index in at as text."""
    row = list(row)
    for i in at:
        cell = row[i]
        row[i] = ("true" if cell else "false") if type(cell) is bool else ";".join(map(str, cell))
    return row


def emit_table(rows: Iterable[tuple], columns: list[str], fmt: str, out: TextIO) -> None:
    """Write rows, tuples of cells in the column order, as CSV or JSON lines.

    Each row is written as soon as the iterable yields it.  CSV always
    starts with the header row, so an empty row set still emits one line.
    Rationals are expected to arrive already serialized as "p/q" strings,
    with any decimal companion in its own column.  A column holds one kind
    of cell: the first row tells CSV where bools (true/false) and sequences
    (joined by ";") are; other cells go to the csv module as they are.
    """
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        rows = iter(rows)
        first = next(rows, None)
        if first is None:
            return
        at = [i for i, cell in enumerate(first) if isinstance(cell, (bool, list, tuple))]
        rows = chain((first,), rows)
        writer.writerows(map(partial(_csv_cells, at), rows) if at else rows)
    elif fmt == "json":
        # json writes a tuple cell as a list
        for row in rows:
            out.write(json.dumps(dict(zip(columns, row))) + "\n")
    else:
        raise UsageError(f"unknown output format {fmt!r}")


def emit_scan_report(report: racah.ScanReport, out: TextIO) -> None:
    """Write the scan-bound line, json.dumps of the report as one dict, one
    T at a time: the edge row (T, 0, s), s < T, of R_0 = 1, then that T's
    interior equality cases."""
    violations = [
        {"T": T, "n": n, "s": s, "value": format_ratio(w, p)} for T, n, s, w, p in report.violations
    ]
    out.write(
        f'{{"T_range": [{report.T_min}, {report.T_max}], '
        f'"violations": {json.dumps(violations)}, "equality_cases": ['
    )
    cases, i = report.exceptions, 0  # in (T, n, s) order, n >= 1
    for T in range(report.T_min, report.T_max + 1):
        edge = f'{{"T": {T}, "n": 0, "s": '
        sep = ", " if T > report.T_min else ""
        out.write(sep + edge + ("}, " + edge).join(map(str, range(T))) + "}")
        while i < len(cases) and cases[i][0] == T:
            _, n, s = cases[i]
            out.write(f', {{"T": {T}, "n": {n}, "s": {s}}}')
            i += 1
    out.write(f'], "rows_checked": {report.rows_checked}}}\n')


class _Tally:
    """Pass rows through, counting them and checking their flag cells.

    A report's summary line needs the row count and the overall verdict,
    and with streamed rows both are known only after the last one is out.
    """

    def __init__(self, rows: Iterable[tuple], columns: list[str], flags: tuple[str, ...] = ()):
        self._rows = rows
        self._at = [columns.index(flag) for flag in flags]
        self.count = 0
        self.ok = True

    def __iter__(self) -> Iterator[tuple]:
        at = self._at
        for row in self._rows:
            self.count += 1
            if at and not all(row[i] for i in at):
                self.ok = False
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
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read sequence file {path}: {exc}") from None
    if not values:
        raise UsageError(f"sequence file {path} holds no values")
    return tuple(values)


def _resolve_sequence(source: str, T: int, seed: int) -> tuple[int, list[int], str, int | None]:
    """The sequence form (scale, h) of H_0..H_(T-1) from a source, plus the
    report's sequence label and seed."""
    if source == "harmonic":
        return *harmonic_numerators(T - 1), "harmonic", None
    if source == "random":
        return *integer_sequence(random_concave(T - 1, seed)), "random", seed
    values = load_sequence(source)
    if len(values) < T - 1:
        raise UsageError(
            f"sequence file {source} holds {len(values)} values, need {T - 1}"
        )
    return *integer_sequence(values[: T - 1]), source, None


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each checks its arguments before writing anything,
# streams its rows, and returns True iff every check passed.
# ---------------------------------------------------------------------------


_SIGMA_COLUMNS = ["N", "k", "n", "T", "sigma", "sigma_approx", "positive", "method", "agree"]


def _sigma_row(inst: lefschetz.SigmaInstance, method: str) -> tuple:
    """The output row of one certificate by method, in the order of
    _SIGMA_COLUMNS."""
    sigma, agree = lefschetz.sigma_verdict(inst, method=method)
    return (
        inst.N, inst.k, inst.n, inst.T,
        format_rational(sigma), decimal_approx(sigma),
        sigma > 0, method, agree,
    )


def _box_rows(method: str, k_set: tuple[int, ...] | None, N: int) -> Iterator[tuple]:
    """Output row for each k of box N in k_set (every k when None), in k
    order, by method."""
    for k in range(N // 2 + 1):
        if k_set is None or k in k_set:
            yield _sigma_row(lefschetz.SigmaInstance(N, k), method)


def _sigma_rows(args: argparse.Namespace, method: str, jobs: int) -> Iterator[tuple]:
    """Output row for each (N, k) in the range, in (N, k) order, by method.

    Each box N is one key of the range pool on jobs processes, so each
    process builds the table of a box once.  A box that fails part way is
    run again in this process, which puts out its rows before the failing
    instance and then raises the same error, as the serial run does.
    The range is checked on the call, before any row is computed; an unset
    Nmin is 1.  A range that holds no (N, k) is a usage error.
    """
    n_lo = 1 if args.Nmin is None else args.Nmin
    if args.Nmax is None or not 1 <= n_lo <= args.Nmax:
        raise UsageError("need 1 <= Nmin <= Nmax")
    # some N <= Nmax holds a k with 2k <= N exactly when the smallest k fits
    if args.k_set is not None and 2 * min(args.k_set) > args.Nmax:
        raise UsageError("no (N, k) instances in the requested range")
    return _box_sweep(range(n_lo, args.Nmax + 1), partial(_box_rows, method, args.k_set), jobs)


def _box_sweep(boxes: range, rows_of, jobs: int) -> Iterator[tuple]:
    """The rows of every box, box by box from the range pool.  A box whose
    key raised is run again here, so that its rows before the failing
    instance come out, and the run here raises the same error (or, should
    it not, the box's error is raised after its rows)."""
    results = racah._range_pool(lambda N: list(rows_of(N)), boxes, jobs, _CORRUPT)
    for N in boxes:
        try:
            rows = next(results)
        except _CORRUPT:
            yield from rows_of(N)
            raise
        yield from rows


def cmd_verify_grassmannian(args: argparse.Namespace, out: TextIO, err: TextIO) -> bool:
    jobs = _jobs(args.jobs)
    rows = _Tally(_sigma_rows(args, args.method, jobs), _SIGMA_COLUMNS, ("positive", "agree"))
    emit_table(rows, _SIGMA_COLUMNS, args.output_format, out)
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
    columns = ["n", "commutator_ok", "tau", "tau_approx", "tau_positive"]
    rows = _Tally(
        (
            (n, commutes, format_rational(tau), decimal_approx(tau), tau > 0)
            for n, commutes, tau in checks
        ),
        columns,
        ("commutator_ok", "tau_positive"),
    )
    emit_table(rows, columns, args.output_format, out)
    print(
        f"projective model n={args.nmin}..{args.nmax}: "
        + ("all relations hold" if rows.ok else "FAILED"),
        file=err,
    )
    return rows.ok


def _ortho_row(T: int) -> tuple[int, int, bool]:
    """The verify-ortho row of one T."""
    return (T, *racah.orthogonality_profile(T))


def cmd_verify_ortho(args: argparse.Namespace, out: TextIO, err: TextIO) -> bool:
    t_lo, t_hi = _t_range(args)
    jobs = _jobs(args.jobs)
    columns = ["T", "pairs_checked", "ok"]
    profiles = racah._range_pool(_ortho_row, range(t_lo, t_hi + 1), jobs, _CORRUPT)
    rows = _Tally(profiles, columns, ("ok",))
    emit_table(rows, columns, args.output_format, out)
    print(
        f"orthogonality T={t_lo}..{t_hi}: " + ("exact" if rows.ok else "FAILED"),
        file=err,
    )
    return rows.ok


def cmd_verify_needed(args: argparse.Namespace, out: TextIO, err: TextIO) -> bool:
    if args.T is None or args.T < 3:
        raise UsageError("need --T at least 3")
    scale, h, label, seed = _resolve_sequence(args.sequence_source, args.T, args.seed)
    # every row is walked before the first byte; one right side serves all
    concave, certified = racah.certify_alternating_bound(scale, h)
    rhs = certified[0][0].rhs
    rhs_text, rhs_approx = format_rational(rhs), decimal_approx(rhs)
    columns = [
        "T", "n", "sequence", "seed",
        "lhs", "lhs_approx", "rhs", "rhs_approx",
        "holds", "branches", "covered", "concave",
    ]
    rows = _Tally(
        (
            (
                args.T, n, label, seed,
                format_rational(ineq.lhs), decimal_approx(ineq.lhs),
                rhs_text, rhs_approx,
                ineq.holds, labels, bool(labels), concave,
            )
            for n, (ineq, labels) in enumerate(certified)
        ),
        columns,
        ("holds",),
    )
    emit_table(rows, columns, args.output_format, out)
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
    report = racah.bound_scan(t_lo, t_hi, jobs=_jobs(args.jobs))
    emit_scan_report(report, out)
    half_grid = sum(T * (T + 1) // 2 for T in range(t_lo, t_hi + 1))
    print(
        f"scanned {report.rows_checked} rows over T={t_lo}..{t_hi} "
        f"in {report.elapsed_ms} ms ({report.workers} workers); "
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
    row = dict(zip(_SIGMA_COLUMNS, _sigma_row(inst, args.method)))
    # the one JSON object carries the decimal last
    row["sigma_approx"] = row.pop("sigma_approx")
    out.write(json.dumps(row, indent=2) + "\n")
    return row["positive"] and row["agree"]


def _racah_rows(args: argparse.Namespace, t_lo: int, t_hi: int) -> Iterator[tuple]:
    """Rows of R_n(s, T) in (T, n, s) order, at every n and s or at the
    selected one; the caller has checked the selection against T = t_lo."""
    for T in range(t_lo, t_hi + 1):
        for n, s, w, p in racah.racah_grid(T, args.n, args.s):
            yield T, n, s, format_ratio(w, p), decimal_ratio(w, p)


# flag: argparse dest, per table kind
_TABLE_FLAGS = {
    "sigma": {"--Nmax": "Nmax", "--Nmin": "Nmin", "--kset": "k_set", "--jobs": "jobs"},
    "racah": {"--T": "T", "--Tmin": "Tmin", "--Tmax": "Tmax", "--n": "n", "--s": "s"},
}


def cmd_table(args: argparse.Namespace, out: TextIO, err: TextIO) -> bool:
    other = _TABLE_FLAGS["racah" if args.kind == "sigma" else "sigma"]
    stray = [flag for flag, dest in other.items() if getattr(args, dest) is not None]
    if stray:
        raise UsageError(f"--kind {args.kind} takes no {', '.join(stray)}")
    if args.kind == "sigma":
        # the first seven columns: no method or agree flag
        columns = _SIGMA_COLUMNS[:7]
        jobs = _jobs(racah.default_jobs() if args.jobs is None else args.jobs)
        rows = _Tally((row[:7] for row in _sigma_rows(args, "closed", jobs)), columns)
    elif args.kind == "racah":
        t_lo, t_hi = _t_range(args)
        # the bound T-1 only grows with T, so the first T decides
        if args.n is not None and not 0 <= args.n <= t_lo - 1:
            raise UsageError(f"need 0 <= n <= T-1, got n={args.n}, T={t_lo}")
        if args.s is not None and not 0 <= args.s <= t_lo - 1:
            raise UsageError(f"need 0 <= s <= T-1, got s={args.s}, T={t_lo}")
        columns = ["T", "n", "s", "value", "value_approx"]
        rows = _Tally(_racah_rows(args, t_lo, t_hi), columns)
    else:
        raise UsageError(f"unknown table kind {args.kind!r}")
    emit_table(rows, columns, args.output_format, out)
    print(f"{rows.count} rows", file=err)
    return True


def _jobs(jobs: int) -> int:
    """The --jobs value, checked."""
    if jobs < 1:
        raise UsageError("--jobs must be a positive integer")
    return jobs


def _t_range(args: argparse.Namespace) -> tuple[int, int]:
    """Resolve --T / --Tmin / --Tmax into a validated inclusive range."""
    if args.T is not None:
        if args.Tmin is not None or args.Tmax is not None:
            raise UsageError("give --T or --Tmin and --Tmax, not both")
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


def _add_jobs_flag(p: argparse.ArgumentParser, default: int | None) -> None:
    p.add_argument(
        "--jobs",
        type=int,
        default=default,
        help="worker processes (default: the CPUs this process may run on)",
    )


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
    jobs = racah.default_jobs()

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
    _add_jobs_flag(p, jobs)
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
    _add_jobs_flag(p, jobs)
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
    _add_jobs_flag(p, jobs)

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
    # None, so that a racah table can tell it was given
    _add_jobs_flag(p, None)
    _add_format_flag(p, default="csv")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        ok = args.handler(args, sys.stdout, sys.stderr)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (*_CORRUPT, racah.WorkerError) as exc:
        # a value is corrupt, or a range worker died before handing back its key
        print(f"{args.command} FAILED: {exc}", file=sys.stderr)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
