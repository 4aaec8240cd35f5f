"""Command-line driver for the verification suites and scans.

Every subcommand writes its report rows to standard out (JSON lines or CSV)
and a one-line summary to standard error, then exits 0 when every check
passed, 1 when some mathematical check failed, and 2 on a usage or parse
error.  Reruns with the same flags and seed produce byte-identical output;
anything timing-dependent goes to standard error only.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, fields as dataclass_fields
from fractions import Fraction
from typing import Callable, Iterator, TextIO

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


@dataclass(frozen=True)
class RunConfig:
    """One parsed invocation; exactly one subcommand's fields are live."""

    command: str
    N: int | None = None
    Nmin: int = 1
    Nmax: int | None = None
    k: int | None = None
    k_set: tuple[int, ...] | None = None
    T: int | None = None
    Tmin: int | None = None
    Tmax: int | None = None
    n: int | None = None
    s: int | None = None
    nmin: int = 1
    nmax: int | None = None
    method: str = "closed"
    sequence_source: str = "harmonic"
    output_format: str = "json"
    jobs: int | None = None
    seed: int = 0
    kind: str | None = None


# ---------------------------------------------------------------------------
# Output plumbing.
# ---------------------------------------------------------------------------


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ";".join(str(v) for v in value)
    return str(value)


def emit_table(rows: list[dict], columns: list[str], fmt: str, out: TextIO) -> None:
    """Write homogeneous rows in the fixed column order, as CSV or JSON lines.

    CSV always starts with the header row, so an empty row set still emits
    one line.  Rationals are expected to arrive already serialized as "p/q"
    strings, with any decimal companion in its own column.
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
# Subcommand handlers.  Each returns True iff every check passed.
# ---------------------------------------------------------------------------


def _sigma_rows(config: RunConfig) -> Iterator[tuple[lefschetz.SigmaVerdict, dict]]:
    """Verdict and output row for each (N, k) in the range, in (N, k) order."""
    if config.Nmax is None or not 1 <= config.Nmin <= config.Nmax:
        raise UsageError("need 1 <= Nmin <= Nmax")
    for N in range(config.Nmin, config.Nmax + 1):
        if config.k_set is None:
            ks = range(N // 2 + 1)
        else:
            ks = [k for k in config.k_set if 2 * k <= N]
        for k in ks:
            verdict = lefschetz.sigma_verdict(
                lefschetz.SigmaInstance(N, k), method=config.method
            )
            row = verdict.to_json_dict()
            row["sigma_approx"] = decimal_approx(verdict.sigma)
            yield verdict, row


def cmd_verify_grassmannian(config: RunConfig, out: TextIO, err: TextIO) -> bool:
    rows = []
    ok = True
    for verdict, row in _sigma_rows(config):
        ok = ok and verdict.positive and verdict.agree
        rows.append(row)
    if not rows:
        raise UsageError("no (N, k) instances in the requested range")
    columns = ["N", "k", "n", "T", "sigma", "sigma_approx", "positive", "method", "agree"]
    emit_table(rows, columns, config.output_format, out)
    print(
        f"{len(rows)} certificates: " + ("all positive" if ok else "FAILED"),
        file=err,
    )
    return ok


def cmd_verify_pn(config: RunConfig, out: TextIO, err: TextIO) -> bool:
    if config.nmax is None or not 1 <= config.nmin <= config.nmax:
        raise UsageError("need 1 <= nmin <= nmax")
    rows = []
    ok = True
    for n in range(config.nmin, config.nmax + 1):
        commutes = lefschetz.proj_commutator_check(n)
        tau = lefschetz.chain_constant(n)
        ok = ok and commutes and tau > 0
        rows.append(
            {
                "n": n,
                "commutator_ok": commutes,
                "tau": format_rational(tau),
                "tau_approx": decimal_approx(tau),
                "tau_positive": tau > 0,
            }
        )
    columns = ["n", "commutator_ok", "tau", "tau_approx", "tau_positive"]
    emit_table(rows, columns, config.output_format, out)
    print(
        f"projective model n={config.nmin}..{config.nmax}: "
        + ("all relations hold" if ok else "FAILED"),
        file=err,
    )
    return ok


def cmd_verify_ortho(config: RunConfig, out: TextIO, err: TextIO) -> bool:
    t_lo, t_hi = _t_range(config)
    rows = []
    ok = True
    for T in range(t_lo, t_hi + 1):
        pairs, good = racah.orthogonality_profile(T)
        ok = ok and good
        rows.append({"T": T, "pairs_checked": pairs, "ok": good})
    emit_table(rows, ["T", "pairs_checked", "ok"], config.output_format, out)
    print(
        f"orthogonality T={t_lo}..{t_hi}: " + ("exact" if ok else "FAILED"),
        file=err,
    )
    return ok


def cmd_verify_needed(config: RunConfig, out: TextIO, err: TextIO) -> bool:
    if config.T is None or config.T < 3:
        raise UsageError("need --T at least 3")
    values, label, seed = _resolve_sequence(config.sequence_source, config.T, config.seed)
    verdicts = racah.certify_alternating_bound(values, config.T)
    rows = []
    ok = True
    for v in verdicts:
        ok = ok and v.inequality.holds
        row = v.to_json_dict()
        row["lhs_approx"] = decimal_approx(v.inequality.lhs)
        row["rhs_approx"] = decimal_approx(v.inequality.rhs)
        row["sequence"] = label
        row["seed"] = seed
        rows.append(row)
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
    emit_table(rows, columns, config.output_format, out)
    concave = verdicts[0].concave if verdicts else True
    note = "" if concave else " (sequence not concave increasing: exploratory run)"
    print(
        f"alternating bound T={config.T}, sequence={label}: "
        + ("holds for all n" if ok else "FAILED")
        + note,
        file=err,
    )
    return ok


def cmd_scan_bound(config: RunConfig, out: TextIO, err: TextIO) -> bool:
    t_lo, t_hi = _t_range(config)
    jobs = config.jobs if config.jobs is not None else racah.default_jobs()
    if jobs < 1:
        raise UsageError("--jobs must be a positive integer")
    report = racah.bound_scan(t_lo, t_hi, jobs=jobs)
    out.write(json.dumps(report.to_json_dict(with_elapsed=False)) + "\n")
    print(
        f"scanned {report.rows_checked} rows over T={t_lo}..{t_hi} "
        f"in {report.elapsed_ms} ms ({jobs} workers)",
        file=err,
    )
    return report.ok


def cmd_sigma(config: RunConfig, out: TextIO, err: TextIO) -> bool:
    try:
        inst = lefschetz.SigmaInstance(config.N, config.k)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from None
    verdict = lefschetz.sigma_verdict(inst, method=config.method)
    d = verdict.to_json_dict()
    d["sigma_approx"] = decimal_approx(verdict.sigma)
    out.write(json.dumps(d, indent=2) + "\n")
    return verdict.positive and verdict.agree


def cmd_table(config: RunConfig, out: TextIO, err: TextIO) -> bool:
    if config.kind == "sigma":
        rows = [row for _, row in _sigma_rows(config)]
        columns = ["N", "k", "n", "T", "sigma", "sigma_approx", "positive"]
        emit_table(rows, columns, config.output_format, out)
        print(f"{len(rows)} rows", file=err)
        return True
    if config.kind == "racah":
        t_lo, t_hi = _t_range(config)
        rows = []
        for T in range(t_lo, t_hi + 1):
            if config.n is not None and not 0 <= config.n <= T - 1:
                raise UsageError(f"need 0 <= n <= T-1, got n={config.n}, T={T}")
            if config.s is not None and not 0 <= config.s <= T - 1:
                raise UsageError(f"need 0 <= s <= T-1, got s={config.s}, T={T}")
            n_vals = [config.n] if config.n is not None else range(T)
            s_vals = [config.s] if config.s is not None else range(T)
            # only the selected columns, each down to the largest selected row
            n_max = max(n_vals)
            columns = [(s, racah._racah_numerators(s, T, n_max)) for s in s_vals]
            dens = racah._denominators(T, n_max)
            for n in n_vals:
                for s, column in columns:
                    value = Fraction(column[n], dens[n])
                    rows.append(
                        {
                            "T": T,
                            "n": n,
                            "s": s,
                            "value": format_rational(value),
                            "value_approx": decimal_approx(value),
                        }
                    )
        emit_table(rows, ["T", "n", "s", "value", "value_approx"], config.output_format, out)
        print(f"{len(rows)} rows", file=err)
        return True
    raise UsageError(f"unknown table kind {config.kind!r}")


def _t_range(config: RunConfig) -> tuple[int, int]:
    """Resolve --T / --Tmin / --Tmax into a validated inclusive range."""
    if config.T is not None:
        t_lo = t_hi = config.T
    else:
        if config.Tmin is None or config.Tmax is None:
            raise UsageError("need --T, or both --Tmin and --Tmax")
        t_lo, t_hi = config.Tmin, config.Tmax
    if not 3 <= t_lo <= t_hi:
        raise UsageError(f"need 3 <= Tmin <= Tmax, got {t_lo}..{t_hi}")
    return t_lo, t_hi


_HANDLERS: dict[str, Callable[[RunConfig, TextIO, TextIO], bool]] = {
    "verify-grassmannian": cmd_verify_grassmannian,
    "verify-pn": cmd_verify_pn,
    "verify-ortho": cmd_verify_ortho,
    "verify-needed": cmd_verify_needed,
    "scan-bound": cmd_scan_bound,
    "sigma": cmd_sigma,
    "table": cmd_table,
}


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
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--nmin", type=int, default=1)
    _add_format_flag(p)

    p = sub.add_parser("verify-ortho", help="weighted orthogonality of the R rows")
    p.add_argument("--T", type=int, default=None)
    p.add_argument("--Tmin", type=int, default=None)
    p.add_argument("--Tmax", type=int, default=None)
    _add_format_flag(p)

    p = sub.add_parser(
        "verify-needed",
        help="alternating bound for a concave sequence, all n at one T",
    )
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
    p.add_argument("--T", type=int, default=None)
    p.add_argument("--Tmin", type=int, default=None)
    p.add_argument("--Tmax", type=int, default=None)
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help=f"worker processes (default: ${racah.JOBS_ENV_VAR} or the CPU count)",
    )

    p = sub.add_parser("sigma", help="one certificate value, exact")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=("direct", "closed", "both"), default="both")

    p = sub.add_parser("table", help="plot-ready value tables")
    p.add_argument("--kind", choices=("sigma", "racah"), required=True)
    p.add_argument("--Nmax", type=int, default=None)
    p.add_argument("--Nmin", type=int, default=1)
    p.add_argument("--kset", dest="k_set", type=_parse_k_set, default=None)
    p.add_argument("--method", choices=("direct", "closed", "both"), default="closed")
    p.add_argument("--T", type=int, default=None)
    p.add_argument("--Tmin", type=int, default=None)
    p.add_argument("--Tmax", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--s", type=int, default=None)
    _add_format_flag(p, default="csv")

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    pairs = {
        f.name: getattr(args, f.name, f.default) for f in dataclass_fields(RunConfig)
    }
    return RunConfig(**pairs)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = config_from_args(args)
    try:
        ok = _HANDLERS[config.command](config, sys.stdout, sys.stderr)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
