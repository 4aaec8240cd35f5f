"""Output checks for benchmark operations, run after the timed region.

Every operation whose stdout does not depend on the seed has its sha256
pinned in expected_stdout.json (taken at the commit that introduced the
benchmark), which also guards byte-identical output.  Every operation is
also checked on its own terms: exit code, the holds/covered/positive/agree
flags, and a seeded sample of printed Racah values and alternating-bound
left-hand sides compared against the definitional hypergeometric sum below,
which never calls the library's Racah engine.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

PINS_PATH = Path(__file__).with_name("expected_stdout.json")


def load_pins() -> dict[str, str]:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Oracle.
# ---------------------------------------------------------------------------


def racah_oracle(n: int, s: int, T: int) -> Fraction:
    """R_n(s, T) as the terminating 4F3 sum

        sum_r (-n)_r (n+1)_r (-s)_r (s+1)_r / ((1)_r (1+T)_r (1-T)_r r!),

    each term built from the previous one by its Pochhammer ratio.
    """
    total = Fraction(0)
    term = Fraction(1)
    r_max = min(n, s)
    for r in range(r_max + 1):
        total += term
        if r < r_max:
            term *= Fraction(
                (r - n) * (n + 1 + r) * (r - s) * (s + 1 + r),
                (r + 1) * (r + 1) * (1 + T + r) * (1 - T + r),
            )
    return total


def harmonic_values(m: int) -> list[Fraction]:
    """H_1..H_m, the harmonic numbers."""
    out, h = [], Fraction(0)
    for j in range(1, m + 1):
        h += Fraction(1, j)
        out.append(h)
    return out


def alternating_lhs_oracle(values, n: int, T: int) -> Fraction:
    """sum_{s=1}^{T-1} (-1)^(s+1) R_n(s, T) H_s by the oracle sum."""
    return sum(
        ((1 if s % 2 else -1) * racah_oracle(n, s, T) * values[s - 1] for s in range(1, T)),
        Fraction(0),
    )


def decimal_12(q: Fraction) -> str:
    """q rounded half-even to 12 places, in the CLI's decimal layout."""
    scaled = round(q * 10**12)
    whole, frac = divmod(abs(scaled), 10**12)
    return f"{'-' if scaled < 0 else ''}{whole}.{frac:012d}"


# ---------------------------------------------------------------------------
# Per-operation checks.  Each returns None when the output is right and a
# short reason otherwise.
# ---------------------------------------------------------------------------


def _json_lines(out: str) -> list[dict]:
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def _flag_rows(rows, flags, expected_count) -> str | None:
    if len(rows) != expected_count:
        return f"{len(rows)} rows, expected {expected_count}"
    for row in rows:
        for flag in flags:
            if row.get(flag) is not True:
                return f"flag {flag} is not true in {row}"
    return None


def _check_scan(argv, out, rng, op) -> str | None:
    report = json.loads(out)
    t_lo, t_hi = int(argv[argv.index("--Tmin") + 1]), int(argv[argv.index("--Tmax") + 1])
    if report["T_range"] != [t_lo, t_hi] or report["violations"]:
        return "scan reports violations or the wrong range"
    if report["rows_checked"] != sum(range(t_lo, t_hi + 1)):
        return "scan checked the wrong number of rows"
    if any(case["n"] != 0 and case["s"] != 0 for case in report["equality_cases"]):
        return "scan reports an interior equality case"
    return None


def _check_ortho(argv, out, rng, op) -> str | None:
    T = int(argv[argv.index("--T") + 1])
    rows = _json_lines(out)
    bad = _flag_rows(rows, ["ok"], 1)
    if bad is None and rows[0]["pairs_checked"] != T * (T + 1) // 2:
        bad = "wrong pair count"
    return bad


def _check_needed(argv, out, rng, op) -> str | None:
    T = int(argv[argv.index("--T") + 1])
    rows = _json_lines(out)
    bad = _flag_rows(rows, ["holds", "covered", "concave"], T)
    if bad:
        return bad
    if [row["n"] for row in rows] != list(range(T)):
        return "rows out of order"
    values = op.sequence if op.sequence is not None else harmonic_values(T - 1)
    rhs = sum(values[: T - 1], Fraction(0))
    n = rng.randrange(T)
    lhs = alternating_lhs_oracle(values, n, T)
    row = rows[n]
    if Fraction(row["rhs"]) != rhs:
        return f"rhs differs from the sequence sum at n={n}"
    if Fraction(row["lhs"]) != lhs or row["lhs_approx"] != decimal_12(lhs):
        return f"lhs differs from the oracle at T={T}, n={n}"
    return None


def _check_racah_table(argv, out, rng, op) -> str | None:
    T = int(argv[argv.index("--T") + 1])
    rows = list(csv.DictReader(io.StringIO(out)))
    if len(rows) != T * T:
        return f"{len(rows)} table rows, expected {T * T}"
    for row in rng.sample(rows, min(6, len(rows))):
        n, s = int(row["n"]), int(row["s"])
        value = racah_oracle(n, s, T)
        if Fraction(row["value"]) != value or row["value_approx"] != decimal_12(value):
            return f"R_{n}({s}, {T}) differs from the oracle"
    return None


def _check_grassmannian(argv, out, rng, op) -> str | None:
    n_max = int(argv[argv.index("--Nmax") + 1])
    rows = _json_lines(out)
    return _flag_rows(rows, ["positive", "agree"], sum(N // 2 + 1 for N in range(1, n_max + 1)))


def _check_pn(argv, out, rng, op) -> str | None:
    n_max = int(argv[argv.index("--nmax") + 1])
    return _flag_rows(_json_lines(out), ["commutator_ok", "tau_positive"], n_max)


def _check_sigma(argv, out, rng, op) -> str | None:
    return _flag_rows([json.loads(out)], ["positive", "agree"], 1)


_CLI_CHECKS = {
    "scan-bound": _check_scan,
    "verify-ortho": _check_ortho,
    "verify-needed": _check_needed,
    "table": _check_racah_table,
    "verify-grassmannian": _check_grassmannian,
    "verify-pn": _check_pn,
    "sigma": _check_sigma,
}


def check_primitive_profile(N: int, profile) -> str | None:
    """Primitive ranks are betti(p) - betti(p-1), counted here directly."""

    def betti(p):
        return sum(1 for b in range(p // 2 + 1) if b <= N and p - b <= N) if p >= 0 else 0

    dims = tuple(max(betti(p) - betti(p - 1), 0) for p in range(N + 1))
    if profile.N != N or tuple(profile.dims) != dims or profile.isolated is not True:
        return f"primitive profile of N={N} is wrong"
    return None


def check_op(op, rc, out, result, pins: dict[str, str], rng: random.Random) -> str | None:
    """Why this operation's output is wrong, or None when it is right."""
    if rc != 0:
        return f"exit code {rc}"
    if op.call is not None:
        return check_primitive_profile(op.call[1], result)
    if op.pinned:
        expected = pins.get(op.label)
        if expected is None:
            return "no pinned stdout hash"
        if sha256(out) != expected:
            return "stdout differs from the pinned hash"
    try:
        return _CLI_CHECKS[op.argv[0]](op.argv, out, rng, op)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"unparsable output: {exc!r}"
