"""Racah polynomial values, orthogonality, bound scans, and inequality checks.

The central object is the normalized Racah value

    R_n(s, T) = sum_r [(-n)_r (n+1)_r (-s)_r (s+1)_r]
                      / [(1)_r (1+T)_r (1-T)_r r!],

the terminating 4F3 that defines the Racah polynomial with alpha = beta = 0,
gamma = -T, delta = T in the variable s(s+1) (Wilson 1980; Koekoek, Lesky
and Swarttouw, Hypergeometric Orthogonal Polynomials, section 9.2).  It is
held exactly as one integer form, w_n(s) = P_n R_n(s, T) with the principal
weight P_n = C(T-1, n) C(T+n, n), walked down a column by the three-term
recurrence in n or along a row by the same recurrence in s; the sum itself
lives in the tests as the independent oracle.  Around it sit the Legendre
comparison family, the lattice that links the two, the alternating
inequality driven by a concave sequence, and the scan that checks
|R_n(s, T)| <= 1 across a whole parameter range.
"""

from __future__ import annotations

import marshal
import os
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, cos, lcm, pi, sin, sqrt
from operator import mul

from .exactmath import (
    ConcaveSequence,
    exp_compare,
    format_rational,
    validate_concave,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Exact evaluation: one integer form, two walks.
#
# Every value is held as the integer
#
#     w_n(s) = P_n R_n(s, T),   P_n = C(T-1, n) C(T+n, n) > 0,
#
# P_n being the principal weight of the closed certificate.  For n <= T-1,
# w_n(s) is an integer at every s >= 0, since each term of the 4F3 sum is
# integral once multiplied by P_n.  It is walked in two directions, each with
# one exact division by a small integer per step.
#
# Down a column s (the three-term recurrence in the degree n, Koekoek-Lesky-
# Swarttouw 9.2, brought over P_n), from w_0 = 1 and w_1 = T^2 - 1 - 2s(s+1):
#
#     w_(n+1) = -(n b_n w_n + (T^2-n^2)^2 w_(n-1)) / (n (n+1)^3),
#     b_n = (n+1)^3 + n^3 + (2n+1)(2 s(s+1) - T^2).
#
# This is a polynomial identity in s(s+1), so a column may run past s = T-1,
# and only the 2s(s+1) term depends on the column, so the coefficients are
# built once per T.
#
# Along a row n the recurrence is the same with n and s exchanged, by the
# self-duality R_n(s) = R_s(n) (P_n is constant along the row).  Put as
# K w_n = lambda_n D w_n, lambda_n = 2n(n+1), D = diag(2s+1), it has K
# symmetric tridiagonal (_difference_operator): off-diagonal
# alpha_s = (s+1)((s+1)^2-T^2) and diagonal -beta_s,
# beta_s = (s+1)^3 + s^3 - (2s+1) T^2.  The row walk solves
# K w_n = lambda_n D w_n forward from w_n(-1) = 0, w_n(0) = P_n, dividing by
# alpha_s up to s + 1 = T-1, where alpha_s is last nonzero.  K is symmetric,
# so (lambda_n - lambda_m) w_m^T D w_n = w_m^T K w_n - w_n^T K w_m = 0 for
# the distinct lambda_n: orthogonality_profile certifies all T(T+1)/2 row
# pairs from T^2 three-term identities and T norms, on the alpha and beta the
# row walk steps with, and its pair count counts pairs certified, not pair
# sums formed.
#
# Both walks stay on small numbers: on the grid |w_n(s)| <= P_n wherever the
# scan has checked the bound, and P_n has at most about 2.5 kbit at T = 1000.
# Every division is exact; one that leaves a remainder means a corrupted
# value, and it raises InexactStep instead of flooring.
# ---------------------------------------------------------------------------


class InexactStep(ArithmeticError):
    """A principal-weight step left a remainder: a value in the walk is
    corrupt, so nothing read from that walk is decided."""


def principal_weight(n: int, T: int) -> int:
    """P_n = C(T-1, n) C(T+n, n): the integer that clears every denominator
    of R_n(s, T), and the constant multiplying the alternating-inequality
    margin in the closed certificate."""
    return comb(T - 1, n) * comb(T + n, n)


def _principal_steps(T: int, n_max: int | None = None) -> list[tuple[int, int, int, int]]:
    """Step coefficients (c, d, k, q) for n = 1..n_max-1, enough for columns
    down to degree n_max (by default T-1), with
    w_(n+1) = ((c + d v) w_n + k w_(n-1)) / q at v = 2 s(s+1):
    c + d v = n b_n, k = (T^2-n^2)^2 and q = -n (n+1)^3."""
    T2 = T * T
    steps = []
    for n in range(1, T - 1 if n_max is None else n_max):
        m3 = (n + 1) ** 3
        e = T2 - n * n
        steps.append((n * (m3 + n * n * n - (2 * n + 1) * T2), n * (2 * n + 1), e * e, -n * m3))
    return steps


def _principal_column(
    s: int, T: int, steps: list[tuple[int, int, int, int]], n_max: int
) -> list[int]:
    """w_0(s) .. w_(n_max)(s) from the step table of T; needs
    0 <= n_max <= T-1, while s may be any s >= 0."""
    v = 2 * s * (s + 1)
    column = [1]
    if n_max:
        prev, cur = 1, T * T - 1 - v
        column.append(cur)
        for c, d, k, q in steps[: n_max - 1]:
            nxt, rem = divmod((c + d * v) * cur + k * prev, q)
            if rem:
                n = len(column) - 1
                raise InexactStep(
                    f"principal-weight step n={n} -> {n + 1} at T={T}, s={s} "
                    f"leaves a remainder modulo {-q}"
                )
            prev, cur = cur, nxt
            column.append(cur)
    return column


@lru_cache(maxsize=1)
def _difference_operator(T: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The symmetric tridiagonal K of the s-recurrence at T: off-diagonal
    alpha_s = (s+1)((s+1)^2 - T^2) and diagonal -beta_s with
    beta_s = (s+1)^3 + s^3 - (2s+1) T^2, for s = 0..T-1 (alpha_(T-1) = 0);
    every row of one T reads it, so the last T's tuples are kept."""
    T2 = T * T
    alpha = tuple((s + 1) * ((s + 1) ** 2 - T2) for s in range(T))
    beta = tuple((s + 1) ** 3 + s**3 - (2 * s + 1) * T2 for s in range(T))
    return alpha, beta


def _principal_row(n: int, T: int) -> list[int]:
    """w_n(0) .. w_n(T-1), walked along s with the coefficients of
    _difference_operator(T); needs 0 <= n <= T-1."""
    alpha, beta = _difference_operator(T)
    lam = 2 * n * (n + 1)
    prev, cur = 0, principal_weight(n, T)
    row = [cur]
    for s, down, up, b in zip(range(T - 1), (0, *alpha), alpha, beta):
        nxt, rem = divmod((b + lam * (2 * s + 1)) * cur - down * prev, up)
        if rem:
            raise InexactStep(
                f"principal-weight step s={s} -> {s + 1} at T={T}, n={n} "
                f"leaves a remainder modulo {-up}"
            )
        prev, cur = cur, nxt
        row.append(cur)
    return row


def _validate_racah_args(n: int, s: int, T: int) -> None:
    if T < 3:
        raise ValueError(f"need T >= 3, got {T}")
    if n < 0 or s < 0:
        raise ValueError(f"need n, s >= 0, got n={n}, s={s}")
    if min(n, s) >= T:
        raise ValueError(
            f"denominator factor (1-T)_r vanishes: min(n, s) = {min(n, s)} >= T = {T}"
        )


def racah_eval(n: int, s: int, T: int) -> Fraction:
    """Exact value R_n(s, T); by the n <-> s symmetry one index may be >= T.

    With m = min(n, s) and x = max(n, s), the value is w_m(x) / P_m, read off
    the column at x walked down to degree m.
    """
    _validate_racah_args(n, s, T)
    m = min(n, s)
    return Fraction(
        _principal_column(max(n, s), T, _principal_steps(T, m), m)[m], principal_weight(m, T)
    )


def racah_grid(T: int, n: int | None = None, s: int | None = None) -> Iterator[tuple]:
    """(n, s, R_n(s, T)) in (n, s) order over n, s = 0..T-1, or at the
    selected n and/or s.  By the self-duality R_n(s) = R_s(n), row n is read
    off column n, w_s(n) = P_s R_n(s), walked down to the largest selected s;
    one column is held at a time.  A lone s reads column s alone."""
    if T < 3 or not all(0 <= i < T for i in (n, s) if i is not None):
        raise ValueError(f"need T >= 3 and 0 <= n, s <= T-1, got T={T}, n={n}, s={s}")
    if n is None and s is not None:
        # a lone s: the one column s, as w_n(s) / P_n
        column = _principal_column(s, T, _principal_steps(T), T - 1)
        for row, w in enumerate(column):
            yield row, s, Fraction(w, principal_weight(row, T))
        return
    s_vals = range(T) if s is None else [s]
    top = max(s_vals)
    steps = _principal_steps(T, top)
    weights = [principal_weight(c, T) for c in s_vals]
    for row in range(T) if n is None else [n]:
        column = _principal_column(row, T, steps, top)
        for c, weight in zip(s_vals, weights):
            yield row, c, Fraction(column[c], weight)


def _full_int_table(T: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Rows w_n(0..T-1) and weights P_n for n = 0..T-1, as T principal
    columns transposed.  No library code calls it: it stays only while
    perfbench's span list names it."""
    steps = _principal_steps(T)
    columns = [_principal_column(s, T, steps, T - 1) for s in range(T)]
    return tuple(zip(*columns)), tuple(principal_weight(n, T) for n in range(T))


def orthogonality_profile(T: int) -> tuple[int, bool]:
    """Weighted orthogonality of every unordered row pair n <= m at one T.

    sum_s (2s+1) R_n R_m over s = 0..T-1 must equal T^2/(2n+1) when n = m
    and 0 otherwise.  Returns the number of pairs certified, T(T+1)/2, and
    whether the certificate holds.  It walks the principal columns
    s = 0..T-1 in order, holding three, and checks as exact integers:

    * the three-term identity in s, K w_n = lambda_n D w_n, at every n and
      s:  alpha_s w_n(s+1) - beta_s w_n(s) + alpha_(s-1) w_n(s-1)
      = 2n(n+1) (2s+1) w_n(s), with alpha and beta from _difference_operator;
      alpha_(-1) = alpha_(T-1) = 0, so no value off the grid is read;
    * the T diagonal norms (2n+1) sum_s (2s+1) w_n(s)^2 = T^2 P_n^2, summed
      as the columns pass.

    K is symmetric, so (lambda_n - lambda_m) sum_s (2s+1) w_n w_m =
    w_m^T K w_n - w_n^T K w_m = 0, and the eigenvalues lambda_n = 2n(n+1)
    are distinct: every off-diagonal pair sum vanishes.  The values pass only
    if the T(T+1)/2 pair sums would also pass, at O(T^2) products instead of
    O(T^3).
    """
    if T < 3:
        raise ValueError(f"need T >= 3, got {T}")
    steps = _principal_steps(T)
    alpha, beta = _difference_operator(T)
    lams = [2 * n * (n + 1) for n in range(T)]
    pairs = T * (T + 1) // 2
    norms = prev = [0] * T
    cur = _principal_column(0, T, steps, T - 1)
    for s, (up, down, b) in enumerate(zip(alpha, (0, *alpha), beta)):
        nxt = _principal_column(s + 1, T, steps, T - 1) if s < T - 1 else [0] * T
        o = 2 * s + 1
        # alpha_s w_n(s+1) + alpha_(s-1) w_n(s-1) == (beta_s + lam (2s+1)) w_n(s)
        if [up * x + down * y for x, y in zip(nxt, prev)] != [
            (b + lam * o) * w for lam, w in zip(lams, cur)
        ]:
            return pairs, False
        # w * w first: CPython squares an int times itself faster
        norms = [acc + w * w * o for acc, w in zip(norms, cur)]
        prev, cur = cur, nxt
    return pairs, all(
        (2 * n + 1) * acc == T * T * principal_weight(n, T) ** 2 for n, acc in enumerate(norms)
    )


# ---------------------------------------------------------------------------
# Legendre comparison family.
# ---------------------------------------------------------------------------


def legendre_values(n_max: int, t) -> list[Fraction]:
    """P_0(t) .. P_(n_max)(t) by the classical three-term recurrence."""
    t = Fraction(t)
    vals = [_ONE]
    if n_max >= 1:
        vals.append(t)
    for m in range(1, n_max):
        vals.append(((2 * m + 1) * t * vals[m] - m * vals[m - 1]) / (m + 1))
    return vals


def legendre_eval(n: int, t) -> Fraction:
    """Exact Legendre value P_n(t) at rational t."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return legendre_values(n, t)[n]


def rescaled_values(n_max: int, T: int, t) -> list[Fraction]:
    """p_0(t) .. p_(n_max)(t), the lattice-rescaled family for parameter T.

    Determined by p_0 = 1, p_1 = t + 1/(2 T^2) and

        p_(m+1) = (2m+1)/(m+1) (t + (2m^2+2m+1)/(2T^2)) p_m
                  - (1 - m^2/T^2)^2 m/(m+1) p_(m-1),

    which degenerates to the Legendre recurrence as T grows.
    """
    if T < 3:
        raise ValueError(f"need T >= 3, got {T}")
    t = Fraction(t)
    T2 = T * T
    vals = [_ONE]
    if n_max >= 1:
        vals.append(t + Fraction(1, 2 * T2))
    for m in range(1, n_max):
        shift = Fraction(2 * m * m + 2 * m + 1, 2 * T2)
        damp = (1 - Fraction(m * m, T2)) ** 2
        nxt = Fraction(2 * m + 1, m + 1) * (t + shift) * vals[m] - damp * Fraction(
            m, m + 1
        ) * vals[m - 1]
        vals.append(nxt)
    return vals


def lattice_node(s: int, T: int) -> Fraction:
    """Node t_s = (2s+1)^2 / (2 T^2) - 1 where the rescaled family meets R."""
    return Fraction((2 * s + 1) ** 2, 2 * T * T) - 1


def rescale_factor(n: int, T: int) -> Fraction:
    """Product of (T^2 - i^2)/T^2 for i = 1..n; with sign (-1)^n it converts
    R_n(s, T) into the rescaled value at the lattice node."""
    out = _ONE
    T2 = T * T
    for i in range(1, n + 1):
        out *= Fraction(T2 - i * i, T2)
    return out


# ---------------------------------------------------------------------------
# Inequalities driven by a concave sequence.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Inequality:
    """Exact comparison record; holds means lhs < rhs strictly."""

    lhs: Fraction
    rhs: Fraction

    @property
    def holds(self) -> bool:
        return self.lhs < self.rhs

    def __bool__(self) -> bool:
        return self.holds


def _sequence_values(seq, T: int) -> tuple[Fraction, ...]:
    """First T-1 values H_1..H_(T-1) of a sequence-like argument, T >= 3."""
    if T < 3:
        raise ValueError(f"need T >= 3, got {T}")
    values = seq.values if isinstance(seq, ConcaveSequence) else tuple(
        Fraction(v) for v in seq
    )
    if len(values) < T - 1:
        raise ValueError(f"sequence has {len(values)} values, need at least {T - 1}")
    return values[: T - 1]


def alternating_lhs(n: int, T: int, h, scale: int) -> Fraction:
    """Left side of row n of the alternating inequality,
    sum_s (-1)^(s+1) R_n(s,T) H_s over s = 1..T-1, from the integers
    h[s] = scale H_s (h[0] = 0).

    The row walk gives w_n(s) = P_n R_n(s, T) at every s, starting from
    w_n(0) = P_n, so the sum is one integer over P_n scale.
    """
    row = _principal_row(n, T)
    # odd s add, even s subtract
    lhs = sum(map(mul, row[1:T:2], h[1:T:2])) - sum(map(mul, row[2:T:2], h[2:T:2]))
    return Fraction(lhs, row[0] * scale)


def alternating_profile(seq, T: int) -> list[Inequality]:
    """Row n of sum_s (-1)^(s+1) R_n(s,T) H_s < sum_s H_s over s = 1..T-1
    for every n = 0..T-1, with the sequence put over one denominator and
    the right side, which no row changes, built once; holds one row at a
    time."""
    values = _sequence_values(seq, T)
    scale = lcm(*(v.denominator for v in values))
    h = [0] + [v.numerator * (scale // v.denominator) for v in values]
    rhs = Fraction(sum(h), scale)
    return [Inequality(alternating_lhs(n, T, h, scale), rhs) for n in range(T)]


def n_below_log(n: int, T: int) -> bool:
    """True iff n < log T, decided exactly as e^n < T."""
    if n < 0 or T < 1:
        raise ValueError(f"need n >= 0 and T >= 1, got n={n}, T={T}")
    return exp_compare(n, Fraction(T)) < 0


@dataclass(frozen=True)
class BranchVerdict:
    """Alternating bound for one (n, T) plus the certifying route labels.

    branches may contain "cauchy" (the sufficient inequality holds),
    "closed-form" (n <= 3 or n = T-1, rows with explicit formulas), and
    "legendre" (T >= 90 and n < log T, the comparison-family regime).  The
    inequality itself is always confirmed by direct exact evaluation.
    """

    T: int
    n: int
    inequality: Inequality
    branches: tuple[str, ...]
    concave: bool

    @property
    def covered(self) -> bool:
        return bool(self.branches)

    def to_json_dict(self) -> dict:
        return {
            "T": self.T,
            "n": self.n,
            "lhs": format_rational(self.inequality.lhs),
            "rhs": format_rational(self.inequality.rhs),
            "holds": self.inequality.holds,
            "branches": list(self.branches),
            "covered": self.covered,
            "concave": self.concave,
        }


def certify_alternating_bound(seq, T: int) -> list[BranchVerdict]:
    """Verdicts with branch labels for every n = 0..T-1.

    For concave input every n is covered by at least one branch; arbitrary
    positive sequences still get exact verdicts but branch coverage is not
    guaranteed and the concave flag marks the run as exploratory.
    """
    values = _sequence_values(seq, T)
    concave = validate_concave(values)
    profile = alternating_profile(values, T)
    square_sum = sum((h * h / (2 * s + 1) for s, h in enumerate(values, 1)), _ZERO)
    mean = sum(values, _ZERO) / T
    mean_sq = mean * mean
    # e^n < T fails from some n on, so one count of the n below it serves all
    below_log = 0
    if T >= 90:
        while n_below_log(below_log, T):
            below_log += 1
    out = []
    for n in range(T):
        branches = []
        if square_sum < (2 * n + 1) * mean_sq:
            branches.append("cauchy")
        if n <= 3 or n == T - 1:
            branches.append("closed-form")
        if n < below_log:
            branches.append("legendre")
        out.append(BranchVerdict(T, n, profile[n], tuple(branches), concave))
    return out


# ---------------------------------------------------------------------------
# Bound scan: |R_n(s, T)| <= 1 over a whole T range.
#
# The scan walks each column s of the half grid down to n_s (_scan_depths)
# and compares |w_n(s)| with P_n, so the bound needs no denominator.  The
# deeper points are decided by Wilson's orthogonality, which verify-ortho
# certifies for each T: by the self-duality R_n(s) = R_s(n) the column norm
# sum_m (2m+1) R_m(s)^2 is T^2/(2s+1), so its terms m = 0 and m = n >= 1
# give |R_n(s)| < 1 strictly once T^2 < (2n+2)(2s+1).  Every division of
# the column walk was exact on T 3..1000.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanHit:
    """One (T, n, s) point flagged by the scan."""

    T: int
    n: int
    s: int
    value: Fraction

    def to_json_dict(self, with_value: bool = False) -> dict:
        d = {"T": self.T, "n": self.n, "s": self.s}
        if with_value:
            d["value"] = format_rational(self.value)
        return d


@dataclass(frozen=True)
class ScanReport:
    """Outcome of a bound scan over T_min..T_max."""

    T_min: int
    T_max: int
    violations: tuple[ScanHit, ...]
    equality_cases: tuple[ScanHit, ...]
    rows_checked: int
    elapsed_ms: int
    points_walked: int

    @property
    def strictness_exceptions(self) -> tuple[ScanHit, ...]:
        """Equality cases away from the trivial edges n = 0 and s = 0."""
        return tuple(h for h in self.equality_cases if h.n != 0 and h.s != 0)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.strictness_exceptions

    def to_json_dict(self) -> dict:
        return {
            "T_range": [self.T_min, self.T_max],
            "violations": [h.to_json_dict(with_value=True) for h in self.violations],
            "equality_cases": [h.to_json_dict() for h in self.equality_cases],
            "rows_checked": self.rows_checked,
        }


def _scan_depths(T: int) -> list[int]:
    """n_s = min(s, T^2 // (2(2s+1)) - 1), at least 0, for s = 0..T-1:
    the deepest n that column s of the scan walks."""
    T2 = T * T
    return [min(s, max(0, T2 // (4 * s + 2) - 1)) for s in range(T)]


def _scan_one_T(T: int) -> tuple[int, list, list, int]:
    """Scan the half grid 0 <= n <= s <= T-1 for one T, column by column, on
    the principal weights: |w_n(s)| against P_n.

    Column s stops at n_s; below it Wilson's orthogonality, which
    verify-ortho certifies, decides.  Returns T, the violations and the
    equality cases as plain tuples in (n, s) order (ints only, which
    _fork_map's marshal carries), violations carrying the exact value as
    the pair (w_n(s), P_n), and the number of points walked.
    """
    depths = _scan_depths(T)
    deepest = max(depths)
    steps = _principal_steps(T, deepest)
    bounds = [principal_weight(n, T) for n in range(deepest + 1)]
    violations = []
    equalities = []
    for s, depth in enumerate(depths):
        for n, (w, p) in enumerate(zip(_principal_column(s, T, steps, depth), bounds)):
            size = abs(w)
            if size > p:
                violations.append((T, n, s, w, p))
            elif size == p:
                equalities.append((T, n, s))
    violations.sort()
    equalities.sort()
    return T, violations, equalities, T + sum(depths)


def _scan_batch(ts: range) -> list[tuple[int, list, list, int]]:
    """_scan_one_T for every T of one worker's share."""
    return [_scan_one_T(T) for T in ts]


def default_jobs() -> int:
    """The worker count when none is given: the CPUs this process may run
    on (its affinity mask, which a cpuset-limited container narrows), or
    the CPU count where the mask cannot be read."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_child(func: Callable, share, write_end: int) -> None:
    """In a forked child: write marshal(func(share)) to the pipe and exit 0,
    or the message of an InexactStep (exit 1) or of another error (exit 2).
    It leaves only by os._exit, so no buffer it inherited is flushed."""
    code = 2
    try:
        try:
            payload, status = marshal.dumps(func(share)), 0
        except InexactStep as exc:
            payload, status = str(exc).encode(), 1
        except Exception as exc:
            payload, status = repr(exc).encode(), 2
        with open(write_end, "wb") as pipe:
            pipe.write(payload)
        code = status
    finally:
        os._exit(code)


def _fork_map(func: Callable, shares: list) -> list:
    """[func(share) for share in shares], each share after the first run by
    a forked child while this process runs the first.

    Results come back by marshal, so they hold only ints, tuples and lists.
    A child's InexactStep is raised here again; any other child failure
    raises RuntimeError with its exit status.  On every path, interrupts
    included, children still running are killed and all are reaped.  Needs
    os.fork and a process without threads (grasshodge starts none).
    """
    children = []  # (pid, read end of its pipe), not yet reaped
    try:
        for share in shares[1:]:
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                _fork_child(func, share, write_end)
            os.close(write_end)
            children.append((pid, open(read_end, "rb")))
        results = [func(shares[0])]
        while children:
            pid, pipe = children[0]
            with pipe:
                payload = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            if code == 1:
                raise InexactStep(payload.decode())
            if code:
                detail = f": {payload.decode()}" if payload else ""
                raise RuntimeError(f"worker {pid} exited with status {code}{detail}")
            results.append(marshal.loads(payload))
        return results
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, 9)  # SIGKILL, without importing signal and its enums
            os.waitpid(pid, 0)


def bound_scan(T_min: int, T_max: int, jobs: int | None = None) -> ScanReport:
    """Check |R_n(s, T)| <= 1 on the half grid n <= s for every T in range.

    Work is split by T across jobs processes (default: default_jobs()),
    each T one self-contained chunk of rows, and merged back in T order, so
    the report is identical whatever the worker count.  The T values,
    largest first, are dealt round-robin into jobs shares (share i gets
    T_max - i, T_max - i - jobs, ...), so each share carries a similar part
    of the cost (about T^2.5 per T); this process walks the first share
    while one forked child walks each other (_fork_map).  Without os.fork
    every share runs here.
    Each T walks about 0.6 of its half grid (points_walked); Wilson's
    orthogonality, which verify-ortho certifies, decides the rest.
    Raises InexactStep when a step of the walk leaves a remainder.
    """
    if not 3 <= T_min <= T_max:
        raise ValueError(f"need 3 <= T_min <= T_max, got {T_min}..{T_max}")
    if jobs is None:
        jobs = default_jobs()
    start = time.monotonic()
    ts = range(T_max, T_min - 1, -1)
    if jobs <= 1 or not hasattr(os, "fork"):
        results = _scan_batch(ts)
    else:
        shares = [ts[i::jobs] for i in range(min(jobs, len(ts)))]
        results = [result for batch in _fork_map(_scan_batch, shares) for result in batch]
    results.sort(key=lambda item: item[0])
    violations = []
    equalities = []
    rows_checked = 0
    points_walked = 0
    for T, viol, eq, walked in results:
        violations.extend(ScanHit(T, n, s, Fraction(w, p)) for (T, n, s, w, p) in viol)
        equalities.extend(ScanHit(T, n, s, _ONE) for (T, n, s) in eq)
        rows_checked += T
        points_walked += walked
    elapsed_ms = int((time.monotonic() - start) * 1000)
    return ScanReport(
        T_min=T_min,
        T_max=T_max,
        violations=tuple(violations),
        equality_cases=tuple(equalities),
        rows_checked=rows_checked,
        elapsed_ms=elapsed_ms,
        points_walked=points_walked,
    )


# ---------------------------------------------------------------------------
# Closeness of the rescaled family to Legendre, and the window checks that
# support the legendre branch.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ApproxReport:
    """Grid deviation of the rescaled family from Legendre on [-1, 1]."""

    n: int
    T: int
    grid_size: int
    max_deviation: Fraction
    bound: Fraction  # (3/2) 4^n / T^2
    within: bool
    tight_regime: bool  # T >= 90 and n < log T
    tight_within: bool | None  # deviation <= 1/10 when in the tight regime


def admissible_degrees(T: int) -> list[int]:
    """All n satisfying the closeness hypothesis 1 + 2n + 2n^2 < T^2/10."""
    out = []
    n = 0
    while 10 * (1 + 2 * n + 2 * n * n) < T * T:
        out.append(n)
        n += 1
    return out


def legendre_approx_profile(T: int, grid_size: int = 200) -> list[ApproxReport]:
    """Compare p_n and P_n on an equally spaced rational grid of [-1, 1] for
    every admissible n at this T, computing both families once.

    Under the hypothesis 1 + 2n + 2n^2 < T^2 / 10 the deviation is bounded
    by (3/2) 4^n / T^2, and additionally by 1/10 once T >= 90 and n < log T.
    All comparisons are exact.
    """
    if grid_size < 1:
        raise ValueError(f"need grid_size >= 1, got {grid_size}")
    n_list = admissible_degrees(T)
    if not n_list:
        return []
    n_hi = n_list[-1]
    max_dev = [_ZERO] * (n_hi + 1)
    for j in range(grid_size + 1):
        t = Fraction(2 * j - grid_size, grid_size)
        ps = rescaled_values(n_hi, T, t)
        qs = legendre_values(n_hi, t)
        for n in n_list:
            dev = abs(ps[n] - qs[n])
            if dev > max_dev[n]:
                max_dev[n] = dev
    out = []
    for n in n_list:
        bound = Fraction(3 * 4**n, 2 * T * T)
        tight = T >= 90 and n_below_log(n, T)
        out.append(
            ApproxReport(
                n=n,
                T=T,
                grid_size=grid_size,
                max_deviation=max_dev[n],
                bound=bound,
                within=max_dev[n] <= bound,
                tight_regime=tight,
                tight_within=(max_dev[n] <= Fraction(1, 10)) if tight else None,
            )
        )
    return out


@dataclass(frozen=True)
class WindowSamples:
    """Sample grids for legendre_window_checks."""

    n_max: int = 40
    t_grid: int = 200  # points across [-9/10, 9/10] is t_grid + 1
    theta_points: int = 10_000
    theta_slack: float = 1e-9
    node_T_values: tuple[int, ...] = tuple(range(10, 61))
    product_samples: tuple[tuple[int, int], ...] = (
        (90, 1),
        (90, 2),
        (90, 3),
        (90, 4),
        (120, 4),
        (200, 5),
        (1000, 6),
    )


@dataclass(frozen=True)
class WindowReport:
    """Results of the three checks supporting the legendre branch."""

    window_max: Fraction  # max |P_n| on the [-9/10, 9/10] grid, n >= 2
    window_ok: bool  # window_max <= 3/4 exactly
    sine_margin: float  # worst slack in the sine-weighted float bound
    sine_ok: bool
    nodes_checked: int
    nodes_ok: bool  # qualifying lattice nodes land inside [-9/10, 9/10]
    product_min: Fraction
    product_ok: bool  # rescale factors stay above 40/41

    @property
    def ok(self) -> bool:
        return self.window_ok and self.sine_ok and self.nodes_ok and self.product_ok


def legendre_window_checks(samples: WindowSamples = WindowSamples()) -> WindowReport:
    """Check the three facts the legendre branch rests on.

    Exactly: |P_n(t)| <= 3/4 on a rational grid of [-9/10, 9/10] for
    2 <= n <= n_max; qualifying lattice nodes (sqrt(5)/10 <= s/T <= 4/5,
    T >= 10) fall inside that window; and the rescale factor stays above
    40/41 for the sampled (T, n) with T >= 90, n < log T.

    In floating point, as a smoke test only: the classical sine-weighted
    bound sqrt(sin theta) |P_n(cos theta)| < sqrt(2/(pi n)) on a uniform
    theta grid, allowing theta_slack of rounding headroom.
    """
    s = samples
    if s.n_max < 2:
        raise ValueError("n_max must be at least 2")

    window_max = _ZERO
    for j in range(s.t_grid + 1):
        # t runs over [-9/10, 9/10] in steps of (9/5) / t_grid
        t = Fraction(-9, 10) + Fraction(9 * j, 5 * s.t_grid)
        vals = legendre_values(s.n_max, t)
        for n in range(2, s.n_max + 1):
            dev = abs(vals[n])
            if dev > window_max:
                window_max = dev
    window_ok = window_max <= Fraction(3, 4)

    sine_margin = float("inf")
    sine_ok = True
    bounds = [0.0] + [sqrt(2.0 / (pi * n)) for n in range(1, s.n_max + 1)]
    for j in range(s.theta_points + 1):
        theta = pi * j / s.theta_points
        weight = sqrt(max(sin(theta), 0.0))
        c = cos(theta)
        prev, cur = 1.0, c
        for n in range(1, s.n_max + 1):
            if n > 1:
                prev, cur = cur, ((2 * n - 1) * c * cur - (n - 1) * prev) / n
            margin = bounds[n] + s.theta_slack - weight * abs(cur)
            if margin < sine_margin:
                sine_margin = margin
            if margin <= 0:
                sine_ok = False

    nodes_checked = 0
    nodes_ok = True
    lo, hi = Fraction(-9, 10), Fraction(9, 10)
    for T in s.node_T_values:
        if T < 10:
            raise ValueError(f"node sample T values must be >= 10, got {T}")
        for t_s in range(T + 1):
            # s/T >= sqrt(5)/10 iff 20 s^2 >= T^2; s/T <= 4/5 iff 5 s <= 4 T
            if 20 * t_s * t_s >= T * T and 5 * t_s <= 4 * T:
                nodes_checked += 1
                node = lattice_node(t_s, T)
                if not lo <= node <= hi:
                    nodes_ok = False

    product_min: Fraction | None = None
    for T, n in s.product_samples:
        if T < 90 or not n_below_log(n, T):
            raise ValueError(f"product sample ({T}, {n}) is outside the regime")
        value = rescale_factor(n, T)
        if product_min is None or value < product_min:
            product_min = value
    if product_min is None:
        raise ValueError("need at least one product sample")
    product_ok = product_min > Fraction(40, 41)

    return WindowReport(
        window_max=window_max,
        window_ok=window_ok,
        sine_margin=sine_margin,
        sine_ok=sine_ok,
        nodes_checked=nodes_checked,
        nodes_ok=nodes_ok,
        product_min=product_min,
        product_ok=product_ok,
    )
