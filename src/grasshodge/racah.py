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
lives in the tests as the independent oracle.  Around it sit the
alternating inequality driven by a concave sequence, one row at a time in
integers (alternating_row, which the closed certificate also reads) with
the routes that certify it (route_labels) and their Fraction views
(alternating_profile, certify_alternating_bound), and the scan that checks
|R_n(s, T)| <= 1 across a whole parameter range.  The range pool
(_range_pool) runs a per-key function over a range of keys on forked
worker processes and yields each key's items in key order; the scan and
the CLI's range commands all run on it.  The Legendre comparison family
behind the "legendre" route label, and the window checks that support
that regime, live with the tests in tests/legendre_checks.py.
"""

from __future__ import annotations

import marshal
import os
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from operator import ge, mul

from .exactmath import exp_compare, validate_concave


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
# symmetric tridiagonal (_difference_operator: alpha_s off the diagonal,
# -beta_s on it).  The row walk solves it forward from w_n(-1) = 0,
# w_n(0) = P_n, dividing by alpha_s up to s + 1 = T-1, where alpha_s is last
# nonzero; alternating_row checks the equation left at s = T-1.  On the same
# alpha and beta, orthogonality_profile certifies all T(T+1)/2 row pairs and
# the T row norms from T^2 three-term identities and the two edge columns.
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
    # o = 2s+1 for s = 0..T-2, the last step that divides by a nonzero alpha_s
    for down, up, b, o in zip((0, *alpha), alpha, beta, range(1, 2 * T - 2, 2)):
        nxt, rem = divmod((b + lam * o) * cur - down * prev, up)
        if rem:
            s = len(row) - 1
            raise InexactStep(
                f"principal-weight step s={s} -> {s + 1} at T={T}, n={n} "
                f"leaves a remainder modulo {-up}"
            )
        prev, cur = cur, nxt
        row.append(cur)
    return row


def racah_eval(n: int, s: int, T: int) -> Fraction:
    """Exact value R_n(s, T); by the n <-> s symmetry one index may be >= T.

    With m = min(n, s) and x = max(n, s), the value is w_m(x) / P_m, read off
    the column at x walked down to degree m.
    """
    if T < 3:
        raise ValueError(f"need T >= 3, got {T}")
    if n < 0 or s < 0:
        raise ValueError(f"need n, s >= 0, got n={n}, s={s}")
    m = min(n, s)
    if m >= T:
        raise ValueError(f"denominator factor (1-T)_r vanishes: min(n, s) = {m} >= T = {T}")
    return Fraction(
        _principal_column(max(n, s), T, _principal_steps(T, m), m)[m], principal_weight(m, T)
    )


def racah_grid(T: int, n: int | None = None, s: int | None = None) -> Iterator[tuple]:
    """(n, s, w, p), R_n(s, T) = w / p with p > 0, in (n, s) order over
    n, s = 0..T-1 or at the selected n and/or s.  By the self-duality
    R_n(s) = R_s(n), row n is column n as w_s(n) / P_s, walked down to the
    largest selected s; one column is held at a time.  A lone s reads
    column s alone, as w_n(s) / P_n."""
    if T < 3 or not all(0 <= i < T for i in (n, s) if i is not None):
        raise ValueError(f"need T >= 3 and 0 <= n, s <= T-1, got T={T}, n={n}, s={s}")
    if n is None and s is not None:
        column = _principal_column(s, T, _principal_steps(T), T - 1)
        for row, w in enumerate(column):
            yield row, s, w, principal_weight(row, T)
        return
    s_vals = range(T) if s is None else [s]
    top = max(s_vals)
    steps = _principal_steps(T, top)
    weights = [principal_weight(c, T) for c in s_vals]
    for row in range(T) if n is None else [n]:
        column = _principal_column(row, T, steps, top)
        for c, weight in zip(s_vals, weights):
            yield row, c, column[c], weight


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
    s = 0..T-1 in order, holding three, and checks in integers the identity
    alpha_s w_n(s+1) - beta_s w_n(s) + alpha_(s-1) w_n(s-1)
    = 2n(n+1) (2s+1) w_n(s) at every n and s (alpha_(-1) = alpha_(T-1) = 0)
    and the edge columns w_n(0) = P_n and w_n(T-1) = (-1)^n C(T-1, n)^2.
    These decide every pair sum (the proof is in README):
    1. each row, s = T-1 included, is an eigenvector of the symmetric K for
       a distinct lambda_n = 2n(n+1), so pairs n < m vanish;
    2. column 0 makes row n P_n times the forward solution u(lambda_n);
    3. confluent Christoffel-Darboux for K - lambda D gives the norm
       h_n = P_n^2 R_n(T-1) (2T-1) c_T prod_(m != n) (x_n - x_m),
       x_n = n(n+1), c_T = (-1)^(T-1) T^2 / ((2T-1) (T-1)! T!);
    4. that is T^2/(2n+1) exactly when column T-1 has its closed form.
    """
    if T < 3:
        raise ValueError(f"need T >= 3, got {T}")
    steps = _principal_steps(T)
    alpha, beta = _difference_operator(T)
    lams = [2 * n * (n + 1) for n in range(T)]
    pairs = T * (T + 1) // 2
    prev = [0] * T
    cur = _principal_column(0, T, steps, T - 1)
    if cur != [principal_weight(n, T) for n in range(T)]:
        return pairs, False
    for s, (up, down, b) in enumerate(zip(alpha, (0, *alpha), beta)):
        nxt = _principal_column(s + 1, T, steps, T - 1) if s < T - 1 else [0] * T
        o = 2 * s + 1
        # alpha_s w_n(s+1) + alpha_(s-1) w_n(s-1) == (beta_s + lam (2s+1)) w_n(s)
        if [up * x + down * y for x, y in zip(nxt, prev)] != [
            (b + lam * o) * w for lam, w in zip(lams, cur)
        ]:
            return pairs, False
        prev, cur = cur, nxt
    # column T-1, (-1)^n C(T-1, n)^2, one exact division per n
    edge, c = [], 1
    for n in range(T):
        edge.append(-c * c if n % 2 else c * c)
        c = c * (T - 1 - n) // (n + 1)
    return pairs, prev == edge


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


def alternating_row(n: int, h) -> tuple[int, int]:
    """(dot, P_n) of row n, dot / (P_n scale) < sum(h) / scale, of the
    alternating inequality for the sequence form h[s] = scale H_s at
    T = len(h) >= 3, 0 <= n <= T-1: dot = sum_s (-1)^(s+1) w_n(s) h[s] over
    s = 1..T-1 and P_n = w_n(0), both read off one row walk."""
    T = len(h)
    if T < 3 or not 0 <= n < T:
        raise ValueError(f"need T >= 3 and 0 <= n <= T-1, got T={T}, n={n}")
    row = _principal_row(n, T)
    alpha, beta = _difference_operator(T)
    # the equation at s = T-1, which the walk takes no step on
    if alpha[-2] * row[-2] != (beta[-1] + 2 * n * (n + 1) * (2 * T - 1)) * row[-1]:
        raise InexactStep(f"row n={n} at T={T} fails its equation at s={T - 1}")
    # odd s add, even s subtract
    return sum(map(mul, row[1::2], h[1::2])) - sum(map(mul, row[2::2], h[2::2])), row[0]


def alternating_profile(scale: int, h) -> list[Inequality]:
    """Row n of sum_s (-1)^(s+1) R_n(s,T) H_s < sum_s H_s over s = 1..T-1
    for every n = 0..T-1, T = len(h), from the sequence form h[s] = scale H_s
    (exactmath.integer_sequence): the Fractions of alternating_row(n, h), one
    right side for all.  The scale must be positive: the sign of every row's
    denominator rests on it."""
    T = len(h)
    if T < 3:
        raise ValueError(f"need T >= 3, got {T}")
    if scale < 1:
        raise ValueError(f"need scale >= 1, got {scale}")
    rhs = Fraction(sum(h), scale)
    rows = (alternating_row(n, h) for n in range(T))
    return [Inequality(Fraction(dot, p * scale), rhs) for dot, p in rows]


def n_below_log(n: int, T: int) -> bool:
    """True iff n < log T, decided exactly as e^n < T."""
    if n < 0 or T < 1:
        raise ValueError(f"need n >= 0 and T >= 1, got n={n}, T={T}")
    return exp_compare(n, T) < 0


def route_labels(h) -> tuple[bool, list[tuple[str, ...]]]:
    """Whether h is concave increasing, and the route labels of each row n,
    as certify_alternating_bound gives them: they read h, never a row walk."""
    T = len(h)
    total = sum(h)
    # "cauchy": sum_s H_s^2/(2s+1) < (2n+1) (mean of H_0..H_(T-1))^2, that
    # is 2n+1 > q = T^2 sum_s h_s^2/(2s+1) / total^2 (d clears the 2s+1), so
    # from n = (floor(q) + 1) // 2 on.  The cut bounds |lhs| below T |mean|,
    # which is the right side only when the mean is positive, so no row gets
    # it otherwise.
    cauchy_from = T
    if total > 0:
        d = lcm(*range(3, 2 * T, 2))
        cleared = sum(v * v * (d // (2 * s + 1)) for s, v in enumerate(h[1:], 1))
        cauchy_from = (T * T * cleared // (total * total * d) + 1) // 2
    # the closed forms and the comparison family hold for concave increasing
    # sequences only; e^n < T fails from some n on, so one count of the n
    # below it serves all
    concave = validate_concave(h)
    below_log = 0
    if concave and T >= 90:
        while n_below_log(below_log, T):
            below_log += 1
    out = []
    for n in range(T):
        labels = []
        if n >= cauchy_from:
            labels.append("cauchy")
        if concave and (n <= 3 or n == T - 1):
            labels.append("closed-form")
        if n < below_log:
            labels.append("legendre")
        out.append(tuple(labels))
    return concave, out


def certify_alternating_bound(
    scale: int, h
) -> tuple[bool, list[tuple[Inequality, tuple[str, ...]]]]:
    """Whether h is concave increasing, and each row of
    alternating_profile(scale, h), n = 0..T-1, T = len(h), paired with the
    labels of the routes that certify it (route_labels).

    The labels may be "cauchy" (the sufficient inequality holds, for a
    positive sum), "closed-form" (n <= 3 or n = T-1, rows with explicit
    formulas), and "legendre" (T >= 90 and n < log T, the comparison-family
    regime; its supporting checks live with the tests in
    tests/legendre_checks.py).  The last two rest on a concave increasing
    sequence (exactmath.validate_concave, the flag returned), so only such
    input gets them.  A row is covered when it has a label; the inequality
    itself is always decided by direct exact evaluation.  For concave input
    every row is covered; other input still gets exact rows, but coverage is
    not guaranteed.
    """
    concave, labels = route_labels(h)
    return concave, list(zip(alternating_profile(scale, h), labels))


# ---------------------------------------------------------------------------
# The range pool: one per-key function over a range of keys on J processes.
#
# A key's function returns an iterable of items, and every key is turned
# into one record by _key_record.  Key i runs in process i mod J.  This
# process makes the records of keys 0, J, 2J, ... when their turn comes;
# forked worker j makes those of keys j, j + J, ... and writes each to its
# pipe, length-prefixed marshal, as soon as it is made.  Every record is
# handled alike, in key order: its items are yielded, then its error, if it
# has one, is raised with its class and message.  So the run fails where the
# serial run fails, after the same output, and no key is run twice; a range
# of any length is held only as far as the pipe buffers let a worker run
# ahead.  Items hold only what marshal carries: ints, strings, bools, tuples
# and lists.  The pool needs os.fork and a process without threads
# (grasshodge starts none); without os.fork, or with one key, it forks
# nothing.
# ---------------------------------------------------------------------------


def default_jobs() -> int:
    """The worker count when none is given: the CPUs this process may run
    on (its affinity mask, which a cpuset-limited container narrows), or
    the CPU count where the mask cannot be read."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class WorkerError(RuntimeError):
    """A forked worker ended without handing back its key: it was killed
    (say, by the out-of-memory killer), or it failed outside the caller's
    arithmetic errors."""


def _pool_size(jobs: int, keys: int) -> int:
    """The processes a range of keys runs on: jobs, at most one per key,
    and only this one without os.fork."""
    return max(1, min(jobs, keys)) if hasattr(os, "fork") else 1


def _key_record(func: Callable, key, errors: tuple) -> tuple:
    """The record of one key: (0, the items of func(key)), or (1 + i, the
    items before the error, its message) when func(key) ends in an instance
    of errors[i].  Any other exception propagates."""
    items = []
    try:
        for item in func(key):
            items.append(item)
    except errors as exc:
        tag = next(i for i, cls in enumerate(errors, 1) if isinstance(exc, cls))
        return tag, items, str(exc)
    return 0, items


def _pool_worker(func: Callable, keys, errors: tuple, write_end: int) -> None:
    """In a forked worker: write the record of each key, in order, until the
    keys run out or one ends in an error, which is the worker's last record.
    Any other exception ends the worker with exit status 2 and (-1, its
    repr) as the last record.  It leaves only by os._exit, so no buffer it
    inherited is flushed."""
    code = 2
    try:
        with open(write_end, "wb") as pipe:
            try:
                for key in keys:
                    record = _key_record(func, key, errors)
                    _write_record(pipe, record)
                    if record[0]:
                        break
                code = 0
            except Exception as exc:
                _write_record(pipe, (-1, repr(exc)))
    finally:
        os._exit(code)


def _write_record(pipe, record: tuple) -> None:
    """One record on a worker's pipe: its marshal length, then its marshal,
    flushed at once."""
    payload = marshal.dumps(record)
    pipe.write(len(payload).to_bytes(8, "little") + payload)
    pipe.flush()


def _read_record(pipe) -> tuple | None:
    """The next record on a worker's pipe, or None at its end or at a record
    cut short."""
    header = pipe.read(8)
    if len(header) < 8:
        return None
    size = int.from_bytes(header, "little")
    payload = pipe.read(size)
    return marshal.loads(payload) if len(payload) == size else None


def _range_pool(func: Callable, keys, jobs: int, errors: tuple = (InexactStep,)) -> Iterator:
    """The items of func(key) for each key of a sequence, yielded in key
    order, with key i run in process i mod jobs (process 0 is this one).

    A key that ends in an instance of one of the errors, in this process or
    in a worker, yields the items it made before it, and then the error is
    raised here with its class and message.  A worker that ends without its
    key's record raises WorkerError with its exit status (and its
    exception, if it had one), and so does one that exits non-zero after
    its last.  On every path, interrupts and an abandoned iteration
    included, workers still running are killed and every worker is reaped.
    """
    jobs = _pool_size(jobs, len(keys))
    workers = {}  # j: (pid, read end of its pipe), not yet reaped
    try:
        for j in range(1, jobs):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_end)
                _pool_worker(func, keys[j::jobs], errors, write_end)
            os.close(write_end)
            workers[j] = (pid, open(read_end, "rb"))
        for i, key in enumerate(keys):
            j = i % jobs
            if not j:
                record = _key_record(func, key, errors)
            else:
                record = _read_record(workers[j][1])
                if record is None or record[0] < 0:
                    pid, code = _reap(workers.pop(j))
                    detail = "" if record is None else f": {record[1]}"
                    raise WorkerError(f"worker {pid} exited with status {code}{detail}")
            yield from record[1]
            if record[0]:
                raise errors[record[0] - 1](record[2])
        while workers:
            pid, code = _reap(workers.popitem()[1])
            if code:
                raise WorkerError(f"worker {pid} exited with status {code}")
    finally:
        for pid, pipe in workers.values():
            pipe.close()
            os.kill(pid, 9)  # SIGKILL, without importing signal and its enums
            os.waitpid(pid, 0)


def _reap(worker: tuple) -> tuple[int, int]:
    """Close a worker's pipe, wait for it, and return its pid and exit
    status (minus the signal number if a signal ended it)."""
    pid, pipe = worker
    pipe.close()
    return pid, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


# ---------------------------------------------------------------------------
# Bound scan: |R_n(s, T)| <= 1 over a whole T range.
#
# The scan walks each column s of the half grid down to n_s (_scan_depths)
# and compares |w_n(s)| with P_n, so the bound needs no denominator.  The
# deeper points are decided by Wilson's orthogonality, which verify-ortho
# certifies for each T: the weighted table is then orthogonal, so its column
# norm sum_m (2m+1) R_m(s)^2 follows as T^2/(2s+1); its terms m = 0, n >= 1
# give |R_n(s)| < 1 strictly once T^2 < (2n+2)(2s+1).  Every division of
# the column walk was exact on T 3..1000.  The edge row n = 0 is R_0 = 1 by
# definition, so the walk compares n >= 1 only and the CLI prints the edge
# row from that definition.  Each T is one key of the range pool, the
# largest first.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanReport:
    """Outcome of a bound scan over T_min..T_max, in (T, n, s) order: violations
    as (T, n, s, w_n(s), P_n), interior equality cases (n >= 1) as (T, n, s);
    workers is the number of processes that walked it."""

    T_min: int
    T_max: int
    violations: tuple[tuple[int, int, int, int, int], ...]
    exceptions: tuple[tuple[int, int, int], ...]
    rows_checked: int
    elapsed_ms: int
    points_walked: int
    workers: int

    @property
    def ok(self) -> bool:
        return not self.violations and not self.exceptions


def _scan_depths(T: int) -> list[int]:
    """n_s = min(s, T^2 // (2(2s+1)) - 1), at least 0, for s = 0..T-1:
    the deepest n that column s of the scan walks."""
    T2 = T * T
    return [min(s, max(0, T2 // (4 * s + 2) - 1)) for s in range(T)]


def _scan_one_T(T: int) -> tuple[int, list, list, int]:
    """Scan the half grid 0 <= n <= s <= T-1 for one T, column by column, on
    the principal weights: |w_n(s)| against P_n.

    Column s stops at n_s (_scan_depths).  Returns T, the violations and the
    interior equality cases (n >= 1) as plain tuples in (n, s) order (ints
    only, which the range pool's marshal records carry), violations carrying
    the exact value as the pair (w_n(s), P_n), and the number of points
    walked.
    """
    depths = _scan_depths(T)
    deepest = max(depths)
    steps = _principal_steps(T, deepest)
    bounds = [principal_weight(n, T) for n in range(1, deepest + 1)]
    violations = []
    equalities = []
    for s, depth in enumerate(depths):
        # n = 0 is the literal 1 = P_0; one C-level pass finds any point on
        # or past the bound
        column = _principal_column(s, T, steps, depth)[1:]
        if not any(map(ge, map(abs, column), bounds)):
            continue
        for n, (w, p) in enumerate(zip(column, bounds), 1):
            if abs(w) > p:
                violations.append((T, n, s, w, p))
            elif abs(w) == p:
                equalities.append((T, n, s))
    violations.sort()
    equalities.sort()
    return T, violations, equalities, T + sum(depths)


def bound_scan(T_min: int, T_max: int, jobs: int | None = None) -> ScanReport:
    """Check |R_n(s, T)| <= 1 on the half grid n <= s for every T in range.

    Each T is one key of the range pool on jobs processes (default:
    default_jobs()), and the results are merged back in T order, so the
    report is identical whatever the worker count.  The keys run largest
    first, T_max, T_max - 1, ..., so that key i, run in process i mod jobs,
    deals each process a similar part of the cost (about T^2.5 per T); one
    T, or no os.fork, forks nothing.
    Each T walks about 0.6 of its half grid (points_walked); Wilson's
    orthogonality, which verify-ortho certifies, decides the rest.
    Raises InexactStep when a step of the walk leaves a remainder.
    """
    if not 3 <= T_min <= T_max:
        raise ValueError(f"need 3 <= T_min <= T_max, got {T_min}..{T_max}")
    if jobs is None:
        jobs = default_jobs()
    if jobs < 1:
        raise ValueError(f"need jobs >= 1, got {jobs}")
    start = time.monotonic()
    ts = range(T_max, T_min - 1, -1)
    jobs = _pool_size(jobs, len(ts))
    results = sorted(_range_pool(lambda T: (_scan_one_T(T),), ts, jobs))
    elapsed_ms = int((time.monotonic() - start) * 1000)
    return ScanReport(
        T_min=T_min,
        T_max=T_max,
        violations=tuple(hit for _, viol, _, _ in results for hit in viol),
        exceptions=tuple(hit for _, _, eq, _ in results for hit in eq),
        rows_checked=sum(T for T, _, _, _ in results),
        elapsed_ms=elapsed_ms,
        points_walked=sum(walked for _, _, _, walked in results),
        workers=jobs,
    )
