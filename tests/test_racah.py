import io
import json
import os
import random
import select
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from grasshodge import cli, racah
from grasshodge.exactmath import (
    harmonic,
    harmonic_numerators,
    integer_sequence,
    random_concave,
    validate_concave,
)
from grasshodge.racah import (
    InexactStep,
    _principal_column,
    _principal_row,
    _principal_steps,
    alternating_profile,
    bound_scan,
    certify_alternating_bound,
    n_below_log,
    orthogonality_profile,
    principal_weight,
    racah_eval,
    racah_grid,
)
from legendre_checks import (
    WindowSamples,
    admissible_degrees,
    lattice_node,
    legendre_approx_profile,
    legendre_eval,
    legendre_window_checks,
    rescale_factor,
    rescaled_values,
)
from oracles import (
    alternating_bound,
    cauchy_sufficient,
    fraction_concave_increasing,
    in_cauchy_range,
    legendre_coeffs,
    orthogonality_check,
    orthogonality_pairs,
    racah_sum,
    racah_top_product,
    scan_json,
)


def test_racah_matches_term_sum():
    # the whole grid through both walks (full columns, past n = s, and full
    # rows) and through the single-value route
    for T in range(3, 31):
        steps = _principal_steps(T)
        columns = [_principal_column(s, T, steps, T - 1) for s in range(T)]
        for n in range(T):
            weight = principal_weight(n, T)
            row = _principal_row(n, T)
            for s in range(T):
                expected = racah_sum(n, s, T)
                assert Fraction(columns[s][n], weight) == expected, (T, n, s)
                assert Fraction(row[s], weight) == expected, (T, n, s)
                assert racah_eval(n, s, T) == expected, (T, n, s)


def test_principal_weights_termwise_integral():
    # the r-th term of the 4F3 sum at degree m and any point x is
    # (-1)^r C(m,r) C(m+r,r) C(x+r,2r) T / ((T-r) C(T+r,2r)); P_m times it is
    # an integer for every x, so w_m(x) is integral at every x, x >= T
    # included, and every step of either walk divides exactly
    for T in range(3, 101):
        dens = [(T - r) * comb(T + r, 2 * r) for r in range(T)]
        for m in range(T):
            scaled = principal_weight(m, T) * T
            for r in range(m + 1):
                assert scaled * comb(m, r) * comb(m + r, r) % dens[r] == 0, (T, m, r)


def _grid_values(T, **selection):
    # racah_grid gives R_n(s, T) as w / p, read off column n or, for a lone
    # s, off column s; the values, not the integers, must agree
    return [(n, s, Fraction(w, p)) for n, s, w, p in racah_grid(T, **selection)]


def test_racah_grid_matches_single_values():
    T = 9
    grid = _grid_values(T)
    assert [(n, s) for n, s, _ in grid] == [(n, s) for n in range(T) for s in range(T)]
    assert all(value == racah_eval(n, s, T) for n, s, value in grid)
    assert all(p > 0 for _, _, _, p in racah_grid(T))
    assert _grid_values(T, n=3) == [g for g in grid if g[0] == 3]
    assert _grid_values(T, s=5) == [g for g in grid if g[1] == 5]
    assert _grid_values(T, n=3, s=5) == [(3, 5, racah_eval(3, 5, T))]
    for bad in ({"T": 2}, {"T": T, "n": T}, {"T": T, "s": -1}):
        with pytest.raises(ValueError):
            list(racah_grid(**bad))


def test_racah_grid_walks_one_column_per_lone_selection(monkeypatch):
    walked = []

    def spy(s, *rest):
        walked.append(s)
        return _principal_column(s, *rest)

    monkeypatch.setattr(racah, "_principal_column", spy)
    for selection, columns in (({"n": 3}, [3]), ({"s": 5}, [5]), ({"n": 3, "s": 5}, [3])):
        walked.clear()
        list(racah_grid(9, **selection))
        assert walked == columns, selection


@settings(max_examples=60)
@given(st.integers(3, 150), st.data())
def test_racah_matches_term_sum_sampled(T, data):
    # one index may run past T-1 as long as the other stays below T
    n = data.draw(st.integers(0, T - 1))
    s = data.draw(st.integers(0, 2 * T + 10))
    if data.draw(st.booleans()):
        n, s = s, n
    assert racah_eval(n, s, T) == racah_sum(n, s, T)


def test_racah_validation():
    with pytest.raises(ValueError):
        racah_eval(0, 0, 2)
    with pytest.raises(ValueError):
        racah_eval(-1, 2, 5)
    with pytest.raises(ValueError):
        racah_eval(5, 6, 5)  # (1-T)_r hits zero
    # one large index is fine as long as the other stays below T
    assert racah_eval(2, 50, 5) == racah_sum(2, 50, 5)


def test_row_zero_and_one():
    for T in (3, 9, 25):
        for s in range(T):
            assert racah_eval(0, s, T) == 1
            expected = 1 - Fraction(2 * s * (s + 1), (T - 1) * (T + 1))
            assert racah_eval(1, s, T) == expected
    assert racah_eval(1, 24, 25) == Fraction(1 - 25, 1 + 25)


def test_top_row_product_form():
    for T in range(3, 18):
        for s in range(T):
            assert racah_eval(T - 1, s, T) == racah_top_product(s, T)


@settings(max_examples=80)
@given(st.integers(3, 25), st.data())
def test_symmetry_in_n_and_s(T, data):
    n = data.draw(st.integers(0, T - 1))
    s = data.draw(st.integers(0, T - 1))
    assert racah_eval(n, s, T) == racah_eval(s, n, T)


def test_orthogonality_spot_values():
    total, ok = orthogonality_check(9, 2, 2)
    assert ok and total == Fraction(81, 5)
    total, ok = orthogonality_check(9, 2, 5)
    assert ok and total == 0


def test_orthogonality_profile_matches_pairwise():
    for T in (3, 7, 12):
        pairs, ok = orthogonality_profile(T)
        assert ok
        assert pairs == T * (T + 1) // 2
        for n in range(T):
            for m in range(n, T):
                assert orthogonality_check(T, n, m)[1]


def test_orthogonality_certificate_matches_pair_sums():
    # the three-term certificate against every pair sum of the same table
    for T in range(3, 61):
        assert orthogonality_profile(T) == orthogonality_pairs(T) == (T * (T + 1) // 2, True)


# --- scan ---


def _scan_line(report):
    """The scan-bound line the CLI writes for report."""
    out = io.StringIO()
    cli.emit_scan_report(report, out)
    return out.getvalue()


def test_scan_small_range():
    report = bound_scan(3, 20, jobs=1)
    assert report.ok
    assert not report.violations
    assert all(case["n"] == 0 for case in json.loads(_scan_line(report))["equality_cases"])
    assert report.rows_checked == sum(range(3, 21))


def test_principal_column_matches_row_walk():
    # the two walks share no coefficient and no divisor; they must give the
    # same integers at every grid point, and a column walked only to n = s
    # (as deep as the scan could go; it stops at n_s <= s) must be a prefix
    # of the full one
    for T in range(3, 81):
        steps = _principal_steps(T)
        rows = [_principal_row(n, T) for n in range(T)]
        assert [row[0] for row in rows] == [principal_weight(n, T) for n in range(T)], T
        for s in range(T):
            column = _principal_column(s, T, steps, T - 1)
            assert column == [row[s] for row in rows], (T, s)
            assert _principal_column(s, T, steps, s) == column[: s + 1], (T, s)


def test_principal_column_matches_term_sum_sampled():
    rng = random.Random(20)
    for _ in range(200):
        T = rng.randint(3, 60)
        s = rng.randint(0, T - 1)
        n = rng.randint(0, s)
        w = _principal_column(s, T, _principal_steps(T), s)[n]
        assert Fraction(w, principal_weight(n, T)) == racah_sum(n, s, T), (T, n, s)


def test_scan_workers_agree():
    # 5..7 has fewer T values than four workers have shares
    for T_min, T_max in ((3, 30), (5, 14), (5, 7)):
        solo = _scan_line(bound_scan(T_min, T_max, jobs=1))
        for jobs in (2, 3, 4):
            assert _scan_line(bound_scan(T_min, T_max, jobs=jobs)) == solo, (T_min, T_max, jobs)
    with pytest.raises(ChildProcessError):  # every worker reaped
        os.waitpid(-1, os.WNOHANG)


def test_one_share_scan_never_forks(monkeypatch):
    pooled = _scan_line(bound_scan(3, 12, jobs=2))

    def no_fork():
        raise AssertionError("forked for a single share")

    monkeypatch.setattr(os, "fork", no_fork)
    assert _scan_line(bound_scan(3, 12, jobs=1)) == pooled


def _split_scan_one_T(monkeypatch, in_parent, in_child):
    # _scan_one_T is in_parent in this process and in_child in a forked worker
    parent = os.getpid()
    monkeypatch.setattr(
        racah, "_scan_one_T", lambda T: (in_parent if os.getpid() == parent else in_child)(T)
    )


def test_scan_raises_when_a_worker_dies(monkeypatch):
    # a worker that exits without a result fails the scan, never shrinks it
    _split_scan_one_T(monkeypatch, racah._scan_one_T, lambda T: os._exit(3))
    with pytest.raises(RuntimeError, match="exited with status 3"):
        bound_scan(3, 12, jobs=2)
    with pytest.raises(ChildProcessError):  # every child reaped
        os.waitpid(-1, os.WNOHANG)


def _interrupt(T):
    raise KeyboardInterrupt


def test_scan_interrupt_leaves_no_worker(monkeypatch):
    # workers that would sleep for a minute are killed, not awaited
    _split_scan_one_T(monkeypatch, _interrupt, lambda T: time.sleep(60))
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        bound_scan(3, 12, jobs=3)
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _no_worker_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_pool_yields_each_record_as_it_comes():
    # with 2 jobs the worker runs keys 1 and 3; key 3 waits on a gate the
    # test opens only after the worker's record for key 1 is out, so a pool
    # that held a worker's records back to its end would time the gate out
    gate_r, gate_w = os.pipe()

    def func(key):
        if key == 3:
            return "released" if select.select([gate_r], [], [], 20)[0] else "timed out"
        return key

    try:
        pool = racah._range_pool(func, range(4), 2)
        assert [next(pool), next(pool), next(pool)] == [0, 1, 2]
        os.write(gate_w, b"x")
        assert list(pool) == ["released"]
    finally:
        os.close(gate_r)
        os.close(gate_w)
    _no_worker_left()


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_pool_raises_a_keys_error_after_every_earlier_key(jobs):
    # key 4 runs in this process on 1 job and in a worker on 2 or 3; either
    # way keys 0..3 come out first and the error keeps its class and message
    def func(key):
        if key == 4:
            raise InexactStep(f"step at key {key}")
        if key == 5:
            return 1 // 0  # never reached: the run stops at key 4
        return key * key

    got = []
    with pytest.raises(InexactStep, match="^step at key 4$"):
        got.extend(racah._range_pool(func, range(8), jobs))
    assert got == [0, 1, 4, 9]
    # any class the caller names is handed back the same way
    errors = (InexactStep, ZeroDivisionError)
    with pytest.raises(ZeroDivisionError, match="by zero"):
        list(racah._range_pool(lambda key: 1 // (key - 3), range(6), jobs, errors))
    _no_worker_left()


def test_pool_worker_failures_name_the_worker():
    parent = os.getpid()

    def in_worker(fail):
        return lambda key: fail(key) if os.getpid() != parent else key

    with pytest.raises(racah.WorkerError, match=r"^worker \d+ exited with status 3$"):
        list(racah._range_pool(in_worker(lambda key: os._exit(3)), range(4), 2))
    # a worker's other exception ends it with status 2 and the exception
    with pytest.raises(
        racah.WorkerError, match=r"^worker \d+ exited with status 2: KeyError\(1\)$"
    ):
        list(racah._range_pool(in_worker(lambda key: {}[key]), range(4), 2))
    # a result marshal cannot carry is such an exception, not a silent loss
    with pytest.raises(racah.WorkerError, match="status 2: ValueError"):
        list(racah._range_pool(in_worker(Fraction), range(4), 2))
    _no_worker_left()


def test_pool_abandoned_leaves_no_worker():
    pool = racah._range_pool(lambda key: time.sleep(60) if key else key, range(4), 3)
    start = time.monotonic()
    assert next(pool) == 0
    pool.close()
    assert time.monotonic() - start < 30
    _no_worker_left()


def test_pool_forks_nothing_for_one_key_or_without_fork(monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    assert list(racah._range_pool(str, [7], 4)) == ["7"]
    monkeypatch.delattr(os, "fork")
    assert list(racah._range_pool(str, range(5), 3)) == list("01234")


def test_scan_validation():
    with pytest.raises(ValueError):
        bound_scan(2, 10)
    with pytest.raises(ValueError):
        bound_scan(10, 5)
    with pytest.raises(ValueError):
        bound_scan(3, 5, jobs=0)


def test_scan_classifies_values_at_and_just_past_the_bound(monkeypatch):
    # R_2(2, 6) one step past the bound and R_1(3, 6) on it, both interior
    # and both on points the scan walks
    real = racah._principal_column

    def corrupted(s, T, steps, n_max):
        column = real(s, T, steps, n_max)
        if (s, T) == (2, 6):
            column[2] = -(principal_weight(2, 6) + 1)
        if (s, T) == (3, 6):
            column[1] = principal_weight(1, 6)
        return column

    monkeypatch.setattr(racah, "_principal_column", corrupted)
    report = bound_scan(6, 6, jobs=1)
    assert [(n, s, Fraction(w, p)) for _, n, s, w, p in report.violations] == [
        (2, 2, Fraction(-281, 280))
    ]
    assert [(n, s) for _, n, s in report.exceptions] == [(1, 3)]
    assert not report.ok


def test_scan_walks_only_what_the_norm_leaves_open():
    # the walk stops at n_s = min(s, T^2 // (2(2s+1)) - 1) in column s; every
    # point below it has (2n+2)(2s+1) > T^2, so the column norm
    # sum_m (2m+1) R_m(s)^2 = T^2/(2s+1) puts it strictly inside, and the
    # whole-half-grid walk must give the same violations and equality cases,
    # the edge row n = 0 that the CLI prints by definition included
    assert racah._scan_depths(6) == [0, 1, 2, 1, 1, 0]
    for T in range(3, 151):
        assert _scan_line(bound_scan(T, T, jobs=1)) == json.dumps(scan_json(T, T)) + "\n", T
        for s, depth in enumerate(racah._scan_depths(T)):
            for n in range(depth + 1, s + 1):
                assert (2 * n + 2) * (2 * s + 1) > T * T, (T, n, s)


def test_scan_reports_the_points_it_walked(monkeypatch):
    # points_walked is the sum over T and s of n_s + 1, the entries of the
    # columns the scan really walks, and it changes nothing on stdout
    walked = []
    real = racah._principal_column

    def counted(s, T, steps, n_max):
        column = real(s, T, steps, n_max)
        walked.append(len(column))
        return column

    monkeypatch.setattr(racah, "_principal_column", counted)
    report = bound_scan(3, 20, jobs=1)
    tops = [min(s, max(0, T * T // (2 * (2 * s + 1)) - 1)) for T in range(3, 21) for s in range(T)]
    assert report.points_walked == sum(walked) == sum(top + 1 for top in tops)
    assert "points_walked" not in json.loads(_scan_line(report))


def test_scan_report_classifies_edges():
    report = bound_scan(4, 4, jobs=1)
    cases = json.loads(_scan_line(report))["equality_cases"]
    assert {(case["n"], case["s"]) for case in cases} == {(0, s) for s in range(4)}
    assert report.exceptions == ()


# --- Legendre family and lattice ---


def test_legendre_endpoints_and_leading_coeff():
    for n in range(51):
        assert legendre_eval(n, 1) == 1
        assert legendre_eval(n, -1) == (-1) ** n
        coeffs = legendre_coeffs(n)
        assert len(coeffs) == n + 1
        assert coeffs[n] > 0


def test_legendre_known_polynomials():
    assert legendre_coeffs(2) == [Fraction(-1, 2), Fraction(0), Fraction(3, 2)]
    assert legendre_eval(3, Fraction(1, 2)) == Fraction(-7, 16)


def test_legendre_coeffs_consistent_with_eval():
    t = Fraction(3, 7)
    for n in (4, 9):
        direct = sum(c * t**j for j, c in enumerate(legendre_coeffs(n)))
        assert direct == legendre_eval(n, t)


@settings(max_examples=40)
@given(st.integers(3, 25), st.data())
def test_lattice_agreement(T, data):
    n = data.draw(st.integers(0, T - 1))
    s = data.draw(st.integers(0, T - 1))
    node = lattice_node(s, T)
    lhs = rescaled_values(n, T, node)[n]
    rhs = (-1) ** n * rescale_factor(n, T) * racah_eval(n, s, T)
    assert lhs == rhs


def test_rescaled_degenerates_to_legendre():
    # the recurrence shifts vanish like 1/T^2, so huge T pins the difference
    t = Fraction(1, 3)
    vals = rescaled_values(5, 10**6, t)
    for n in range(6):
        dev = abs(vals[n] - legendre_eval(n, t))
        assert dev < Fraction(1, 10**9)


def test_approx_report_bounds():
    rep = legendre_approx_profile(12, grid_size=40)[2]
    assert rep.n == 2 and rep.within
    assert rep.bound == Fraction(24, 144)
    assert rep.tight_regime is False and rep.tight_within is None
    rep = legendre_approx_profile(95, grid_size=40)[3]
    assert rep.n == 3 and rep.within and rep.tight_regime and rep.tight_within
    # hypothesis 1+2n+2n^2 < T^2/10 fails for n = 5 at T = 10
    assert [r.n for r in legendre_approx_profile(10, grid_size=4)] == [0, 1]


def test_approx_profile_lists_admissible_degrees():
    reports = legendre_approx_profile(20, grid_size=20)
    assert [r.n for r in reports] == [0, 1, 2, 3]
    assert all(r.within for r in reports)
    assert legendre_approx_profile(3, grid_size=20) == []


def test_admissible_degrees():
    assert admissible_degrees(10) == [0, 1]
    assert admissible_degrees(3) == []
    for T in range(3, 201):
        degrees = admissible_degrees(T)
        last = len(degrees) - 1
        assert degrees == list(range(last + 1)), T
        # the hypothesis 1 + 2n + 2n^2 < T^2/10 holds at the last degree, not the next
        assert last < 0 or 10 * (1 + 2 * last + 2 * last * last) < T * T, T
        assert 10 * (1 + 2 * (last + 1) + 2 * (last + 1) ** 2) >= T * T, T


def test_window_checks_small_sample():
    samples = WindowSamples(
        n_max=8,
        t_grid=40,
        theta_points=400,
        node_T_values=(10, 11, 17),
        product_samples=((90, 2), (150, 4)),
    )
    report = legendre_window_checks(samples)
    assert report.ok
    assert report.window_max <= Fraction(3, 4)
    assert report.sine_margin > 0
    assert report.product_min > Fraction(40, 41)


def test_window_checks_reject_bad_samples():
    with pytest.raises(ValueError):
        legendre_window_checks(WindowSamples(n_max=1))
    with pytest.raises(ValueError):
        legendre_window_checks(WindowSamples(product_samples=((80, 2),)))
    with pytest.raises(ValueError):
        legendre_window_checks(WindowSamples(product_samples=((100, 5),)))


# --- inequalities ---


def _harmonic_values(T):
    """H_1..H_(T-1) as Fractions, from the sequence form of the harmonic numbers."""
    L, h = harmonic_numerators(T - 1)
    return [Fraction(v, L) for v in h[1:]]


def test_alternating_bound_matches_profile():
    for T in (4, 9, 14):
        profile = alternating_profile(*harmonic_numerators(T - 1))
        for n in range(T):
            single = alternating_bound([harmonic(s) for s in range(1, T)], n, T)
            assert single.lhs == profile[n].lhs
            assert single.rhs == profile[n].rhs
            assert single.holds


@settings(max_examples=40)
@given(st.integers(3, 16), st.data())
def test_alternating_profile_matches_oracle_on_any_values(T, data):
    # every row sum against the term-by-term oracle, for values of either
    # sign over unrelated denominators, so no cancellation is taken on trust
    values = data.draw(
        st.lists(
            st.fractions(min_value=-50, max_value=50, max_denominator=10**6),
            min_size=T - 1,
            max_size=T - 1,
        )
    )
    for n, ineq in enumerate(alternating_profile(*integer_sequence(values))):
        assert ineq == alternating_bound(values, n, T), (T, n)


@settings(max_examples=30)
@given(st.integers(3, 20), st.integers(0, 10**6))
def test_alternating_profile_random_concave(T, seed):
    for ineq in alternating_profile(*integer_sequence(random_concave(T - 1, seed))):
        assert ineq.holds


@settings(max_examples=40)
@given(st.integers(3, 30), st.data())
def test_cauchy_implies_bound_for_positive_sequences(T, data):
    # implication tested on arbitrary positive sequences, not assumed
    values = data.draw(
        st.lists(
            st.fractions(min_value=Fraction(1, 50), max_value=50),
            min_size=T - 1,
            max_size=T - 1,
        )
    )
    n = data.draw(st.integers(0, T - 1))
    if cauchy_sufficient(values, n, T).holds:
        assert alternating_bound(values, n, T).holds


def test_cauchy_range_thresholds():
    # log T < n + 1/2 exactly: e.g. T = 12, n = 2: log 12 = 2.4849 > 2.5? no
    assert in_cauchy_range(2, 12)
    assert not in_cauchy_range(2, 13)  # log 13 = 2.5649 > 2.5
    assert in_cauchy_range(4, 90)  # log 90 = 4.4998 < 4.5
    assert not in_cauchy_range(4, 91)  # log 91 = 4.5109


def test_n_below_log_thresholds():
    assert n_below_log(4, 90)  # e^4 = 54.6 < 90
    assert not n_below_log(5, 90)
    assert not n_below_log(4, 54)
    assert n_below_log(4, 55)


def test_goodrange_implies_cauchy_for_harmonic():
    # exhaustive over n at small T
    for T in range(3, 41):
        values = _harmonic_values(T)
        for n in range(T):
            if in_cauchy_range(n, T):
                assert cauchy_sufficient(values, n, T).holds, (T, n)
    # at larger T check the smallest degree in range; the left side does not
    # depend on n and the right side grows with n, so the rest follow
    for T in range(41, 201):
        values = _harmonic_values(T)
        n_min = next(n for n in range(T) if in_cauchy_range(n, T))
        low = cauchy_sufficient(values, n_min, T)
        top = cauchy_sufficient(values, T - 1, T)
        assert low.holds and top.holds, T
        assert low.lhs == top.lhs and low.rhs < top.rhs, T


def test_alternating_bound_holds_for_harmonic_sweep():
    # every degree, every T up to desk scale, both sides exact
    for T in range(3, 81):
        profile = alternating_profile(*harmonic_numerators(T - 1))
        assert len(profile) == T
        assert all(ineq.holds for ineq in profile), T


def test_certify_covers_harmonic():
    for T in (10, 25, 90):
        scale, h = harmonic_numerators(T - 1)
        concave, certified = certify_alternating_bound(scale, h)
        assert all(ineq.holds for ineq, _ in certified)
        assert all(labels for _, labels in certified)
        assert concave and validate_concave(h)
    found = {b for _, labels in certified for b in labels}
    assert found == {"cauchy", "closed-form", "legendre"}


def test_concave_routes_need_concave_input():
    # the harmonic numbers at T = 100 with H_3 raised by 1/8: the sequence
    # still increases, but its step 1/4 - 1/8 into H_4 is below the next,
    # 1/5, so it is not concave.  "closed-form" and "legendre" rest on
    # concavity and label no row; "cauchy" does not, and keeps its rows
    values = list(_harmonic_values(100))
    values[2] += Fraction(1, 8)
    scale, h = integer_sequence(values)
    concave, certified = certify_alternating_bound(scale, h)
    assert not concave and not validate_concave(h)
    assert {labels for _, labels in certified} == {(), ("cauchy",)}
    assert all(ineq.holds for ineq, labels in certified if labels)


def test_certify_branches_match_per_degree_rules():
    # the legendre cutoff is found once per T; every n must still get the
    # labels that the per-degree rules give, n_below_log(n, T) included
    for T in range(85, 131):
        values = _harmonic_values(T)
        square_sum = sum(h * h / (2 * s + 1) for s, h in enumerate(values, 1))
        mean_sq = (sum(values) / T) ** 2
        concave, certified = certify_alternating_bound(*harmonic_numerators(T - 1))
        assert concave and len(certified) == T
        for n, (_, labels) in enumerate(certified):
            want = []
            if square_sum < (2 * n + 1) * mean_sq:
                want.append("cauchy")
            if n <= 3 or n == T - 1:
                want.append("closed-form")
            if T >= 90 and n_below_log(n, T):
                want.append("legendre")
            assert labels == tuple(want), (T, n)


def test_certify_flags_non_concave_input(tmp_path, capsys):
    values = [Fraction(1), Fraction(5), Fraction(6)]  # increasing, not concave
    scale, h = integer_sequence(values)
    concave, certified = certify_alternating_bound(scale, h)
    assert not concave and not validate_concave(h)
    path = tmp_path / "seq.txt"
    path.write_text("1\n5\n6\n")
    assert cli.main(["verify-needed", "--T", "4", "--sequence", str(path)]) == 0
    out, err = capsys.readouterr()
    rows = [json.loads(line) for line in out.splitlines()]
    assert [row["n"] for row in rows] == [0, 1, 2, 3]
    assert all(row["concave"] is False for row in rows) and "exploratory" in err
    assert [row["branches"] for row in rows] == [list(labels) for _, labels in certified]


def _rationals(T):
    """T-1 rationals: either sign, or summing to 0, or with equal steps, or
    concave increasing with one value made negative."""
    m = T - 1
    fractions = st.fractions(min_value=-50, max_value=50, max_denominator=10**4)
    positive = st.fractions(min_value=Fraction(1, 100), max_value=20, max_denominator=10**4)

    def zero_sum(values):
        return values[:-1] + [-sum(values[:-1], Fraction(0))]

    def from_steps(steps, neg_at=None):
        steps = sorted(steps, reverse=True)
        values = [sum(steps[: i + 1], Fraction(0)) for i in range(m)]
        if neg_at is not None:
            values[neg_at] = -values[neg_at]
        return values

    return st.one_of(
        st.lists(fractions, min_size=m, max_size=m),
        st.lists(fractions, min_size=m, max_size=m).map(zero_sum),
        st.lists(st.sampled_from([Fraction(1), Fraction(1, 3)]), min_size=m, max_size=m).map(
            from_steps
        ),
        st.tuples(st.lists(positive, min_size=m, max_size=m), st.integers(0, m - 1)).map(
            lambda pair: from_steps(*pair)
        ),
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 12), st.data())
def test_certify_matches_oracles_on_any_rationals(T, data):
    # every row's lhs, rhs, holds and labels against the term-by-term sum and
    # the Fraction Cauchy test, and the concave flag, validate_concave,
    # against the Fraction-by-Fraction rule
    values = data.draw(_rationals(T))
    scale, h = integer_sequence(values)
    concave, certified = certify_alternating_bound(scale, h)
    assert concave == validate_concave(h) == fraction_concave_increasing(values)
    assert len(certified) == T
    for n, (ineq, labels) in enumerate(certified):
        want = alternating_bound(values, n, T)
        assert (ineq.lhs, ineq.rhs) == (want.lhs, want.rhs), (T, n)
        assert ineq.holds == want.holds
        want_labels = ["cauchy"] if cauchy_sufficient(values, n, T).holds else []
        closed_form = n <= 3 or n == T - 1
        want_labels += ["closed-form"] if closed_form and fraction_concave_increasing(values) else []
        assert labels == tuple(want_labels), (T, n)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 12), st.data())
def test_cauchy_label_only_on_rows_that_hold(T, data):
    # the Cauchy cut bounds lhs below T |mean|, which is the right side only
    # for a positive mean; a sum of either sign must not carry the label
    # onto a row that fails
    values = data.draw(_rationals(T))
    _, certified = certify_alternating_bound(*integer_sequence(values))
    for n, (ineq, labels) in enumerate(certified):
        if "cauchy" in labels:
            assert ineq.holds, (T, n, values)


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 12), st.data())
def test_labelled_rows_hold_on_any_rationals(T, data):
    # a label names a route that proves its row: whatever the sequence, no
    # row that carries one may fail
    values = data.draw(_rationals(T))
    _, certified = certify_alternating_bound(*integer_sequence(values))
    for n, (ineq, labels) in enumerate(certified):
        assert ineq.holds or not labels, (T, n, values, labels)


def test_cauchy_label_not_on_negative_sum(tmp_path, capsys):
    # -1, -2, -3: every row fails, the sum is negative, so no row is "cauchy";
    # the sequence falls, so no row is "closed-form" and none is covered
    path = tmp_path / "neg.txt"
    path.write_text("-1\n-2\n-3\n")
    assert cli.main(["verify-needed", "--T", "4", "--sequence", str(path)]) == 1
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [row["holds"] for row in rows] == [False] * 4
    assert [row["branches"] for row in rows] == [[]] * 4
    assert [row["covered"] for row in rows] == [False] * 4


@pytest.mark.parametrize("T", [2, 1, 0])
def test_alternating_rejects_small_T(T):
    # T is the length of h = [0, scale H_1, ..., scale H_(T-1)]
    scale, h = harmonic_numerators(5)
    for check in (alternating_profile, certify_alternating_bound):
        with pytest.raises(ValueError, match=f"need T >= 3, got {T}"):
            check(scale, h[:T])


@pytest.mark.parametrize("scale", [-6, 0])
def test_alternating_rejects_scale_below_1(scale):
    # h = scale H_s of H = 0, 1, 3/2, 11/6; a scale below 1 would flip the
    # sign of every row's denominator, or divide by zero
    h = [0, scale, scale * 3 // 2, scale * 11 // 6]
    for check in (alternating_profile, certify_alternating_bound):
        with pytest.raises(ValueError, match=f"need scale >= 1, got {scale}"):
            check(scale, h)
