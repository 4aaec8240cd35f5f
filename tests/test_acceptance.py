"""Acceptance suite: the thirteen checks the package promises to satisfy.

Each test covers one numbered criterion and prints a single summary line
(visible with -s or in the -v listing).  Comparisons are exact rational
equalities unless a check is explicitly a floating-point smoke test.
"""

import io
import json
import time
from fractions import Fraction

from grasshodge import cli
from grasshodge.chowring import (
    hodge_star,
    lefschetz_kernel,
    primitive_class,
    primitive_profile,
)
from grasshodge.exactmath import binomial, integer_sequence, random_concave
from grasshodge.lefschetz import (
    SigmaInstance,
    chain_constant,
    proj_commutator_check,
    sigma_closed,
    sigma_direct,
)
from grasshodge.racah import (
    alternating_profile,
    bound_scan,
    orthogonality_profile,
    principal_weight,
    racah_eval,
)
from legendre_checks import (
    lattice_node,
    legendre_approx_profile,
    legendre_window_checks,
    rescale_factor,
    rescaled_values,
)
from oracles import correction_weight, racah_sum, racah_top_product, top_coefficient


def _report(num: int, text: str) -> None:
    print(f"PASS {num:02d} {text}")


def test_01_certificate_positive_through_N40():
    start = time.monotonic()
    instances = [
        SigmaInstance(N, k) for N in range(1, 41) for k in range(N // 2 + 1)
    ]
    values = [sigma_closed(inst) for inst in instances]
    elapsed = time.monotonic() - start
    assert all(v > 0 for v in values)
    assert elapsed < 120.0
    _report(1, f"certificate positive for all {len(values)} instances with N <= 40 "
               f"({elapsed:.1f}s single worker)")


def test_02_pipelines_agree_through_N16():
    count = 0
    for N in range(1, 17):
        for k in range(N // 2 + 1):
            inst = SigmaInstance(N, k)
            assert sigma_direct(inst) == sigma_closed(inst), (N, k)
            count += 1
    _report(2, f"expansion and closed form agree exactly on {count} instances, N <= 16")


def test_03_weight_ratio_equals_racah_value():
    count = 0
    for T in range(3, 26):
        for n in range(T - 1):
            A = principal_weight(n, T)
            for i in range(1, T):
                lhs = Fraction((-1) ** i * correction_weight(n, T, i), A)
                assert lhs == racah_eval(n, i, T) == racah_sum(n, i, T), (n, T, i)
                count += 1
    _report(3, f"signed weight ratio matches the hypergeometric value at {count} points, T <= 25")


def test_04_orthogonality_exact_through_T25():
    pairs = 0
    for T in range(3, 26):
        checked, ok = orthogonality_profile(T)
        assert ok, T
        pairs += checked
    _report(4, f"weighted orthogonality exact for {pairs} row pairs, T <= 25")


def test_05_column_sums_match_binomial():
    count = 0
    for N in range(1, 61):
        for k in range(N // 2 + 1):
            total = sum(top_coefficient(N, k, b) for b in range(N - 2 * k + 1))
            assert total == binomial(2 * N - 2 * k + 2, N + 2), (N, k)
            count += 1
    _report(5, f"top-coefficient column sums match the single binomial for {count} (N, k), N <= 60")


def test_06_closed_form_rows_through_T40():
    for T in range(3, 41):
        for s in range(T):
            assert racah_eval(0, s, T) == racah_sum(0, s, T) == 1
            top = racah_top_product(s, T)
            assert racah_eval(T - 1, s, T) == racah_sum(T - 1, s, T) == top, (T, s)
        assert racah_eval(1, T - 1, T) == racah_sum(1, T - 1, T) == Fraction(1 - T, 1 + T)
    _report(6, "constant row, last-node value, and top-row product exact for T <= 40")


def test_07_bound_scan_clean_through_T100():
    report = bound_scan(3, 100, jobs=2)
    assert report.violations == ()
    assert report.exceptions == ()
    line = io.StringIO()
    cli.emit_scan_report(report, line)
    cases = json.loads(line.getvalue())["equality_cases"]
    assert all(case["n"] == 0 or case["s"] == 0 for case in cases)
    # the known equality wall is really there: every (0, s) appears
    seen = {(case["T"], case["s"]) for case in cases if case["n"] == 0}
    assert all((T, s) in seen for T in range(3, 101) for s in range(T))
    _report(7, f"|R| <= 1 scan clean over 3 <= T <= 100 "
               f"({report.rows_checked} rows, {report.elapsed_ms} ms, 2 workers); "
               "evidence for the open bound, not proof")


def test_08_lattice_agreement_through_T25():
    count = 0
    for T in range(3, 26):
        factors = [(-1) ** n * rescale_factor(n, T) for n in range(T)]
        for s in range(T):
            vals = rescaled_values(T - 1, T, lattice_node(s, T))
            for n in range(T):
                assert vals[n] == factors[n] * racah_eval(n, s, T), (T, n, s)
                count += 1
    _report(8, f"recurrence family meets rescaled hypergeometric values at {count} lattice points, T <= 25")


def test_09_recurrence_tracks_legendre_on_grid():
    checked = 0
    for T in range(3, 61):
        for rep in legendre_approx_profile(T, grid_size=200):
            assert rep.within, (rep.n, T, rep.max_deviation, rep.bound)
            checked += 1
    _report(9, f"201-point grid deviation below (3/2) 4^n / T^2 for {checked} admissible (n, T), T <= 60")


def test_10_window_product_and_sine_checks():
    report = legendre_window_checks()
    assert report.window_ok, report.window_max
    assert report.sine_ok, report.sine_margin
    assert report.nodes_ok, report.nodes_checked
    assert report.product_ok, report.product_min
    _report(10, f"|P_n| <= 3/4 on the window (max {float(report.window_max):.4f}), "
                f"sine smoke margin {report.sine_margin:.1e}, "
                f"{report.nodes_checked} lattice nodes inside, "
                f"products above 40/41 (min {float(report.product_min):.5f})")


def test_11_projective_model_relations():
    for n in range(1, 31):
        assert proj_commutator_check(n), n
        assert chain_constant(n) > 0
    by_hand = (
        Fraction(1)
        + Fraction(3, 2)
        + Fraction(11, 6)
        + Fraction(25, 12)
        + Fraction(137, 60)
    )
    assert by_hand == Fraction(87, 10)
    assert chain_constant(5) == by_hand
    _report(11, "commutator eigenvalues hold for n <= 30; chain constant positive, value 87/10 at n = 5")


def test_12_random_concave_robustness_through_T40():
    trials = 0
    for T in range(3, 41):
        for trial in range(100):
            seed = 10_000 * T + trial
            for ineq in alternating_profile(*integer_sequence(random_concave(T - 1, seed))):
                assert ineq.holds, (T, seed, ineq)
            trials += 1
    _report(12, f"alternating bound holds for {trials} seeded concave sequences "
                "(100 per T, T <= 40), every n")


def test_13_primitive_structure_through_N30():
    for N in range(1, 31):
        prof = primitive_profile(N)
        assert prof.isolated, N
        for p, dim in enumerate(prof.dims):
            assert dim == (1 if p % 2 == 0 else 0), (N, p)
        # the starred kernel generator is proportional to the explicit class
        for k in range(N // 2 + 1):
            kern = lefschetz_kernel(N, 2 * N - 2 * k)
            assert len(kern) == 1
            starred = hodge_star(kern[0])
            alpha = primitive_class(N, k)
            (a, b), coeff = next(iter(alpha.terms.items()))
            scale = starred.coeff(a, b) / coeff
            assert scale != 0
            assert starred.terms == {ab: scale * c for ab, c in alpha.terms.items()}, (N, k)
    _report(13, "primitive ranks isolated and one-dimensional in even codimension, "
                "starred kernels proportional to the explicit classes, N <= 30")
