import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from grasshodge.exactmath import (
    binomial,
    decimal_approx,
    decimal_ratio,
    exp_compare,
    format_ratio,
    format_rational,
    harmonic,
    harmonic_numerators,
    integer_sequence,
    parse_rational,
    random_concave,
    validate_concave,
)
from oracles import (
    fraction_concave_increasing,
    fraction_decimal_approx,
    fraction_format_rational,
    pochhammer,
)


def test_binomial_matches_math_comb():
    for n in range(12):
        for k in range(-2, n + 3):
            want = math.comb(n, k) if 0 <= k <= n else 0
            assert binomial(n, k) == want


def test_binomial_rejects_negative_row():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_binomial_row_sums():
    for n in range(61):
        assert sum(binomial(n, k) for k in range(n + 1)) == 2**n


def test_pochhammer_factorial_and_vanishing():
    for r in range(9):
        assert pochhammer(1, r) == math.factorial(r)
    # a nonpositive integer base hits zero once r walks past it
    for n in range(6):
        for r in range(n + 1, n + 4):
            assert pochhammer(-n, r) == 0


def test_pochhammer_small():
    assert pochhammer(3, 0) == 1
    assert pochhammer(3, 4) == 3 * 4 * 5 * 6
    assert pochhammer(-3, 4) == 0  # (-3)(-2)(-1)(0)
    assert pochhammer(Fraction(1, 2), 2) == Fraction(3, 4)


def test_harmonic_values():
    assert harmonic(0) == 0
    assert harmonic(1) == 1
    assert harmonic(4) == Fraction(25, 12)
    assert harmonic(30) > harmonic(29)
    assert harmonic_numerators(4) == (12, [0, 12, 18, 22, 25])
    assert harmonic_numerators(0) == (1, [0])
    with pytest.raises(ValueError):
        harmonic(-1)


@given(st.integers(1, 60))
def test_harmonic_recurrence(k):
    assert harmonic(k) == harmonic(k - 1) + Fraction(1, k)


def test_harmonic_recurrence_deep():
    # exact well past toy sizes
    assert harmonic(10_000) - harmonic(9_999) == Fraction(1, 10_000)


def test_validate_concave():
    assert integer_sequence([Fraction(1), Fraction(3, 2), Fraction(11, 6)]) == (6, [0, 6, 9, 11])
    assert validate_concave([0, 6, 9, 11])
    assert not validate_concave([0, 1, 1])  # flat step
    assert not validate_concave([0, 1, 2, 4])  # convex
    assert not validate_concave([0, -1, 0])


@given(
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=30), max_size=8),
    st.booleans(),
)
def test_validate_concave_matches_fraction_oracle(values, prefix_sums):
    # prefix sums of sorted increments hit the equal-step and concave cases
    if prefix_sums:
        incs = sorted(values, reverse=True)
        values = [sum(incs[: i + 1], Fraction(0)) for i in range(len(incs))]
    assert validate_concave(integer_sequence(values)[1]) == fraction_concave_increasing(values)


def test_validate_concave_harmonic_prefixes():
    values = [harmonic(k) for k in range(1, 51)]
    h = harmonic_numerators(50)[1]
    for m in range(1, 51):
        assert validate_concave(integer_sequence(values[:m])[1])
        assert validate_concave(h[: m + 1])


@given(st.integers(2, 25), st.integers(0, 2**32 - 1))
def test_random_concave_is_concave_and_reproducible(m, seed):
    values = random_concave(m, seed)
    assert len(values) == m
    assert validate_concave(integer_sequence(values)[1])
    assert random_concave(m, seed) == values


@given(st.fractions())
def test_rational_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def test_parse_rational_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == -7
    assert parse_rational("0.125") == Fraction(1, 8)
    assert parse_rational(" 2/6 ") == Fraction(1, 3)
    for bad in ("", "1/0", "x", "1/2/3"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_decimal_approx_rounding():
    assert decimal_approx(Fraction(1, 3), 6) == "0.333333"
    assert decimal_approx(Fraction(2, 3), 6) == "0.666667"
    assert decimal_approx(Fraction(-1, 8), 3) == "-0.125"
    assert decimal_approx(Fraction(5), 2) == "5.00"
    # round half to even, like the decimal module
    assert decimal_approx(Fraction(1, 8), 2) == "0.12"
    assert decimal_approx(Fraction(3, 8), 2) == "0.38"


def test_decimal_approx_zero_places_prints_the_integer():
    assert decimal_approx(Fraction(5, 2), 0) == "2"
    assert decimal_approx(Fraction(7, 2), 0) == "4"
    assert decimal_approx(Fraction(-5, 2), 0) == "-2"
    assert decimal_approx(Fraction(-2, 5), 0) == "0"
    assert decimal_approx(7, 0) == "7"
    assert decimal_approx(Fraction(-7), 0) == "-7"
    with pytest.raises(ValueError, match="places >= 0"):
        decimal_approx(Fraction(1, 3), -1)


# P_n = C(T-1, n) C(T+n, n) at T = 1000 runs to about 2.5 kbit
_BIG = 2**2500


def _exact_ties(places):
    """Odd m over 2 * 10**places: exactly halfway between two roundings."""
    return st.integers(-(10**20), 10**20).map(
        lambda m: Fraction(2 * m + 1, 2 * 10**places)
    )


_places = st.integers(0, 15)
_rationals = st.one_of(
    st.integers(),
    st.booleans(),
    st.fractions(),
    st.integers(-_BIG, _BIG),
    st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(1, _BIG)),
)


@given(_rationals, _places)
def test_decimal_approx_matches_fraction_rounding(q, places):
    assert decimal_approx(q, places) == fraction_decimal_approx(q, places)
    assert decimal_approx(q) == fraction_decimal_approx(q)


@given(_places.flatmap(lambda p: st.tuples(st.just(p), _exact_ties(p))))
def test_decimal_approx_exact_ties_round_half_even(case):
    places, q = case
    text = decimal_approx(q, places)
    assert text == fraction_decimal_approx(q, places)
    # the last digit kept is even at every exact tie
    assert int(text[-1]) % 2 == 0


@given(_rationals)
def test_format_rational_matches_fraction_form(q):
    assert format_rational(q) == fraction_format_rational(q)


@given(
    st.one_of(_rationals, _places.flatmap(_exact_ties)),
    st.integers(1, _BIG),
    _places,
)
def test_ratio_renderings_match_the_reduced_fraction(q, k, places):
    # the pair (k p, k q) in any terms, as racah_grid gives (w, P)
    q = Fraction(q)
    num, den = k * q.numerator, k * q.denominator
    assert format_ratio(num, den) == fraction_format_rational(q)
    assert decimal_ratio(num, den, places) == fraction_decimal_approx(q, places)
    assert decimal_ratio(num, den) == fraction_decimal_approx(q)


def test_rendering_other_rationals_goes_through_fraction():
    for q in (Decimal("-2.5"), Decimal("0.125"), "22/7", 0.375):
        assert format_rational(q) == fraction_format_rational(q)
        for places in (0, 2, 12):
            assert decimal_approx(q, places) == fraction_decimal_approx(q, places)


def test_exp_compare_against_known_points():
    assert exp_compare(0, Fraction(1)) == 0
    assert exp_compare(1, Fraction(271828, 100000)) == 1  # e > 2.71828
    assert exp_compare(1, Fraction(271829, 100000)) == -1
    assert exp_compare(2, Fraction(7)) == 1  # e^2 = 7.389...
    assert exp_compare(2, Fraction(8)) == -1
    assert exp_compare(5, 0) == 1


@given(st.integers(0, 20), st.fractions(min_value=Fraction(1, 100), max_value=10**9))
def test_exp_compare_agrees_with_float_when_clear(m, x):
    approx = m - math.log(float(x))
    if abs(approx) > 1e-6:
        assert exp_compare(m, x) == (1 if approx > 0 else -1)
