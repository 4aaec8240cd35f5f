"""Exact rational arithmetic helpers shared by every other module.

Everything here works over Python's Fraction type.  Nothing in this module
touches floating point; callers that want decimal output go through
decimal_approx, which rounds an exact rational in integers from its
numerator and denominator.
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

__all__ = [
    "binomial",
    "harmonic",
    "harmonic_numerators",
    "integer_sequence",
    "validate_concave",
    "random_concave",
    "format_rational",
    "format_ratio",
    "parse_rational",
    "decimal_approx",
    "decimal_ratio",
    "exp_compare",
]


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), with value 0 for k < 0 or k > n.

    The upper index must be nonnegative; sums in other modules rely on the
    out-of-range convention instead of clamping their own loop bounds.
    """
    if n < 0:
        raise ValueError(f"binomial needs a nonnegative upper index, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def harmonic_numerators(m: int) -> tuple[int, list[int]]:
    """L = lcm(1, ..., m) and the integers [L H_0, ..., L H_m].

    Every harmonic number H_i with i <= m is the integer L H_i over L, so
    sums of them stay in integers until one final division.
    """
    if m < 0:
        raise ValueError(f"harmonic numbers need m >= 0, got {m}")
    L = math.lcm(*range(1, m + 1))
    h = [0]
    for j in range(1, m + 1):
        h.append(h[-1] + L // j)
    return L, h


def harmonic(k: int) -> Fraction:
    """k-th harmonic number 1 + 1/2 + ... + 1/k, with harmonic(0) = 0."""
    L, h = harmonic_numerators(k)
    return Fraction(h[k], L)


def integer_sequence(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The sequence form (scale, h) of values H_1..H_m: scale, the lcm of
    their denominators, and h = [0, scale H_1, ..., scale H_m].

    harmonic_numerators gives the same form for the harmonic numbers; every
    other sequence becomes integers here, once.
    """
    scale = math.lcm(*(v.denominator for v in values))
    return scale, [0] + [v.numerator * (scale // v.denominator) for v in values]


def validate_concave(h: Sequence[int]) -> bool:
    """True when h = [0, scale H_1, ..., scale H_m], scale > 0, is strictly
    increasing and concave: its steps are all positive and nonincreasing."""
    steps = list(map(operator.sub, h[1:], h[:-1]))
    return not steps or (steps[-1] > 0 and all(map(operator.ge, steps, steps[1:])))


def random_concave(m: int, seed: int) -> tuple[Fraction, ...]:
    """Random concave increasing H_1..H_m (H_0 = 0), reproducible by seed.

    Draw m positive rational increments, sort them nonincreasing and take
    prefix sums; concavity is then automatic.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    rng = random.Random(seed)
    incs = sorted(
        (Fraction(rng.randint(1, 9999), rng.randint(1, 9999)) for _ in range(m)),
        reverse=True,
    )
    return tuple(accumulate(incs))


def format_rational(q) -> str:
    """Canonical text form: "p/q" in lowest terms, or "p" when q = 1.

    An int or a Fraction already holds its lowest terms; anything else
    goes through Fraction first.
    """
    if not isinstance(q, (int, Fraction)):
        q = Fraction(q)
    num, den = q.numerator, q.denominator
    if den == 1:
        return str(num)
    return f"{num}/{den}"


def format_ratio(num: int, den: int) -> str:
    """format_rational of num / den, den > 0, reduced by one gcd."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", a plain integer, or a finite decimal, all read exactly."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc


def decimal_approx(q, places: int = 12) -> str:
    """Decimal rendering of an exact rational, rounded to `places` digits.

    Rounding is round-half-even on the exact value, so output is
    deterministic and accurate to 10**-places.  With places = 0 the result
    is the rounded integer, with no decimal point.
    """
    if not isinstance(q, (int, Fraction)):
        q = Fraction(q)
    return decimal_ratio(q.numerator, q.denominator, places)


def decimal_ratio(num: int, den: int, places: int = 12) -> str:
    """decimal_approx of num / den, den > 0, in any terms: the rounding
    reads only the value, so no gcd is taken."""
    if places < 0:
        raise ValueError(f"decimal_approx needs places >= 0, got {places}")
    unit = 10**places
    scaled, rem = divmod(num * unit, den)
    # floor division leaves 0 <= rem < den; round up past the half, and at
    # the exact half only when that makes scaled even
    twice = 2 * rem
    if twice > den or (twice == den and scaled & 1):
        scaled += 1
    sign = "-" if scaled < 0 else ""
    if not places:
        return f"{sign}{abs(scaled)}"
    whole, frac = divmod(abs(scaled), unit)
    return f"{sign}{whole}.{str(frac).zfill(places)}"


def exp_compare(m: int, x) -> int:
    """Sign of e**m - x for integer m >= 0 and rational x, decided exactly.

    Partial sums of the exponential series give certified lower bounds, and
    the geometric tail estimate term * m / (j + 1 - m) gives certified upper
    bounds; the loop refines until the two sides separate x.  For m >= 1 the
    value e**m is irrational, so the comparison always terminates; m = 0 is
    the one rational case and is answered directly.
    """
    if m < 0:
        raise ValueError(f"exp_compare needs m >= 0, got {m}")
    x = Fraction(x)
    if x <= 0:
        return 1
    if m == 0:
        return (x < 1) - (x > 1)
    total = Fraction(1)
    term = Fraction(1)
    j = 0
    while True:
        j += 1
        term *= Fraction(m, j)
        total += term
        if total > x:
            return 1
        if j + 1 > m and total + term * Fraction(m, j + 1 - m) < x:
            return -1
