"""The Legendre comparison family that the "legendre" route label of
`racah.certify_alternating_bound` refers to, with the checks that support it.

Only tests read this module; the library decides no verdict by it.  It holds
the Legendre polynomials P_n by their three-term recurrence, the
lattice-rescaled family p_n that meets R_n(s, T) at the nodes
t_s = (2s+1)^2 / (2 T^2) - 1, the grid deviation of p_n from P_n for the
admissible degrees 1 + 2n + 2n^2 < T^2/10, and the window, node, product and
sine checks behind the regime T >= 90, n < log T.  The route label itself
reads only `racah.n_below_log`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import cos, pi, sin, sqrt

from grasshodge.racah import n_below_log

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
