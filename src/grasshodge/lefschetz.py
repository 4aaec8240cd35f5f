"""Arithmetic correction operator and the positivity certificate it drives.

The certificate for a box of width N and primitive codimension 2k is an
exact rational assembled in two independent ways.  Directly, it pairs the
lower hyperplane powers L^(n-b) alpha of the primitive class with the
corrected upper powers C(L^(n+b) alpha), b = 0..n; sigma_walk gets all of
them from one walk L^0 alpha, ..., L^(2n) alpha on integer coefficient
vectors, one two-term Pieri step per power, and contracts each lower power
with the integer staircase of the correction operator.  The walk takes one
step more and requires L^(2n+1) alpha = 0 with alpha nonzero: the primitive
part in codimension 2k is the kernel of that power and has rank 1, so the
walk proves that its class spans it (at k = 0, where that power lies past
the box, it checks the degree instead).  In closed form, the certificate is
the principal weight times the margin of row n = N - 2k of the harmonic
alternating inequality at T = N + 2, read off one row walk of the Racah
values, as one Fraction over L = lcm(1, ..., N + 1).  One table per box
holds L, the harmonic integers L H_0, ..., L H_(N+1) and, once the direct
route first asks for them, the N + 1 staircases built from them; both
routes at every k of the box read it.
The direct route uses no Racah code, so the two stay independent;
sigma_verdict returns the certificate with whether the two agree, and
sigma_direct, the same pairing on whole Chow classes, is the definitional
reference for the walk.

The module also carries a small model of projective n-space with one extra
archimedean piece per codimension, used to check the commutator identity
that pins down the correction in the simplest case.  Its raising and
lowering maps act on basis labels (kind, i), each image a sparse map from
label to coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import add, mul

from . import racah
from .chowring import (
    ChowElement,
    Partition2,
    _primitive_coefficients,
    intersection_pairing,
    lefschetz_power,
    primitive_class,
)
from .exactmath import harmonic_numerators

_ZERO = Fraction(0)


@dataclass(frozen=True)
class SigmaInstance:
    """One certificate instance: box width N and primitive codimension 2k."""

    N: int
    k: int

    def __post_init__(self) -> None:
        if self.N < 1 or self.k < 0 or 2 * self.k > self.N:
            raise ValueError(f"need N >= 1 and 0 <= 2k <= N, got N={self.N}, k={self.k}")

    @property
    def n(self) -> int:
        """Length of the hyperplane string through the primitive class."""
        return self.N - 2 * self.k

    @property
    def T(self) -> int:
        """Shifted parameter N + 2 entering every closed form."""
        return self.N + 2


def _staircase(N: int, b: int, h: list[int], column_sum: int) -> list[int]:
    """L C(s(N, b)) as integers: the coefficients g[i] on s(N - i, b + i),
    i = 0..(N - b) // 2, from h[i] = L H_i, i = 0..N + 1, and their sum,
    with L = lcm(1, ..., N + 1).

    g[0] = sum_i L H_i - L H_(N-b+1) and g[i] = L H_i - L H_(N-b+1-i) for
    i >= 1; every entry is nonzero (g[0] > 0 > g[i]).
    """
    g = [h[i] - h[N - b + 1 - i] for i in range((N - b) // 2 + 1)]
    g[0] += column_sum
    return g


@lru_cache(maxsize=1)
def _box_table(N: int) -> tuple[int, tuple[int, ...], int, list[tuple[int, ...]]]:
    """The integers one box of width N reads: L = lcm(1, ..., N + 1),
    h[i] = L H_i for i = 0..N + 1, their sum, and a list that _box_stairs
    fills with the staircases _staircase(N, b), b = 0..N, on first need.

    The closed certificate at T = N + 2 reads L, h and their sum; the
    correction operator and the direct walk also read the staircases, so a
    closed-only run never builds them.  Every k of the box reads this one
    table, so the last box's table is kept, staircases and all.
    """
    L, h = harmonic_numerators(N + 1)
    return L, tuple(h), sum(h), []


def _box_stairs(N: int) -> list[tuple[int, ...]]:
    """The staircases of _box_table(N), built at the first call for that
    table and kept in it."""
    _, h, column_sum, stairs = _box_table(N)
    if not stairs:
        stairs.extend(tuple(_staircase(N, b, h, column_sum)) for b in range(N + 1))
    return stairs


def correction_op(x: ChowElement) -> ChowElement:
    """Degree-preserving correction operator on the box of width N.

    Classes s(a, b) with a < N are annihilated.  A top-row class s(N, b)
    keeps its harmonic column sum H_0 + ... + H_(N+1) and sheds a staircase
    of harmonic differences:

        (sum_i H_i) s(N, b) - sum_i (H_(N-b+1-i) - H_i) s(N-i, b+i),

    the second sum running over 0 <= i <= (N - b) // 2.

    Every H_i with i <= N + 1 is an integer over L = lcm(1, ..., N + 1), so
    the staircase runs on the integers L H_i and each output coefficient
    becomes one Fraction over L at the end.
    """
    N = x.N
    L, stairs = _box_table(N)[0], _box_stairs(N)
    terms: dict[Partition2, Fraction] = {}
    for (a, b), c in x.terms.items():
        if a < N:
            continue
        # no two source terms share a target and no staircase weight is 0,
        # so every coefficient is set once and none cancels
        for i, g in enumerate(stairs[b]):
            terms[(N - i, b + i)] = Fraction(c * g, L)
    return ChowElement(N, terms)


def sigma_direct(inst: SigmaInstance) -> Fraction:
    """Certificate assembled term by term through the correction operator.

    The definitional reference for sigma_walk: 2(n + 1) hyperplane powers,
    n + 1 corrections and n + 1 pairings on whole Chow classes.
    """
    alpha = primitive_class(inst.N, inst.k)
    n = inst.n
    total = _ZERO
    for b in range(n + 1):
        left = lefschetz_power(alpha, n - b)
        right = correction_op(lefschetz_power(alpha, n + b))
        total += intersection_pairing(left, right)
    return total


def _pieri_step(v: list[int], w: int, N: int) -> list[int]:
    """One hyperplane step on the weight-w coefficients v[j] of s(w - j, j).

    s(a, j) goes to s(a + 1, j) + s(a, j + 1), so s(w + 1 - j, j) collects
    v[j] + v[j - 1], and at odd w the last entry also gives the new last,
    j = (w + 1) / 2.  Two steps leave the box: s(j, j) -> s(j, j + 1), the
    image of the last entry at even w, which is not appended, and
    s(N, j) -> s(N + 1, j), which is cleared.  Entries j < w - N, below the
    box, stay 0.
    """
    out = [v[0], *map(add, v[1:], v)]
    if w & 1:
        out.append(v[-1])
    if w >= N:
        out[w - N] = 0
    return out


class NotPrimitive(ArithmeticError):
    """The direct walk's class alpha is zero or L^(2n+1) alpha is not, or at
    k = 0 the walk misses the degree C(2N, N) on s(N, N): a coefficient of the
    walk is corrupt, so its certificate is not decided."""


def sigma_walk(inst: SigmaInstance) -> Fraction:
    """The direct certificate from one integer walk L^0 alpha, ..., L^(2n+1) alpha.

    The walk holds the coefficients v[j] of s(w - j, j) at weight
    w = 2k + r, one Pieri step per power.  The upper power L^(n+b) alpha
    meets the correction operator only through its top-row term
    t_b s(N, b), t_b = v[b] at r = n + b, and C(s(N, b)) pairs s(N - i, b + i)
    with s(N - b - i, i) of the lower power L^(n-b) alpha, the coefficient
    v[i] at r = n - b.  So the certificate is sum_b t_b S_b / L, where
    L = lcm(1, ..., N + 1) and S_b = sum_i g_b[i] v[i] contracts the lower
    power with the integer staircase g_b = L C(s(N, b)); one table
    (_box_table, _box_stairs) holds L and every staircase the k of one box
    read.

    The walk ends one step past the pairing, at L^(2n+1) alpha, and requires
    it to be 0 with alpha nonzero.  The codimension-2k primitive part is the
    kernel of L^(2n+1) there, of rank betti(N, 2k) - betti(N, 2k - 1) = 1, so
    that proves alpha spans it.  At k = 0, where L^(2N+1) alpha lies past the
    box, that is vacuous, and the walk checks instead that L^(2N) alpha has
    C(2N, N) = (N + 1) Catalan(N) on s(N, N): alpha = (N + 1) s(0, 0) and the
    Grassmannian has degree Catalan(N).  Raises NotPrimitive otherwise.
    """
    N, k, n = inst.N, inst.k, inst.n
    L, stairs = _box_table(N)[0], _box_stairs(N)
    v = _primitive_coefficients(N, k)
    nonzero = any(v)
    # weight w = 2k + r, so the lower power L^(n-b) alpha sits at w = N - b
    # and the upper power L^(n+b) alpha at w = N + b, where t_b = v[w - N]
    lower = []  # S_n, ..., S_0
    for w in range(2 * k, N):
        lower.append(sum(map(mul, stairs[N - w], v)))
        v = _pieri_step(v, w, N)
    lower.append(sum(map(mul, stairs[0], v)))
    tops = []  # t_0, ..., t_n
    for w in range(N, 2 * (N - k) + 1):
        tops.append(v[w - N])
        v = _pieri_step(v, w, N)
    if not nonzero or any(v):
        raise NotPrimitive(
            f"the class alpha at N={N}, k={k} is not primitive: "
            + ("it is 0" if not nonzero else f"L^{2 * n + 1} alpha is not 0")
        )
    if not k and tops[-1] != comb(2 * N, N):
        raise NotPrimitive(
            f"the walk at N={N}, k=0 is corrupt: L^{2 * N} alpha has {tops[-1]} "
            f"on s({N}, {N}), not C({2 * N}, {N}) = {comb(2 * N, N)}"
        )
    return Fraction(sum(map(mul, tops, reversed(lower))), L)


def sigma_closed(inst: SigmaInstance) -> Fraction:
    """Certificate from the closed form: the principal weight times the
    margin rhs - lhs of row n of the alternating inequality for the harmonic
    numbers at T.

    With h[s] = L H_s, the row walk w_n(s) = P_n R_n(s, T) and P_n = w_n(0),
    that is one Fraction (P_n sum_s h[s] - sum_s (-1)^(s+1) w_n(s) h[s]) / L.
    """
    n, T = inst.n, inst.T
    L, h, column_sum, _ = _box_table(inst.N)  # h[i] = L H_i, i <= T - 1
    row = racah._principal_row(n, T)
    return Fraction(row[0] * column_sum - racah._alternating_dot(row, h), L)


def sigma_verdict(inst: SigmaInstance, method: str = "both") -> tuple[Fraction, bool]:
    """The certificate by the requested pipeline(s), "direct", "closed" or
    "both", and whether the pipelines agree (vacuously true for one)."""
    if method not in ("direct", "closed", "both"):
        raise ValueError(f"unknown method {method!r}")
    if method == "direct":
        return sigma_walk(inst), True
    value = sigma_closed(inst)
    return value, method == "closed" or sigma_walk(inst) == value


# ---------------------------------------------------------------------------
# Projective-space model.
#
# The model for projective n-space keeps, per codimension i, a lifted power
# class (hat_i) and a purely archimedean class sitting one codimension higher
# (form_i).  Each map is given on one basis label (kind, i) as the sparse map
# {label: coefficient} of its image, so both composites of the commutator
# follow by linearity.  The single nonclassical constant is the chain
# constant tau_n = H_1 + ... + H_n, which closes the raising chain.
# ---------------------------------------------------------------------------

Label = tuple[str, int]


def chain_constant(n: int) -> Fraction:
    """tau_n = harmonic(1) + ... + harmonic(n), the degree of the full chain."""
    L, h = harmonic_numerators(n)
    return Fraction(sum(h), L)


def _raise(n: int, tau: Fraction, label: Label) -> dict[Label, int | Fraction]:
    """Hyperplane raising: hat_i -> hat_(i+1), hat_n -> tau form_n,
    form_i -> form_(i+1), form_n -> 0."""
    kind, i = label
    if i < n:
        return {(kind, i + 1): 1}
    return {("form", n): tau} if kind == "hat" else {}


def _lower(n: int, w: Fraction, label: Label) -> dict[Label, int | Fraction]:
    """Adjoint lowering, w = (n+1)/tau: hat_i -> i (n+2-i) hat_(i-1) and
    form_i -> w hat_i + i (n-i) form_(i-1)."""
    kind, i = label
    if kind == "hat":
        return {("hat", i - 1): i * (n + 2 - i)} if i else {}
    image: dict[Label, int | Fraction] = {("hat", i): w}
    if 0 < i < n:
        image[("form", i - 1)] = i * (n - i)
    return image


def proj_commutator_check(n: int) -> bool:
    """Check [lower, raise] = (n + 1 - 2p) id on every model basis label.

    The codimension p is i for hat_i and i + 1 for form_i, so the eigenvalue
    runs from n + 1 down to -(n + 1) along the chain.  Raising and lowering
    are taken once on each label; both composites are then assembled from
    those images by linearity.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    tau = chain_constant(n)
    w = Fraction(n + 1) / tau
    labels = [(kind, i) for kind in ("hat", "form") for i in range(n + 1)]
    up = {label: _raise(n, tau, label) for label in labels}
    down = {label: _lower(n, w, label) for label in labels}

    for label in labels:
        # lower(raise(x)) - raise(lower(x)), accumulated coordinate by coordinate
        acc: dict[Label, int | Fraction] = {}
        for first, second, sign in ((up, down, 1), (down, up, -1)):
            for mid, c in first[label].items():
                for target, d in second[mid].items():
                    acc[target] = acc.get(target, 0) + sign * c * d
        kind, i = label
        eigenvalue = n + 1 - 2 * (i if kind == "hat" else i + 1)
        acc[label] = acc.get(label, 0) - eigenvalue
        if any(acc.values()):
            return False
    return True
