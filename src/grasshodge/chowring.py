"""Schubert calculus for the Grassmannian of lines in projective (N+1)-space.

Classes are indexed by two-row partitions (a, b) with N >= a >= b >= 0, the
partitions fitting in a 2 x N box.  The variety has dimension 2N, codimension
p classes are the partitions of weight p, and a class is a sparse map from
partition to coefficient.  Coefficients keep the exact type they arise in:
Schubert classes, the primitive class and its Pieri raises are integral and
stay int, and only a genuinely rational step (the Hodge star, the kernel
solve, the correction operator) brings in Fraction.

Every class is built by the constructor ChowElement(N, terms), which
validates it: the box width must be positive, every partition must fit in
the box, and zero coefficients are dropped from a copy of the map.  Classes
carry no arithmetic of their own: a combination is built as a map and passed
to the constructor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

Partition2 = tuple[int, int]


@dataclass(frozen=True)
class ChowElement:
    """Sparse combination of Schubert classes in a fixed 2 x N box.

    Coefficients are exact: int while the class is integral, Fraction once a
    rational step has been applied.  Zero coefficients are dropped.
    """

    N: int
    terms: dict[Partition2, int | Fraction]

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError(f"box width must be positive, got {self.N}")
        clean: dict[Partition2, int | Fraction] = {}
        for (a, b), c in self.terms.items():
            if not self.N >= a >= b >= 0:
                raise ValueError(f"({a},{b}) does not fit in the 2 x {self.N} box")
            if c:
                clean[(a, b)] = c
        object.__setattr__(self, "terms", clean)

    def coeff(self, a: int, b: int) -> int | Fraction:
        return self.terms.get((a, b), 0)

    def is_zero(self) -> bool:
        return not self.terms


def box_partitions(N: int, p: int) -> list[Partition2]:
    """Weight-p partitions in the 2 x N box, sorted (a, b) descending."""
    out = []
    for b in range(max(0, p - N), p // 2 + 1):
        a = p - b
        if a <= N:
            out.append((a, b))
    return out


def betti(N: int, p: int) -> int:
    """Rank of the codimension-p piece of the Chow group."""
    if p < 0 or p > 2 * N:
        return 0
    return len(box_partitions(N, p))


def lefschetz_power(x: ChowElement, r: int) -> ChowElement:
    """r-fold hyperplane multiplication in a single closed-form pass.

    The multiplicity of s(a, b) in the r-th power applied to s(m1, m2) is the
    standard tableau count of the two-row skew shape (a, b)/(m1, m2), the
    ballot count C(r, a-m1) - C(r, a-m2+1): all words of r row steps with a-m1
    first-row steps, minus, by reflection, those whose second row overtakes.
    The count is taken once per in-box target, so the result is assembled
    directly instead of taking r one-step Pieri images; r = 1 is that step,
    s(a, b) to s(a+1, b) + s(a, b+1) with symbols leaving the box dropped.
    """
    if r < 0:
        raise ValueError(f"need r >= 0, got {r}")
    N = x.N
    acc: dict[Partition2, int | Fraction] = {}
    for (m1, m2), c in x.terms.items():
        size = m1 + m2 + r
        # in-box targets: m2 <= b <= a <= N with a = size - b >= m1
        for b in range(max(m2, size - N), min(size // 2, m2 + r) + 1):
            a = size - b
            acc[(a, b)] = acc.get((a, b), 0) + c * (comb(r, a - m1) - comb(r, a - m2 + 1))
    return ChowElement(N, acc)


def hodge_star(x: ChowElement) -> ChowElement:
    """Star involution sending s(a,b) to a positive multiple of s(N-b, N-a).

    The weight is (a+1)! b! / ((N-a)! (N-b+1)!); applying the map twice gives
    the identity.
    """
    N = x.N
    acc: dict[Partition2, Fraction] = {}
    for (a, b), c in x.terms.items():
        w = Fraction(
            factorial(a + 1) * factorial(b),
            factorial(N - a) * factorial(N - b + 1),
        )
        # s(a, b) -> s(N-b, N-a) is a bijection of the box: no terms collide
        acc[(N - b, N - a)] = c * w
    return ChowElement(N, acc)


def intersection_pairing(x: ChowElement, y: ChowElement) -> int | Fraction:
    """Poincare pairing: s(a,b) meets s(N-b, N-a) in a point, all else is 0.

    The result is the sum of c * d over the paired terms, so it is an int
    exactly when every paired coefficient is one.
    """
    N = x.N
    if y.N != N:
        raise ValueError(f"mixed boxes: {N} and {y.N}")
    total: int | Fraction = 0
    for (a, b), c in x.terms.items():
        d = y.terms.get((N - b, N - a))
        if d is not None:
            total += c * d
    return total


def _primitive_coefficients(N: int, k: int) -> list[int]:
    """The integer coefficients of primitive_class(N, k) on s(2k - j, j),
    j = 0..k: (-1)^j C(N+1-j, n) C(n+j, n) with n = N - 2k, all nonzero."""
    n = N - 2 * k
    return [(-1) ** j * comb(N + 1 - j, n) * comb(n + j, n) for j in range(k + 1)]


def primitive_class(N: int, k: int) -> ChowElement:
    """Integral generator of the codimension-2k primitive part.

    The class sum_j (-1)^j C(N+1-j, N-2k) C(N-2k+j, N-2k) s(2k-j, j) spans
    the kernel of the (2N-4k+1)-st hyperplane power in codimension 2k.
    """
    if not 0 <= 2 * k <= N:
        raise ValueError(f"need 0 <= 2k <= N, got N={N}, k={k}")
    v = _primitive_coefficients(N, k)
    return ChowElement(N, {(2 * k - j, j): c for j, c in enumerate(v)})


def _nullspace(rows: list[list[int | Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right kernel of a rational matrix, by row reduction.

    The reduction is Gauss-Jordan, so the basis is the one read off the
    reduced row echelon form whatever the entry type.  A unit pivot (every
    pivot a Pieri matrix meets) needs no scaling, so integer rows stay
    integer; any other pivot divides in Fraction.  The basis vectors come
    back in Fraction.
    """
    mat = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        pivot = mat[r]
        # Pieri rows start with at most two nonzeros; skip the zero entries.
        support = [j for j, v in enumerate(pivot) if v]
        if pivot[c] != 1:
            inv = 1 / Fraction(pivot[c])
            for j in support:
                pivot[j] *= inv
        for i, row in enumerate(mat):
            f = row[c]
            if i != r and f:
                for j in support:
                    row[j] -= f * pivot[j]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = Fraction(-mat[i][free])
        basis.append(v)
    return basis


def lefschetz_kernel(N: int, p: int) -> list[ChowElement]:
    """Exact basis of the kernel of hyperplane multiplication in codimension p."""
    if not 0 <= p <= 2 * N:
        raise ValueError(f"need 0 <= p <= 2N, got p={p}, N={N}")
    dom = box_partitions(N, p)
    cod_index = {lam: i for i, lam in enumerate(box_partitions(N, p + 1))}
    rows = [[0] * len(dom) for _ in cod_index]
    for j, (a, b) in enumerate(dom):
        # the Pieri rule s(a, b) -> s(a+1, b) + s(a, b+1); a target is in the
        # box exactly when it is a codimension-(p+1) partition
        for mu in ((a + 1, b), (a, b + 1)):
            i = cod_index.get(mu)
            if i is not None:
                rows[i][j] = 1
    return [ChowElement(N, dict(zip(dom, v))) for v in _nullspace(rows, len(dom))]


@dataclass(frozen=True)
class PrimitiveProfile:
    """Primitive ranks in codimension 0..N, plus the isolation certificate."""

    N: int
    dims: tuple[int, ...]
    isolated: bool  # every positive rank is preceded by a zero rank


def primitive_profile(N: int) -> PrimitiveProfile:
    """Primitive ranks computed two independent ways, cross-checked.

    Route one counts betti(p) - betti(p-1); route two takes the star image of
    the kernel of hyperplane multiplication in the complementary codimension.
    A mismatch means a real inconsistency and raises rather than returning.
    """
    if N < 1:
        raise ValueError(f"box width must be positive, got {N}")
    dims = []
    for p in range(N + 1):
        counted = max(betti(N, p) - betti(N, p - 1), 0)
        starred = [hodge_star(v) for v in lefschetz_kernel(N, 2 * N - p)]
        if any(v.is_zero() for v in starred) or len(starred) != counted:
            raise ArithmeticError(
                f"primitive rank mismatch at N={N}, p={p}: "
                f"betti difference {counted}, kernel rank {len(starred)}"
            )
        dims.append(counted)
    isolated = all(
        d == 0 or p == 0 or dims[p - 1] == 0 for p, d in enumerate(dims)
    )
    return PrimitiveProfile(N, tuple(dims), isolated)
