import json
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from grasshodge import chowring, lefschetz
from grasshodge.chowring import (
    ChowElement,
    betti,
    box_partitions,
    hodge_star,
    intersection_pairing,
    lefschetz_kernel,
    lefschetz_power,
    primitive_class,
    primitive_profile,
)
from grasshodge.cli import main
from grasshodge.lefschetz import SigmaInstance, sigma_verdict
from oracles import naive_pairing, pieri_step, skew_count_power, skew_syt_count


def _syt_oracle(lam, mu):
    """Count standard fillings of the two-row skew shape by brute-force DP."""
    (l1, l2), (m1, m2) = lam, mu
    a, b = l1 - m1, l2 - m2

    @lru_cache(maxsize=None)
    def f(i, j):
        if i == 0 and j == 0:
            return 1
        total = 0
        if i > 0:
            total += f(i - 1, j)
        # the j-th cell of the lower row sits in column m2 + j and needs the
        # upper cell in that column (when there is one) already filled
        if j > 0 and m2 + j <= m1 + i:
            total += f(i, j - 1)
        return total

    return f(a, b)


def test_syt_counts_match_oracle():
    for l1 in range(7):
        for l2 in range(l1 + 1):
            for m1 in range(l1 + 1):
                for m2 in range(min(l2, m1) + 1):
                    got = skew_syt_count((l1, l2), (m1, m2))
                    assert got == _syt_oracle((l1, l2), (m1, m2)), ((l1, l2), (m1, m2))


def test_syt_straight_shapes():
    assert skew_syt_count((2, 1), (0, 0)) == 2
    assert skew_syt_count((3, 3), (0, 0)) == 5  # Catalan number C_3
    assert skew_syt_count((4, 4), (0, 0)) == 14
    assert skew_syt_count((0, 0), (0, 0)) == 1


def test_syt_rejects_bad_shapes():
    with pytest.raises(ValueError):
        skew_syt_count((1, 2), (0, 0))  # not a partition
    with pytest.raises(ValueError):
        skew_syt_count((2, 1), (3, 0))  # mu sticks out of lam


def test_box_partitions_and_betti():
    assert box_partitions(3, 0) == [(0, 0)]
    assert box_partitions(3, 3) == [(3, 0), (2, 1)]
    assert box_partitions(3, 6) == [(3, 3)]
    for N in range(1, 9):
        total = sum(betti(N, p) for p in range(2 * N + 1))
        assert total == (N + 1) * (N + 2) // 2  # number of box partitions
        for p in range(2 * N + 1):
            assert betti(N, p) == betti(N, 2 * N - p)


def test_pieri_on_basis():
    x = lefschetz_power(ChowElement(4, {(2, 1): 1}), 1)
    assert x.coeff(3, 1) == 1
    assert x.coeff(2, 2) == 1
    assert len(x.terms) == 2
    # at the box corner both moves leave the box
    assert lefschetz_power(ChowElement(4, {(4, 4): 1}), 1).is_zero()


def test_lefschetz_power_matches_iterated_on_sparse_element():
    N = 12
    x = ChowElement(N, {(3, 1): Fraction(2, 7), (4, 0): -1, (2, 2): 5})
    iterated = x
    for r in range(2 * N + 1):
        assert lefschetz_power(x, r).terms == iterated.terms
        iterated = pieri_step(iterated)


def _power_mismatches(Nmax):
    """(N, class, r) where lefschetz_power differs from the iterated Pieri
    step or from the skew tableau count sum, over every Schubert class with
    N <= Nmax and every r <= 2N+1."""
    bad = []
    for N in range(1, Nmax + 1):
        for p in range(2 * N + 1):
            for lam in box_partitions(N, p):
                x = iterated = ChowElement(N, {lam: 1})
                for r in range(2 * N + 2):
                    got = lefschetz_power(x, r).terms
                    if got != iterated.terms or got != skew_count_power(x, r).terms:
                        bad.append((N, lam, r))
                    iterated = pieri_step(iterated)
    return bad


def test_lefschetz_power_matches_oracles():
    assert _power_mismatches(10) == []


@given(st.integers(1, 6), st.data())
def test_lefschetz_power_linear(N, data):
    p = data.draw(st.integers(0, 2 * N))
    parts = box_partitions(N, p)
    coeffs = data.draw(
        st.lists(st.fractions(), min_size=len(parts), max_size=len(parts))
    )
    x = ChowElement(N, dict(zip(parts, coeffs)))
    r = data.draw(st.integers(0, 4))
    lhs = lefschetz_power(x, r)
    rhs = {}
    for c, (a, b) in zip(coeffs, parts):
        for ab, v in lefschetz_power(ChowElement(N, {(a, b): 1}), r).terms.items():
            rhs[ab] = rhs.get(ab, 0) + c * v
    assert lhs.terms == {ab: v for ab, v in rhs.items() if v}


def test_hodge_star_explicit():
    # star of the fundamental class is the volume normalization
    x = hodge_star(ChowElement(3, {(0, 0): 1}))
    assert x.terms == {(3, 3): Fraction(1 * 1, 6 * 24)}  # 1!0!/(3!4!)
    y = hodge_star(ChowElement(3, {(2, 1): 1}))
    assert y.terms == {(2, 1): Fraction(6 * 1, 1 * 6)}


def test_hodge_star_is_involution():
    for N in (2, 3, 5):
        for p in range(2 * N + 1):
            for (a, b) in box_partitions(N, p):
                x = ChowElement(N, {(a, b): 1})
                assert hodge_star(hodge_star(x)).terms == x.terms


def test_pairing_duality():
    N = 4
    for p in range(2 * N + 1):
        for (a, b) in box_partitions(N, p):
            for (c, d) in box_partitions(N, 2 * N - p):
                want = 1 if (a, b) == (N - d, N - c) else 0
                x, y = ChowElement(N, {(a, b): 1}), ChowElement(N, {(c, d): 1})
                got = intersection_pairing(x, y)
                assert got == want
    # an unpaired term adds nothing, not even its type: the Fraction 1/2
    # sits on s(1, 0), which s(3, 3) does not meet
    x = ChowElement(3, {(0, 0): 2, (1, 0): Fraction(1, 2)})
    y = ChowElement(3, {(3, 3): 5})
    for got in (intersection_pairing(x, y), intersection_pairing(y, x)):
        assert got == 10 and type(got) is int


def test_star_pairing_is_positive_on_basis():
    for N in range(1, 9):
        for p in range(2 * N + 1):
            for a, b in box_partitions(N, p):
                x = ChowElement(N, {(a, b): 1})
                assert intersection_pairing(x, hodge_star(x)) > 0


def test_lefschetz_op_self_adjoint_for_pairing():
    # enough to check on basis classes of complementary-minus-one degrees
    for N in range(1, 11):
        for p in range(2 * N):
            for xa in box_partitions(N, p):
                x = ChowElement(N, {xa: 1})
                for ya in box_partitions(N, 2 * N - p - 1):
                    y = ChowElement(N, {ya: 1})
                    assert intersection_pairing(lefschetz_power(x, 1), y) == (
                        intersection_pairing(x, lefschetz_power(y, 1))
                    )


_NONZERO = st.integers(-(10**30), 10**30).filter(bool)
_COEFFS = {
    "int": _NONZERO,
    "fraction": st.builds(Fraction, _NONZERO, st.integers(1, 10**12)),
}
_COEFFS["mixed"] = st.one_of(_COEFFS["int"], _COEFFS["fraction"])


def _complementary_classes(N, data):
    """Two classes of complementary degrees with a nonzero coefficient on
    every class of each, so every coefficient of either is paired."""
    p = data.draw(st.integers(0, 2 * N))
    classes = []
    for q in (p, 2 * N - p):
        kind = data.draw(st.sampled_from(sorted(_COEFFS)))
        parts = box_partitions(N, q)
        coeffs = data.draw(st.lists(_COEFFS[kind], min_size=len(parts), max_size=len(parts)))
        classes.append(ChowElement(N, dict(zip(parts, coeffs))))
    return classes


@settings(max_examples=120)
@given(st.integers(1, 8), st.data())
def test_pairing_matches_naive_sum_in_value_and_type(N, data):
    # fully paired classes of complementary degrees, or any two classes,
    # whose terms are mostly unpaired: the result is an int exactly when
    # every paired coefficient is one, whatever the unpaired ones are
    if data.draw(st.booleans()):
        x, y = _complementary_classes(N, data)
    else:
        x, y = _random_class(N, data)[1], _random_class(N, data)[1]
    got, want = intersection_pairing(x, y), naive_pairing(x, y)
    assert got == want and type(got) is type(want)
    paired = [
        (c, y.terms[(N - b, N - a)]) for (a, b), c in x.terms.items() if (N - b, N - a) in y.terms
    ]
    integral = all(type(c) is int and type(d) is int for c, d in paired)
    assert (type(got) is int) == integral


def _random_class(N, data):
    """A class over any in-box partitions, of one weight or several."""
    kind = data.draw(st.sampled_from(sorted(_COEFFS)))
    parts = [lam for p in range(2 * N + 1) for lam in box_partitions(N, p)]
    chosen = data.draw(st.lists(st.sampled_from(parts), unique=True, max_size=8))
    coeffs = data.draw(st.lists(_COEFFS[kind], min_size=len(chosen), max_size=len(chosen)))
    return kind, ChowElement(N, dict(zip(chosen, coeffs)))


@settings(max_examples=80)
@given(st.integers(1, 8), st.data())
def test_power_is_iterated_pieri_and_integral_classes_stay_int(N, data):
    # lefschetz_power equals r one-step Pieri images, and the integral
    # steps (the power of an integral class, the primitive class) give ints
    kind, x = _random_class(N, data)
    r = data.draw(st.integers(0, 2 * N + 1))
    k = data.draw(st.integers(0, N // 2))
    iterated = x
    for _ in range(r):
        iterated = pieri_step(iterated)
    power = lefschetz_power(x, r)
    assert power == iterated
    assert all(type(c) is int for c in primitive_class(N, k).terms.values())
    if kind == "int":
        # the Hodge star and the correction operator are rational steps
        assert all(type(c) is int for c in power.terms.values())


def test_pairing_degree_mismatch_is_zero():
    assert intersection_pairing(ChowElement(3, {(1, 0): 1}), ChowElement(3, {(1, 0): 1})) == 0


def test_primitive_class_is_primitive():
    # alpha sits in codimension 2k and dies under L^(2N-4k+1)
    for N in range(2, 9):
        for k in range(N // 2 + 1):
            alpha = primitive_class(N, k)
            assert {a + b for a, b in alpha.terms} == {2 * k}
            power = 2 * (N - 2 * k) + 1
            assert lefschetz_power(alpha, power).is_zero()
            assert not lefschetz_power(alpha, power - 1).is_zero()


def test_primitive_class_small_values():
    alpha = primitive_class(4, 1)
    assert alpha.terms == {(2, 0): Fraction(10), (1, 1): Fraction(-18)}


def test_kernel_dimensions():
    # in the top half the kernel of L is one-dimensional in even codimension
    for N in (3, 4, 5):
        for p in range(N, 2 * N + 1):
            kern = lefschetz_kernel(N, p)
            assert len(kern) == betti(N, p) - betti(N, p + 1)


def test_kernel_basis_is_the_reduced_one():
    # the reduced row echelon basis: each vector has a 1 at its last nonzero
    # (free) class and 0 at the free classes of the others
    for N in range(1, 13):
        for p in range(2 * N + 1):
            dom = box_partitions(N, p)
            kern = lefschetz_kernel(N, p)
            assert len(kern) == max(betti(N, p) - betti(N, p + 1), 0), (N, p)
            free = [dom[max(map(dom.index, v.terms))] for v in kern]
            for v, own in zip(kern, free):
                assert v == ChowElement(N, dict(v.terms)), (N, p)
                assert lefschetz_power(v, 1).is_zero(), (N, p)
                assert all(type(c) is Fraction for c in v.terms.values()), (N, p)
                assert [v.coeff(*lam) for lam in free] == [int(lam == own) for lam in free]


def _det(m):
    """Determinant by the Leibniz sum, exact for the tiny matrices here."""
    total = 0
    for perm in permutations(range(len(m))):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(len(m)), 2))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


@pytest.mark.parametrize(
    "rows, nullity",
    [
        # non-unit pivots whose elimination fills in zero entries
        ([[2, 4, 0, 1], [0, 3, 1, 0], [1, 0, 5, 2]], 1),
        # the same with a dependent row appended
        ([[2, 4, 0, 1], [0, 3, 1, 0], [1, 0, 5, 2], [2, 7, 1, 1]], 1),
        # rank 2 with pivots 3 and 5 in five columns
        ([[3, 6, 0, 2, 1], [6, 12, 5, 4, 2]], 3),
    ],
)
def test_nullspace_with_non_unit_pivots(rows, nullity):
    # Pieri matrices reduce with unit pivots only, so the pivot scaling of
    # _nullspace is checked here on matrices that need it.
    mat = [[Fraction(x) for x in row] for row in rows]
    ncols = len(rows[0])
    basis = chowring._nullspace(mat, ncols)
    assert mat == [[Fraction(x) for x in row] for row in rows]  # input untouched
    # integer rows turn rational at the first non-unit pivot, to the same basis
    assert chowring._nullspace([row[:] for row in rows], ncols) == basis
    assert len(basis) == nullity
    for v in basis:
        assert all(type(x) is Fraction for x in v)
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)
    gram = [[sum(a * b for a, b in zip(u, v)) for v in basis] for u in basis]
    assert _det(gram) != 0


def test_fault_injection_pieri_image(monkeypatch):
    # the Pieri matrix at N = 6, p = 9 loses its s(6, 3) -> s(6, 4) entry, so
    # s(6, 3) maps to 0 and the kernel in codimension 9 gains a vector the
    # betti count lacks
    real_kernel, real_nullspace = chowring.lefschetz_kernel, chowring._nullspace
    box = []
    row, col = box_partitions(6, 10).index((6, 4)), box_partitions(6, 9).index((6, 3))

    def kernel(N, p):
        box.append((N, p))
        return real_kernel(N, p)

    def corrupted(rows, ncols):
        if box[-1] == (6, 9):
            assert rows[row][col] == 1
            rows = [r[:] for r in rows]
            rows[row][col] = 0
        return real_nullspace(rows, ncols)

    monkeypatch.setattr(chowring, "lefschetz_kernel", kernel)
    monkeypatch.setattr(chowring, "_nullspace", corrupted)
    with pytest.raises(ArithmeticError, match="N=6, p=3"):
        primitive_profile(6)
    assert primitive_profile(5).dims == (1, 0, 1, 0, 1, 0)


def test_primitive_profile_shape():
    for N in range(1, 12):
        prof = primitive_profile(N)
        assert prof.isolated
        for p, dim in enumerate(prof.dims):
            want = 1 if (p % 2 == 0 and p <= N) else 0
            assert dim == want, (N, p)


def test_chow_element_validation():
    with pytest.raises(ValueError):
        ChowElement(3, {(4, 0): Fraction(1)})
    with pytest.raises(ValueError):
        ChowElement(3, {(1, 2): Fraction(1)})
    with pytest.raises(ValueError, match="mixed boxes: 2 and 3"):
        intersection_pairing(ChowElement(2, {(1, 0): 1}), ChowElement(3, {(1, 0): 1}))
    # boxes of width < 1, whether the class comes from a caller or the library
    for build in (
        lambda: ChowElement(0, {(0, 0): 1}),
        lambda: primitive_class(0, 0),
        lambda: lefschetz_kernel(0, 0),
        lambda: primitive_profile(0),
        lambda: primitive_profile(-1),
    ):
        with pytest.raises(ValueError, match="box width must be positive"):
            build()


def _exact(c):
    # 0.5 == Fraction(1, 2), so value tests alone cannot see a float leak
    return type(c) in (int, Fraction)


def test_raised_primitive_classes_stay_int():
    for N in range(1, 13):
        for k in range(N // 2 + 1):
            alpha = primitive_class(N, k)
            for r in range(2 * N + 1):
                coeffs = lefschetz_power(alpha, r).terms.values()
                assert all(type(c) is int for c in coeffs), (N, k, r)


def test_rational_steps_never_give_floats():
    for N in range(1, 9):
        for p in range(2 * N + 1):
            for v in lefschetz_kernel(N, p):
                assert all(_exact(c) for c in v.terms.values()), (N, p)
                assert all(_exact(c) for c in hodge_star(v).terms.values()), (N, p)


def _verify_grassmannian(capsys):
    code = main(["verify-grassmannian", "--Nmax", "8", "--method", "both"])
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    return code, rows


def test_fault_injection_binomial_row(monkeypatch, capsys):
    # a count off by one in both power routes: the reference powers read
    # C(3, 1) as 4 off every third binomial row, and the certificate walk's
    # Pieri step into weight 3 collects s(2, 1), the last class of the band,
    # once too often.  The power oracles must see theirs.  At N = 1 no class
    # of the box has weight 3, so the first instance passes; at N = 2, k = 0
    # the stray term reaches s(2, 2), and the walk's degree check stops the
    # direct route there, after the one row of N = 1
    real = chowring.comb
    monkeypatch.setattr(chowring, "comb", lambda r, j: real(r, j) + (r == 3 and j == 1))
    real_step = lefschetz._pieri_step

    def corrupted(v, w, N):
        out = real_step(v, w, N)
        if w == 2 and out:
            out[-1] += 1
        return out

    monkeypatch.setattr(lefschetz, "_pieri_step", corrupted)
    for method in ("both", "direct"):
        code = main(["verify-grassmannian", "--Nmax", "8", "--method", method])
        out, err = capsys.readouterr()
        assert code == 1
        assert [(row["N"], row["k"]) for row in map(json.loads, out.splitlines())] == [(1, 0)]
        assert "FAILED" in err
        assert "N=2, k=0 is corrupt: L^4 alpha has 7 on s(2, 2), not C(4, 2) = 6" in err
    # for k >= 1 the walk ends at L^(2n+1) alpha, which the stray term leaves
    # nonzero, so its primitivity step raises
    with pytest.raises(lefschetz.NotPrimitive, match="N=4, k=1 is not primitive: L.5 alpha"):
        sigma_verdict(SigmaInstance(4, 1), "both")
    # at k = 0 the last power has weight 2N + 1, past the box, so the step
    # proves nothing there (every class of codimension 0 is primitive); the
    # stray term moves the top coefficient of L^(2N) alpha off the degree,
    # and the walk raises on that instead
    with pytest.raises(lefschetz.NotPrimitive, match=r"N=4, k=0 is corrupt: L\^8 alpha has 75 "):
        sigma_verdict(SigmaInstance(4, 0), "both")
    # the closed route walks no Pieri step
    assert main(["verify-grassmannian", "--Nmax", "8", "--method", "closed"]) == 0
    assert _power_mismatches(10)


def test_fault_injection_pairing_numerator(monkeypatch, capsys):
    # the walk's integer result, sum_b t_b S_b over L, off by 1: the two
    # routes compare numerators over the one L of the box, so every row of
    # the cross-check disagrees
    real_walk = lefschetz._walk_numerator
    monkeypatch.setattr(lefschetz, "_walk_numerator", lambda inst: real_walk(inst) + 1)
    code, rows = _verify_grassmannian(capsys)
    assert code == 1
    assert rows and not any(row["agree"] for row in rows)
    assert sigma_verdict(SigmaInstance(6, 1), "both")[1] is False
