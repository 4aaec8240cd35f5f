from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grasshodge.chowring import (
    ChowElement,
    betti,
    box_partitions,
    intersection_pairing,
    lefschetz_power,
    primitive_class,
)
from grasshodge import lefschetz
from grasshodge.exactmath import binomial, harmonic, harmonic_numerators
from grasshodge.lefschetz import (
    SigmaInstance,
    chain_constant,
    correction_op,
    proj_commutator_check,
    sigma_closed,
    sigma_direct,
    sigma_verdict,
    sigma_walk,
)
from grasshodge.racah import principal_weight, racah_eval
from oracles import (
    apply_label_map,
    correction_weight,
    correction_weight_box,
    overlap_sum,
    proj_commutator_residue,
    proj_sigma,
    top_coefficient,
)


def test_sigma_frozen_values():
    # worked out by hand from the staircase expansion
    assert sigma_direct(SigmaInstance(2, 1)) == 3
    assert sigma_closed(SigmaInstance(2, 1)) == 3
    assert sigma_direct(SigmaInstance(2, 0)) == 129
    assert sigma_closed(SigmaInstance(2, 0)) == 129


def test_sigma_instance_validation():
    with pytest.raises(ValueError):
        SigmaInstance(0, 0)
    with pytest.raises(ValueError):
        SigmaInstance(5, 3)
    inst = SigmaInstance(7, 2)
    assert inst.n == 3 and inst.T == 9


def test_pipelines_agree_small():
    for N in range(1, 11):
        for k in range(N // 2 + 1):
            inst = SigmaInstance(N, k)
            assert sigma_direct(inst) == sigma_closed(inst), (N, k)


def test_pieri_steps_match_reference_powers():
    # the walk's vector at weight w is the in-box band sum_i v[i] s(w - j, j),
    # j = max(0, w - N) + i up to w // 2: steps from each Schubert class past
    # the top weight equal the ballot-count powers on it, and the band holds
    # every class of the power and no class outside the box (none at 2N + 1)
    for N in range(1, 11):
        for p in range(2 * N + 1):
            for a, b in box_partitions(N, p):
                v = [int(j == b) for j in range(max(0, p - N), p // 2 + 1)]
                for r in range(2 * N - p + 2):
                    w = p + r
                    band = range(max(0, w - N), w // 2 + 1)
                    assert len(v) == max(0, w // 2 - max(0, w - N) + 1), (N, a, b, r)
                    power = lefschetz_power(ChowElement(N, {(a, b): 1}), r)
                    assert v == [power.coeff(w - j, j) for j in band], (N, a, b, r)
                    assert power.terms.keys() <= {(w - j, j) for j in band}, (N, a, b, r)
                    if w <= 2 * N:  # the walk takes no step from the empty band
                        v = lefschetz._pieri_step(v, w, N)


def test_upper_walk_holds_only_in_box_entries(monkeypatch):
    # at N = 200, k = 0 the upper walk steps from weight 200 to 401; the
    # in-box band at weight u > N has u // 2 - (u - N) + 1 entries, 10100 in
    # all, where a whole column j = 0..u // 2 would hold 30401
    real, built = lefschetz._pieri_step, []

    def spy(v, w, N):
        out = real(v, w, N)
        if w >= N:
            built.append(len(out))
        return out

    monkeypatch.setattr(lefschetz, "_pieri_step", spy)
    sigma_walk(SigmaInstance(200, 0))
    assert len(built) == 201 and sum(built) == 10100 and built[-1] == 0


def test_walk_matches_direct_reference():
    # the walk against 2(n + 1) whole powers, corrections and pairings
    for N in range(1, 25):
        for k in range(N // 2 + 1):
            inst = SigmaInstance(N, k)
            assert sigma_walk(inst) == sigma_direct(inst), (N, k)


def test_walk_matches_closed_form():
    for N in range(1, 61):
        for k in range(N // 2 + 1):
            inst = SigmaInstance(N, k)
            assert sigma_walk(inst) == sigma_closed(inst), (N, k)


def test_primitive_part_has_rank_one():
    # the primitivity step proves alpha spans the kernel of L^(2n+1) in
    # codimension 2k because that kernel has rank betti(2k) - betti(2k-1) = 1
    for N in range(1, 201):
        for k in range(N // 2 + 1):
            assert betti(N, 2 * k) - betti(N, 2 * k - 1) == 1, (N, k)


def test_walk_rejects_alpha_off_by_one_in_any_coefficient(monkeypatch):
    # for k >= 1 the primitive part is spanned by alpha, which has k + 1 >= 2
    # nonzero coefficients, so no alpha + e_j lies in it: L^(2n+1) of every
    # such class is nonzero, and the walk must raise on it
    real = lefschetz._primitive_coefficients
    for N in range(2, 17):
        for k in range(1, N // 2 + 1):
            for j in range(k + 1):

                def corrupted(N_, k_, j=j):
                    v = real(N_, k_)
                    v[j] += 1
                    return v

                monkeypatch.setattr(lefschetz, "_primitive_coefficients", corrupted)
                with pytest.raises(lefschetz.NotPrimitive, match=f"N={N}, k={k} "):
                    sigma_walk(SigmaInstance(N, k))
    # a zero class is in every kernel; the walk asks for alpha != 0 as well
    monkeypatch.setattr(lefschetz, "_primitive_coefficients", lambda N, k: [0] * (k + 1))
    with pytest.raises(lefschetz.NotPrimitive, match="N=6, k=2 is not primitive: it is 0"):
        sigma_walk(SigmaInstance(6, 2))


def test_sigma_closed_matches_weighted_harmonic_sum():
    # the closed route reads one Racah engine column; the oracle is the
    # weighted sum of harmonic numbers with the binomial correction weights
    for N in range(1, 41):
        T = N + 2
        L, h = harmonic_numerators(T - 1)
        for k in range(N // 2 + 1):
            n = N - 2 * k
            a = principal_weight(n, T)
            weighted = sum((a + correction_weight(n, T, i)) * h[i] for i in range(1, T))
            assert sigma_closed(SigmaInstance(N, k)) == Fraction(weighted, L), (N, k)


def test_correction_kills_lower_rows():
    # classes with a < N never reach the top row, so the operator drops them
    for N in (3, 5):
        for p in range(2 * N):
            for (a, b) in box_partitions(N, p):
                if a < N:
                    assert correction_op(ChowElement(N, {(a, b): 1})).is_zero()


def test_correction_top_row_structure():
    N = 4
    x = correction_op(ChowElement(N, {(N, 1): 1}))
    # diagonal term carries the full column sum of harmonic numbers
    column = sum(harmonic(i) for i in range(1, N + 2))
    staircase = harmonic(N) - harmonic(0)  # i = 0 term of the sweep
    assert x.coeff(N, 1) == column - staircase
    # the sweep walks down the antidiagonal with harmonic differences
    assert x.coeff(N - 1, 2) == -(harmonic(3) - harmonic(1))
    assert x.coeff(N - 2, 3) == 0  # floor((N-b)/2) = 1 stops the walk


def test_correction_staircase_matches_harmonic_numbers():
    # the operator reads the same integer staircase as the certificate walk;
    # here every top-row image is rebuilt from harmonic numbers in Fraction
    for N in range(1, 13):
        column = sum(harmonic(i) for i in range(N + 2))
        for b in range(N + 1):
            want = {
                (N - i, b + i): harmonic(i) - harmonic(N - b + 1 - i)
                for i in range((N - b) // 2 + 1)
            }
            want[(N, b)] += column
            assert correction_op(ChowElement(N, {(N, b): 1})).terms == want, (N, b)


def test_principal_weight_examples():
    assert principal_weight(0, 4) == 1
    assert principal_weight(2, 4) == 45
    assert principal_weight(3, 5) == binomial(4, 3) * binomial(8, 3)


def test_correction_weight_frozen():
    # B^1 at n=2, T=4, computed by hand two ways
    assert correction_weight(2, 4, 1) == -9
    assert correction_weight_box(2, 0, 1) == -9


def test_correction_weight_box_agrees():
    for N in range(1, 12):
        for k in range(N // 2 + 1):
            T = N + 2
            for i in range(1, T):
                assert correction_weight_box(N, k, i) == correction_weight(
                    N - 2 * k, T, i
                ), (N, k, i)


def test_top_coefficient_matches_pairing():
    # independent oracle: pair the raised primitive class against the basis
    # class dual to s(N, b)
    for N in range(2, 21):
        for k in range(N // 2 + 1):
            n = N - 2 * k
            alpha = primitive_class(N, k)
            for b in range(n + 1):
                raised = lefschetz_power(alpha, n + b)
                got = intersection_pairing(raised, ChowElement(N, {(N - b, 0): 1}))
                assert got == top_coefficient(N, k, b), (N, k, b)


def test_overlap_sum_antisymmetry():
    for N in range(2, 15):
        for k in range(N // 2 + 1):
            n = N - 2 * k
            for b in range(n + 1):
                for i in range(N - b + 2):
                    mirror = overlap_sum(N, k, b, N - b + 1 - i)
                    assert overlap_sum(N, k, b, i) == -mirror
                if (N - b) % 2 == 1:
                    assert overlap_sum(N, k, b, (N - b + 1) // 2) == 0


@settings(max_examples=60)
@given(st.integers(3, 20), st.data())
def test_whipple_bridge(T, data):
    n = data.draw(st.integers(0, T - 2))
    i = data.draw(st.integers(1, T - 1))
    lhs = Fraction((-1) ** i * correction_weight(n, T, i), principal_weight(n, T))
    assert lhs == racah_eval(n, i, T)


def test_verdict_fields():
    sigma, agree = sigma_verdict(SigmaInstance(6, 1), method="both")
    assert sigma > 0 and agree
    assert sigma == Fraction(618125, 3)
    with pytest.raises(ValueError):
        sigma_verdict(SigmaInstance(6, 1), method="fast")


def test_verdict_single_pipeline():
    direct, direct_agree = sigma_verdict(SigmaInstance(9, 2), method="direct")
    closed, closed_agree = sigma_verdict(SigmaInstance(9, 2), method="closed")
    assert direct == closed
    assert direct_agree and closed_agree  # vacuous for one pipeline


def _exact(c):
    # 0.5 == Fraction(1, 2), so value tests alone cannot see a float leak
    return type(c) in (int, Fraction)


def test_certificate_pipelines_never_give_floats():
    for N in range(1, 13):
        for k in range(N // 2 + 1):
            inst = SigmaInstance(N, k)
            alpha = primitive_class(N, k)
            for r in range(2 * inst.n + 1):
                corrected = correction_op(lefschetz_power(alpha, r))
                assert all(_exact(c) for c in corrected.terms.values()), (N, k, r)
                lower = lefschetz_power(alpha, 2 * inst.n - r)
                assert _exact(intersection_pairing(lower, corrected)), (N, k, r)
            assert _exact(sigma_direct(inst)) and _exact(sigma_closed(inst)), (N, k)
            assert _exact(sigma_walk(inst)), (N, k)


# --- projective-space model ---


def test_proj_model_rejects_n_below_1():
    for n in (0, -3):
        with pytest.raises(ValueError, match=f"need n >= 1, got {n}"):
            proj_commutator_check(n)


def test_chain_constant_is_prefix_sum():
    assert chain_constant(0) == 0
    assert chain_constant(5) == sum(harmonic(k) for k in range(1, 6))
    assert chain_constant(5) == Fraction(87, 10)


def test_raise_chain_reaches_chain_constant():
    for n in (1, 2, 5, 8):
        assert proj_sigma(n) == chain_constant(n)
    assert chain_constant(5) == Fraction(87, 10)


def test_raise_lower_on_basis():
    n = 3
    tau = chain_constant(n)
    assert lefschetz._raise(n, tau, ("hat", n)) == {("form", n): tau}
    w = Fraction(n + 1) / tau
    assert w == Fraction(12, 13)  # tau_3 = 1 + 3/2 + 11/6 = 13/3
    assert lefschetz._lower(n, w, ("form", 0)) == {("hat", 0): Fraction(12, 13)}


def test_commutator_eigenvalues():
    for n in range(1, 201):
        assert proj_commutator_check(n)


def test_commutator_residue_matches_check():
    # the Fraction oracle in the basis hat_i, form_i agrees with the integer
    # check in the basis f_i = tau form_i
    for n in range(1, 61):
        assert proj_commutator_residue(n, chain_constant(n)) == {}, n
        assert proj_commutator_check(n), n


def test_commutator_holds_for_every_nonzero_tau():
    # tau enters the commutator only as tau w = n + 1, so the identity the
    # integer check rests on holds whatever tau is
    for n in range(1, 13):
        for tau in (Fraction(1, 7), Fraction(3), Fraction(-2, 5)):
            assert proj_commutator_residue(n, tau) == {}, (n, tau)


def test_commutator_check_stays_on_integers(monkeypatch):
    # every scalar the check hands to or gets from the maps is an int
    scalars = []

    def spy(real):
        def step(n, scalar, label):
            image = real(n, scalar, label)
            scalars.append(scalar)
            scalars.extend(image.values())
            return image

        return step

    monkeypatch.setattr(lefschetz, "_raise", spy(lefschetz._raise))
    monkeypatch.setattr(lefschetz, "_lower", spy(lefschetz._lower))
    for n in range(1, 11):
        assert proj_commutator_check(n), n
    assert scalars and {type(c) for c in scalars} == {int}


def test_commutator_eigenvalues_by_hand():
    # the commutator in the basis hat_i, form_i, with Fraction tau, spelled
    # out independently of the check, which works in the basis f_i = tau form_i:
    # the eigenvalue ladder n+1, n-1, ..., -(n+1) indexed by codimension
    n = 4
    tau = chain_constant(n)
    up = (lefschetz._raise, (n, tau))
    down = (lefschetz._lower, (n, Fraction(n + 1) / tau))

    def commutator(x):
        comm = apply_label_map(*down, apply_label_map(*up, x))
        for label, c in apply_label_map(*up, apply_label_map(*down, x)).items():
            comm[label] = comm.get(label, 0) - c
        return {label: c for label, c in comm.items() if c}

    for i in range(n + 1):
        assert commutator({("hat", i): 1}) == {("hat", i): n + 1 - 2 * i}
        assert commutator({("form", i): 1}) == {("form", i): n + 1 - 2 * (i + 1)}


def test_proj_chains_never_give_floats():
    for n in (1, 2, 5, 9):
        tau = chain_constant(n)
        w = Fraction(n + 1) / tau
        for kind in ("hat", "form"):
            for i in range(n + 1):
                for step, arg in ((lefschetz._raise, (n, tau)), (lefschetz._lower, (n, w))):
                    x = {(kind, i): 1}
                    for _ in range(2 * n + 3):
                        x = apply_label_map(step, arg, x)
                        assert all(_exact(c) for c in x.values()), (n, kind, i)
