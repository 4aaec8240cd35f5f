"""Independent reference routes that the tests compare the library against.

Each function here is the slow, definitional form of something the library
computes by a faster route: the terminating 4F3 sum behind R_n(s, T), the
pairwise orthogonality sums (on fractions, and on the integer table that the
library certifies by three-term identities instead), the single-degree
inequalities built on it, the top-row product of R, the bound scan walked
over the whole half grid (the library leaves part of it to the orthogonality
norm) and its JSON line built as one dict, the coefficient recurrence of the Legendre polynomials, the binomial
alternating sum (the Whipple bridge) and the box-coordinate double sum
behind the correction weights of the closed certificate, the projective
model's certificate as the raise chain walked from the unit and its
commutator residue in the basis hat_i, form_i (its maps applied to label
combinations by linearity), one hyperplane step by the
two-row Pieri rule on a map of classes, hyperplane powers
as sums of validated skew tableau counts, the Poincare pairing as a plain
sum of products, and the decimal and "p/q" renderings of a rational by
Fraction arithmetic.
"""

from fractions import Fraction

from grasshodge import lefschetz, racah
from grasshodge.chowring import ChowElement
from grasshodge.exactmath import binomial, exp_compare
from grasshodge.lefschetz import chain_constant
from grasshodge.racah import Inequality


def pochhammer(a, r):
    """Rising factorial a (a+1) ... (a+r-1); empty product 1 when r = 0."""
    if r < 0:
        raise ValueError(f"pochhammer needs r >= 0, got {r}")
    out = 1
    for i in range(r):
        out *= a + i
    return out


def racah_sum(n, s, T):
    """R_n(s, T) term by term straight off the terminating hypergeometric sum

        sum_r (-n)_r (n+1)_r (-s)_r (s+1)_r / ((1)_r (1+T)_r (1-T)_r r!),

    for min(n, s) <= T-1 (one index may be >= T).
    """
    total = Fraction(0)
    for r in range(min(n, s) + 1):
        num = pochhammer(-n, r) * pochhammer(n + 1, r) * pochhammer(-s, r) * pochhammer(s + 1, r)
        den = pochhammer(1, r) ** 2 * pochhammer(1 + T, r) * pochhammer(1 - T, r)
        total += Fraction(num, den)
    return total


def orthogonality_check(T, n, m):
    """sum_s (2s+1) R_n R_m over s = 0..T-1 against T^2/(2n+1) (n = m) or 0."""
    total = sum(
        ((2 * s + 1) * racah_sum(n, s, T) * racah_sum(m, s, T) for s in range(T)),
        Fraction(0),
    )
    predicted = Fraction(T * T, 2 * n + 1) if n == m else 0
    return total, total == predicted


def orthogonality_pairs(T):
    """(pair count, verdict) of every unordered row pair n <= m of the
    principal-weight table at T, built here from the T columns of the
    library's column walk, one pair sum each: (2n+1) sum_s (2s+1) w_n w_m
    must be T^2 P_n^2 when n = m and 0 otherwise."""
    steps = racah._principal_steps(T)
    rows = list(zip(*(racah._principal_column(s, T, steps, T - 1) for s in range(T))))
    weights = [racah.principal_weight(n, T) for n in range(T)]
    pairs = 0
    ok = True
    for n, row in enumerate(rows):
        weighted = [(2 * s + 1) * a for s, a in enumerate(row)]
        if (2 * n + 1) * sum(map(int.__mul__, weighted, row)) != T * T * weights[n] ** 2:
            ok = False
        for m in range(n + 1, T):
            if sum(map(int.__mul__, weighted, rows[m])):
                ok = False
        pairs += T - n
    return pairs, ok


def scan_half_grid(T):
    """The bound scan of one T walked over the whole half grid: every column
    s down to n = s, with no point left to the orthogonality norm.  Returns
    the verdicts of racah._scan_one_T: (T, violations as
    (T, n, s, w_n(s), P_n), equality cases as (T, n, s)), each in (n, s)
    order."""
    steps = racah._principal_steps(T)
    violations, equalities = [], []
    for s in range(T):
        for n, w in enumerate(racah._principal_column(s, T, steps, s)):
            p = racah.principal_weight(n, T)
            if abs(w) > p:
                violations.append((T, n, s, w, p))
            elif abs(w) == p:
                equalities.append((T, n, s))
    return T, sorted(violations), sorted(equalities)


def scan_json(T_min, T_max):
    """The JSON line of scan-bound over T_min..T_max as scan_half_grid walks
    it, every equality case, the edge row n = 0 included, read off the walk."""
    results = [scan_half_grid(T) for T in range(T_min, T_max + 1)]
    return {
        "T_range": [T_min, T_max],
        "violations": [
            {"T": T, "n": n, "s": s, "value": fraction_format_rational(Fraction(w, p))}
            for _, viol, _ in results
            for T, n, s, w, p in viol
        ],
        "equality_cases": [{"T": T, "n": n, "s": s} for _, _, eq in results for T, n, s in eq],
        "rows_checked": sum(range(T_min, T_max + 1)),
    }


def scan_report_json(report):
    """The scan-bound JSON line of a racah.ScanReport as one dict: the edge
    row (T, 0, s) of R_0 = 1 for every T and s < T merged with the interior
    equality cases by sorting, every value reduced by Fraction."""
    edges = [(T, 0, s) for T in range(report.T_min, report.T_max + 1) for s in range(T)]
    return {
        "T_range": [report.T_min, report.T_max],
        "violations": [
            {"T": T, "n": n, "s": s, "value": fraction_format_rational(Fraction(w, p))}
            for T, n, s, w, p in report.violations
        ],
        "equality_cases": [
            {"T": T, "n": n, "s": s} for T, n, s in sorted(edges + list(report.exceptions))
        ],
        "rows_checked": report.rows_checked,
    }


def alternating_bound(values, n, T):
    """sum_s (-1)^(s+1) R_n(s,T) H_s < sum_s H_s over s = 1..T-1, for one n."""
    lhs = rhs = Fraction(0)
    for s in range(1, T):
        h = Fraction(values[s - 1])
        lhs += (1 if s % 2 else -1) * racah_sum(n, s, T) * h
        rhs += h
    return Inequality(lhs, rhs)


def cauchy_sufficient(values, n, T):
    """Sufficient condition for the alternating bound by Cauchy-Schwarz and
    orthogonality: sum_s H_s^2/(2s+1) < (2n+1) (mean of H_0..H_(T-1))^2,
    for a positive mean.  Cauchy-Schwarz bounds |lhs| below T |mean|, the
    right side only when the mean is positive; otherwise the right side
    here is 0, which no sum of squares is below."""
    hs = [Fraction(v) for v in values[: T - 1]]
    square_sum = sum((h * h / (2 * s + 1) for s, h in enumerate(hs, 1)), Fraction(0))
    mean = sum(hs, Fraction(0)) / T
    return Inequality(square_sum, (2 * n + 1) * mean * mean if mean > 0 else Fraction(0))


def in_cauchy_range(n, T):
    """True iff log T < n + 1/2, decided exactly as T^2 < e^(2n+1)."""
    return exp_compare(2 * n + 1, Fraction(T * T)) > 0


def legendre_coeffs(n):
    """Coefficient list of P_n, constant term first, by the coefficient form
    of (m+1) P_(m+1) = (2m+1) t P_m - m P_(m-1)."""
    prev, cur = [Fraction(1)], [Fraction(0), Fraction(1)]
    if n == 0:
        return prev
    for m in range(1, n):
        nxt = [Fraction(0)] + [Fraction(2 * m + 1, m + 1) * c for c in cur]
        for idx, c in enumerate(prev):
            nxt[idx] -= Fraction(m, m + 1) * c
        prev, cur = cur, nxt
    return cur


def racah_top_product(s, T):
    """Closed product form of the top row: R_(T-1)(s, T) as a telescoping
    product of (j - T)/(j + T) for j = 1..s."""
    out = Fraction(1)
    for j in range(1, s + 1):
        out *= Fraction(j - T, j + T)
    return out


def top_coefficient(N, k, b):
    """Coefficient of the top-row class s(N, b) in the raised primitive class.

    Closed form C(N+1-b, 2k+1) * C(N-2k+b, N-2k); summing over b gives
    C(2N-2k+2, N+2).
    """
    return binomial(N + 1 - b, 2 * k + 1) * binomial(N - 2 * k + b, N - 2 * k)


def overlap_sum(N, k, b, i):
    """Alternating overlap of the raised primitive class with the staircase.

    This is sum_j (-1)^j C(N+1-j, N-2k) C(N-2k+j, N-2k) C(N-2k-b, i-j); it is
    antisymmetric under i -> N-b+1-i, which makes the middle term vanish when
    N - b is odd.
    """
    n = N - 2 * k
    total = 0
    for j in range(0, 2 * k + 2):
        total += (
            (-1) ** j
            * binomial(N + 1 - j, n)
            * binomial(n + j, n)
            * binomial(n - b, i - j)
        )
    return total


def correction_weight(n: int, T: int, i: int) -> int:
    """Weight of H_i in the correction part of the closed certificate.

    Single alternating sum in the (n, T) coordinates:

        sum_j (-1)^j C(n+j, n) C(T-1-j, n) C(T-1-n+i-j, i-j) C(T+n, n-i+j).

    Well defined for any 0 <= n <= T - 1, not only the box parities.
    """
    if not (0 <= n <= T - 1 and 1 <= i <= T - 1):
        raise ValueError(f"need 0 <= n <= T-1 and 1 <= i <= T-1, got n={n}, T={T}, i={i}")
    total = 0
    for j in range(max(0, i - n), i + 1):
        total += (
            (-1) ** j
            * binomial(n + j, n)
            * binomial(T - 1 - j, n)
            * binomial(T - 1 - n + i - j, i - j)
            * binomial(T + n, n - i + j)
        )
    return total


def correction_weight_box(N, k, i):
    """Correction weight in box coordinates, as the double sum over (j, b).

    Slower than correction_weight but independent of it; the two must agree
    on every instance.
    """
    n = N - 2 * k
    return sum(top_coefficient(N, k, b) * overlap_sum(N, k, b, i) for b in range(n + 1))


def proj_sigma(n: int) -> Fraction:
    """The model's certificate: degree of the (n+1)-fold raise of the unit.

    Walking the whole chain turns the unit hat class into tau times the top
    archimedean form, so the value equals the chain constant and is positive.
    """
    tau = chain_constant(n)
    x = {("hat", 0): 1}
    for _ in range(n + 1):
        x = apply_label_map(lefschetz._raise, (n, tau), x)
    return x.get(("form", n), 0)


def proj_commutator_residue(n: int, tau: Fraction) -> dict:
    """The nonzero coefficients of [lower, raise] - (n + 1 - 2p) id on the
    model basis hat_i, form_i, with raise at tau and lower at w = (n+1)/tau,
    as {(label, target): coefficient}; empty when the identity holds.

    The Fraction form of lefschetz.proj_commutator_check, which takes the
    same maps in the basis f_i = tau form_i, where tau drops out.
    """
    up = (lefschetz._raise, (n, tau))
    down = (lefschetz._lower, (n, Fraction(n + 1) / tau))
    residue = {}
    for kind in ("hat", "form"):
        for i in range(n + 1):
            label = (kind, i)
            comm = apply_label_map(*down, apply_label_map(*up, {label: 1}))
            for target, c in apply_label_map(*up, apply_label_map(*down, {label: 1})).items():
                comm[target] = comm.get(target, 0) - c
            comm[label] = comm.get(label, 0) - (n + 1 - 2 * (i if kind == "hat" else i + 1))
            residue.update({(label, target): c for target, c in comm.items() if c})
    return residue


def apply_label_map(step, args, x):
    """A projective-model map given on basis labels, step(*args, label),
    applied by linearity to x, a sparse map from label to coefficient; zero
    coefficients are dropped."""
    out = {}
    for label, c in x.items():
        for target, d in step(*args, label).items():
            out[target] = out.get(target, 0) + c * d
    return {label: c for label, c in out.items() if c}


def pieri_step(x):
    """One hyperplane step by the two-row Pieri rule: s(a, b) goes to
    s(a+1, b) + s(a, b+1), with symbols leaving the box dropped."""
    N, acc = x.N, {}
    for (a, b), c in x.terms.items():
        for lam in ((a + 1, b), (a, b + 1)):
            if N >= lam[0] >= lam[1]:
                acc[lam] = acc.get(lam, 0) + c
    return ChowElement(N, acc)


def skew_syt_count(lam, mu):
    """Number of standard tableaux of the two-row skew shape lam/mu.

    Closed form: with m cells, C(m, lam1-mu1) - C(m, lam1-mu2+1), a ballot
    count minus its reflected overcount.  The empty shape counts 1.
    """
    (l1, l2), (m1, m2) = lam, mu
    if not (l1 >= l2 >= 0 and m1 >= m2 >= 0):
        raise ValueError(f"{lam}/{mu}: arguments must be two-row partitions")
    if l1 < m1 or l2 < m2:
        raise ValueError(f"{lam}/{mu}: shapes are not nested")
    size = (l1 + l2) - (m1 + m2)
    return binomial(size, l1 - m1) - binomial(size, l1 - m2 + 1)


def skew_count_power(x, r):
    """r-th hyperplane power of x, one skew tableau count per pair of a
    source class s(mu) and a target s(lam) of weight |mu| + r in the box."""
    N, acc = x.N, {}
    for mu, c in x.terms.items():
        for l2 in range(N + 1):
            lam = (mu[0] + mu[1] + r - l2, l2)
            if N >= lam[0] >= l2 and lam[0] >= mu[0] and l2 >= mu[1]:
                acc[lam] = acc.get(lam, 0) + c * skew_syt_count(lam, mu)
    return ChowElement(N, acc)


def naive_pairing(x, y):
    """Poincare pairing as the plain sum of c * d over dual class pairs."""
    N = x.N
    return sum(c * y.coeff(N - b, N - a) for (a, b), c in x.terms.items()
               if (N - b, N - a) in y.terms)


def fraction_format_rational(q) -> str:
    """Canonical text form: "p/q" in lowest terms, or "p" when q = 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def fraction_decimal_approx(q, places: int = 12) -> str:
    """Decimal rendering of an exact rational, rounded to `places` digits.

    Rounding is round-half-even on the exact value, so output is
    deterministic and accurate to 10**-places; places = 0 gives the rounded
    integer alone.
    """
    q = Fraction(q)
    scaled = round(q * 10**places)
    if not places:
        return str(scaled)
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), 10**places)
    return f"{sign}{whole}.{str(frac).zfill(places)}"


def fraction_concave_increasing(values) -> bool:
    """H_1, H_2, ... (H_0 = 0) rise by positive, nonincreasing increments,
    each increment a Fraction difference of neighbours."""
    prev, prev_inc = Fraction(0), None
    for v in values:
        inc = Fraction(v) - prev
        if inc <= 0 or (prev_inc is not None and inc > prev_inc):
            return False
        prev, prev_inc = Fraction(v), inc
    return True
