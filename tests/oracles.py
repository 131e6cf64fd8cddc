"""Independent oracles used by the test suite.

Most of what is here is computed by a route different from the one the package
uses, so agreement is evidence rather than tautology:

- zeta'(-1) via Euler-Maclaurin summation of n*log(n) (the package takes
  1/12 - log of mpmath's Glaisher constant, which mpmath derives from
  zeta'(2));
- zeta(3) by Apery's series (mpmath's apery, which the package takes, sums
  the Amdeberhan-Zeilberger series);
- Bernoulli numbers via the defining recurrence (the package takes them
  from mpmath.bernfrac);
- p2(n) via direct expansion of the MacMahon product (the package uses the
  sigma2 recurrence);
- b^(m) coefficients via the exponential partition-sum formula (the package
  uses the m*b^(m) convolution recurrence);
- b^(m) coefficients via the same convolution recurrence in mpf, one mp.fdot
  per order (the package runs it on integer mantissas with per-order
  exponents);
- v^(p)_{h,k} via derivatives of cot (the package uses the double Bernoulli
  sum over roots of unity);
- v^(p)_{h,k} via the full complex sum over all k buckets, built from
  Fraction Horner rows, roots of unity from mp.exp and the prefactor written
  out here (the package sums integer rows, half the buckets and real cosines
  or sines from its own tables);
- B_p(x) by a Horner loop in Fractions (the package evaluates integer rows
  over one common denominator);
- dot / den rounded to a context's bits by mpmath's mpf_div (the package
  takes one integer divmod and rounds the quotient with a sticky bit);
- C_{h,k} and b_{h,k} as one mp.fdot of their integer weights with
  log|2 sin(pi j / k)| from mp.sin and mp.log (the package takes one integer
  dot product with a fixed-point log-sine row derived from its cos row);
- the saddle root g(lam) via its closed radical form (the package uses
  Newton's method);
- sigma2(n) by enumerating divisors (the package uses a divisor sieve);
- A(x|gamma) by summing its power series term by term in mpf, and
  A(x|gamma), A(x|gamma-1), A(x|gamma-2) as six 0F2 series that mpmath's
  hyper sums (the package sums one term sequence, in two chains of even and
  odd terms, in Python integers);
- the bound on |phi^(0)_k(n)| as the smaller of the paper's two forms, each
  written as a product in mpf (the estimate takes the log of each form as
  one sum of logs in floats).

Only public names are imported from planepart (test_dedekind checks this), so
no oracle shares a private helper with the code it checks.

psi_m, b1k_estimate, lambda_of with almkvist_saddle, wright_leading,
d_of_lambda, sa_error_bound and minor_arc_bound are not alternative routes:
they are paper formulas that only the tests evaluate (psi_m takes its b^(m)
from the mpf recurrence here, not from the package).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import mp
from mpmath.libmp import from_int, mpf_div, mpf_shift

from planepart.almkvist import almkvist_series, saddle_data
from planepart.arith import bernoulli_number, constants, derived_constants
from planepart.circle import lambda_c, lambda_param
from planepart.dedekind import B1K_GAMMA, c_hk, vp_hk


def _frac_mpf(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


def _root(j: int, k: int):
    """e^(2 pi i j / k) by mp.exp at the current precision."""
    return mp.exp(2j * mp.pi * (j % k) / k)


def _require_coprime(h: int, k: int) -> None:
    if k < 1 or math.gcd(h, k) != 1:
        raise ValueError(f"(h, k) = ({h}, {k}) must be coprime with k >= 1")


def em_zeta_prime_m1(dps: int = 50, N: int = 200, J: int = 12):
    """zeta'(-1) = 1/12 - log A, with log A from Euler-Maclaurin applied to
    sum_{n<=N} n log n (Glaisher's constant by its defining limit)."""
    with mp.workdps(dps + 15):
        s = mp.fsum(n * mp.log(n) for n in range(2, N + 1))
        Nf = mpmath.mpf(N)
        logN = mp.log(Nf)
        log_a = (s - (Nf * Nf / 2 + Nf / 2 + mpmath.mpf(1) / 12) * logN
                 + Nf * Nf / 4)
        for j in range(2, J + 1):
            b2j = bernoulli_number(2 * j)
            coef = (mpmath.mpf(b2j.numerator) / b2j.denominator
                    * math.factorial(2 * j - 3) / math.factorial(2 * j))
            log_a += coef * Nf ** (2 - 2 * j)
        return mpmath.mpf(1) / 12 - log_a


def zeta3_apery_series(dps: int):
    """zeta(3) = (5/2) sum_{n>=1} (-1)^(n+1) / (n^3 C(2n, n)); the terms
    shrink like 4^-n."""
    with mp.workdps(dps + 15):
        terms = int((dps + 15) / math.log10(4)) + 1
        return 5 * mp.fsum((-1) ** (n + 1) / (mpmath.mpf(n) ** 3 * math.comb(2 * n, n))
                           for n in range(1, terms + 1)) / 2


def bernoulli_by_recurrence(nmax: int) -> list[Fraction]:
    """B_0..B_nmax from sum_{j=0}^{n} C(n+1, j) B_j = 0 (B_1 = -1/2)."""
    b = [Fraction(1)]
    for n in range(1, nmax + 1):
        acc = sum(math.comb(n + 1, j) * b[j] for j in range(n))
        b.append(-acc / (n + 1))
    return b


def bernoulli_poly_horner(p: int, x: Fraction) -> Fraction:
    """B_p(x) = sum_j C(p,j) B_j x^(p-j) by Horner's rule in Fractions."""
    value = Fraction(0)
    for j in range(p + 1):
        value = value * x + math.comb(p, j) * bernoulli_number(j)
    return value


def vp_full_bucket_sum(p: int, h: int, k: int, ctx):
    """v^(p)_{h,k} = (-1)^p k^(2p) / (p! p (p+2)) sum_j U_j e^(2 pi i j h / k)
    over every bucket j = 0..k-1, with U_j = sum over d d' = j mod k of
    B_{p+2}(d'/k) B_p(d/k) from Fraction Horner rows (complex arithmetic)."""
    _require_coprime(h, k)
    row_p = [bernoulli_poly_horner(p, Fraction(d, k)) for d in range(1, k + 1)]
    row_p2 = [bernoulli_poly_horner(p + 2, Fraction(d, k)) for d in range(1, k + 1)]
    buckets = [Fraction(0)] * k
    for d, bp in enumerate(row_p, 1):
        for dq, b2 in enumerate(row_p2, 1):
            buckets[(d * dq) % k] += b2 * bp
    pref = Fraction((-1) ** p * k ** (2 * p), math.factorial(p) * p * (p + 2))
    with ctx.workdps():
        acc = mpmath.mpc(0)
        for j, u in enumerate(buckets):
            acc += _frac_mpf(u) * _root(j * h, k)
        return _frac_mpf(pref) * acc


def p2_by_product(N: int) -> list[int]:
    """Coefficients of prod_{n>=1} (1 - x^n)^(-n) up to x^N, by multiplying
    in each factor 1/(1 - x^n) exactly n times (prefix-sum update)."""
    coef = [0] * (N + 1)
    coef[0] = 1
    for n in range(1, N + 1):
        for _ in range(n):
            for i in range(n, N + 1):
                coef[i] += coef[i - n]
    return coef


def plane_partitions_brute(n: int) -> int:
    """Count plane partitions of n by enumerating row lists directly."""
    if n == 0:
        return 1

    def partitions_at_most(total: int, bound_row):
        """Weakly decreasing rows with sum in 1..total, pointwise <= bound_row."""
        out = []

        def rec(prefix, left):
            if prefix:
                out.append(tuple(prefix))
            pos = len(prefix)
            if pos >= len(bound_row):
                return
            hi = min(bound_row[pos], left, prefix[-1] if prefix else left)
            for v in range(hi, 0, -1):
                prefix.append(v)
                rec(prefix, left - v)
                prefix.pop()

        rec([], total)
        return out

    def count(bound_row, left):
        if left == 0:
            return 1
        return sum(count(row, left - sum(row))
                   for row in partitions_at_most(left, bound_row))

    return count((n,) * n, n)


def b_coeff_partition_sum(h: int, k: int, m: int, ctx):
    """b^(m)_{h,k} = sum over partitions of m of prod_j v^(j)^mu_j / mu_j!
    (coefficient extraction from exp(sum_j v^(j) t^j))."""
    def partitions(total, max_part):
        if total == 0:
            yield []
            return
        for part in range(min(total, max_part), 0, -1):
            for rest in partitions(total - part, part):
                yield [part] + rest

    with ctx.workdps():
        if m == 0:
            return mpmath.mpc(1)
        vs = {j: vp_hk(j, h, k, ctx) for j in range(1, m + 1)}
        total = mpmath.mpc(0)
        for lam in partitions(m, m):
            mult: dict[int, int] = {}
            for part in lam:
                mult[part] = mult.get(part, 0) + 1
            term = mpmath.mpc(1)
            for j, mu in mult.items():
                term *= vs[j] ** mu / math.factorial(mu)
            total += term
        return total


def b_coeffs_mpf(h: int, k: int, M: int, ctx):
    """The real rotated b[m] = i^-m b^(m)_{h,k}, m = 0..M, from
    m b[m] = sum_j j v[j] b[m - j] with v[j] = i^-j v^(j)_{h,k} (vp_hk),
    one mp.fdot of mpf values per order at ctx's precision."""
    _require_coprime(h, k)
    with ctx.workdps():
        jv, b = [], [mpmath.mpf(1)]
        for m in range(1, M + 1):
            v = vp_hk(m, h, k, ctx)
            jv.append((m, m, -m, -m)[m % 4] * (v.imag if m % 2 else v.real))
            b.append(mp.fdot(jv, reversed(b)) / m)
        return b


def _cot_derivative_polys(order: int) -> list[list[int]]:
    """P_1..P_order with P_1(c) = c and P_{j+1} = -(1 + c^2) P_j'(c)."""
    polys = [[0, 1]]
    while len(polys) < order:
        cur = polys[-1]
        deriv = [i * cur[i] for i in range(1, len(cur))]
        nxt = [0] * (len(deriv) + 2)
        for i, coef in enumerate(deriv):
            nxt[i] -= coef
            nxt[i + 2] -= coef
        polys.append(nxt)
    return polys


def vp_hk_cot(p: int, h: int, k: int, ctx):
    """Cross-check closed form of v^(p)_{h,k} via derivatives of cot (at
    p = 1, cot itself; the B_{p+2} B_p term is then B_3 B_1 = 0)."""
    if p < 1:
        raise ValueError("vp_hk_cot requires p >= 1")
    _require_coprime(h, k)
    with ctx.workdps():
        poly = _cot_derivative_polys(p)[p - 1]  # (p-1)-th derivative of cot
        acc = mpmath.mpc(0)
        pi_over_k = mp.pi / k
        for d in range(1, k):
            b2 = bernoulli_poly_horner(p + 2, Fraction(d, k))
            if b2 == 0:
                continue
            c = mp.cot(pi_over_k * ((d * h) % k))
            val = mpmath.mpf(0)
            for coef in reversed(poly):
                val = val * c + coef
            acc += _frac_mpf(b2) * val
        bp = bernoulli_number(p + 2) * bernoulli_number(p)
        two_i_p = mpmath.mpf(2) ** p * mpmath.mpc(0, 1) ** p
        total = _frac_mpf(bp) + acc * p / two_i_p
        pref = Fraction((-1) ** p * k ** (1 + p), math.factorial(p) * p * (p + 2))
        return _frac_mpf(pref) * total


def g_radical(lam, ctx):
    """Closed form of g(lam) (cross-check).  With g = t - lam the cubic is
    t^3 - 3 lam^2 t + 2 lam^3 - 1 = 0.  While 1 - 4 lam^3 >= 0, Cardano:
    t = u + lam^2 / u with u^3 = (1 - 2 lam^3 + sqrt(1 - 4 lam^3)) / 2; the
    second cube root is taken as lam^2 / u, since its radical
    (1 - 2 lam^3 - sqrt(1 - 4 lam^3)) / 2, about lam^6, cancels for small
    lam.  Past lam^3 = 1/4 the cubic has three real roots, and Viete's
    trigonometric form gives the largest, t = 2 lam cos((pi - d)/3) with
    d = 2 asin(lam^(-3/2) / 2); so g = lam (sqrt(3) sin(d/3) - 2 sin(d/6)^2),
    which does not cancel as 2 cos((pi - d)/3) - 1 does for large lam."""
    with ctx.workdps():
        lv = mpmath.mpf(lam)
        disc = 1 - 4 * lv**3
        if disc < 0:
            d = 2 * mp.asin(lv ** (-mpmath.mpf(3) / 2) / 2)
            return lv * (mp.sqrt(3) * mp.sin(d / 3) - 2 * mp.sin(d / 6) ** 2)
        u = mp.cbrt((1 - 2 * lv**3 + mp.sqrt(disc)) / 2)
        return u + lv * lv / u - lv


def sigma2_by_enumeration(n: int) -> int:
    return sum(d * d for d in range(1, n + 1) if n % d == 0)


def psi_m(n: int, h: int, k: int, m: int, ctx):
    """Single arc term psi^(m)_{h,k}(n) (complex)."""
    if k < 1 or m < 0:
        raise ValueError("psi_m requires k >= 1 and m >= 0")
    ok = (h == 0 and k == 1) or (1 <= h < k and math.gcd(h, k) == 1)
    if not ok:
        raise ValueError("psi_m requires gcd(h,k) = 1 (h = 0 only for k = 1)")
    cst = constants(ctx)
    with ctx.workdps():
        a = cst.a
        kf = mpmath.mpf(k)
        bm = (1, 1j, -1, -1j)[m % 4] * b_coeffs_mpf(h, k, m, ctx)[m]  # b^(m) = i^m b[m]
        A = almkvist_series(mp.sqrt(a / kf**3) * n, -kf / 12 - m, ctx).value
        phase = _root(-n * h, k)
        pref = mp.exp(k * cst.zeta_prime_m1 + c_hk(h, k, ctx)) \
            * (a / kf) ** (mpmath.mpf(1) / 2 + kf / 24) / kf
        return phase * pref * bm * mp.sqrt(a / kf**3) ** m * A


@lru_cache(maxsize=None)
def _logsin_mpf(k: int, dps: int) -> tuple:
    """log|2 sin(pi j / k)|, j = 1..k-1, by mp.sin and mp.log at dps digits."""
    with mp.workdps(dps):
        return tuple(mp.log(abs(2 * mp.sin(mp.pi * j / k))) for j in range(1, k))


def c_hk_fdot(h: int, k: int, ctx):
    """C_{h,k} = (1/12k) sum_j (6 j^2 - 6 j k + k^2) log|2 sin(pi j h / k)|,
    one mp.fdot at the working precision; 0 for k = 1."""
    _require_coprime(h, k)
    logsin = _logsin_mpf(k, ctx.decimal_digits)
    with ctx.workdps():
        return mp.fdot((6 * j * j - 6 * j * k + k * k, logsin[(j * h) % k - 1])
                       for j in range(1, k)) / (12 * k)


def b_hk_fdot(h: int, k: int, ctx):
    """b_{h,k} = (1/k^2) sum_j (hj mod k)(k - hj mod k) log|2 sin(pi j / k)|,
    one mp.fdot at the working precision; 0 for k = 1."""
    _require_coprime(h, k)
    logsin = _logsin_mpf(k, ctx.decimal_digits)
    with ctx.workdps():
        return mp.fdot(((h * j) % k * (k - (h * j) % k), logsin[j - 1])
                       for j in range(1, k)) / (k * k)


def row_value_mpf_div(dot: int, den: int, bits: int) -> tuple:
    """dot / den times 2^-bits as a raw mpf rounded to nearest at bits bits,
    by mpmath's mpf_div and an exact shift."""
    return mpf_shift(mpf_div(from_int(dot), from_int(den), bits, "n"), -bits)


def b1k_estimate(k: int, ctx):
    """zeta(3) k / (2 pi^2) + log(k)/(6k) + gamma/k with the published gamma."""
    if k < 2:
        raise ValueError("b1k_estimate requires k >= 2")
    cst = constants(ctx)
    with ctx.workdps():
        gamma = mpmath.mpf(B1K_GAMMA)
        return cst.a * k / (2 * cst.pi**2) + mp.log(k) / (6 * k) + gamma / k


def almkvist_power_series(x, gamma, ctx):
    """A(x|gamma) = (1/2) sum_i x^i / (i! Gamma((3 - gamma + i)/2)) for
    x >= 0 and gamma < 3, term by term 10 digits above ctx."""
    with mp.workdps(ctx.decimal_digits + 10):
        xv, gv = mpmath.mpf(x), mpmath.mpf(gamma)
        tol = mpmath.mpf(10) ** -(ctx.decimal_digits + 10)
        terms = [mp.rgamma((3 - gv) / 2), xv * mp.rgamma((4 - gv) / 2)]
        total = terms[0] + terms[1]
        i = 1
        while True:
            i += 1
            # t_i / t_(i-2) = x^2 / (i (i-1) (1 - gamma + i)/2): positive and
            # falling in i, so once it is below 1/2 each parity's tail is
            # below its last term
            ratio = xv * xv / (i * (i - 1) * (1 - gv + i) / 2)
            terms.append(terms[-2] * ratio)
            total += terms[-1]
            if ratio < mpmath.mpf(1) / 2 and terms[-1] + terms[-2] < tol * total:
                break
    with ctx.workdps():
        return total / 2


def almkvist_hyper(x, gamma, ctx):
    """(A(x|gamma), A(x|gamma-1), A(x|gamma-2)) for x >= 0 and gamma < 3 from
    0F2 series: by (2j)! = 4^j j! (1/2)_j and (2j+1)! = 4^j j! (3/2)_j,
    A(x|gamma) = (rgamma(u) 0F2(; 1/2, u; x^2/4)
    + x rgamma(u') 0F2(; 3/2, u'; x^2/4)) / 2 with u = (3 - gamma)/2 and
    u' = u + 1/2."""
    with ctx.workdps():
        xv, gv = mpmath.mpf(x), mpmath.mpf(gamma)
        z = xv * xv / 4
        u = (3 - gv) / 2
        us = (u, u + 0.5, u + 1, u + 1.5)
        rg = [mp.rgamma(s) for s in us]
        return tuple((rg[j] * mp.hyper([], [0.5, us[j]], z)
                      + xv * rg[j + 1] * mp.hyper([], [1.5, us[j + 1]], z)) / 2
                     for j in range(3))


def lambda_of(x, gamma, ctx):
    """lam = -gamma / (3 * 2^(1/3) * x^(2/3))."""
    with ctx.workdps():
        xv = mpmath.mpf(x)
        if xv <= 0:
            raise ValueError("lambda_of requires x > 0")
        return -mpmath.mpf(gamma) / (3 * mp.cbrt(2) * xv ** (mpmath.mpf(2) / 3))


def almkvist_saddle(x, gamma, ctx):
    """Saddle-point estimate of A(x|gamma) for x > 0, gamma <= 0."""
    with ctx.workdps():
        xv = mpmath.mpf(x)
        if xv <= 0:
            raise ValueError("almkvist_saddle requires x > 0")
        lam = lambda_of(xv, gamma, ctx)
        sd = saddle_data(lam, ctx)
        half_x = xv / 2
        two3 = mpmath.mpf(2) / 3
        pref = half_x ** (mpmath.mpf(gamma) / 3 - two3) / mp.sqrt(12 * mp.pi)
        return pref * mp.exp(3 * half_x**two3 * (1 + sd.f1)) * (1 + sd.f2)


def wright_leading(n: int, ctx):
    """Corrected leading-order growth of p2(n)."""
    if n < 1:
        raise ValueError("wright_leading requires n >= 1")
    cst = constants(ctx)
    with ctx.workdps():
        a = cst.a
        half_n = mpmath.mpf(n) / 2
        two3 = mpmath.mpf(2) / 3
        pref = a ** (mpmath.mpf(7) / 36) / mp.sqrt(12 * mp.pi)
        return (pref * half_n ** (-mpmath.mpf(25) / 36)
                * mp.exp(3 * mp.cbrt(a) * half_n**two3 + cst.zeta_prime_m1))


def d_of_lambda(lam, ctx):
    """d(lam) = 72 a lam 4^-3 exp(24 zeta'(-1) + (1 + f1(lam))/lam)."""
    cst = constants(ctx)
    with ctx.workdps():
        lv = mpmath.mpf(lam)
        if lv <= 0:
            raise ValueError("d_of_lambda requires lam > 0")
        f1 = saddle_data(lv, ctx).f1
        return 72 * cst.a * lv / 64 * mp.exp(24 * cst.zeta_prime_m1 + (1 + f1) / lv)


def phi0_bound(n: int, k: int, ctx):
    """Upper bound for |phi^(0)_k(n)|: the smaller of the paper's two forms,
    c1^k (k^2/n^(2/3))^(1 + k/24) (2a)^(1/6) / sqrt(6 pi k^3)
    e^{c2 n^(2/3) (1 + f1(lam)) / k} (1 + f2(lam)), times 2^(1/4) for k = 1
    (its single term h = 0 has C_{0,1} = 0, where c1 assumes 2^(-k/4)), and
    sqrt(72 a / (pi k^3)) d(lam)^(k/24)."""
    cst, der = constants(ctx), derived_constants(ctx)
    with ctx.workdps():
        lam = lambda_param(n, k, ctx)
        sd = saddle_data(lam, ctx)
        kf, n23 = mpmath.mpf(k), mpmath.mpf(n) ** (mpmath.mpf(2) / 3)
        form1 = (der.c1**k * (kf * kf / n23) ** (1 + kf / 24)
                 * (2 * cst.a) ** (mpmath.mpf(1) / 6) / mp.sqrt(6 * cst.pi * kf**3)
                 * mp.exp(der.c2 * n23 * (1 + sd.f1) / kf) * (1 + sd.f2)
                 * (mp.root(2, 4) if k == 1 else 1))
        form2 = mp.sqrt(72 * cst.a / (cst.pi * kf**3)) * d_of_lambda(lam, ctx) ** (kf / 24)
        return min(form1, form2)


def sa_error_bound(n: int, k: int, ctx):
    """Superasymptotic truncation-error bound for arc k (valid for
    lam <= lam_c), at the saddle's truncation point
    M* = (c/k) n^(1/3) - c^2 f1''(lam) / (4 c2 k)."""
    cst, der = constants(ctx), derived_constants(ctx)
    with ctx.workdps():
        lam = lambda_param(n, k, ctx)
        if lam > lambda_c(ctx):
            raise ValueError("sa_error_bound is only claimed for lam <= lam_c")
        sd = saddle_data(lam, ctx)
        n13 = mpmath.mpf(n) ** (mpmath.mpf(1) / 3)
        c, n23 = sd.c, n13 * n13
        mstar = (c / k) * n13 - (c * c / (4 * der.c2 * k)) * sd.f1pp
        pref = (mpmath.mpf(k) ** (-mpmath.mpf(1) / 2) * der.c1**k
                * (k * k / n23) ** (1 + mpmath.mpf(k) / 24)
                / (cst.pi**2 * (2 * cst.a) ** (-mpmath.mpf(1) / 6)
                   * mp.sqrt(3 * mstar)))
        expo = (-c * c / (4 * der.c2) - c * n13 + der.c2 * n23) / k
        return pref * mp.exp(expo)


LAMBDA0 = "0.25"  # minor_arc_bound's Type II lam; above lambda_c = 0.1801...


@dataclass(frozen=True)
class MinorArcBound:
    type1: mpmath.mpf
    type2: mpmath.mpf


def minor_arc_bound(n: int, kappa2, ctx) -> MinorArcBound:
    """Type I and Type II minor-arc bounds, the latter at lam = LAMBDA0."""
    with ctx.workdps():
        kappa3 = mp.log(mpmath.mpf("1.06"))
        nf = mpmath.mpf(n)
        type1 = mpmath.mpf("1.06") * nf ** (-mpmath.mpf(kappa2)) * mp.exp(-kappa3)
        d0 = d_of_lambda(mpmath.mpf(LAMBDA0), ctx)
        beta1 = mpmath.mpf("2.948")
        c3 = -(beta1 / 24) * mp.log(d0)
        type2 = (mpmath.mpf("2.07") / mp.sqrt(nf)
                 / (1 - d0 ** (mpmath.mpf(1) / 24))
                 * mp.exp(-c3 * nf ** (mpmath.mpf(1) / 3)))
        return MinorArcBound(type1=type1, type2=type2)
