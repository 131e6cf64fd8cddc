"""Independent oracles used by the test suite.

Most of what is here is computed by a route different from the one the package
uses, so agreement is evidence rather than tautology:

- zeta'(-1) via Euler-Maclaurin summation of n*log(n) (the package asks
  mpmath's zeta for it);
- Bernoulli numbers via the defining recurrence (the package takes them
  from mpmath.bernfrac);
- p2(n) via direct expansion of the MacMahon product (the package uses the
  sigma2 recurrence);
- b^(m) coefficients via the exponential partition-sum formula (the package
  uses the m*b^(m) convolution recurrence);
- v^(p)_{h,k} via derivatives of cot (the package uses the double Bernoulli
  sum over roots of unity);
- the saddle root g(lam) via its closed radical form (the package uses
  Newton's method);
- sigma2(n) by enumerating divisors (the package uses a divisor sieve).

psi_m, b1k_estimate, lambda_of with almkvist_saddle, and wright_leading are
not alternative routes: they are paper formulas that only the tests evaluate.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
from mpmath import mp

from planepart.almkvist import almkvist_series, saddle_data
from planepart.arith import bernoulli_number, bernoulli_row  # exact rationals
from planepart.arith import constants
from planepart.dedekind import (B1K_GAMMA, CoeffGenerator, _check_coprime,
                                _mpf_frac, _roots_row, c_hk, v1_hk, vp_hk,
                                vp_rational)


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


def bernoulli_by_recurrence(nmax: int) -> list[Fraction]:
    """B_0..B_nmax from sum_{j=0}^{n} C(n+1, j) B_j = 0 (B_1 = -1/2)."""
    b = [Fraction(1)]
    for n in range(1, nmax + 1):
        acc = sum(math.comb(n + 1, j) * b[j] for j in range(n))
        b.append(-acc / (n + 1))
    return b


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
    def v_of(j):
        if k <= 2:
            q = vp_rational(j, h, k) if j % 2 == 0 else Fraction(0)
            return mpmath.mpc(mpmath.mpf(q.numerator) / q.denominator)
        return v1_hk(h, k, ctx) if j == 1 else vp_hk(j, h, k, ctx)

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
        vs = {j: v_of(j) for j in range(1, m + 1)}
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
    """Cross-check closed form of v^(p)_{h,k} via derivatives of cot."""
    if p < 2:
        raise ValueError("vp_hk_cot requires p >= 2")
    _check_coprime(h, k)
    with ctx.workdps():
        poly = _cot_derivative_polys(p)[p - 1]  # (p-1)-th derivative of cot
        row = bernoulli_row(p + 2, k) if k > 1 else ()
        acc = mpmath.mpc(0)
        pi_over_k = mp.pi / k
        for d in range(1, k):
            b2 = row[d - 1]
            if b2 == 0:
                continue
            c = mp.cot(pi_over_k * ((d * h) % k))
            val = mpmath.mpf(0)
            for coef in reversed(poly):
                val = val * c + coef
            acc += _mpf_frac(b2) * val
        bp = bernoulli_number(p + 2) * bernoulli_number(p)
        two_i_p = mpmath.mpf(2) ** p * mpmath.mpc(0, 1) ** p
        total = _mpf_frac(bp) + acc * p / two_i_p
        pref = Fraction((-1) ** p * k ** (1 + p), math.factorial(p) * p * (p + 2))
        return _mpf_frac(pref) * total


def g_radical(lam, ctx):
    """Closed radical form of g(lam), valid while 1 - 4 lam^3 >= 0 (cross-check)."""
    with ctx.workdps():
        lv = mpmath.mpf(lam)
        disc = 1 - 4 * lv**3
        if disc < 0:
            raise ValueError("radical form leaves the real branch past lam^3 = 1/4")
        root = mp.sqrt(disc)
        third = mpmath.mpf(1) / 3
        t1 = (1 - 2 * lv**3 + root) / 2
        t2 = (1 - 2 * lv**3 - root) / 2
        return -lv + mp.sign(t1) * abs(t1) ** third + mp.sign(t2) * abs(t2) ** third


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
        gen = CoeffGenerator(h, k, ctx)
        gen.extend_to(m)
        bm = gen.b[m]
        A = almkvist_series(mp.sqrt(a / kf**3) * n, -kf / 12 - m, ctx).value
        phase = _roots_row(k, mp.prec)[(-n * h) % k]
        pref = mp.exp(k * cst.zeta_prime_m1 + c_hk(h, k, ctx)) \
            * (a / kf) ** (mpmath.mpf(1) / 2 + kf / 24) / kf
        return phase * pref * bm * mp.sqrt(a / kf**3) ** m * A


def b1k_estimate(k: int, ctx):
    """zeta(3) k / (2 pi^2) + log(k)/(6k) + gamma/k with the published gamma."""
    if k < 2:
        raise ValueError("b1k_estimate requires k >= 2")
    cst = constants(ctx)
    with ctx.workdps():
        gamma = mpmath.mpf(B1K_GAMMA)
        return cst.a * k / (2 * cst.pi**2) + mp.log(k) / (6 * k) + gamma / k


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
