"""Independent oracles used by the test suite.

Everything here is computed by a route different from the one the package
uses, so agreement is evidence rather than tautology:

- zeta'(-1) via Euler-Maclaurin summation of n*log(n) (the package asks
  mpmath's zeta for it);
- Bernoulli numbers via the defining recurrence (the package uses the
  tangent-number triangle);
- p2(n) via direct expansion of the MacMahon product (the package uses the
  sigma2 recurrence);
- b^(m) coefficients via the exponential partition-sum formula (the package
  uses the m*b^(m) convolution recurrence);
- v^(p)_{h,k} via derivatives of cot (the package uses the double Bernoulli
  sum over roots of unity);
- the saddle root g(lam) via its closed radical form (the package uses
  Newton's method);
- sigma2(n) by enumerating divisors (the package uses a divisor sieve).
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
from mpmath import mp


def em_zeta_prime_m1(dps: int = 50, N: int = 200, J: int = 12):
    """zeta'(-1) = 1/12 - log A, with log A from Euler-Maclaurin applied to
    sum_{n<=N} n log n (Glaisher's constant by its defining limit)."""
    from planepart.arith import bernoulli_number  # exact rationals only

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
    from planepart.dedekind import v1_hk, vp_hk, vp_rational

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
    from planepart.arith import BERNOULLI  # exact rationals only
    from planepart.dedekind import _check_coprime, _mpf_frac

    if p < 2:
        raise ValueError("vp_hk_cot requires p >= 2")
    _check_coprime(h, k)
    with ctx.workdps():
        poly = _cot_derivative_polys(p)[p - 1]  # (p-1)-th derivative of cot
        row = BERNOULLI.poly_row(p + 2, k) if k > 1 else ()
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
        bp = BERNOULLI.number(p + 2) * BERNOULLI.number(p)
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
