"""Generalized Dedekind sums and asymptotic-series coefficients.

Provides C_hk, b_hk, the residue coefficients v^(p)_hk, the exponential-series
coefficients b^(m)_hk, published bound checks, and the reciprocity residual;
the published b_{1,k} estimate is a test oracle (tests/oracles.py).

v^(p) is the O(k^2) double Bernoulli sum with exact rational values bucketed
by d*d' mod k and one complex dot product against a precomputed table of k-th
roots of unity.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import mp

from .arith import PrecisionContext, bernoulli_row, constants

# published correction constant in the b_{1,k} estimate
B1K_GAMMA = "0.024529"


def _mpf_frac(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


# One estimate uses about N(n) + 7 rows, all at its own precision, so a
# bounded cache keeps every row it needs while a long-lived process that
# runs many estimates does not grow without limit.
ROW_CACHE_SIZE = 256


@lru_cache(maxsize=ROW_CACHE_SIZE)
def _logsin_row(k: int, prec: int) -> tuple:
    """log|2 sin(pi j / k)| for j = 1..k-1 at binary precision prec."""
    with mp.workprec(prec):
        pi_over_k = mp.pi / k
        return tuple(mp.log(2 * mp.sin(pi_over_k * j)) for j in range(1, k))


@lru_cache(maxsize=ROW_CACHE_SIZE)
def _roots_row(k: int, prec: int) -> tuple:
    """e^{2 pi i j / k} for j = 0..k-1 at binary precision prec."""
    with mp.workprec(prec):
        return tuple(mp.expjpi(mpmath.mpf(2 * j) / k) for j in range(k))


def _check_coprime(h: int, k: int) -> None:
    if k < 1 or math.gcd(h, k) != 1:
        raise ValueError(f"(h, k) = ({h}, {k}) must be coprime with k >= 1")


def c_hk(h: int, k: int, ctx: PrecisionContext):
    """C_{h,k} = (k/2) sum_j B_2(j/k) log|2 sin(pi j h / k)|; 0 for k = 1."""
    _check_coprime(h, k)
    with ctx.workdps():
        logsin = _logsin_row(k, mp.prec)
        acc = mpmath.mpf(0)
        for j in range(1, k):
            num = 6 * j * j - 6 * j * k + k * k  # 6k^2 * B_2(j/k)
            acc += num * logsin[(j * h) % k - 1]
        return acc / (12 * k)


def b_hk(h: int, k: int, ctx: PrecisionContext):
    """b_{h,k} = sum_j {hj/k}(1 - {hj/k}) log|2 sin(pi j / k)|; 0 for k = 1."""
    _check_coprime(h, k)
    with ctx.workdps():
        logsin = _logsin_row(k, mp.prec)
        acc = mpmath.mpf(0)
        for j in range(1, k):
            r = (h * j) % k
            acc += (r * (k - r)) * logsin[j - 1]
        return acc / (k * k)


def v1_hk(h: int, k: int, ctx: PrecisionContext):
    """v^(1)_{h,k} = (i k^2 / 6) sum_d B_3(d/k) cot(pi d h / k); purely imaginary."""
    _check_coprime(h, k)
    with ctx.workdps():
        row3 = bernoulli_row(3, k)
        acc = mpmath.mpf(0)
        pi_over_k = mp.pi / k
        for d in range(1, k):
            b3 = row3[d - 1]
            if b3 == 0:
                continue
            acc += _mpf_frac(b3) * mp.cot(pi_over_k * ((d * h) % k))
        return mpmath.mpc(0, acc * k * k / 6)


@lru_cache(maxsize=None)
def _vp_buckets(p: int, k: int) -> tuple[Fraction, ...]:
    """U_j = sum over d, d' in 1..k with d d' = j mod k of B_{p+2}(d'/k) B_p(d/k)."""
    row_p = bernoulli_row(p, k)
    row_p2 = bernoulli_row(p + 2, k)
    buckets = [Fraction(0)] * k
    for d in range(1, k + 1):
        bp = row_p[d - 1]
        if bp == 0:
            continue
        for dq in range(1, k + 1):
            b2 = row_p2[dq - 1]
            if b2 != 0:
                buckets[(d * dq) % k] += b2 * bp
    return tuple(buckets)


def _vp_prefactor(p: int, k: int) -> Fraction:
    return Fraction((-1) ** p * k ** (2 * p), math.factorial(p) * p * (p + 2))


def vp_rational(p: int, h: int, k: int) -> Fraction:
    """Exact v^(p)_{h,k} for k in {1, 2}, where the roots of unity are +-1."""
    if k not in (1, 2):
        raise ValueError("vp_rational is only exact for k in {1, 2}")
    buckets = _vp_buckets(p, k)
    if k == 1:
        s = buckets[0]
    else:
        s = buckets[0] - buckets[1]  # h = 1: omega^(j) = (-1)^j
    return _vp_prefactor(p, k) * s


def vp_hk(p: int, h: int, k: int, ctx: PrecisionContext):
    """v^(p)_{h,k} (p >= 2) by the double Bernoulli sum over roots of unity."""
    if p < 2:
        raise ValueError("vp_hk requires p >= 2 (use v1_hk)")
    _check_coprime(h, k)
    with ctx.workdps():
        if k <= 2:
            return mpmath.mpc(_mpf_frac(vp_rational(p, h, k)))
        buckets = _vp_buckets(p, k)
        roots = _roots_row(k, mp.prec)
        acc = mpmath.mpc(0)
        for j in range(k):
            u = buckets[j]
            if u != 0:
                acc += _mpf_frac(u) * roots[(j * h) % k]
        return _mpf_frac(_vp_prefactor(p, k)) * acc


class CoeffGenerator:
    """Incrementally extends v^(m) and b^(m) for one (h, k).

    For k <= 2 the coefficients are real (odd orders vanish identically) and
    the recurrence runs on mpf; otherwise on mpc.
    """

    def __init__(self, h: int, k: int, ctx: PrecisionContext):
        _check_coprime(h, k)
        self.h, self.k, self.ctx = h, k, ctx
        self.real = k <= 2
        with ctx.workdps():
            one = mpmath.mpf(1) if self.real else mpmath.mpc(1)
            self.v: list = [None]
            self.b: list = [one]

    def _v_of(self, m: int):
        if self.real:
            if m % 2 == 1:
                return mpmath.mpf(0)
            return _mpf_frac(vp_rational(m, self.h, self.k))
        if m == 1:
            return v1_hk(self.h, self.k, self.ctx)
        return vp_hk(m, self.h, self.k, self.ctx)

    def extend_to(self, M: int) -> None:
        with self.ctx.workdps():
            while len(self.b) <= M:
                m = len(self.b)
                self.v.append(self._v_of(m))
                if self.real and m % 2 == 1:
                    self.b.append(mpmath.mpf(0))
                    continue
                start, step = (2, 2) if self.real else (1, 1)
                acc = mpmath.mpf(0) if self.real else mpmath.mpc(0)
                for j in range(start, m + 1, step):
                    acc += j * self.v[j] * self.b[m - j]
                self.b.append(acc / m)


def reciprocity_residual(h: int, k: int, ctx: PrecisionContext):
    """Residual of the b_{h,k} reciprocity estimate; O(x^2) for small x = h/k."""
    _check_coprime(h, k)
    if not 1 <= h < k:
        raise ValueError("reciprocity_residual requires 1 <= h < k")
    cst = constants(ctx)
    with ctx.workdps():
        x = mpmath.mpf(h) / k
        y = 1 - x
        a = cst.a
        pi2 = cst.pi**2
        ell1 = (a / (2 * pi2 * x) + a / (2 * pi2 * y)
                - x * mp.log(x) / 6 - y * mp.log(y) / 6) / 2
        gamma = mpmath.mpf(B1K_GAMMA)
        ell2 = a / (4 * pi2) - (mpmath.mpf(1) / 12 + 3 * a / (4 * pi2) - gamma) * x * y
        main = b_hk(h, k, ctx)
        rec = (x / 2) * b_hk(k % h, h, ctx) + (y / 2) * b_hk(k % (k - h), k - h, ctx)
        return main - rec - ell1 - ell2


def bound_suite(h: int, k: int, ctx: PrecisionContext) -> list[tuple[str, object]]:
    """Named verdicts for the published C_{h,k} and v^(p) bounds (p = 2, 3).

    Verdicts are True/False; None marks a bound skipped outside its validity
    range (the C sandwich needs k > 34, the two-sided bound needs k >= 2).
    """
    _check_coprime(h, k)
    cst = constants(ctx)
    verdicts: list[tuple[str, object]] = []
    with ctx.workdps():
        tol = mpmath.mpf(10) ** (-(ctx.decimal_digits // 2))
        chk = c_hk(h, k, ctx)
        if k > 34:
            c1k = c_hk(1, k, ctx)
            lower = -cst.a * k * k / (4 * cst.pi**2)
            upper = k * mp.log(k) / 12 - k * cst.log2 / 4
            ok = (lower < c1k) and (c1k <= chk + tol) and (chk < upper)
            verdicts.append(("chk_sandwich_k_gt_34", bool(ok)))
        else:
            verdicts.append(("chk_sandwich_k_gt_34", None))
        v1 = v1_hk(h, k, ctx)
        bound1 = 2 * mpmath.mpf(k) ** 3 * cst.a / (2 * cst.pi) ** 3
        verdicts.append(("v1_bound", bool(abs(v1) <= bound1 + tol)))
        for p in (2, 3):
            vp = vp_hk(p, h, k, ctx)
            boundp = (4 * mpmath.mpf(k) ** (2 * p + 1) * mp.factorial(p + 1)
                      * mp.zeta(p) * mp.zeta(p + 2) / (p * (2 * cst.pi) ** (2 * p + 2)))
            verdicts.append((f"vp_bound_p{p}", bool(abs(vp) <= boundp + tol)))
        if k >= 2:
            lo = (1 - k * k) * cst.log2 / 12 + k * mp.log(k) / 12
            hi = (k - 1) * (k - 2) * cst.log2 / 24 - k * mp.log(k) / 24
            ok = (lo - tol <= chk) and (chk <= hi + tol)
            verdicts.append(("chk_two_sided", bool(ok)))
        else:
            verdicts.append(("chk_two_sided", None))
    return verdicts


def b_min(k: int, ctx: PrecisionContext) -> tuple[int, object]:
    """(argmin h, min over coprime h of b_{h,k}); uses b_{h,k} = b_{k-h,k}."""
    if k < 2:
        raise ValueError("b_min requires k >= 2")
    best_h, best = None, None
    for h in range(1, k // 2 + 1):
        if math.gcd(h, k) != 1:
            continue
        val = b_hk(h, k, ctx)
        if best is None or val < best:
            best_h, best = h, val
    return best_h, best

