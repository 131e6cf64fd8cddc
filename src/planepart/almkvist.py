"""The Almkvist special function A(x|gamma) and the saddle-point quantities.

A(x|gamma) = (1/2) sum_{k>=0} x^k / (k! Gamma((3 - gamma + k)/2)), the entire
solution of x y''' - (gamma - 3) y'' - 2 y = 0 singled out by the coefficient
extraction contour; it plays the role Bessel I_{3/2} plays for linear
partitions.  The saddle-point data g, f1, f2 drive the large-x estimate and
all truncation-point formulas downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
from mpmath import mp

from .arith import PrecisionContext, constants


@dataclass(frozen=True)
class AlmkvistEval:
    x: mpmath.mpf
    gamma: mpmath.mpf
    value: mpmath.mpf
    terms_used: int
    tail_bound: mpmath.mpf


def almkvist_series(x, gamma, ctx: PrecisionContext) -> AlmkvistEval:
    """Direct series evaluation; all terms positive for gamma < 3."""
    with ctx.workdps():
        xv = mpmath.mpf(x)
        gv = mpmath.mpf(gamma)
        if xv < 0:
            raise ValueError("almkvist_series requires x >= 0")
        if gv >= 3:
            raise ValueError("almkvist_series requires gamma < 3")
        tol = mpmath.mpf(10) ** (-(ctx.decimal_digits + 10))
        u_even = (3 - gv) / 2  # Gamma argument for even terms
        u_odd = 2 - gv / 2     # and for odd terms
        x2 = xv * xv
        e = mp.rgamma(u_even)            # x^0 term
        o = xv * mp.rgamma(u_odd)        # x^1 term
        total = e + o
        terms = 2
        j = 0
        prev = e + o
        tail = mpmath.mpf(0)
        while True:
            scale_e = (2 * j + 1) * (2 * j + 2) * (u_even + j)
            scale_o = (2 * j + 2) * (2 * j + 3) * (u_odd + j)
            j += 1
            e = e * x2 / scale_e
            o = o * x2 / scale_o
            term = e + o
            total += term
            terms += 2
            if term == 0:
                break
            ratio = term / prev
            prev = term
            # the term ratio is strictly decreasing in j, so once it drops
            # below 1/2 the tail is geometrically bounded
            if ratio < mpmath.mpf(1) / 2 and term < tol * total:
                tail = term * ratio / (1 - ratio)
                break
        return AlmkvistEval(x=xv, gamma=gv, value=total / 2,
                            terms_used=terms, tail_bound=tail / 2)


@dataclass(frozen=True)
class SaddleData:
    lam: mpmath.mpf
    g: mpmath.mpf
    f1: mpmath.mpf
    f1p: mpmath.mpf
    f1pp: mpmath.mpf
    f2: mpmath.mpf


def _g_of_lambda(lam):
    """Positive root of g^3 + 3 lam g^2 = 1 (the g(0) = 1 branch), by Newton."""
    g = mpmath.mpf(1)  # G(1) = 3 lam >= 0 and G is increasing/convex for g > 0
    tol = mpmath.mpf(10) ** (-mp.dps)
    for _ in range(200):
        f = g * g * (g + 3 * lam) - 1
        fp = 3 * g * (g + 2 * lam)
        step = f / fp
        g -= step
        if abs(step) < tol * g:
            break
    # two polishing steps at full precision
    for _ in range(2):
        f = g * g * (g + 3 * lam) - 1
        g -= f / (3 * g * (g + 2 * lam))
    return g


def saddle_data(lam, ctx: PrecisionContext) -> SaddleData:
    """g, f1, f1', f1'', f2 at the saddle parameter lam >= 0."""
    with ctx.workdps():
        lv = mpmath.mpf(lam)
        if lv < 0:
            raise ValueError("saddle_data requires lam >= 0")
        g = _g_of_lambda(lv)
        logg = mp.log(g)
        f1 = (1 / (g * g) + 2 * g + 6 * lv * logg) / 3 - 1
        f1p = 2 * logg
        f1pp = -2 / (g + 2 * lv)
        f2 = g * g / mp.sqrt(1 - lv * g * g) - 1
        return SaddleData(lam=lv, g=g, f1=f1, f1p=f1p, f1pp=f1pp, f2=f2)


def lambda_of(x, gamma, ctx: PrecisionContext):
    """lam = -gamma / (3 * 2^(1/3) * x^(2/3))."""
    with ctx.workdps():
        xv = mpmath.mpf(x)
        if xv <= 0:
            raise ValueError("lambda_of requires x > 0")
        return -mpmath.mpf(gamma) / (3 * mp.cbrt(2) * xv ** (mpmath.mpf(2) / 3))


def almkvist_saddle(x, gamma, ctx: PrecisionContext):
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


def wright_leading(n: int, ctx: PrecisionContext):
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
