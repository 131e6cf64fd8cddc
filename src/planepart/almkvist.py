"""The Almkvist special function A(x|gamma) and the saddle-point quantities.

A(x|gamma) = (1/2) sum_{k>=0} x^k / (k! Gamma((3 - gamma + k)/2)), the entire
solution of x y''' - (gamma - 3) y'' - 2 y = 0 singled out by the coefficient
extraction contour; it plays the role Bessel I_{3/2} plays for linear
partitions.  Its even and odd halves are two 0F2 series, which mpmath's
mp.hyper sums in fixed-point integers to the working precision.  An arc of
the estimate (circle.Arc) needs A(x | -k/12 - m) for m = 0, 1, 2, ...: it
seeds its ladder with almkvist_series, three consecutive values at once,
and runs the ODE's three-term recurrence downward for the rest.  The
saddle-point data g, f1, f2 drive all truncation-point formulas downstream
(the large-x estimate itself is in tests/oracles.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
from mpmath import mp

from .arith import PrecisionContext


@dataclass(frozen=True)
class AlmkvistEval:
    value: mpmath.mpf     # A(x|gamma)
    value_m1: mpmath.mpf  # A(x|gamma - 1) = d/dx A(x|gamma)
    value_m2: mpmath.mpf  # A(x|gamma - 2) = d^2/dx^2 A(x|gamma)
    terms_used: int       # 0F2 sums evaluated: mpmath reports no term count


def almkvist_series(x, gamma, ctx: PrecisionContext) -> AlmkvistEval:
    """A(x|gamma), A(x|gamma-1) and A(x|gamma-2).  By (2j)! = 4^j j! (1/2)_j
    and (2j+1)! = 4^j j! (3/2)_j, A(x|gamma) = (rgamma(u) 0F2(; 1/2, u; x^2/4)
    + x rgamma(u') 0F2(; 3/2, u'; x^2/4)) / 2 with u = (3 - gamma)/2 and
    u' = u + 1/2; all terms are positive for gamma < 3.  1/Gamma at u,
    u + 1/2, u + 1, u + 3/2 takes two rgamma calls, by Gamma(s+1) = s Gamma(s)."""
    with ctx.workdps():
        xv = mpmath.mpf(x)
        gv = mpmath.mpf(gamma)
        if xv < 0:
            raise ValueError("almkvist_series requires x >= 0")
        if gv >= 3:
            raise ValueError("almkvist_series requires gamma < 3")
        z = xv * xv / 4
        u = (3 - gv) / 2
        us = (u, u + 0.5, u + 1, u + 1.5)
        r0, r1 = mp.rgamma(u), mp.rgamma(us[1])
        rg = (r0, r1, r0 / u, r1 / us[1])
        values = [(rg[j] * mp.hyper([], [0.5, us[j]], z)
                   + xv * rg[j + 1] * mp.hyper([], [1.5, us[j + 1]], z)) / 2
                  for j in range(3)]  # gamma, gamma - 1, gamma - 2
        return AlmkvistEval(*values, terms_used=6)


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
