"""The Almkvist special function A(x|gamma) and the saddle-point quantities.

A(x|gamma) = (1/2) sum_{k>=0} x^k / (k! Gamma((3 - gamma + k)/2)), the entire
solution of x y''' - (gamma - 3) y'' - 2 y = 0 singled out by the coefficient
extraction contour; it plays the role Bessel I_{3/2} plays for linear
partitions.  Since dA(x|gamma)/dx = A(x|gamma - 1), one pass of the series
also gives A(x|gamma - 1) and A(x|gamma - 2).  An arc of the estimate
(circle.Arc) needs A(x | -k/12 - m) for m = 0, 1, 2, ...: it runs one series
per doubling block of m and fills the rest of the block with the ODE's
three-term recurrence run downward in m, where both terms are positive, so
no step cancels (run upward it cancels and is unstable).  The saddle-point
data g, f1, f2 drive all truncation-point formulas downstream (the large-x
estimate itself is in tests/oracles.py).
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
    terms_used: int
    tail_bound: mpmath.mpf  # on the omitted tail of value


def almkvist_series(x, gamma, ctx: PrecisionContext) -> AlmkvistEval:
    """A(x|gamma), A(x|gamma-1) and A(x|gamma-2) from one pass of the power
    series: with t_i = x^i / (i! Gamma((3 - gamma + i)/2)) they are
    (1/2) sum t_i, (1/2x) sum i t_i and (1/2x^2) sum i(i-1) t_i, all terms
    positive for gamma < 3."""
    with ctx.workdps():
        xv = mpmath.mpf(x)
        gv = mpmath.mpf(gamma)
        if xv < 0:
            raise ValueError("almkvist_series requires x >= 0")
        if gv >= 3:
            raise ValueError("almkvist_series requires gamma < 3")
        u_even = (3 - gv) / 2  # Gamma argument for even terms
        u_odd = 2 - gv / 2     # and for odd terms
        if xv == 0:
            r0 = mp.rgamma(u_even)
            return AlmkvistEval(value=r0 / 2, value_m1=mp.rgamma(u_odd) / 2,
                                value_m2=r0 / (3 - gv), terms_used=1,
                                tail_bound=mpmath.mpf(0))
        tol = mpmath.mpf(10) ** (-(ctx.decimal_digits + 10))
        x2 = xv * xv
        e = mp.rgamma(u_even)            # x^0 term
        o = xv * mp.rgamma(u_odd)        # x^1 term
        s0, s1, s2 = e + o, o, mpmath.mpf(0)  # sums of t_i, i t_i, i(i-1) t_i
        terms = 2
        j = 0
        prev = 0  # the weighted term of pair j = 0
        tail = mpmath.mpf(0)
        while True:
            scale_e = (2 * j + 1) * (2 * j + 2) * (u_even + j)
            scale_o = (2 * j + 2) * (2 * j + 3) * (u_odd + j)
            j += 1
            e = e * x2 / scale_e
            o = o * x2 / scale_o
            s0 += e + o
            de, do = 2 * j * e, (2 * j + 1) * o
            s1 += de + do
            w = (2 * j - 1) * de + 2 * j * do
            s2 += w
            terms += 2
            if w == 0:
                break
            # The stop rule watches the i(i-1)-weighted sum: its term ratio
            # bounds the plain and i-weighted ratios from above and, like
            # them, decreases in j, so once it drops below 1/2 all three
            # tails are geometrically bounded relative to their sums.
            if 2 * w < prev and w < tol * s2:
                ratio = w / prev
                tail = (e + o) * ratio / (1 - ratio)
                break
            prev = w
        return AlmkvistEval(value=s0 / 2, value_m1=s1 / (2 * xv),
                            value_m2=s2 / (2 * x2), terms_used=terms,
                            tail_bound=tail / 2)


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
