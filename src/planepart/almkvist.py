"""The Almkvist special function A(x|gamma) and the saddle-point quantities.

A(x|gamma) = (1/2) sum_{k>=0} x^k / (k! Gamma((3 - gamma + k)/2)), the entire
solution of x y''' - (gamma - 3) y'' - 2 y = 0 singled out by the coefficient
extraction contour; it plays the role Bessel I_{3/2} plays for linear
partitions.  Its first two x-derivatives, A(x|gamma - 1) and A(x|gamma - 2),
weight the same terms by k/x and k(k-1)/x^2, so almkvist_series sums one
term sequence, in Python integers at the kernels' precision ctx.bits
(arith.GUARD_BITS above a multiple of 64 bits at least 8 bits above the
working precision), and returns all three at that precision.  An arc of
the estimate (circle.Arc) needs A(x | -k/12 - m) for m = 0, 1, 2, ...: it
seeds its ladder with almkvist_series, three consecutive values at once,
and runs the ODE's three-term recurrence downward for the rest.  The arc
passes gamma as the exact rational -k/12 - top, so each step of the sum
divides by a machine-sized integer, and the series' two 1/Gamma seeds,
which depend on (k, top) and not on x, are kept at ctx.bits across arcs
and n.
saddle_data solves the saddle cubic for g once and returns everything the
truncation-point formulas downstream read from it: f1, f1', f1'', f2 and c
(the large-x estimate itself is in tests/oracles.py).  It is the one owner
of the cubic, and each quantity has one expression, evaluated in the number
type arith.number_type chooses: mpfs at a context's working precision, or,
without a context, the float mode, Python floats.  The float mode is all an
arc's truncation gate and cap need (circle.mstar_theory), so the estimate
solves the cubic once per summed arc and never at an mpmath precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import mp
from mpmath.libmp import from_int, mpf_div, mpf_mul

from .arith import PrecisionContext, constants, number_type


@dataclass(frozen=True)
class AlmkvistEval:
    value: mpmath.mpf     # A(x|gamma)
    value_m1: mpmath.mpf  # A(x|gamma - 1) = d/dx A(x|gamma)
    value_m2: mpmath.mpf  # A(x|gamma - 2) = d^2/dx^2 A(x|gamma)
    terms_used: int       # terms T_j the two chains summed (0 at x = 0)


def _exact(gamma) -> Fraction:
    """gamma as an exact rational: an int or a Fraction as it is, anything
    else as the dyadic rational its mpf at the current precision is."""
    if isinstance(gamma, (int, Fraction)):
        return Fraction(gamma)
    sign, man, exp, _ = mpmath.mpf(gamma)._mpf_
    q = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    return -q if sign else q


@lru_cache(maxsize=None)
def _rgamma(v: Fraction, bits: int) -> mpmath.mpf:
    """1/Gamma(v) for v > 0 at `bits` bits (a context's bits).

    With v = f + n, 0 < f <= 1 and f = p/q, 1/Gamma(v) = 1/Gamma(f) q^n /
    prod_{i<n} (p + i q): one exact integer ratio and one rounding on top of
    the cached 1/Gamma(f).  So mpmath evaluates 1/Gamma only at the few
    fractional parts f an estimate meets (an arc's u is a multiple of 1/24).
    It does so at 16 bits more than `bits` and at f + N, N = max(100,
    bits // 4 + 32), from f + N rounded to 64 bits more than `bits`, which
    its gamma reads in full; the exact ratio prod_{i<N} (p + i q) / q^N takes
    the value back to f, rounded once to `bits`.  Below max(100, wp / 5)
    (wp: its working precision, a few dozen bits above `bits`) mpmath's
    gamma sums a Taylor series whose coefficient table it rebuilds at every
    precision; from there on it takes Stirling's series, which needs no
    table."""
    n = math.ceil(v) - 1
    p, q = v.numerator - n * v.denominator, v.denominator
    if n:
        num = mpf_mul(_rgamma(Fraction(p, q), bits)._mpf_, from_int(q ** n))
        return mp.make_mpf(mpf_div(num, from_int(math.prod(range(p, p + n * q, q))), bits, "n"))
    N = max(100, bits // 4 + 32)
    with mp.workprec(bits + 64):
        arg = mpmath.mpf(p + N * q) / q
    with mp.workprec(bits + 16):
        num = mpf_mul(mp.rgamma(arg)._mpf_, from_int(math.prod(range(p, p + N * q, q))))
    return mp.make_mpf(mpf_div(num, from_int(q ** N), bits, "n"))


def _chain(t, e, j, num, shift, P, Q, wp):
    """Sums of T_j, j T_j and j (j - 1) T_j over one parity class of j,
    from T_j = t 2^e on: T_{j+2} = T_j num 2^-shift / ((j + 1)(j + 2)(P + jQ)),
    one floor of the exact quotient.  Every T is positive, so the sums are
    plain integers over the common exponent e, which rises whenever t
    outgrows wp bits; the chain ends when T drops below 2^e.  Returns the
    three sums, e and the number of terms."""
    s0 = s1 = s2 = terms = 0
    while t:
        s0 += t
        s1 += j * t
        s2 += j * (j - 1) * t
        terms += 1
        t = (t * num >> shift) // ((j + 1) * (j + 2) * (P + j * Q))
        j += 2
        excess = t.bit_length() - wp
        if excess > 32:
            t, s0, s1, s2, e = t >> excess, s0 >> excess, s1 >> excess, s2 >> excess, e + excess
    return s0, s1, s2, e, terms


def almkvist_series(x, gamma, ctx: PrecisionContext) -> AlmkvistEval:
    """A(x|gamma), A(x|gamma-1) and A(x|gamma-2) from one term sequence.

    gamma is taken as an exact rational: an int, a Fraction (circle.Arc
    passes -k/12 - top) or an mpf, which is the dyadic rational it holds.
    With u = (3 - gamma)/2 and T_j = x^j / (j! Gamma(u + j/2)),
    A(x|gamma) = (1/2) sum T_j, A(x|gamma-1) = (1/2x) sum j T_j and
    A(x|gamma-2) = (1/2x^2) sum j (j-1) T_j.  The even and odd j run as two
    chains from 1/Gamma(u) and x/Gamma(u + 1/2), in Python integers of
    ctx.bits bits; x is read at ctx.bits too (circle.Arc passes it at that
    precision), and the three values are rounded to ctx.bits, not to the
    working precision, so circle.Arc seeds its ladder with all of their
    bits.  With 2u = P/Q in lowest terms,
    T_{j+2} = T_j 2x^2 Q / ((j+1)(j+2)(P + jQ)): the divisor is exact, and
    for an arc's Q = 12 it is machine-sized.  The two 1/Gamma values
    depend on u alone, so they are cached by (exact argument, ctx.bits).
    For gamma < 3 every term is positive, so nothing cancels."""
    wp = ctx.bits
    with mp.workprec(wp):
        xv = mpmath.mpf(x)
        if xv < 0:
            raise ValueError("almkvist_series requires x >= 0")
        w = 3 - _exact(gamma)  # 2u = P/Q
        if w <= 0:
            raise ValueError("almkvist_series requires gamma < 3")
        P, Q = w.numerator, w.denominator
        r0, r1 = _rgamma(w / 2, wp), _rgamma((w + 1) / 2, wp)
        if not xv:
            return AlmkvistEval(r0 / 2, r1 / 2, r0 * Q / P, terms_used=0)
        x2 = 2 * xv * xv
        starts = (+r0, xv * r1)
        # x2 = man 2^exp: num 2^-shift
        num, shift = x2.man * Q << max(x2.exp, 0), max(-x2.exp, 0)
        sums = []
        for j, start in enumerate(starts):
            lead = wp - start.bc  # the first term gets wp bits
            sums.append(_chain(start.man << lead, start.exp - lead, j, num, shift, P, Q, wp))
        e = min(sums[0][3], sums[1][3])
        s0, s1, s2 = (sum(c[i] << (c[3] - e) for c in sums) for i in range(3))
        return AlmkvistEval(mpmath.mpf((s0, e - 1)), mpmath.mpf((s1, e - 1)) / xv,
                            mpmath.mpf((s2, e)) / x2, terms_used=sums[0][4] + sums[1][4])


@dataclass(frozen=True)
class SaddleData:  # mpfs at a context's precision, or floats
    g: mpmath.mpf | float
    f1: mpmath.mpf | float
    f1p: mpmath.mpf | float
    f1pp: mpmath.mpf | float
    f2: mpmath.mpf | float
    c: mpmath.mpf | float


def _g_of_lambda(lam, digits: int):
    """Positive root of g^3 + 3 lam g^2 = 1 (the g(0) = 1 branch), by Newton
    in lam's number type (arith.number_type) from g = 1 until the step is
    at most 10^-digits of g, the digits the type holds: 10^-15 for floats,
    10^-dps for mpfs at dps digits."""
    # G(1) = 3 lam >= 0 and G is increasing/convex for g > 0, so Newton from
    # g = 1 falls monotonically onto the root
    g = lam ** 0  # 1 in lam's number type
    tol = g / 10 ** digits
    for _ in range(200):
        step = (g * g * (g + 3 * lam) - 1) / (3 * g * (g + 2 * lam))
        if not step > tol * g:
            break
        g -= step
    return g


def saddle_data(lam, ctx: PrecisionContext | None = None) -> SaddleData:
    """g, f1, f1', f1'', f2 and c at the saddle parameter lam >= 0.

    g is the positive root of g^3 + 3 lam g^2 = 1, and f1' = 2 log g, so the
    truncation scale c(lam) = 4 pi^2 e^(-f1'/2) / (2a)^(1/3) is
    4 pi^2 / (g (2a)^(1/3)).  Each field has one expression, read in the
    number type of arith.number_type(ctx): with ctx, an mpf at its working
    precision; without it, a Python float from math, with pi and a from
    constants() as floats.  g, f1'' and c then hold about 1e-15 relative;
    f1, f1' and f2, which vanish at lam = 0 and cancel near it, hold about
    1e-15 absolute (f1 is about -lam^2).  circle.mstar_theory reads this
    float solve for each arc's truncation gate and cap."""
    cst = constants(ctx)
    scope, one, lib, digits = number_type(ctx)
    with scope:
        lv = lam * one
        if lv < 0:
            raise ValueError("saddle_data requires lam >= 0")
        g = _g_of_lambda(lv, digits)
        logg = lib.log(g)
        f1 = (1 / (g * g) + 2 * g + 6 * lv * logg) / 3 - 1
        f1p = 2 * logg
        f1pp = -2 / (g + 2 * lv)
        f2 = g * g / lib.sqrt(1 - lv * g * g) - 1
        c = 4 * cst.pi**2 / (g * (2 * cst.a) ** (one / 3))
        return SaddleData(g=g, f1=f1, f1p=f1p, f1pp=f1pp, f2=f2, c=c)
