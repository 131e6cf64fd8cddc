"""Precision contexts, fundamental constants, exact Bernoulli numbers and
integer Bernoulli polynomial rows, the sigma2 divisor sieve of the exact
recurrence, and the working precision of an estimate.

All floating-point work runs through mpmath; a PrecisionContext fixes the
decimal working precision and every operation evaluates inside that context.
Bernoulli numbers are mpmath.bernfrac's exact rationals, and the polynomial
rows B_p(d/k) are evaluated from them exactly, as integers over one common
denominator per row (bernoulli_int_row), so the series coefficients
downstream have no float error source.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import astuple, dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import mpmath
from mpmath import mp


class PrecisionError(ArithmeticError):
    """Raised when a result cannot be certified at the requested precision."""


# digits of the working precision given up to roundoff: eps is certified at
# decimal_digits - GUARD_DIGITS
GUARD_DIGITS = 20
# bits every integer kernel carries above a multiple of 64 bits at least 8
# bits above the working precision (PrecisionContext.bits): the rows, the
# 1/Gamma seeds, the constants, the Almkvist chains, the ladder, the powers
# and the b^(m) recurrence
GUARD_BITS = 32


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision in decimal digits.

    The binary precision, the kernels' precision bits and eps are derived
    once per context, on first read; they are not fields, so they stay out
    of equality and hash, and a frozen context cannot have them set."""

    decimal_digits: int

    def __post_init__(self) -> None:
        if self.decimal_digits < 30:
            raise ValueError("decimal_digits must be >= 30")

    def workdps(self):
        """Context manager setting mpmath's decimal precision."""
        return mp.workdps(self.decimal_digits)

    @cached_property
    def prec(self) -> int:
        """The binary working precision, mp.prec inside workdps()."""
        return mpmath.libmp.dps_to_prec(self.decimal_digits)

    @cached_property
    def bits(self) -> int:
        """GUARD_BITS above the smallest multiple of 64 bits that is at
        least 8 bits above prec: the one precision of the integer kernels,
        of every input of an arc term and of every table kept across calls
        (the Almkvist seeds' 1/Gamma values, dedekind's trig and log-sine
        rows, Glaisher's constant).

        The Almkvist seeds and dedekind's rows are built at, and keyed by,
        bits, so the nearby precisions of many estimates share one table,
        and which table a value comes from is set by the precision asked
        for, not by what ran before.  constants, derived_constants and
        circle.lambda_c are cached by the context itself: each holds values
        at bits (lambda_c at the working precision), and a context is equal
        to another of the same decimal_digits.  An arc's integer state
        depends on the precision through bits alone; each of its terms is
        rounded to prec once, at the end."""
        return (self.prec + 8 + 63) // 64 * 64 + GUARD_BITS

    @cached_property
    def eps(self):
        """Certified relative accuracy after giving up the guard digits."""
        with self.workdps():
            return mpmath.mpf(10) ** (GUARD_DIGITS - self.decimal_digits)


@dataclass(frozen=True)
class Constants:  # mpfs at a context's bits, or floats
    pi: mpmath.mpf | float
    a: mpmath.mpf | float
    zeta_prime_m1: mpmath.mpf | float
    log2: mpmath.mpf | float


@dataclass(frozen=True)
class DerivedConstants:
    c1: mpmath.mpf | float
    c2: mpmath.mpf | float


@lru_cache(maxsize=None)
def constants(ctx: PrecisionContext | None = None) -> Constants:
    """pi, a = zeta(3) (Apery's constant), zeta'(-1) = 1/12 - log A (A is
    Glaisher's constant) and log 2 at the kernels' precision ctx.bits;
    without ctx, the same constants at 30 digits rounded to Python floats.

    mpmath keeps a constant at the highest precision it has computed and
    recomputes it for any higher one, which for A is costly; ctx.bits is a
    multiple of 64 plus GUARD_BITS, so the estimates of nearby precisions
    share one evaluation."""
    if ctx is None:
        return Constants(*map(float, astuple(constants(PrecisionContext(30)))))
    with mp.workprec(ctx.bits):
        pi = +mp.pi
        a = +mp.apery
        zpm1 = mp.mpf(1) / 12 - mp.log(mp.glaisher)
        log2 = mp.log(2)
    return Constants(pi=pi, a=a, zeta_prime_m1=zpm1, log2=log2)


@lru_cache(maxsize=None)
def derived_constants(ctx: PrecisionContext | None = None) -> DerivedConstants:
    """c1 = (2a)^(1/36) 2^(-1/4) e^{zeta'(-1)} and c2 = 3 * 2^(-2/3) * a^(1/3);
    without ctx, as Python floats (see constants)."""
    if ctx is None:
        return DerivedConstants(*map(float, astuple(derived_constants(PrecisionContext(30)))))
    cst = constants(ctx)
    with mp.workprec(ctx.bits):
        third = mp.mpf(1) / 3
        c1 = (2 * cst.a) ** (mp.mpf(1) / 36) * mp.mpf(2) ** (-mp.mpf(1) / 4) * mp.exp(
            cst.zeta_prime_m1
        )
        c2 = 3 * mp.mpf(2) ** (-2 * third) * cst.a ** third
    return DerivedConstants(c1=c1, c2=c2)


def number_type(ctx: PrecisionContext | None = None):
    """(scope, one, lib, digits): the precision scope, the unit 1, the module
    of elementary functions the saddle quantities are evaluated in, and the
    decimal digits the type holds.  With ctx, mpfs at its working precision
    and mpmath, in ctx's scope; without it, Python floats and math, which
    need no scope and hold 15 digits, as constants() and derived_constants()
    give floats without a context.  This is the one place that chooses
    between floats and mpmath."""
    if ctx:
        return ctx.workdps(), mpmath.mpf(1), mp, ctx.decimal_digits
    return nullcontext(), 1.0, math, 15


# ---------------------------------------------------------------------------
# Bernoulli numbers and polynomial rows (exact)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    """Exact B_n (convention B_1 = -1/2), from mpmath.bernfrac."""
    if n < 0:
        raise ValueError("Bernoulli order must be >= 0")
    p, q = mpmath.bernfrac(n)
    return Fraction(int(p), int(q))  # int(): plain ints under the gmpy2 backend


@lru_cache(maxsize=None)
def bernoulli_int_row(p: int, k: int) -> tuple[int, tuple[int, ...]]:
    """(D, (N_1, ..., N_k)) with B_p(d/k) = N_d / D, one common denominator.

    For k >= 3, D = L k^p with L a common denominator of B_0..B_p, and
    L k^p B_p(d/k) = sum_j C(p,j) L B_j k^j d^(p-j) is one integer Horner
    loop for each d <= k/2; B_p(1 - x) = (-1)^p B_p(x) gives the rest of the
    row, d = k included (from d = 0).  For k <= 2 no row is evaluated:
    B_p(1) = (-1)^p B_p and B_p(1/2) = (2^(1-p) - 1) B_p, which spares arc 1
    of p2(6999) seconds of Horner loops up to p = 882."""
    sign = -1 if p % 2 else 1
    if k <= 2:
        b = bernoulli_number(p)
        if k == 1:
            return b.denominator, (sign * b.numerator,)
        return b.denominator << p, ((2 - (1 << p)) * b.numerator,
                                    sign * b.numerator << p)
    L = math.lcm(2, *(bernoulli_number(j).denominator for j in range(0, p + 1, 2)))
    coeffs = []  # C(p,j) L B_j k^j
    binom, kj = 1, 1
    for j in range(p + 1):
        b = bernoulli_number(j)
        coeffs.append(binom * kj * (L // b.denominator * b.numerator) if b else 0)
        binom = binom * (p - j) // (j + 1)
        kj *= k
    half = [coeffs[-1]]
    for d in range(1, k // 2 + 1):
        acc = 0
        for c in coeffs:
            acc = acc * d + c
        half.append(acc)
    row = tuple(half[d] if 2 * d <= k else sign * half[k - d] for d in range(1, k + 1))
    return L * k**p, row


# ---------------------------------------------------------------------------
# Divisor sums and the working precision
# ---------------------------------------------------------------------------

def sigma2_table(N: int) -> list[int]:
    """sigma2(n) for n = 0..N by a divisor sieve (entry 0 unused, set to 0)."""
    tab = [0] * (N + 1)
    for d in range(1, N + 1):
        dd = d * d
        for m in range(d, N + 1, d):
            tab[m] += dd
    return tab


def precision_for(n: int, digits: int | None = None) -> PrecisionContext:
    """The working precision for p2(n): `digits` decimal digits when given,
    else sized from the leading exponential growth of p2(n)."""
    if n < 1:
        raise ValueError("precision_for requires n >= 1")
    if digits is not None:
        return PrecisionContext(decimal_digits=digits)
    with mp.workdps(30):
        a = +mp.apery
        lead = 3 * a ** (mp.mpf(1) / 3) * (mp.mpf(n) / 2) ** (mp.mpf(2) / 3)
        digits = int(mp.ceil(lead / mp.log(10))) + 1 + 60
    return PrecisionContext(decimal_digits=digits)
