"""Precision contexts, fundamental constants, exact Bernoulli numbers and
polynomials, and the divisor-sum sieve shared by every other module.

All floating-point work runs through mpmath; a PrecisionContext fixes the
decimal working precision and every operation evaluates inside that context.
Bernoulli numbers are mpmath.bernfrac's exact rationals, and the polynomial
rows B_p(d/k) are evaluated from them exactly (fractions.Fraction), so the
series coefficients downstream have no float error source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import mp


class PrecisionError(ArithmeticError):
    """Raised when a result cannot be certified at the requested precision."""


# digits of the working precision given up to roundoff: eps is certified at
# decimal_digits - GUARD_DIGITS
GUARD_DIGITS = 20


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision in decimal digits."""

    decimal_digits: int

    def __post_init__(self) -> None:
        if self.decimal_digits < 30:
            raise ValueError("decimal_digits must be >= 30")

    def workdps(self):
        """Context manager setting mpmath's decimal precision."""
        return mp.workdps(self.decimal_digits)

    @property
    def eps(self):
        """Certified relative accuracy after giving up the guard digits."""
        with self.workdps():
            return mpmath.mpf(10) ** (GUARD_DIGITS - self.decimal_digits)


@dataclass(frozen=True)
class Constants:
    pi: mpmath.mpf
    a: mpmath.mpf
    zeta_prime_m1: mpmath.mpf
    log2: mpmath.mpf


@dataclass(frozen=True)
class DerivedConstants:
    c1: mpmath.mpf
    c2: mpmath.mpf


@lru_cache(maxsize=None)
def _constants_at(dps: int) -> Constants:
    with mp.workdps(dps + 10):
        pi = +mp.pi
        a = mp.zeta(3)
        zpm1 = mp.zeta(-1, derivative=1)
        log2 = mp.log(2)
    return Constants(pi=pi, a=a, zeta_prime_m1=zpm1, log2=log2)


def constants(ctx: PrecisionContext) -> Constants:
    """pi, a = zeta(3), zeta'(-1), log 2 at context precision."""
    return _constants_at(ctx.decimal_digits)


@lru_cache(maxsize=None)
def _derived_at(dps: int) -> DerivedConstants:
    cst = _constants_at(dps)
    with mp.workdps(dps + 10):
        third = mp.mpf(1) / 3
        c1 = (2 * cst.a) ** (mp.mpf(1) / 36) * mp.mpf(2) ** (-mp.mpf(1) / 4) * mp.exp(
            cst.zeta_prime_m1
        )
        c2 = 3 * mp.mpf(2) ** (-2 * third) * cst.a ** third
    return DerivedConstants(c1=c1, c2=c2)


def derived_constants(ctx: PrecisionContext) -> DerivedConstants:
    """c1 = (2a)^(1/36) 2^(-1/4) e^{zeta'(-1)} and c2 = 3 * 2^(-2/3) * a^(1/3)."""
    return _derived_at(ctx.decimal_digits)


# ---------------------------------------------------------------------------
# Bernoulli numbers and polynomials (exact rationals)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    """Exact B_n (convention B_1 = -1/2), from mpmath.bernfrac."""
    if n < 0:
        raise ValueError("Bernoulli order must be >= 0")
    p, q = mpmath.bernfrac(n)
    return Fraction(int(p), int(q))  # int(): plain ints under the gmpy2 backend


def bernoulli_poly(p: int, x) -> Fraction:
    """B_p(x) = sum_j C(p,j) B_j x^(p-j), exact, for 0 <= x <= 1."""
    if p < 0:
        raise ValueError("Bernoulli polynomial order must be >= 0")
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ValueError("bernoulli_poly expects 0 <= x <= 1")
    value = Fraction(0)
    for j in range(p + 1):
        value = value * x + math.comb(p, j) * bernoulli_number(j)
    return value


@lru_cache(maxsize=None)
def bernoulli_row(p: int, k: int) -> tuple[Fraction, ...]:
    """B_p(d/k) for d = 1..k."""
    return tuple(bernoulli_poly(p, Fraction(d, k)) for d in range(1, k + 1))


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


def precision_for(n: int) -> PrecisionContext:
    """Working precision sized from the leading exponential growth of p2(n)."""
    if n < 1:
        raise ValueError("precision_for requires n >= 1")
    with mp.workdps(30):
        a = mp.zeta(3)
        lead = 3 * a ** (mp.mpf(1) / 3) * (mp.mpf(n) / 2) ** (mp.mpf(2) / 3)
        digits = int(mp.ceil(lead / mp.log(10))) + 1 + 60
    return PrecisionContext(decimal_digits=digits)
