"""Precision contexts, fundamental constants, exact Bernoulli machinery, and
the divisor-sum sieve shared by every other module.

All floating-point work runs through mpmath; a PrecisionContext fixes the
decimal working precision and every operation evaluates inside that context.
Bernoulli numbers and polynomial rows are exact rationals (fractions.Fraction)
so the series coefficients downstream have no float error source.
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


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision in decimal digits plus guard digits beyond the target."""

    decimal_digits: int
    guard_digits: int = 20

    def __post_init__(self) -> None:
        if self.decimal_digits < 30:
            raise ValueError("decimal_digits must be >= 30")
        if self.guard_digits < 0:
            raise ValueError("guard_digits must be >= 0")

    def workdps(self):
        """Context manager setting mpmath's decimal precision."""
        return mp.workdps(self.decimal_digits)

    @property
    def eps(self):
        """Certified relative accuracy after giving up the guard digits."""
        with self.workdps():
            return mpmath.mpf(10) ** (self.guard_digits - self.decimal_digits)


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

def _tangent_numbers(nmax: int) -> list[int]:
    """Tangent numbers T_1..T_nmax (integer triangle recurrence)."""
    t = [0] * (nmax + 1)
    if nmax >= 1:
        t[1] = 1
    for k in range(2, nmax + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, nmax + 1):
        for j in range(k, nmax + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


class BernoulliCache:
    """Exact rational B_n (convention B_1 = -1/2) and rows B_p(d/k), d = 1..k."""

    def __init__(self) -> None:
        self.numbers: dict[int, Fraction] = {0: Fraction(1), 1: Fraction(-1, 2)}
        self.poly_rows: dict[tuple[int, int], tuple[Fraction, ...]] = {}
        self._tan: list[int] = [0]

    def _ensure_even(self, n: int) -> None:
        half = n // 2
        if half < len(self._tan):
            return
        grow = max(half, 2 * (len(self._tan) - 1), 512)
        self._tan = _tangent_numbers(grow)
        for m in range(1, grow + 1):
            four_m = 1 << (2 * m)
            b = Fraction((-1) ** (m - 1) * 2 * m * self._tan[m], four_m * (four_m - 1))
            self.numbers[2 * m] = b

    def number(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("Bernoulli order must be >= 0")
        if n in self.numbers:
            return self.numbers[n]
        if n % 2 == 1:
            self.numbers[n] = Fraction(0)
            return self.numbers[n]
        self._ensure_even(n)
        return self.numbers[n]

    def poly(self, p: int, x: Fraction) -> Fraction:
        """B_p(x) = sum_j C(p,j) B_j x^(p-j), exact."""
        if p < 0:
            raise ValueError("Bernoulli polynomial order must be >= 0")
        x = Fraction(x)
        value = Fraction(0)
        for j in range(p + 1):
            value = value * x + math.comb(p, j) * self.number(j)
        return value

    def poly_row(self, p: int, k: int) -> tuple[Fraction, ...]:
        key = (p, k)
        row = self.poly_rows.get(key)
        if row is None:
            row = tuple(self.poly(p, Fraction(d, k)) for d in range(1, k + 1))
            self.poly_rows[key] = row
        return row


BERNOULLI = BernoulliCache()


def bernoulli_number(n: int) -> Fraction:
    return BERNOULLI.number(n)


def bernoulli_poly(p: int, x) -> Fraction:
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ValueError("bernoulli_poly expects 0 <= x <= 1")
    return BERNOULLI.poly(p, x)


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
    return PrecisionContext(decimal_digits=digits, guard_digits=20)
