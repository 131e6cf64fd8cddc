import math
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

import oracles
import planepart as pp
from planepart.arith import bernoulli_row


class TestPrecisionContext:
    def test_rejects_low_digits(self):
        with pytest.raises(ValueError):
            pp.PrecisionContext(decimal_digits=10)

    def test_eps(self):
        ctx = pp.PrecisionContext(decimal_digits=50)
        with ctx.workdps():
            assert ctx.eps == mpmath.mpf(10) ** -30

    def test_workdps_scopes_precision(self):
        ctx = pp.PrecisionContext(decimal_digits=120)
        outer = mp.dps
        with ctx.workdps():
            assert mp.dps == 120
        assert mp.dps == outer


class TestConstants:
    def test_zeta_prime_m1_against_euler_maclaurin_oracle(self, ctx50):
        oracle = oracles.em_zeta_prime_m1(50)
        got = pp.constants(ctx50).zeta_prime_m1
        with ctx50.workdps():
            assert abs(got - oracle) < mpmath.mpf(10) ** -45

    def test_a_is_zeta3(self, ctx50):
        cst = pp.constants(ctx50)
        with ctx50.workdps():
            # independent route: direct series with Euler-Maclaurin tail
            tail_start = 200
            s = mp.fsum(mpmath.mpf(1) / n**3 for n in range(1, tail_start))
            s += (mpmath.mpf(1) / (2 * tail_start**2)
                  + mpmath.mpf(1) / (2 * tail_start**3)
                  + mpmath.mpf(1) / (4 * tail_start**4))
            assert abs(cst.a - s) < mpmath.mpf(10) ** -10
            assert abs(mp.exp(cst.log2) - 2) < ctx50.eps

    def test_derived_constants(self, ctx50):
        cst = pp.constants(ctx50)
        der = pp.derived_constants(ctx50)
        with ctx50.workdps():
            # c2^3 = 27 a / 4 exactly to precision
            assert abs(der.c2**3 - 27 * cst.a / 4) < ctx50.eps
            assert mp.nstr(der.c1, 6) == "0.730269"
            assert mp.nstr(der.c2, 6) == "2.00945"


class TestBernoulli:
    def test_first_values(self):
        assert pp.bernoulli_number(0) == 1
        assert pp.bernoulli_number(1) == Fraction(-1, 2)
        assert pp.bernoulli_number(2) == Fraction(1, 6)
        assert pp.bernoulli_number(12) == Fraction(-691, 2730)

    def test_against_recurrence_oracle(self):
        oracle = oracles.bernoulli_by_recurrence(64)
        for n in range(65):
            assert pp.bernoulli_number(n) == oracle[n]

    def test_against_mpmath_spot_checks(self):
        for n in (100, 500, 1000):
            p, q = mpmath.bernfrac(n)
            assert pp.bernoulli_number(n) == Fraction(p, q)

    def test_defining_sum_invariant(self):
        # sum_{j<=n} C(n+1,j) B_j = 0; exhaustive to 240, sampled beyond
        for n in list(range(1, 241)) + [500, 750, 1000]:
            acc = sum(math.comb(n + 1, j) * pp.bernoulli_number(j)
                      for j in range(n + 1))
            assert acc == 0, n

    def test_poly_values(self):
        assert pp.bernoulli_poly(2, 0) == Fraction(1, 6)
        assert pp.bernoulli_poly(3, Fraction(1, 3)) == Fraction(1, 27)
        assert pp.bernoulli_poly(2, Fraction(1, 2)) == Fraction(-1, 12)

    def test_poly_row_matches_poly(self):
        row = bernoulli_row(3, 7)
        assert row == tuple(pp.bernoulli_poly(3, Fraction(d, 7))
                            for d in range(1, 8))

    def test_poly_domain(self):
        with pytest.raises(ValueError):
            pp.bernoulli_poly(2, Fraction(3, 2))


class TestSigma2:
    def test_values(self):
        tab = pp.sigma2_table(12)
        assert tab[1] == 1
        assert tab[6] == 50
        assert tab[12] == 210

    def test_against_enumeration(self):
        tab = pp.sigma2_table(199)
        for n in range(1, 200):
            assert tab[n] == oracles.sigma2_by_enumeration(n)

    def test_table_matches_pointwise(self):
        tab = pp.sigma2_table(300)
        for n in range(1, 301):
            assert tab[n] == oracles.sigma2_by_enumeration(n)


class TestPrecisionFor:
    def test_spec_points(self):
        assert pp.precision_for(1).decimal_digits == 62
        assert pp.precision_for(750).decimal_digits >= 130
        d6999 = pp.precision_for(6999).decimal_digits
        assert 370 <= d6999 <= 390
        assert d6999 >= 316 + 60

    def test_covers_exact_digit_count(self):
        # enough digits to hold p2(n) exactly plus guard
        table = pp.p2_exact_table(400)
        for n in (50, 200, 400):
            assert pp.precision_for(n).decimal_digits >= len(str(table[n])) + 30
