import dataclasses
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from mpmath import mp

import oracles
import planepart as pp
from planepart.arith import GUARD_BITS, bernoulli_int_row


class TestPrecisionContext:
    def test_rejects_low_digits(self):
        with pytest.raises(ValueError):
            pp.PrecisionContext(decimal_digits=10)

    def test_eps(self):
        ctx = pp.PrecisionContext(decimal_digits=50)
        with ctx.workdps():
            assert ctx.eps == mpmath.mpf(10) ** -30

    def test_derived_precision_is_not_state(self):
        # prec, bits and eps are derived once per context and are no
        # fields: a context that has read them equals a fresh one with its
        # digits, hits constants' cache entry for it, and cannot have them set
        used = pp.PrecisionContext(decimal_digits=77)
        with used.workdps():
            assert used.prec == mp.prec
        assert used.bits == (used.prec + 8 + 63) // 64 * 64 + GUARD_BITS
        assert used.eps is used.eps
        with pytest.raises(dataclasses.FrozenInstanceError):
            used.prec = 1
        pp.constants(used)
        fresh = pp.PrecisionContext(decimal_digits=77)
        assert fresh == used and hash(fresh) == hash(used)
        hits = pp.constants.cache_info().hits
        assert pp.constants(fresh) is pp.constants(used)
        assert pp.constants.cache_info().hits == hits + 2

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

    def test_high_precision_against_oracles_in_one_process(self):
        # mpmath keeps apery and glaisher at the highest precision it has
        # computed and rounds later requests from it: a fresh process asks
        # for 60 digits, then p2(6999)'s precision, then 200 digits
        digits = (60, pp.precision_for(6999).decimal_digits, 200)
        script = ("import sys\nfrom mpmath import mp\nimport planepart as pp\n"
                  "for d in map(int, sys.argv[1:]):\n"
                  "    c = pp.constants(pp.PrecisionContext(d))\n"
                  "    print(mp.nstr(c.a, d + 10), mp.nstr(c.zeta_prime_m1, d + 10))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(pp.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", script, *map(str, digits)],
                             env=env, capture_output=True, text=True, check=True)
        lines = out.stdout.splitlines()
        assert len(lines) == len(digits)
        for d, line in zip(digits, lines):
            a, zpm1 = line.split()
            with mp.workdps(d + 10):
                tol = mpmath.mpf(10) ** -d
                assert abs(mpmath.mpf(a) - oracles.zeta3_apery_series(d)) < tol, d
                oracle = oracles.em_zeta_prime_m1(d, N=1000, J=120)
                assert abs(mpmath.mpf(zpm1) - oracle) < tol, d

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

    def test_integer_rows_match_fraction_horner_oracle(self):
        # the k <= 2 closed forms also at orders that arc 1 of p2(6999) reads
        cases = [(p, k) for p in range(31) for k in list(range(1, 16)) + [35]]
        cases += [(p, k) for p in (100, 501, 882) for k in (1, 2)]
        for p, k in cases:
            den, row = bernoulli_int_row(p, k)
            assert tuple(Fraction(num, den) for num in row) == tuple(
                oracles.bernoulli_poly_horner(p, Fraction(d, k))
                for d in range(1, k + 1)), (p, k)


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

    def test_given_digits(self):
        assert pp.precision_for(100, 45).decimal_digits == 45
        assert pp.precision_for(100) == pp.precision_for(100, None)

    def test_covers_exact_digit_count(self):
        # enough digits to hold p2(n) exactly plus guard
        table = pp.p2_exact_table(400)
        for n in (50, 200, 400):
            assert pp.precision_for(n).decimal_digits >= len(str(table[n])) + 30
