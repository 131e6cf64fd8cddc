import math
import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

import oracles
import planepart as pp
from planepart import dedekind


def direct_c_hk(h, k, dps=50):
    """Independent direct evaluation of C_{h,k} from its definition."""
    with mp.workdps(dps):
        acc = mpmath.mpf(0)
        for j in range(1, k):
            b2 = pp.bernoulli_poly(2, Fraction(j, k))
            acc += (mpmath.mpf(b2.numerator) / b2.denominator
                    * mp.log(abs(2 * mp.sin(mp.pi * j * h / k))))
        return acc * k / 2


def direct_b_hk(h, k, dps=50):
    with mp.workdps(dps):
        acc = mpmath.mpf(0)
        for j in range(1, k):
            frac = mpmath.mpf((h * j) % k) / k
            acc += frac * (1 - frac) * mp.log(abs(2 * mp.sin(mp.pi * j / k)))
        return acc


class TestChk:
    def test_k1_empty(self, ctx50):
        assert pp.c_hk(0, 1, ctx50) == 0

    def test_hand_value_12(self, ctx50):
        with ctx50.workdps():
            assert abs(pp.c_hk(1, 2, ctx50) + mp.log(2) / 12) < ctx50.eps

    def test_direct_sum_oracle(self, ctx50):
        with ctx50.workdps():
            for h, k in [(1, 5), (2, 5), (3, 7), (7, 100), (13, 31)]:
                assert abs(pp.c_hk(h, k, ctx50) - direct_c_hk(h, k)) < mpmath.mpf(10) ** -40

    def test_rejects_non_coprime(self, ctx50):
        with pytest.raises(ValueError):
            pp.c_hk(2, 4, ctx50)


class TestBhk:
    def test_hand_value_12(self, ctx50):
        with ctx50.workdps():
            assert abs(pp.b_hk(1, 2, ctx50) - mp.log(2) / 4) < ctx50.eps

    def test_direct_sum_oracle(self, ctx50):
        with ctx50.workdps():
            for h, k in [(1, 5), (3, 7), (9, 20), (13, 31)]:
                assert abs(pp.b_hk(h, k, ctx50) - direct_b_hk(h, k)) < mpmath.mpf(10) ** -40

    def test_symmetry(self, ctx50):
        with ctx50.workdps():
            for h, k in [(1, 7), (2, 9), (5, 12)]:
                assert abs(pp.b_hk(h, k, ctx50) - pp.b_hk(k - h, k, ctx50)) < mpmath.mpf(10) ** -40


class TestRademacherGrosswaldIdentity:
    def test_logsin_sum_is_log_k(self):
        # sum_{j=1}^{k-1} log|2 sin(j pi / k)| = log k
        ctx = pp.PrecisionContext(decimal_digits=60)
        with ctx.workdps():
            for k in range(2, 201):
                s = mp.fsum(mp.log(2 * mp.sin(mp.pi * j / k)) for j in range(1, k))
                assert abs(s - mp.log(k)) < mpmath.mpf(10) ** -40, k


class TestChkBhkRelation:
    def test_inverse_relation(self, ctx50):
        # C_{h',k} = (k/12) log k - (k/2) b_{h,k} with h h' = 1 mod k
        rng = random.Random(7)
        pairs = set()
        while len(pairs) < 100:
            k = rng.randint(2, 150)
            h = rng.randint(1, k - 1)
            if math.gcd(h, k) == 1:
                pairs.add((h, k))
        with ctx50.workdps():
            for h, k in sorted(pairs):
                hp = pow(h, -1, k)
                lhs = pp.c_hk(hp, k, ctx50)
                rhs = k * mp.log(k) / 12 - k * pp.b_hk(h, k, ctx50) / 2
                assert abs(lhs - rhs) < mpmath.mpf(10) ** -30, (h, k)


class TestRowCaches:
    def test_bounded_across_precisions(self):
        # a long-lived process may run estimates at many precisions
        for prec in range(100, 400):
            dedekind._logsin_row(3, prec)
            dedekind._roots_row(3, prec)
        for row in (dedekind._logsin_row, dedekind._roots_row):
            assert row.cache_info().currsize <= 256


class TestV1:
    def test_trivial(self, ctx50):
        assert pp.v1_hk(0, 1, ctx50) == 0
        assert pp.v1_hk(1, 2, ctx50) == 0

    def test_hand_value_13(self, ctx50):
        with ctx50.workdps():
            expected = mpmath.mpc(0, 1) / (9 * mp.sqrt(3))
            assert abs(pp.v1_hk(1, 3, ctx50) - expected) < ctx50.eps

    def test_purely_imaginary_and_conjugate(self, ctx50):
        with ctx50.workdps():
            for h, k in [(1, 5), (2, 7), (3, 11)]:
                v = pp.v1_hk(h, k, ctx50)
                assert v.real == 0
                vc = pp.v1_hk(k - h, k, ctx50)
                assert abs(v + vc) < mpmath.mpf(10) ** -40


class TestVp:
    def test_trivial_zero(self, ctx50):
        assert pp.vp_hk(3, 0, 1, ctx50) == 0

    def test_hand_value_p2_k1(self, ctx50):
        with ctx50.workdps():
            assert abs(pp.vp_hk(2, 0, 1, ctx50) + mpmath.mpf(1) / 2880) < ctx50.eps
        assert dedekind.vp_rational(2, 0, 1) == Fraction(-1, 2880)

    def test_double_sum_vs_cot_form(self, ctx50):
        with ctx50.workdps():
            for k in range(2, 8):
                for h in range(1, k):
                    if math.gcd(h, k) != 1:
                        continue
                    for p in range(2, 9):
                        a = pp.vp_hk(p, h, k, ctx50)
                        b = oracles.vp_hk_cot(p, h, k, ctx50)
                        scale = max(abs(a), abs(b), mpmath.mpf(10) ** -25)
                        assert abs(a - b) / scale < mpmath.mpf(10) ** -25, (p, h, k)

    def test_rational_route_matches_complex_route(self, ctx50):
        with ctx50.workdps():
            for p in (2, 4, 6):
                q = dedekind.vp_rational(p, 1, 2)
                v = pp.vp_hk(p, 1, 2, ctx50)
                assert abs(v - mpmath.mpf(q.numerator) / q.denominator) < ctx50.eps


class TestBCoeffs:
    def test_b0_is_one(self, ctx50):
        for h, k in [(0, 1), (1, 2), (2, 5)]:
            gen = dedekind.CoeffGenerator(h, k, ctx50)
            gen.extend_to(0)
            assert gen.b == [1]

    def test_recurrence_vs_partition_sum_oracle(self, ctx50):
        with ctx50.workdps():
            for h, k in [(1, 3), (1, 2), (2, 5)]:
                gen = dedekind.CoeffGenerator(h, k, ctx50)
                gen.extend_to(6)
                for m in range(7):
                    oracle = oracles.b_coeff_partition_sum(h, k, m, ctx50)
                    assert abs(mpmath.mpc(gen.b[m]) - oracle) < mpmath.mpf(10) ** -35, (h, k, m)

    def test_odd_orders_vanish_for_k_le_2(self, ctx50):
        for h, k in [(0, 1), (1, 2)]:
            gen = dedekind.CoeffGenerator(h, k, ctx50)
            gen.extend_to(9)
            for m in range(1, 10, 2):
                assert gen.b[m] == 0


class TestB1kEstimate:
    def test_against_direct_sum(self, ctx50):
        with ctx50.workdps():
            for k in (100, 500, 1000):
                err = abs(oracles.b1k_estimate(k, ctx50) - pp.b_hk(1, k, ctx50))
                assert err < mpmath.mpf(10) / k**2, k

    def test_leading_term_magnitude(self, ctx50):
        cst = pp.constants(ctx50)
        with ctx50.workdps():
            lead = cst.a * 10**4 / (2 * cst.pi**2)
            assert abs(lead - mpmath.mpf("608.9")) < mpmath.mpf("0.1")


class TestReciprocity:
    def test_decay_at_h1(self, ctx50):
        with ctx50.workdps():
            res = [abs(pp.reciprocity_residual(1, k, ctx50)) for k in (97, 499, 997)]
            assert res[0] > res[1] > res[2]
            assert res[2] < mpmath.mpf(10) ** -4

    def test_symmetry(self, ctx50):
        with ctx50.workdps():
            for h, k in [(2, 7), (3, 10), (5, 13)]:
                a = pp.reciprocity_residual(h, k, ctx50)
                b = pp.reciprocity_residual(k - h, k, ctx50)
                assert abs(a - b) < mpmath.mpf(10) ** -35


class TestBoundSuite:
    def test_k35_all_true(self, ctx50):
        flags = dict(pp.bound_suite(1, 35, ctx50))
        assert all(v is True for v in flags.values()), flags

    def test_k2_guard(self, ctx50):
        flags = dict(pp.bound_suite(1, 2, ctx50))
        assert flags["chk_sandwich_k_gt_34"] is None
        assert flags["v1_bound"] is True
        assert flags["vp_bound_p2"] is True
        assert flags["vp_bound_p3"] is True
        assert flags["chk_two_sided"] is True

    def test_k100(self, ctx50):
        flags = dict(pp.bound_suite(3, 100, ctx50))
        assert all(v is True for v in flags.values()), flags


class TestBMin:
    def test_k2(self, ctx50):
        h, val = dedekind.b_min(2, ctx50)
        with ctx50.workdps():
            assert h == 1
            assert abs(val - mp.log(2) / 4) < ctx50.eps

    def test_symmetry_halved_scan_is_safe(self, ctx50):
        # full scan over all coprime h agrees with the half-range scan
        with ctx50.workdps():
            for k in (7, 12, 30):
                _, val = dedekind.b_min(k, ctx50)
                full = min(pp.b_hk(h, k, ctx50) for h in range(1, k)
                           if math.gcd(h, k) == 1)
                assert abs(val - full) < ctx50.eps

