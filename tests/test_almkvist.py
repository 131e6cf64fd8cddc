from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

import oracles
import planepart as pp
from planepart import circle
from planepart.arith import GUARD_BITS


class TestSeries:
    def test_x0_single_term(self, ctx50):
        with ctx50.workdps():
            for gamma in ("0", "-0.25", "-5"):
                g = mpmath.mpf(gamma)
                got = pp.almkvist_series(0, g, ctx50).value
                expected = mp.rgamma((3 - g) / 2) / 2
                assert abs(got - expected) < ctx50.eps

    def test_x0_seeds_of_every_arc_residue(self):
        # 1/Gamma(u) at u = (3 - gamma)/2 for an arc's gamma = -k/12 - 32,
        # every residue of k mod 24 (u mod 1 runs over the multiples of
        # 1/24), at the precision of n = 6999
        ctx = pp.precision_for(6999)
        for k in range(1, 25):
            gamma = Fraction(-k, 12) - 32
            got = pp.almkvist_series(0, gamma, ctx).value
            with mp.workprec(ctx.prec + 64):
                want = mp.rgamma((3 - mpmath.mpf(gamma.numerator) / gamma.denominator) / 2) / 2
                assert abs(got / want - 1) <= ctx.eps, k

    @pytest.mark.parametrize("n", [750, 2000, 6999])
    def test_x0_seeds_within_one_unit_of_the_kernels(self, n):
        # the seeds come from 1/Gamma tables at the chains' ctx.bits, so
        # A(0 | gamma) = 1/(2 Gamma(u)) is within one unit of ctx.bits, for
        # every residue of k mod 24
        ctx = pp.precision_for(n)
        for k in range(1, 25):
            gamma = Fraction(-k, 12) - 32
            got = pp.almkvist_series(0, gamma, ctx).value
            with mp.workprec(ctx.bits + 64):
                want = mp.rgamma((3 - mpmath.mpf(gamma.numerator) / gamma.denominator) / 2) / 2
                unit = mpmath.ldexp(1, mpmath.frexp(want)[1] - ctx.bits)
                assert abs(got - want) <= unit, (n, k)

    def test_domain(self, ctx50):
        with pytest.raises(ValueError):
            pp.almkvist_series(-1, 0, ctx50)
        with pytest.raises(ValueError):
            pp.almkvist_series(1, 3, ctx50)

    def test_value_stable_under_precision_doubling(self, ctx50):
        ctx_hi = pp.PrecisionContext(decimal_digits=100)
        ev = pp.almkvist_series(50, mpmath.mpf("-1") / 12, ctx50)
        ev_hi = pp.almkvist_series(50, mpmath.mpf("-1") / 12, ctx_hi)
        with ctx_hi.workdps():
            assert abs(ev.value - ev_hi.value) <= abs(ev_hi.value) * ctx50.eps

    @pytest.mark.parametrize("n", [None, 6999])
    def test_three_values_match_power_series_oracle(self, ctx50, n):
        # None: four x at 50 digits; 6999: the x of arc 1 at p2(6999)'s precision
        if n is None:
            ctx, xs = ctx50, ("0", "0.5", "50", "1096")
        else:
            ctx = pp.precision_for(n)
            xs = (circle.Arc(n, 1, ctx).x,)
        with ctx.workdps():
            for x in xs:
                for gamma in (-mpmath.mpf(1) / 12, -mpmath.mpf(17) / 12 - 40,
                              -mpmath.mpf(1) / 12 - 899):
                    ev = pp.almkvist_series(x, gamma, ctx)
                    for got, shift in ((ev.value, 0), (ev.value_m1, 1), (ev.value_m2, 2)):
                        want = oracles.almkvist_power_series(x, gamma - shift, ctx)
                        assert abs(got / want - 1) <= ctx.eps, (x, gamma, shift)

    @pytest.mark.parametrize("n, k", [(750, 1), (750, 13), (6999, 1)])
    def test_exact_gamma_chain(self, n, k):
        # the arc's exact gamma = -k/12 - top against the power series
        # oracle and against the same call with gamma rounded to an mpf
        ctx = pp.precision_for(n)
        x = circle.Arc(n, k, ctx).x
        with ctx.workdps():
            for top in (32, 64, 880):
                gamma = -mpmath.mpf(k) / 12 - top
                exact = pp.almkvist_series(x, Fraction(-k, 12) - top, ctx)
                rounded = pp.almkvist_series(x, gamma, ctx)
                assert exact.terms_used == rounded.terms_used, top
                values = zip((exact.value, exact.value_m1, exact.value_m2),
                             (rounded.value, rounded.value_m1, rounded.value_m2))
                for shift, (got, other) in enumerate(values):
                    want = oracles.almkvist_power_series(x, gamma - shift, ctx)
                    assert abs(got / want - 1) <= ctx.eps, (top, shift)
                    assert abs(got / other - 1) <= ctx.eps, (top, shift)

    @pytest.mark.parametrize("digits", [50, 150, 400])
    def test_three_values_match_hyper_oracle(self, digits):
        ctx = pp.PrecisionContext(digits)
        with ctx.workdps():
            for x in ("0", "0.5", "50", "1100", "3300"):
                for gamma in (-mpmath.mpf(1) / 12, -mpmath.mpf(13) / 12 - 32, mpmath.mpf(5) / 2):
                    ev = pp.almkvist_series(mpmath.mpf(x), gamma, ctx)
                    want = oracles.almkvist_hyper(mpmath.mpf(x), gamma, ctx)
                    for got, w in zip((ev.value, ev.value_m1, ev.value_m2), want):
                        assert abs(got / w - 1) <= ctx.eps, (x, gamma)

    def test_terms_used_counts_the_summed_terms(self, ctx50):
        # each parity chain of T_j = x^j / (j! Gamma(u + j/2)) is summed in
        # integers of ctx.bits bits, scaled to its largest term within 33
        # bits, and ends at the first term that rounds to 0 there
        prec = mpmath.libmp.dps_to_prec(ctx50.decimal_digits)
        wp = (prec + 8 + 63) // 64 * 64 + GUARD_BITS
        for x, gamma in ((0.5, -mpmath.mpf(1) / 12), (50, -mpmath.mpf(1) / 12),
                         (1100, -mpmath.mpf(13) / 12 - 32)):
            u = (3 - gamma) / 2
            counts = []
            for drop in (wp, wp + 33):
                n = 0
                for parity in (0, 1):
                    peak = mpmath.mpf("-inf")
                    for j in range(parity, 4000, 2):
                        lt = (j * mp.log(x) - mp.loggamma(j + 1)
                              - mp.loggamma(u + mpmath.mpf(j) / 2)) / mp.log(2)
                        peak = max(peak, lt)
                        if lt < peak - drop:
                            break
                        n += 1
                counts.append(n)
            assert counts[0] <= pp.almkvist_series(x, gamma, ctx50).terms_used <= counts[1], x
        assert pp.almkvist_series(0, -1, ctx50).terms_used == 0

    def test_derivative_identity_by_central_differences(self, ctx50):
        # d/dx A(x|gamma) = A(x|gamma-1); central differences converge at
        # second order, so the error must shrink ~4x when h halves
        with ctx50.workdps():
            x = mpmath.mpf(3)
            gamma = mpmath.mpf("-1") / 12
            exact = pp.almkvist_series(x, gamma - 1, ctx50).value
            errs = []
            for hstep in (mpmath.mpf(1) / 64, mpmath.mpf(1) / 128):
                diff = (pp.almkvist_series(x + hstep, gamma, ctx50).value
                        - pp.almkvist_series(x - hstep, gamma, ctx50).value) / (2 * hstep)
                errs.append(abs(diff - exact))
            ratio = errs[0] / errs[1]
            assert 3.5 < ratio < 4.5


# lam from below arc 1's at n = 7100 (5.6e-5) up past arc 499's at n = 1
# (about 5.2e3): the working-precision Newton starts from g = 1 across it
WIDE_LAMBDAS = ("1e-6", "5.6e-5", "10", "1e3", "5e3")


class TestSaddle:
    def test_cubic_residual_on_grid(self, ctx50):
        with ctx50.workdps():
            tol = mpmath.mpf(10) ** (-(ctx50.decimal_digits - 10))
            for lam_s in ("0", "0.01", "0.05", "0.18", "0.5", "2", *WIDE_LAMBDAS):
                lam = mpmath.mpf(lam_s)
                sd = pp.saddle_data(lam, ctx50)
                assert abs(sd.g**3 + 3 * lam * sd.g**2 - 1) < tol

    def test_lambda_zero_values(self, ctx50):
        sd = pp.saddle_data(0, ctx50)
        with ctx50.workdps():
            assert abs(sd.g - 1) < ctx50.eps
            assert abs(sd.f1) < ctx50.eps
            assert abs(sd.f1p) < ctx50.eps
            assert abs(sd.f2) < ctx50.eps
            assert abs(sd.f1pp + 2) < mpmath.mpf(10) ** -10

    def test_printed_values_at_018(self, ctx50):
        sd = pp.saddle_data(mpmath.mpf("0.180"), ctx50)
        with ctx50.workdps():
            assert abs(sd.f1 - mpmath.mpf("-0.031")) < mpmath.mpf(10) ** -3
            assert abs(sd.f1p - mpmath.mpf("-0.329")) < mpmath.mpf(10) ** -3
            assert abs(1 + sd.f2 - mpmath.mpf("0.7719")) < mpmath.mpf(10) ** -4

    def test_radical_form_agrees(self, ctx50):
        with ctx50.workdps():
            for lam_s in ("0", "0.1", "0.18", "0.6", *WIDE_LAMBDAS):
                lam = mpmath.mpf(lam_s)
                g_newton = pp.saddle_data(lam, ctx50).g
                g_rad = oracles.g_radical(lam, ctx50)
                assert abs(g_newton - g_rad) < mpmath.mpf(10) ** -40

    def test_domain(self, ctx50):
        for ctx in (ctx50, None):
            with pytest.raises(ValueError, match="requires lam >= 0"):
                pp.saddle_data(-1, ctx)

    def test_float_solve_matches_50_digits(self, ctx50):
        # without a context every field is a float; g, f1'' and c lie within
        # 1e-12 relative of the 50-digit solve.  f1, f1' and f2 vanish at
        # lam = 0 and their forms cancel there (f1 is about -lam^2, from
        # terms of size 1), so they hold 1e-15 absolute, not relative: at
        # lam = 1e-5 the float f1 keeps six digits.  The paper's formulas add
        # them to 1 or exponentiate them.  The grid reaches down to the lam
        # of arc 1 at n = 7100 (5.6e-5) and below.
        with ctx50.workdps():
            for lam in (*(i / 100 for i in range(201)), 1e-6, 1e-5, 5.6e-5, 1e-4, 1e-3):
                got, want = pp.saddle_data(lam), pp.saddle_data(lam, ctx50)
                for name in ("g", "f1", "f1p", "f1pp", "f2", "c"):
                    x, y = getattr(got, name), getattr(want, name)
                    slack = 1e-15 if name in ("f1", "f1p", "f2") else 0
                    assert isinstance(x, float) and abs(x - y) <= 1e-12 * abs(y) + slack, (lam, name)


class TestSaddleEstimate:
    def test_gamma_zero_closed_form(self, ctx50):
        with ctx50.workdps():
            x = mpmath.mpf(500)
            got = oracles.almkvist_saddle(x, 0, ctx50)
            x23 = (x / 2) ** (mpmath.mpf(2) / 3)
            expected = (x / 2) ** (-mpmath.mpf(2) / 3) * mp.exp(3 * x23) / mp.sqrt(12 * mp.pi)
            assert abs(got / expected - 1) < ctx50.eps * 10

    def test_series_matches_saddle_at_750_scale(self, ctx50):
        cst = pp.constants(ctx50)
        ctx = pp.PrecisionContext(decimal_digits=150)
        with ctx.workdps():
            x = mp.sqrt(cst.a) * 750
            gamma = mpmath.mpf("-1") / 12
            series = pp.almkvist_series(x, gamma, ctx).value
            saddle = oracles.almkvist_saddle(x, gamma, ctx)
            f2 = pp.saddle_data(oracles.lambda_of(x, gamma, ctx), ctx).f2
            assert abs(series / saddle - 1) < 10 * abs(f2) + mpmath.mpf(10) ** -4

    def test_ratio_window_at_1e4(self, ctx50):
        ctx = pp.PrecisionContext(decimal_digits=400)
        with ctx.workdps():
            x = mpmath.mpf(10) ** 4
            gamma = mpmath.mpf("-1") / 12
            ratio = pp.almkvist_series(x, gamma, ctx).value / oracles.almkvist_saddle(x, gamma, ctx)
            assert mpmath.mpf("0.99") < ratio < mpmath.mpf("1.01")


class TestWright:
    def test_n1_finite_positive(self, ctx50):
        val = oracles.wright_leading(1, ctx50)
        assert val > 0 and mp.isfinite(val)

    def test_ratio_against_exact(self, exact_table_7000):
        ctx = pp.PrecisionContext(decimal_digits=400)
        with ctx.workdps():
            r750 = exact_table_7000[750] / oracles.wright_leading(750, ctx)
            assert mpmath.mpf("0.9") < r750 < mpmath.mpf("1.1")
            r500 = exact_table_7000[500] / oracles.wright_leading(500, ctx)
            r5000 = exact_table_7000[5000] / oracles.wright_leading(5000, ctx)
            assert abs(r5000 - 1) < abs(r500 - 1)
