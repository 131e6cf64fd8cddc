import mpmath
import pytest
from mpmath import mp

import oracles
import planepart as pp


class TestSeries:
    def test_x0_single_term(self, ctx50):
        with ctx50.workdps():
            for gamma in ("0", "-0.25", "-5"):
                g = mpmath.mpf(gamma)
                got = pp.almkvist_series(0, g, ctx50).value
                expected = mp.rgamma((3 - g) / 2) / 2
                assert abs(got - expected) < ctx50.eps

    def test_domain(self, ctx50):
        with pytest.raises(ValueError):
            pp.almkvist_series(-1, 0, ctx50)
        with pytest.raises(ValueError):
            pp.almkvist_series(1, 3, ctx50)

    def test_tail_bound_honest(self, ctx50):
        # doubling precision does not move the value beyond the tail bound
        ctx_hi = pp.PrecisionContext(decimal_digits=100)
        ev = pp.almkvist_series(50, mpmath.mpf("-1") / 12, ctx50)
        ev_hi = pp.almkvist_series(50, mpmath.mpf("-1") / 12, ctx_hi)
        with ctx_hi.workdps():
            assert abs(ev.value - ev_hi.value) <= ev.tail_bound + abs(ev_hi.value) * ctx50.eps

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


class TestSaddle:
    def test_cubic_residual_on_grid(self, ctx50):
        with ctx50.workdps():
            tol = mpmath.mpf(10) ** (-(ctx50.decimal_digits - 10))
            for lam_s in ("0", "0.01", "0.05", "0.18", "0.5", "2"):
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
            for lam_s in ("0", "0.1", "0.18", "0.6"):
                lam = mpmath.mpf(lam_s)
                g_newton = pp.saddle_data(lam, ctx50).g
                g_rad = oracles.g_radical(lam, ctx50)
                assert abs(g_newton - g_rad) < mpmath.mpf(10) ** -40

    def test_domain(self, ctx50):
        with pytest.raises(ValueError):
            pp.saddle_data(-1, ctx50)


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
