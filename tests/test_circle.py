import collections
import math

import mpmath
import pytest
from mpmath import mp

import oracles
import planepart as pp
from planepart import circle


class TestLambda:
    def test_value_750(self, ctx50):
        with ctx50.workdps():
            lam = circle.lambda_param(750, 1, ctx50)
            assert abs(lam - mpmath.mpf("2.5e-4")) < mpmath.mpf("2e-5")

    def test_k_squared_scaling(self, ctx50):
        with ctx50.workdps():
            for n, k in [(750, 1), (6491, 3)]:
                assert abs(circle.lambda_param(n, 2 * k, ctx50)
                           - 4 * circle.lambda_param(n, k, ctx50)) < ctx50.eps


class TestCAndD:
    def test_c_at_zero(self, ctx50):
        with ctx50.workdps():
            assert mp.nstr(circle.c_of_lambda(0, ctx50), 6) == "29.4696"

    def test_c_identity_via_g(self, ctx50):
        cst = pp.constants(ctx50)
        with ctx50.workdps():
            for lam_s in ("0.01", "0.1", "0.18"):
                lam = mpmath.mpf(lam_s)
                c = circle.c_of_lambda(lam, ctx50)
                g = pp.saddle_data(lam, ctx50).g
                ident = 4 * cst.pi**2 / ((2 * cst.a) ** (mpmath.mpf(1) / 3) * g)
                assert abs(c - ident) < mpmath.mpf(10) ** -40

    def test_lambda_c_and_d(self, ctx50):
        with ctx50.workdps():
            lam_c = circle.lambda_c(ctx50)
            assert abs(lam_c - mpmath.mpf("0.18012")) < mpmath.mpf("1e-4")
            assert abs(circle.d_of_lambda(lam_c, ctx50) - 1) < mpmath.mpf(10) ** -30
            # d decreasing
            d_lo = circle.d_of_lambda(mpmath.mpf("0.1"), ctx50)
            d_hi = circle.d_of_lambda(mpmath.mpf("0.25"), ctx50)
            assert d_lo > 1 > d_hi


class TestPsiPhi:
    def test_psi_phase_periodicity(self, ctx50):
        ctx = pp.precision_for(40)
        with ctx.workdps():
            for h, k in [(1, 5), (2, 7)]:
                a = oracles.psi_m(30, h, k, 0, ctx)
                b = oracles.psi_m(30 + k, h, k, 0, ctx)
                ratio = b / a
                assert abs(ratio.imag) < mpmath.mpf(10) ** -30
                assert ratio.real > 0

    def test_psi_conjugate_symmetry(self):
        ctx = pp.precision_for(40)
        with ctx.workdps():
            for m in range(4):
                a = oracles.psi_m(40, 1, 5, m, ctx)
                b = oracles.psi_m(40, 4, 5, m, ctx)
                assert abs(b - mp.conj(a)) < mpmath.mpf(10) ** -25

    def test_psi_domain(self, ctx50):
        with pytest.raises(ValueError):
            oracles.psi_m(10, 0, 3, 0, ctx50)
        with pytest.raises(ValueError):
            oracles.psi_m(10, 2, 4, 0, ctx50)

    def test_phi_real_and_matches_psi_sum(self):
        ctx = pp.precision_for(60)
        with ctx.workdps():
            for k in (3, 5):
                arc = circle.Arc(60, k, ctx)
                for m in range(3):
                    direct = sum(oracles.psi_m(60, h, k, m, ctx)
                                 for h in range(1, k) if math.gcd(h, k) == 1)
                    got = arc.term(m)
                    assert abs(direct.imag) < mpmath.mpf(10) ** -25
                    assert abs(got - direct.real) < mpmath.mpf(10) ** -25

    def test_phi_odd_m_zero_small_k(self, ctx50):
        ctx = pp.precision_for(50)
        assert circle.Arc(50, 1, ctx).term(3) == 0
        assert circle.Arc(50, 2, ctx).term(5) == 0


class TestMstar:
    def test_theory_7000(self):
        ctx = pp.precision_for(7000)
        with ctx.workdps():
            val = circle.mstar_theory(7000, 1, ctx)
            assert 770 < val < 790

    def test_theory_scales_inversely_with_k(self):
        ctx = pp.precision_for(7000)
        with ctx.workdps():
            m1 = circle.mstar_theory(7000, 1, ctx)
            m2 = circle.mstar_theory(7000, 2, ctx)
            assert abs(m2 / (m1 / 2) - 1) < mpmath.mpf("0.05")

    def test_numeric_6999_k1_signature(self, report_6999):
        b = report_6999.per_k[0]
        assert b.stop_reason == "minimum-found"
        assert 870 <= b.m_star_used <= 890
        seq = [t.abs_value for t in b.terms if t.abs_value > 0]
        # minimum is global and sits at the truncation point
        assert min(seq) == seq[-1]
        assert seq[0] > seq[-1]
        # first neglected term near the published measured truncation error
        with pp.precision_for(6999).workdps():
            ratio = b.trunc_error_est / mpmath.mpf("6.39e10")
            assert mpmath.mpf("0.5") < ratio < 20

    def test_numeric_6999_k2_trunc(self, report_6999):
        b = report_6999.per_k[1]
        with pp.precision_for(6999).workdps():
            ratio = b.trunc_error_est / mpmath.mpf("6438.01")
            assert mpmath.mpf("0.5") < ratio < 20

    def test_theory_numeric_consistency(self, mstar_7000_k1):
        # for n < ~6400 the superasymptotic minimum lies below both the
        # default m-floor and the default precision's noise floor, so the
        # minimum is probed with floor=0 at boosted precision
        hi = pp.PrecisionContext(decimal_digits=500)
        cases = [(n, hi, circle.mstar_numeric(circle.Arc(n, 1, hi), floor=0))
                 for n in (3000, 5000)]
        cases.append((7000, pp.precision_for(7000), mstar_7000_k1))
        for n, ctx, breakdown in cases:
            assert breakdown.stop_reason == "minimum-found"
            with ctx.workdps():
                ratio = breakdown.m_star_used / circle.mstar_theory(n, 1, ctx)
                assert mpmath.mpf("0.8") < ratio < mpmath.mpf("1.3"), n


class TestCutoff:
    def test_theory_7000_floors_to_45(self):
        ctx = pp.precision_for(7000)
        with ctx.workdps():
            val = circle.n_cutoff_theory(7000, 0, ctx=ctx)
            assert int(mp.floor(val)) == 45

    def test_numeric_750_in_window(self, report_750):
        assert 15 <= report_750.N_used + 1 <= 19

    def test_probe_envelope_decays_at_750(self):
        ctx = pp.precision_for(750)
        with ctx.workdps():
            probes = [circle.cutoff_probe(circle.Arc(750, k, ctx)) for k in range(2, 20)]
            win = [max(probes[i:i + 3]) for i in range(0, len(probes) - 2, 3)]
            assert all(a > b for a, b in zip(win, win[1:]))
            assert probes[-1] < mpmath.mpf("0.01")


class TestBounds:
    def test_sa_error_bound_6999_k1(self):
        # the published closed form is an upper bound for the measured
        # truncation error; at this n it is loose by ~11 orders of magnitude
        # (the saddle-point ratio carries O(1) exponent corrections)
        ctx = pp.precision_for(6999)
        with ctx.workdps():
            bound = circle.sa_error_bound(6999, 1, ctx)
            measured = mpmath.mpf("6.39e10")
            assert measured < bound < measured * mpmath.mpf("1e14")

    def test_sa_error_bound_domain(self, ctx50):
        with pytest.raises(ValueError):
            # lam > lam_c for huge k at small n
            circle.sa_error_bound(10, 50, ctx50)

    def test_minor_arc_type1_kappa_half(self, ctx50):
        with ctx50.workdps():
            bound = circle.minor_arc_bound(400, mpmath.mpf("0.5"), ctx50)
            assert abs(bound.type1 - mpmath.mpf(400) ** mpmath.mpf("-0.5")) < mpmath.mpf(10) ** -30

    def test_minor_arc_lambda0_guard(self, ctx50):
        with pytest.raises(ValueError):
            circle.minor_arc_bound(400, 0, ctx50, lambda0="0.1")

    def test_phi0_bound_contains_probe_750(self):
        ctx = pp.precision_for(750)
        with ctx.workdps():
            for k in range(1, 18):
                probe = circle.cutoff_probe(circle.Arc(750, k, ctx))
                assert probe <= circle.phi0_bound(750, k, ctx), k


class TestEstimate:
    def test_n1_round_trip(self):
        report = pp.p2_estimate(1, with_exact=True)
        assert report.rounded == report.exact == 1

    def test_n100_round_trip_and_reality(self):
        report = pp.p2_estimate(100, with_exact=True)
        assert report.rounded == report.exact
        for b in report.per_k:
            assert isinstance(b.phi_value, mpmath.mpf)

    def test_deterministic(self):
        a = pp.p2_estimate(100)
        b = pp.p2_estimate(100)
        assert mp.nstr(a.estimate, 50) == mp.nstr(b.estimate, 50)
        assert a.N_used == b.N_used
        assert [t.m_star_used for t in a.per_k] == [t.m_star_used for t in b.per_k]

    def test_theoretical_cutoff_path(self):
        report = pp.p2_estimate(100, kappa2=0, with_exact=True)
        assert report.rounded == report.exact

    def test_error_ledger_conservative_750(self, report_750):
        with pp.precision_for(750).workdps():
            assert abs(report_750.actual_error) <= 10 * report_750.estimated_error

    def test_error_ledger_conservative_6491(self, report_6491):
        with pp.precision_for(6491).workdps():
            assert abs(report_6491.actual_error) <= 10 * report_6491.estimated_error

    def test_phi0_bound_containment_6491(self, report_6491):
        ctx = pp.precision_for(6491)
        with ctx.workdps():
            for b in report_6491.per_k:
                phi0 = abs(b.terms[0].value)
                assert phi0 <= circle.phi0_bound(6491, b.k, ctx), b.k

    def test_domain(self):
        with pytest.raises(ValueError):
            pp.p2_estimate(0)
        # no probe falls below a threshold <= 0 (or nan)
        for thr in ("0", "-1", "nan"):
            with pytest.raises(ValueError):
                pp.p2_estimate(1, k_threshold=thr)
        # N(n) is about 1e401 here: the walk over k would never end
        with pytest.raises(ValueError):
            pp.p2_estimate(50, kappa2="1e400")

    def test_reports_working_precision(self):
        assert pp.p2_estimate(100).decimal_digits == pp.precision_for(100).decimal_digits
        assert pp.p2_estimate(100, digits=45).decimal_digits == 45

    @pytest.mark.parametrize("n, kappa2", [(100, None), (300, 0)])
    def test_leading_almkvist_once_per_arc(self, monkeypatch, n, kappa2):
        # A(x | -k/12) is arc k's m = 0 term, which both the cutoff probe and
        # the truncation need; each arc evaluates it once.
        calls = []
        series = circle.almkvist_series

        def counted(x, gamma, ctx):
            calls.append((x, gamma))
            return series(x, gamma, ctx)

        monkeypatch.setattr(circle, "almkvist_series", counted)
        report = pp.p2_estimate(n, kappa2=kappa2)
        a = float(pp.constants(pp.precision_for(n)).a)
        leading = collections.Counter()
        for x, gamma in calls:
            k = round((a * n * n / float(x) ** 2) ** (1 / 3))  # x = sqrt(a/k^3) n
            if round(-float(gamma) - k / 12) == 0:
                leading[k] += 1
        ks = range(1, report.N_used + 2)
        assert [leading[k] for k in ks] == [1] * len(ks)
