import collections
import dataclasses
import json
import math
import types

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp

import oracles
import planepart as pp
from conftest import run_in_fresh_process
from planepart import circle, cli, dedekind

# the 30-digit floor, 50 and 400 digits, the working precision of
# `--digits 400 constants` (420) and the precisions of n = 750 and n = 6999
LAMBDA_C_CONTEXTS = (pp.PrecisionContext(30), pp.PrecisionContext(50),
                     pp.PrecisionContext(400), pp.PrecisionContext(420),
                     pp.precision_for(750), pp.precision_for(6999))


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
            assert mp.nstr(pp.saddle_data(0, ctx50).c, 6) == "29.4696"

    def test_c_matches_definition_via_numeric_f1p(self, ctx50):
        # c(lam) = 4 pi^2 e^(-f1'(lam)/2) / (2a)^(1/3), with f1' the
        # numerical derivative of f1, not the saddle layer's closed form.
        # mp.diff at 50 digits steps by 2^-179 and works at 378 bits, so f1
        # is taken at 120 digits (at 50 both steps give the same f1).
        cst = pp.constants(ctx50)
        ctx120 = pp.PrecisionContext(120)
        with ctx50.workdps():
            for lam_s in ("0.01", "0.1", "0.18"):
                lam = mpmath.mpf(lam_s)
                sd = pp.saddle_data(lam, ctx50)
                f1p = mp.diff(lambda l: pp.saddle_data(l, ctx120).f1, lam)
                c = 4 * cst.pi**2 * mp.exp(-f1p / 2) / mp.cbrt(2 * cst.a)
                assert abs(sd.f1p - f1p) < mpmath.mpf(10) ** -40
                assert abs(sd.c - c) < mpmath.mpf(10) ** -40

    def test_lambda_c_and_d(self):
        # lambda_c's root finder converges at every precision the CLI and
        # the pipeline reach, from the 30-digit floor to n = 6999
        for ctx in LAMBDA_C_CONTEXTS:
            with ctx.workdps():
                lam_c = circle.lambda_c(ctx)
                assert abs(lam_c - mpmath.mpf("0.18012")) < mpmath.mpf("1e-4")
                assert abs(oracles.d_of_lambda(lam_c, ctx) - 1) <= ctx.eps, ctx
                # d decreasing
                d_lo = oracles.d_of_lambda(mpmath.mpf("0.1"), ctx)
                d_hi = oracles.d_of_lambda(mpmath.mpf("0.25"), ctx)
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
        # m up to 40 crosses several of the Almkvist ladder's doubling blocks
        for n, k in [(60, 1), (60, 2), (60, 5), (500, 3), (60, 6), (60, 7), (60, 12)]:
            ctx = pp.precision_for(n)
            arc = circle.Arc(n, k, ctx)
            with ctx.workdps():
                for m in range(41):
                    psis = [oracles.psi_m(n, h, k, m, ctx)
                            for h in range(k) if math.gcd(h, k) == 1]
                    direct = sum(psis)
                    got = arc.term(m)
                    assert abs(direct.imag) <= ctx.eps * max(abs(p) for p in psis)
                    assert abs(got - direct.real) <= ctx.eps * abs(direct.real), (n, k, m)

    def test_almkvist_ladder_matches_series_6999(self):
        ctx = pp.precision_for(6999)
        arc = circle.Arc(6999, 1, ctx)
        with ctx.workdps():
            for m in (0, 1, 2, 450, 899):
                series = pp.almkvist_series(arc.x, -mpmath.mpf(1) / 12 - m, ctx).value
                assert abs(mpmath.mpf(arc._almkvist_fixed(m)) / series - 1) <= ctx.eps, m

    @pytest.mark.parametrize("n", [107, 992])
    def test_almkvist_first_block_matches_series(self, n):
        # A_0..A_(LADDER_SEED - 1) come from the first block's downward run
        ctx = pp.precision_for(n)
        for k in (1, 5, 20):
            arc = circle.Arc(n, k, ctx)
            with ctx.workdps():
                for m in range(circle.LADDER_SEED + 1):
                    series = pp.almkvist_series(arc.x, -mpmath.mpf(k) / 12 - m, ctx).value
                    assert abs(mpmath.mpf(arc._almkvist_fixed(m)) / series - 1) <= ctx.eps, (k, m)

    def test_almkvist_ladder_matches_series_past_first_block(self):
        # m <= 70 runs the first block (seeded at LADDER_SEED) and a second
        # one seeded at m = 70
        ctx = pp.precision_for(750)
        for k in (1, 2, 13):
            arc = circle.Arc(750, k, ctx)
            with ctx.workdps():
                for m in range(71):
                    series = pp.almkvist_series(arc.x, -mpmath.mpf(k) / 12 - m, ctx).value
                    assert abs(mpmath.mpf(arc._almkvist_fixed(m)) / series - 1) <= ctx.eps, (k, m)

    def test_phi_odd_m_zero_small_k(self, ctx50):
        ctx = pp.precision_for(50)
        assert circle.Arc(50, 1, ctx).term(3) == 0
        assert circle.Arc(50, 2, ctx).term(5) == 0

    @pytest.mark.parametrize("n, k", [(5, 0), (-4, 2), (0, 3)])
    def test_arc_domain(self, n, k):
        with pytest.raises(ValueError):
            circle.Arc(n, k, pp.PrecisionContext(30))

    def test_negative_m_rejected(self):
        # on a warm arc a negative m would index the cached rows from the end
        arc = circle.Arc(750, 5, pp.precision_for(750))
        arc.term(3)
        for method in (arc.term, arc._almkvist_fixed):
            for m in (-1, -2):
                with pytest.raises(ValueError):
                    method(m)


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

    def test_float_plan_matches_30_digits(self):
        # mstar_numeric reads int(M*/2) (its minimum gate) and int(3 M*) (its
        # cap) from the float M*; they must be those of a 30-digit solve, on
        # n = 1, 37, ..., 7093 plus the 24 n of seeds 1-2 pass 0 of the
        # benchmark's roundtrip_batch, and k = 1..67.  lam and M* are one
        # formula each, read in floats or in mpfs, so the floats also lie
        # within 1e-12 relative of the 30-digit values
        ctx30 = pp.PrecisionContext(30)
        ns = [*range(1, 7101, 36), 107, 242, 257, 392, 407, 542, 557, 691, 707, 842, 857,
              992, 122, 227, 272, 377, 422, 527, 572, 677, 722, 827, 872, 977]
        diff, far = [], []
        for n in ns:
            for k in range(1, 68):
                got = circle.mstar_theory(n, k)
                assert isinstance(got, float)
                want = circle.mstar_theory(n, k, ctx30)
                if (int(got / 2), int(3 * got)) != (int(want / 2), int(3 * want)):
                    diff.append((n, k, got, want))
                lam, lam30 = circle.lambda_param(n, k), circle.lambda_param(n, k, ctx30)
                assert isinstance(lam, float)
                if abs(got - want) > 1e-12 * abs(want) or abs(lam - lam30) > 1e-12 * lam30:
                    far.append((n, k))
        assert diff == []
        assert far == []

    def test_numeric_6999_k1_signature(self, report_6999):
        b = report_6999.per_k[0]
        assert b.stop_reason == "minimum-found"
        assert 870 <= b.m_star_used <= 890
        with pp.precision_for(6999).workdps():
            seq = [abs(t.value) for t in b.terms if t.value != 0]
            # minimum is global and sits at the truncation point
            assert min(seq) == seq[-1]
            assert seq[0] > seq[-1]
            # first neglected term near the published measured truncation error
            ratio = b.trunc_error_est / mpmath.mpf("6.39e10")
            assert mpmath.mpf("0.5") < ratio < 20

    def test_numeric_6999_k2_trunc(self, report_6999):
        b = report_6999.per_k[1]
        with pp.precision_for(6999).workdps():
            ratio = b.trunc_error_est / mpmath.mpf("6438.01")
            assert mpmath.mpf("0.5") < ratio < 20

    def test_below_floor_entries_are_the_last_kept_terms_750(self, report_750):
        with pp.precision_for(750).workdps():
            for b in report_750.per_k:
                assert b.stop_reason == "below-floor", b.k
                assert b.trunc_error_est == abs(b.terms[-1].value), b.k

    def test_minimum_entry_is_the_next_armed_term_6999_k2(self, report_6999):
        # arc 2 rebuilt at the arc's own working precision
        b = report_6999.per_k[1]
        assert (b.stop_reason, b.m_star_used) == ("minimum-found", 440)
        ctx = pp.PrecisionContext(b.decimal_digits)
        with ctx.workdps():
            assert b.trunc_error_est == abs(circle.Arc(6999, 2, ctx).term(442))

    def test_pair_minimum_entry_is_the_next_pair_6385_k3(self):
        # the odd terms sit about 3x above the even ones; the pairs
        # (288, 289), (290, 291) and (292, 293) rise twice, so the terms
        # end at m = 289, two pairs past it
        ctx = pp.precision_for(6385)
        arc = circle.Arc(6385, 3, ctx)
        b = circle.mstar_numeric(arc)
        assert (b.stop_reason, b.m_star_used, b.terms_computed) == ("minimum-found", 289, 294)
        with ctx.workdps():
            pairs = [abs(arc.term(m)) + abs(arc.term(m + 1)) for m in (286, 288, 290, 292)]
            assert pairs[0] > pairs[1] < pairs[2] < pairs[3]
            assert b.trunc_error_est == pairs[2]
            assert mp.nstr(b.trunc_error_est, 3) == "0.0044"

    def test_theory_numeric_consistency(self, mstar_7000_k1, monkeypatch):
        # for n < ~6400 the superasymptotic minimum lies below both the
        # default m-floor and the default precision's noise floor, so the
        # minimum is probed with M_FLOOR = 0 at boosted precision
        monkeypatch.setattr(circle, "M_FLOOR", "0")
        hi = pp.PrecisionContext(decimal_digits=500)
        cases = [(n, hi, circle.mstar_numeric(circle.Arc(n, 1, hi)))
                 for n in (3000, 5000)]
        cases.append((7000, pp.precision_for(7000), mstar_7000_k1))
        for n, ctx, breakdown in cases:
            assert breakdown.stop_reason == "minimum-found"
            with ctx.workdps():
                ratio = breakdown.m_star_used / circle.mstar_theory(n, 1, ctx)
                assert mpmath.mpf("0.8") < ratio < mpmath.mpf("1.3"), n


    def test_tiny_nonzero_term_ends_below_floor(self):
        # a nonzero term at the roundoff floor of the largest term is a real
        # term, not a structural zero: only an exact 0 is skipped
        ctx = pp.precision_for(100)
        with ctx.workdps():
            gate = int(circle.mstar_theory(100, 3, ctx) / 2)
            tiny = 100 * ctx.eps / 10
            sizes = {gate: 0.5, gate + 1: 0.2, gate + 2: tiny,
                     gate + 3: 0.3, gate + 4: 0.4}
            arc = types.SimpleNamespace(
                n=100, k=3, ctx=ctx, term=lambda m: mpmath.mpf(sizes.get(m, 100)))
            breakdown = circle.mstar_numeric(arc)
        assert breakdown.stop_reason == "below-floor"
        assert breakdown.m_star_used == gate + 2
        assert [r.m for r in breakdown.terms] == list(range(gate + 3))
        assert breakdown.trunc_error_est == tiny

    def test_low_digits_truncate_as_default_precision(self):
        # the exits read the terms alone: once the digits certify p2(n), the
        # per-arc record does not depend on them
        for n, digits in [(50, 31), (60, 35)]:
            low, default = pp.p2_estimate(n, digits=digits), pp.p2_estimate(n)
            assert low.decimal_digits < default.decimal_digits
            assert ([(b.stop_reason, b.m_star_used, b.terms_computed) for b in low.per_k]
                    == [(b.stop_reason, b.m_star_used, b.terms_computed)
                        for b in default.per_k]), n
            assert mp.nstr(low.estimated_error, 10) == mp.nstr(default.estimated_error, 10)

    def test_low_digits_arc_ends_below_floor(self):
        b = circle.mstar_numeric(circle.Arc(200, 2, pp.PrecisionContext(31)))
        assert b.stop_reason == "below-floor"
        assert b.terms_computed == len(b.terms) == 7

    @pytest.mark.parametrize("n", [750, 2650])
    def test_real_terms_are_exact_zeros_or_above_roundoff(self, monkeypatch, n):
        # no term an estimate evaluates, probes included, is a nonzero
        # residue at the roundoff floor max|phi| eps of the terms of its arc
        # so far: every structural zero is exact (at 2650, arc 40's probe)
        ctx = pp.precision_for(n)
        sizes = collections.defaultdict(list)
        term = circle.Arc.term

        def tracked(arc, m):
            val = term(arc, m)
            sizes[arc.k].append((m, abs(val)))
            return val

        monkeypatch.setattr(circle.Arc, "term", tracked)
        pp.p2_estimate(n)
        zeros = 0
        with ctx.workdps():
            for k, record in sizes.items():
                top = 0
                for m, ab in record:
                    top = max(top, ab)
                    assert ab == 0 or ab > top * ctx.eps, (k, m)
                    zeros += ab == 0
        assert zeros > 0


STUB_CTX = pp.precision_for(100)


def stub_truncation(sizes, k=3, default="100"):
    """mstar_numeric over a stub arc at n = 100 whose term m is sizes[m]
    (default elsewhere), with the m the stub was asked for and the
    theoretical minimum M*."""
    asked = []

    def term(m):
        asked.append(m)
        return mpmath.mpf(sizes.get(m, default))

    arc = types.SimpleNamespace(n=100, k=k, ctx=STUB_CTX, term=term)
    with STUB_CTX.workdps():
        return circle.mstar_numeric(arc), asked, circle.mstar_theory(100, k)


class TestMstarExits:
    """One stub arc per exit of mstar_numeric and per rule it applies."""

    GATE = int(circle.mstar_theory(100, 3) / 2)
    # the first pair the minimum rule arms: the first even m >= GATE
    P = GATE + GATE % 2

    @pytest.fixture(autouse=True)
    def _stub_precision(self):
        # the expected sizes are parsed at the stub's precision
        with STUB_CTX.workdps():
            yield

    def test_below_floor(self):
        b, asked, _ = stub_truncation({0: "1", 1: "0.5", 2: "0.1", 3: "0.01", 4: "0.0005"})
        assert b.stop_reason == "below-floor"
        assert b.m_star_used == 4 and asked == list(range(5))
        assert [r.m for r in b.terms] == list(range(5))
        assert b.trunc_error_est == mpmath.mpf("0.0005")
        assert b.phi_value == mpmath.mpf("1.6105")

    def test_minimum_by_two_increases(self):
        # pair sizes 0.75, 0.1875, 0.3125, 0.5: the terms end at the odd
        # term of the minimum pair, and the entry is the next pair's size
        p = self.P
        b, asked, _ = stub_truncation({p: "0.5", p + 1: "0.25", p + 2: "0.125",
                                       p + 3: "0.0625", p + 4: "0.25", p + 5: "0.0625",
                                       p + 6: "0.25", p + 7: "0.25"})
        assert b.stop_reason == "minimum-found"
        assert asked[-1] == p + 7 and b.terms_computed == len(asked)
        assert b.m_star_used == p + 3
        assert [r.m for r in b.terms] == list(range(p + 4))
        assert b.trunc_error_est == mpmath.mpf("0.3125")

    def test_parity_split_minimum_is_a_pair_minimum(self):
        # the odd terms sit 16-64x above the even ones, as in a k >= 3
        # series.  Read on single terms, |phi^(p+1)| is over 8x the running
        # minimum |phi^(p)|, and a minimum rule with that exit ends the
        # series at m = p, dropping an odd tail larger than what it keeps.
        # The pair sizes 0.53125, 0.265625, 0.1328125, 0.265625, 0.53125
        # have their minimum at (p + 4, p + 5)
        p = self.P
        b, asked, _ = stub_truncation({p: "0.03125", p + 1: "0.5", p + 2: "0.015625",
                                       p + 3: "0.25", p + 4: "0.0078125", p + 5: "0.125",
                                       p + 6: "0.015625", p + 7: "0.25", p + 8: "0.03125",
                                       p + 9: "0.5"})
        assert b.stop_reason == "minimum-found"
        assert asked[-1] == p + 9
        assert b.m_star_used == p + 5
        assert b.trunc_error_est == mpmath.mpf("0.265625")

    def test_exhausted_at_cap(self):
        b, asked, theory = stub_truncation({})
        assert b.stop_reason == "exhausted"
        assert len(b.terms) == len(asked) == int(3 * theory) + 61
        assert b.m_star_used == int(3 * theory) + 60
        assert b.trunc_error_est == 100

    def test_dip_before_gate_is_not_the_minimum(self):
        # the pairs (p - 4, p - 3) and (p - 2, p - 1) are smaller than the
        # later minimum and are followed by two increases, but the rule arms
        # a pair from its even m >= GATE on; GATE is odd, so the second dip
        # pair ends at the gate and is still not armed
        p = self.P
        assert p == self.GATE + 1
        b, asked, _ = stub_truncation({p - 4: "0.125", p - 3: "0.0625", p - 2: "0.0625",
                                       p - 1: "0.125", p: "0.25", p + 1: "0.25",
                                       p + 2: "0.5", p + 3: "0.5", p + 4: "0.25",
                                       p + 5: "0.125", p + 6: "0.25", p + 7: "0.25",
                                       p + 8: "0.5", p + 9: "0.25"})
        assert b.stop_reason == "minimum-found"
        assert asked[-1] == p + 9
        assert b.m_star_used == p + 5
        assert b.trunc_error_est == mpmath.mpf("0.5")

    def test_exact_zeros_kept_but_skipped(self):
        # zeros are below the floor and below every term, yet end nothing
        g = self.GATE
        b, _, _ = stub_truncation({0: "0", g - 1: "0", g: "0.5", g + 1: "0", g + 2: "0.2",
                                   g + 3: "0", g + 4: "0.3", g + 5: "0.4"})
        assert b.stop_reason == "minimum-found"
        assert b.m_star_used == g + 2
        assert [r.m for r in b.terms] == list(range(g + 3))
        assert all(b.terms[m].value == 0 for m in (0, g - 1, g + 1))
        assert b.trunc_error_est == mpmath.mpf("0.3")

    def test_zero_pair_is_summed_but_not_armed(self):
        # the pair (p + 2, p + 3) is exactly 0: it is no minimum, and the
        # pairs 0.5, 0.25, 0.375, 0.5 around it end at (p + 4, p + 5)
        p = self.P
        b, asked, _ = stub_truncation({p: "0.25", p + 1: "0.25", p + 2: "0", p + 3: "0",
                                       p + 4: "0.125", p + 5: "0.125", p + 6: "0.25",
                                       p + 7: "0.125", p + 8: "0.25", p + 9: "0.25"})
        assert b.stop_reason == "minimum-found"
        assert asked[-1] == p + 9
        assert b.m_star_used == p + 5
        assert b.terms[p + 2].value == b.terms[p + 3].value == 0
        assert b.trunc_error_est == mpmath.mpf("0.375")

    def test_small_k_steps_by_two(self):
        # k <= 2 has no odd terms: only even m are asked for and kept
        _, _, theory = stub_truncation({}, k=2)
        g = int(theory / 2)
        g += g % 2
        b, asked, _ = stub_truncation({g: "0.5", g + 2: "0.2", g + 4: "0.3", g + 6: "0.4"},
                                      k=2)
        assert b.stop_reason == "minimum-found"
        assert asked == list(range(0, g + 7, 2))
        assert [r.m for r in b.terms] == list(range(0, g + 3, 2))
        assert b.m_star_used == g + 2
        assert b.trunc_error_est == mpmath.mpf("0.3")


# sizes a stub term takes: zeros, a nonzero term far below the others,
# terms below and above M_FLOOR, and a large head
STUB_SIZES = ("0", "1e-70", "0.0002", "0.002", "0.1", "0.2", "0.3", "0.5", "1", "5", "100")


@given(k=st.sampled_from([2, 3]), head=st.sampled_from(STUB_SIZES),
       window=st.lists(st.tuples(st.sampled_from(STUB_SIZES), st.booleans()), max_size=16),
       tail=st.sampled_from(("0", "0.002", "1", "100")), climb=st.booleans())
def test_truncation_invariants(k, head, window, tail, climb):
    # head up to 4 steps before the minimum gate, then the signed window,
    # then tail to the cap; with climb, the 6 steps after the window double
    # from 1, so that the pair sizes rise past the window
    step = 2 if k <= 2 else 1
    gate = int(circle.mstar_theory(100, k) / 2)
    start = gate - 4 * step
    end = start + len(window) * step
    sizes = {m: head for m in range(start)}
    sizes.update((start + i * step, ("-" if neg else "") + v)
                 for i, (v, neg) in enumerate(window))
    if climb:
        sizes.update((end + i * step, 2**i) for i in range(6))
    b, asked, theory = stub_truncation(sizes, k=k, default=tail)
    ms = [r.m for r in b.terms]
    with STUB_CTX.workdps():
        assert ms == list(range(0, step * len(ms), step)) == asked[:len(ms)]
        assert b.terms_computed == len(asked)
        assert b.m_star_used == ms[-1]
        assert b.phi_value == mp.fsum(r.value for r in b.terms)
        size = {m: abs(mpmath.mpf(sizes.get(m, tail))) for m in asked}
        # only the last term asked for may be a nonzero term below the floor
        floor = mpmath.mpf(circle.M_FLOOR)
        assert not any(0 < size[m] < floor for m in asked[:-1])
        # the armed pairs, (last m, size): an even m >= gate and, for k >= 3,
        # the odd m after it, unless the pair is exactly 0
        armed = [(m + 2 - step, size[m] + size.get(m + 1, 0)) for m in asked
                 if m % 2 == 0 and m >= gate and m + 2 - step in size]
        armed = [(m, s) for m, s in armed if s != 0]
        rises = [i for i in range(2, len(armed))
                 if armed[i][1] > armed[i - 1][1] > armed[i - 2][1]]
        last = abs(b.terms[-1].value)
        if b.stop_reason == "below-floor":
            assert 0 < last < floor and asked[-1] == ms[-1]
            assert b.trunc_error_est == last
        elif b.stop_reason == "minimum-found":
            # the first two consecutive increases of the pair size end the
            # series at the last pair asked for; the terms end at the odd
            # (k >= 3) or even (k <= 2) term of the smallest pair before it
            assert rises and armed[rises[0]][0] == asked[-1]
            i = [m for m, _ in armed].index(ms[-1])
            assert armed[i][1] == min(s for _, s in armed)
            assert b.trunc_error_est == armed[i + 1][1]
        else:
            assert b.stop_reason == "exhausted"
            assert ms[-1] + step > int(3 * theory) + 60 and not rises
            assert b.trunc_error_est == last


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
            bound = oracles.sa_error_bound(6999, 1, ctx)
            measured = mpmath.mpf("6.39e10")
            assert measured < bound < measured * mpmath.mpf("1e14")

    def test_sa_error_bound_domain(self, ctx50):
        with pytest.raises(ValueError):
            # lam > lam_c for huge k at small n
            oracles.sa_error_bound(10, 50, ctx50)

    def test_minor_arc_type1_kappa_half(self, ctx50):
        with ctx50.workdps():
            bound = oracles.minor_arc_bound(400, mpmath.mpf("0.5"), ctx50)
            assert abs(bound.type1 - mpmath.mpf(400) ** mpmath.mpf("-0.5")) < mpmath.mpf(10) ** -30

    def test_minor_arc_type2_kappa_half(self, ctx50):
        def type2(n):
            return oracles.minor_arc_bound(n, "0.5", ctx50).type2

        assert mp.nstr(type2(750), 8) == "0.34602971"
        assert mp.nstr(type2(6999), 8) == "0.023232484"
        values = [type2(n) for n in (1, 10, 100, 400, 750, 2000, 6491, 6999, 14000)]
        assert values[-1] > 0
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_lambda0_exceeds_lambda_c(self):
        # the Type II minor-arc bound needs its lam above lam_c
        for ctx in LAMBDA_C_CONTEXTS:
            with ctx.workdps():
                assert mpmath.mpf(oracles.LAMBDA0) > circle.lambda_c(ctx), ctx

    def test_float_log_bound_matches_30_digits(self):
        # the estimate sizes each arc's digits from the log of the phi^(0)
        # bound in floats, one sum of logs per published form; the oracle
        # writes each form as a product at 30 digits
        ctx30 = pp.PrecisionContext(30)
        for n in (1, 50, 750, 2000, 6999):
            for k in range(1, 61):
                lam, sd, _ = circle._saddle_plan(n, k)
                got = circle._log_phi0_bound(n, k, lam, sd)
                assert isinstance(got, float)
                with ctx30.workdps():
                    want = mp.log(oracles.phi0_bound(n, k, ctx30))
                    assert abs(got - want) <= 1e-13 * max(1, abs(want)), (n, k)

    def test_phi0_bound_contains_probe_750(self):
        ctx = pp.precision_for(750)
        with ctx.workdps():
            for k in range(1, 18):
                probe = circle.cutoff_probe(circle.Arc(750, k, ctx))
                assert probe <= oracles.phi0_bound(750, k, ctx), k


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
                assert phi0 <= oracles.phi0_bound(6491, b.k, ctx), b.k

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 1: the numeric cutoff ends at the first probe below "
        "K_THRESHOLD, before arcs that still sum to more than 1/2 (770: -7.49, "
        "3333: 0.747, 6000: -0.841, against claims of 0.0136, 0.021, 0.031; "
        "3165: 1.511 and 3387: 1.006, both with N_used 27, against 0.0164 "
        "and 0.0237)"))
    @pytest.mark.parametrize("n", [770, 3165, 3333, 3387, 6000])
    def test_rounds_to_exact_past_a_small_probe(self, n, exact_table_7000):
        assert pp.p2_estimate(n).rounded == exact_table_7000[n]

    @pytest.mark.parametrize("n", [6384, 6410])
    def test_rounds_to_exact_past_a_parity_split_minimum(self, n, exact_table_7000):
        # an arc k >= 3 ending minimum-found stops at its smallest pair of
        # terms: a minimum read on single terms dropped an odd tail of about
        # -0.95 from arc 13 of 6384, and the integer was off by one
        assert pp.p2_estimate(n).rounded == exact_table_7000[n]

    def test_domain(self):
        with pytest.raises(ValueError):
            pp.p2_estimate(0)
        # N(n) is about 1e401 here: the walk over k would never end
        with pytest.raises(ValueError):
            pp.p2_estimate(50, kappa2="1e400")
        # a non-finite kappa2 has no N(n) at all
        for kappa2 in ("inf", "-inf", "nan"):
            with pytest.raises(ValueError, match="kappa2"):
                pp.p2_estimate(50, kappa2=kappa2)

    def test_reports_working_precision(self):
        assert pp.p2_estimate(100).decimal_digits == pp.precision_for(100).decimal_digits
        assert pp.p2_estimate(100, digits=45).decimal_digits == 45
        with pytest.raises(ValueError):  # 0 is no precision, not "auto"
            pp.p2_estimate(50, digits=0)

    def test_uncertified_units_place_raises(self, monkeypatch):
        # 36 digits certify 16, and p2(100) has 17; 45 digits certify 25
        assert pp.p2_estimate(100, digits=45).rounded == pp.p2_exact_table(100)[100]

        # refused from arc 1's probe, before any arc is summed
        def summed(arc, mstar):
            pytest.fail(f"arc {arc.k} summed at a refused precision")

        monkeypatch.setattr(circle, "mstar_numeric", summed)
        for n, digits in [(750, 40), (100, 36)]:
            with pytest.raises(pp.PrecisionError):
                pp.p2_estimate(n, digits=digits)

    def test_probe_never_below_threshold_raises(self, monkeypatch):
        # the numeric cutoff gives up at MAX_ARCS
        monkeypatch.setattr(circle, "MAX_ARCS", 3)
        monkeypatch.setattr(circle, "cutoff_probe", lambda arc: mpmath.mpf(100))
        with pytest.raises(pp.PrecisionError, match="never dropped"):
            pp.p2_estimate(50)

    def test_uncertified_estimate_raises(self, monkeypatch):
        # arc 1's probe passes, but the summed estimate outgrows the digits
        def summed(arc, mstar):
            big = mpmath.mpf(10) ** arc.ctx.decimal_digits
            return circle.PhiBreakdown(k=arc.k, m_star_used=0, terms=[], terms_computed=0,
                                       phi_value=big, trunc_error_est=mpmath.mpf(0),
                                       stop_reason="exhausted",
                                       decimal_digits=arc.ctx.decimal_digits)

        monkeypatch.setattr(circle, "mstar_numeric", summed)
        with pytest.raises(pp.PrecisionError, match="cannot certify"):
            pp.p2_estimate(50)

    def test_exhausted_arc_raises(self, monkeypatch):
        # an arc that runs out of terms has no truncation estimate: its
        # trunc_error_est is only its last term's size
        summed = circle.mstar_numeric

        def exhausted(arc, mstar):
            b = summed(arc, mstar)
            return dataclasses.replace(b, stop_reason="exhausted") if arc.k == 2 else b

        monkeypatch.setattr(circle, "mstar_numeric", exhausted)
        with pytest.raises(pp.PrecisionError, match=r"arcs \[2\] of p2\(50\) ended exhausted"):
            pp.p2_estimate(50)

    @pytest.mark.parametrize("n, kappa2", [(100, None), (300, 0)])
    def test_leading_almkvist_once_per_arc(self, monkeypatch, n, kappa2):
        # A(x | -k/12) is arc k's m = 0 term, which both the cutoff probe and
        # the truncation need.  It comes from the arc's first ladder block:
        # each arc runs exactly one series whose block covers m = 0 (seeded
        # at LADDER_SEED, every later seed lies past the first block), and an
        # arc whose terms stay inside that block runs no second series.
        tops = collections.defaultdict(list)
        m_max = collections.Counter()
        series, term = circle.almkvist_series, circle.Arc.term
        a = float(pp.constants(pp.precision_for(n)).a)

        def counted(x, gamma, ctx):
            k = round((a * n * n / float(x) ** 2) ** (1 / 3))  # x = sqrt(a/k^3) n
            tops[k].append(round(-float(gamma) - k / 12))
            return series(x, gamma, ctx)

        def tracked(arc, m):
            m_max[arc.k] = max(m_max[arc.k], m)
            return term(arc, m)

        monkeypatch.setattr(circle, "almkvist_series", counted)
        monkeypatch.setattr(circle.Arc, "term", tracked)
        report = pp.p2_estimate(n, kappa2=kappa2)
        first_block = circle.LADDER_SEED + 2  # the first series gives A_0..A_34
        ks = range(1, report.N_used + 2)
        for k in ks:
            assert tops[k][0] == circle.LADDER_SEED, (k, tops[k])
            assert all(top > first_block for top in tops[k][1:]), (k, tops[k])
            if m_max[k] <= first_block:
                assert len(tops[k]) == 1, (k, tops[k], m_max[k])
        assert any(m_max[k] <= first_block for k in ks)

    def test_almkvist_series_per_arc_logarithmic(self, monkeypatch):
        # The Almkvist ladder runs one series per probed arc and one seed per
        # doubling block of m from LADDER_SEED, not one series per term.
        n = 750
        a = float(pp.constants(pp.precision_for(n)).a)
        calls = collections.Counter()
        m_max = collections.Counter()
        series, term = circle.almkvist_series, circle.Arc.term

        def counted(x, gamma, ctx):
            calls[round((a * n * n / float(x) ** 2) ** (1 / 3))] += 1
            return series(x, gamma, ctx)

        def tracked(arc, m):
            m_max[arc.k] = max(m_max[arc.k], m)
            return term(arc, m)

        def doubling_blocks(m):
            # blocks of a ladder extended one term at a time: each seeds at
            # max(twice the ladder's length, LADDER_SEED) and adds top + 3
            length, blocks = 0, 0
            while length <= m:
                length = max(2 * length, circle.LADDER_SEED) + 3
                blocks += 1
            return blocks

        monkeypatch.setattr(circle, "almkvist_series", counted)
        monkeypatch.setattr(circle.Arc, "term", tracked)
        report = pp.p2_estimate(n)
        summed = {b.k for b in report.per_k}
        assert summed < set(calls)
        for k in calls:
            assert calls[k] <= doubling_blocks(m_max[k]), (k, calls[k], m_max[k])


class TestOneProcess:
    # every table kept across calls is computed at the precision of the
    # context it serves (PrecisionContext.bits), so an estimate
    # depends on (n, digits) alone and the estimates of one process share
    # the tables of their table precisions; the exact values p2(0..n) are
    # one more table kept across calls, a prefix of the one list they grow

    def test_outputs_do_not_depend_on_earlier_estimates(self, tmp_path):
        # `estimate 750 --with-exact` alone, and after 2000 and 992
        script = ("import json, pathlib, sys\nfrom planepart import cli\n"
                  "out = pathlib.Path(sys.argv[1])\n"
                  "for n in sys.argv[2:]:\n"
                  "    path = out / f'{n}.json'\n"
                  "    code = cli.main(['--quiet', '--json', str(path), 'estimate', n,"
                  " '--with-exact'])\n"
                  "    assert code == 0, (n, code)\n"
                  "print(json.dumps(json.loads(path.read_text())['outputs']))\n")
        runs = []
        for i, ns in enumerate(((750,), (2000, 992, 750))):
            (tmp_path / str(i)).mkdir()
            runs.append(json.loads(run_in_fresh_process(script, tmp_path / str(i), *ns)))
        assert runs[0]["n"] == 750 and runs[0]["rounded"] == runs[0]["exact"]
        assert runs[0] == runs[1]

    def test_rgamma_evaluations_per_pass(self):
        # the 12 n of the roundtrip_batch benchmark's seed-1 pass 0: the
        # Almkvist seeds take 1/Gamma per (u, bits), not per series (452
        # evaluations when every series evaluated its own two)
        ns = (107, 242, 257, 392, 407, 542, 557, 691, 707, 842, 857, 992)
        script = ("import sys\nfrom mpmath import mp\nimport planepart as pp\n"
                  "calls = 0\nrgamma = mp.rgamma\n"
                  "def counted(*args, **kwargs):\n"
                  "    global calls\n    calls += 1\n    return rgamma(*args, **kwargs)\n"
                  "mp.rgamma = counted\n"
                  "for n in map(int, sys.argv[1:]):\n    pp.p2_estimate(n)\n"
                  "print(calls)\n")
        assert 0 < int(run_in_fresh_process(script, *ns)) <= 150


class TestOnePrecision:
    # every input of an arc term (x, the weights with C_{h,k}, each v^(p))
    # is carried at the context's one kernel precision, PrecisionContext.bits,
    # and each term is rounded to the working precision once, at the end

    def test_arc_state_depends_on_bits_alone(self):
        lo, hi = pp.PrecisionContext(120), pp.PrecisionContext(125)
        assert (lo.prec, hi.prec) == (402, 419) and lo.bits == hi.bits == 480
        gens = [dedekind.CoeffGenerator(2, 7, ctx) for ctx in (lo, hi)]
        for gen in gens:
            gen.extend_to(40)
        assert gens[0].b == gens[1].b and gens[0].b_exp == gens[1].b_exp
        arcs = [circle.Arc(750, 7, ctx) for ctx in (lo, hi)]
        assert arcs[0]._weights == arcs[1]._weights
        assert arcs[0]._almkvist_fixed(40) == arcs[1]._almkvist_fixed(40)
        assert arcs[0].x._mpf_ == arcs[1].x._mpf_

    @pytest.mark.parametrize("n", [750, 2000])
    def test_estimate_within_four_units_of_a_finer_one(self, n):
        # against the estimate at 40 more digits: relative 2^(2 - prec)
        ctx = pp.precision_for(n)
        est = pp.p2_estimate(n).estimate
        ref = pp.p2_estimate(n, digits=ctx.decimal_digits + 40).estimate
        with mp.workprec(ctx.prec + 64):
            assert abs(est - ref) <= mpmath.ldexp(abs(ref), 2 - ctx.prec)


# runs its jobs, job(arg) for each argument after the first, in one thread
# each (sys.argv[1] == "threads", started together and switching every
# microsecond) or one after another, and prints what each returned
THREADED = ("import json, sys, threading\n"
            "def main(job, args):\n"
            "    out = {}\n"
            "    def run(a):\n        out[a] = job(a)\n"
            "    if sys.argv[1] != 'threads':\n"
            "        print(json.dumps([job(a) for a in args]))\n        return\n"
            "    sys.setswitchinterval(1e-6)\n"
            "    threads = [threading.Thread(target=run, args=(a,)) for a in args]\n"
            "    for t in threads:\n        t.start()\n"
            "    for t in threads:\n        t.join(timeout=120)\n"
            "    assert not any(t.is_alive() for t in threads)\n"
            "    print(json.dumps([out[a] for a in args]))\n")


class TestArcPrecision:
    # arc k >= 2 runs at fewer digits than the estimate, by the decimal
    # orders its phi^(0) bound lies below arc 1's (arith.arc_precision); its
    # roundoff stays at arc 1's absolute level, below the printed digits

    @pytest.mark.parametrize("n", [107, 750, 2000])
    def test_outputs_equal_those_at_the_estimates_precision(self, n, monkeypatch, tmp_path):
        def outputs():
            path = tmp_path / "doc.json"
            assert cli.main(["--quiet", "--json", str(path), "estimate", str(n),
                             "--with-exact"]) == 0
            return json.dumps(json.loads(path.read_text())["outputs"], sort_keys=True)

        per_arc = outputs()
        monkeypatch.setattr(circle, "arc_precision", lambda ctx, log_drop: ctx)
        assert outputs() == per_arc

    def test_arc_digits_at_6999(self, report_6999):
        digits = [b.decimal_digits for b in report_6999.per_k]
        assert digits[0] == report_6999.decimal_digits == pp.precision_for(6999).decimal_digits
        assert all(30 <= d < digits[0] for d in digits[1:]), digits


class TestThreads:
    # arcs of one (k, ctx.bits) share one core (the generators and powers)
    # across n and threads; each result must equal the same work run alone,
    # in a cold interpreter both times

    def test_estimates_in_threads(self):
        # six estimates whose arcs 1 all run at 544 kernel bits; each mpf
        # of a report compared as its exact binary value
        ns = (842, 857, 875, 904, 945, 974)
        assert {pp.precision_for(n).bits for n in ns} == {544}
        script = THREADED + (
            "import planepart as pp\n"
            "def bits(v):\n    return [int(part) for part in v._mpf_]\n"
            "def estimate(n):\n    r = pp.p2_estimate(n)\n"
            "    return [r.N_used, r.rounded, r.decimal_digits, bits(r.estimate),"
            " bits(r.estimated_error), [[b.k, b.m_star_used, b.stop_reason, b.terms_computed,"
            " b.decimal_digits, bits(b.phi_value), bits(b.trunc_error_est)] for b in r.per_k]]\n"
            "main(estimate, [int(a) for a in sys.argv[2:]])\n")
        threaded = json.loads(run_in_fresh_process(script, "threads", *ns))
        assert threaded == json.loads(run_in_fresh_process(script, "alone", *ns))

    def test_cores_extended_in_threads(self):
        # twelve threads extend the cores of k = 1, 3, 7 at one context,
        # four threads per core, one order at a time to m = 150.  One arc
        # per k builds the cores and their trig rows, and the Bernoulli
        # numbers are cached, before the threads start: those tables are
        # filled at mpmath's process-wide precision, while a core's
        # extension works at explicit precisions only
        script = THREADED + (
            "import planepart as pp\nfrom planepart import circle\n"
            "ctx = pp.precision_for(842)\n"
            "for k in (1, 3, 7):\n    pp.Arc(842, k, ctx)\n"
            "for p in range(153):\n    pp.bernoulli_number(p)\n"
            "def extend(job):\n    core = circle._arc_core(job % 10, ctx)\n"
            "    for m in range(151):\n        core.extend_to(m)\n"
            "    return [[g.b, g.b_exp] for g in core.gens] + [core.powers]\n"
            "main(extend, [int(a) for a in sys.argv[2:]])\n")
        jobs = [10 * i + k for i in range(4) for k in (1, 3, 7)]
        threaded = json.loads(run_in_fresh_process(script, "threads", *jobs))
        assert threaded == json.loads(run_in_fresh_process(script, "alone", *jobs))
