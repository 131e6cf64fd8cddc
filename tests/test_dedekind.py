import ast
import collections
import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from mpmath import mp

import oracles
import planepart as pp
from planepart import dedekind
from planepart.arith import GUARD_BITS


def direct_c_hk(h, k, dps=50):
    """Independent direct evaluation of C_{h,k} from its definition."""
    with mp.workdps(dps):
        acc = mpmath.mpf(0)
        for j in range(1, k):
            b2 = oracles.bernoulli_poly_horner(2, Fraction(j, k))
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


class TestIntegerDots:
    @pytest.mark.parametrize("n", [None, 6999])
    def test_c_and_b_match_fdot_oracles(self, ctx50, n):
        # None: 50 digits; 6999: p2(6999)'s precision
        ctx = ctx50 if n is None else pp.precision_for(n)
        with ctx.workdps():
            for k in (1, 2, 3, 13, 100, 499):
                for h in range(k):
                    if math.gcd(h, k) != 1:
                        continue
                    assert abs(pp.c_hk(h, k, ctx) - oracles.c_hk_fdot(h, k, ctx)) < ctx.eps, (h, k)
                    assert abs(pp.b_hk(h, k, ctx) - oracles.b_hk_fdot(h, k, ctx)) < ctx.eps, (h, k)


# contexts by their bits: 160 (the 30-digit floor), 352, 544 and 1312
ROW_CONTEXTS = {ctx.bits: ctx for ctx in map(pp.PrecisionContext, (30, 74, 132, 363))}


@given(dot=st.one_of(st.integers(-(1 << 64), 1 << 64), st.integers(-(1 << 4000), 1 << 4000)),
       den=st.one_of(st.integers(1, 1 << 64), st.integers(1, 1 << 2000),
                     st.integers(0, 2000).map(lambda e: 1 << e)),
       bits=st.sampled_from([160, 352, 544, 1312]))
@example(dot=0, den=3, bits=160)
@example(dot=(1 << 160) + 1, den=1, bits=160)  # a tie, to even: toward 0
@example(dot=-(3 << 1311) - 3, den=2, bits=1312)  # a tie, to even: away from 0
def test_row_value_matches_mpf_div(dot, den, bits):
    assert dedekind._row_value(dot, den, ROW_CONTEXTS[bits]) == oracles.row_value_mpf_div(
        dot, den, bits)


class TestRademacherGrosswaldIdentity:
    def test_logsin_sum_is_log_k(self):
        # sum_{j=1}^{k-1} log|2 sin(j pi / k)| = log k, over the library's
        # row: integers over 2^ctx.bits
        ctx = pp.PrecisionContext(decimal_digits=60)
        with ctx.workdps():
            for k in range(2, 201):
                s = mpmath.mpf((sum(dedekind._trig_fixed_row(k, ctx.bits)[2]), -ctx.bits))
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
    def test_contexts_of_one_table_precision_share_a_row(self):
        # a long-lived process may run estimates at many precisions: the
        # rows are keyed by bits, so 101 contexts build at most 6 rows
        ctxs = [pp.PrecisionContext(decimal_digits=d) for d in range(30, 131)]
        assert len({ctx.bits for ctx in ctxs}) == 6
        misses = dedekind._trig_fixed_row.cache_info().misses
        for ctx in ctxs:
            pp.c_hk(1, 389, ctx)
            pp.vp_hk(2, 1, 389, ctx)
        assert dedekind._trig_fixed_row.cache_info().misses - misses <= 6


class TestRootsRow:
    @pytest.mark.parametrize("prec", [170, 1300])
    def test_entries_match_expjpi(self, prec):
        # every cos and sin entry, the mirrored j > k/2 included, lies within
        # 4 units of the row's scale 2^-bits of e^{2 pi i j / k}, at the
        # context of `prec` bits
        bits = pp.PrecisionContext(mpmath.libmp.prec_to_dps(prec)).bits
        for k in (1, 2, 3, 12, 13, 100, 499, 5000):
            cos, sin, _ = dedekind._trig_fixed_row(k, bits)
            assert len(cos) == len(sin) == k
            with mp.workprec(bits + 20):
                tol = mpmath.mpf(2) ** (2 - bits)
                for j in range(k):
                    want = mp.expjpi(mpmath.mpf(2 * j) / k)
                    for got, part in ((cos[j], want.real), (sin[j], want.imag)):
                        assert abs(mpmath.mpf((got, -bits)) - part) <= tol, (k, j)

    def test_mirror_is_exact(self):
        # cos[k - j] = cos[j] and sin[k - j] = -sin[j], in integers
        for k in (3, 12, 13, 100):
            cos, sin, _ = dedekind._trig_fixed_row(k, 170)
            for j in range(1, (k + 1) // 2):
                assert cos[k - j] == cos[j] and sin[k - j] == -sin[j], (k, j)

    @pytest.mark.parametrize("prec", [170, 1300])
    def test_logsin_entries_match_log_sin(self, prec):
        # every log|2 sin(pi j / k)| entry, taken from the cos row and
        # mirrored past k/2, is an integer over the row's scale
        # 2^bits and lies within 8 units of 2^(GUARD_BITS - bits) of
        # mpmath's log and sin at bits + 32 bits, at the context of `prec`
        # bits
        bits = pp.PrecisionContext(mpmath.libmp.prec_to_dps(prec)).bits
        for k in (2, 3, 13, 100, 499, 5000):
            logsin = dedekind._trig_fixed_row(k, bits)[2]
            assert len(logsin) == k - 1
            with mp.workprec(bits + 32):
                tol = mpmath.mpf(2) ** (3 + GUARD_BITS - bits)
                for j, got in enumerate(logsin, 1):
                    want = mp.log(2 * mp.sin(mp.pi * j / k))
                    value = mpmath.mpf((got, -bits))
                    assert abs(value - want) <= tol, (k, j)


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

    def test_bucket_sum_matches_cot_form(self, ctx50):
        with ctx50.workdps():
            for k in range(1, 30):
                for h in range(k):
                    if math.gcd(h, k) != 1:
                        continue
                    cot = oracles.vp_hk_cot(1, h, k, ctx50)
                    assert abs(pp.v1_hk(h, k, ctx50) - cot) <= abs(cot) * ctx50.eps, (h, k)


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

    def test_matches_full_bucket_sum_oracle(self, ctx50):
        # odd and even k, the U_{k/2} bucket of even k, and k <= 2, where
        # only U_0 and U_{k/2} remain
        with ctx50.workdps():
            for k in list(range(1, 13)) + [35]:
                for h in range(k):
                    if math.gcd(h, k) != 1:
                        continue
                    for p in range(1, 13):
                        v = pp.vp_hk(p, h, k, ctx50)
                        oracle = oracles.vp_full_bucket_sum(p, h, k, ctx50)
                        assert abs(v - oracle) <= abs(oracle) * ctx50.eps, (p, h, k)

    def test_rational_route_matches_complex_route(self, ctx50):
        # vp_hk runs the general bucket sum at k <= 2 too
        with ctx50.workdps():
            for h, k in [(0, 1), (1, 2)]:
                for p in range(1, 41):
                    q = dedekind.vp_rational(p, h, k)
                    v = pp.vp_hk(p, h, k, ctx50)
                    if p % 2:
                        assert q == 0 and v == 0, (p, h, k)
                        continue
                    exact = mpmath.mpf(q.numerator) / q.denominator
                    assert abs(v - exact) <= abs(exact) * ctx50.eps, (p, h, k)

    def test_rational_route_rejects_non_coprime(self, ctx50):
        for p, h, k in [(1, 0, 2), (2, 4, 2)]:
            with pytest.raises(ValueError):
                pp.vp_hk(p, h, k, ctx50)
            with pytest.raises(ValueError):
                dedekind.vp_rational(p, h, k)

    def test_oracles_import_no_private_names(self):
        # an oracle that shares a private helper with the code it checks
        # is no independent check
        tree = ast.parse(Path(oracles.__file__).read_text())
        private = [alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   and (node.module or "").startswith("planepart")
                   for alias in node.names if alias.name.startswith("_")]
        assert private == []


def engine_b(gen, m):
    """The generator's b[m], mantissa times 2^exponent, at the current precision."""
    return mpmath.mpf((gen.b[m], gen.b_exp[m]))


class TestBCoeffs:
    def test_b0_is_one(self, ctx50):
        for h, k in [(0, 1), (1, 2), (2, 5)]:
            gen = dedekind.CoeffGenerator(h, k, ctx50)
            gen.extend_to(0)
            assert len(gen.b) == len(gen.b_exp) == 1
            assert gen.b[0] == 1 << -gen.b_exp[0]
            assert gen.b[0].bit_length() == ctx50.bits

    def test_recurrence_vs_partition_sum_oracle(self, ctx50):
        # b[m] = i^-m b^(m) is gen.b[m] 2^gen.b_exp[m], every nonzero
        # mantissa ctx.bits bits long
        with ctx50.workdps():
            for h, k in [(0, 1), (1, 2), (1, 3), (2, 5), (1, 7), (3, 10), (5, 12)]:
                gen = dedekind.CoeffGenerator(h, k, ctx50)
                gen.extend_to(8)
                assert all(isinstance(b, int) and (b == 0 or abs(b).bit_length() == ctx50.bits)
                           for b in gen.b), (h, k)
                for m in range(9):
                    oracle = oracles.b_coeff_partition_sum(h, k, m, ctx50)
                    got = (1, 1j, -1, -1j)[m % 4] * engine_b(gen, m)
                    assert abs(got - oracle) < mpmath.mpf(10) ** -35, (h, k, m)

    @pytest.mark.parametrize("h, k, M, n", [(0, 1, 60, None), (1, 2, 60, None),
                                            (1, 3, 60, None), (2, 5, 60, None),
                                            (5, 12, 60, None), (0, 1, 900, 6999)])
    def test_matches_mpf_recurrence_oracle(self, ctx50, h, k, M, n):
        # every b[m] within ctx.eps of the mpf recurrence, relative; at the
        # precision of n = 6999, b[900] of arc 1 is about 2^2765
        ctx = ctx50 if n is None else pp.precision_for(n)
        gen = dedekind.CoeffGenerator(h, k, ctx)
        gen.extend_to(M)
        oracle = oracles.b_coeffs_mpf(h, k, M, ctx)
        with ctx.workdps():
            for m, want in enumerate(oracle):
                got = engine_b(gen, m)
                if want == 0:
                    assert got == 0, (h, k, m)
                else:
                    assert abs(got - want) <= ctx.eps * abs(want), (h, k, m)
        if n is not None:
            assert 2760 < mp.log(abs(oracle[900]), 2) < 2770

    def test_odd_orders_vanish_for_k_le_2(self, ctx50):
        for h, k in [(0, 1), (1, 2)]:
            gen = dedekind.CoeffGenerator(h, k, ctx50)
            gen.extend_to(9)
            for m in range(1, 10, 2):
                assert gen.b[m] == 0

    def test_extend_to_one_entry_and_one_vp_per_order(self, ctx50, monkeypatch):
        # the benchmark's tracer counts orders as the growth of len(gen.b)
        # and the v^(p) layer through dedekind.vp_hk, at most once per order
        calls = collections.Counter()
        vp = dedekind.vp_hk

        def counted(p, h, k, ctx):
            calls[(p, h, k)] += 1
            return vp(p, h, k, ctx)

        monkeypatch.setattr(dedekind, "vp_hk", counted)
        for h, k in [(0, 1), (1, 2), (2, 5)]:
            gen = dedekind.CoeffGenerator(h, k, ctx50)
            for M in (0, 3, 3, 10, 7, 25):
                before = len(gen.b)
                gen.extend_to(M)
                assert len(gen.b) == max(before, M + 1), (h, k, M)
            assert all(c == 1 for c in calls.values()), calls

    def test_no_vp_for_the_odd_orders_of_k_le_2(self, ctx50, monkeypatch):
        # for k <= 2 the odd orders are 0 and their j v[j] is never read
        calls = []
        vp = dedekind.vp_hk

        def counted(p, h, k, ctx):
            calls.append(p)
            return vp(p, h, k, ctx)

        monkeypatch.setattr(dedekind, "vp_hk", counted)
        dedekind.CoeffGenerator(0, 1, ctx50).extend_to(40)
        assert calls == list(range(2, 41, 2))


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

