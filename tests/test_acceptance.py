"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Every expected number here comes either from an independent oracle
(tests/oracles.py) or from the published reference tables; tolerances are
stated inline next to each check.
"""

import math
import random
import time

import mpmath
from mpmath import mp

import oracles
import planepart as pp
from conftest import run_in_fresh_process
from planepart import circle, dedekind

P2_750 = ("25457430243586450395219207490248595729590105965123710346785869279"
          "66061")

# published per-k reference rows (n = 750, k = 1..17)
TABLE_750 = [
    "2545743024358645039521920749024859571789657217789975418420497702709720.300",
    "1169353378721087578836884133296412.054",
    "1308038187203153215044.287",
    "-766248063769796.487",
    "249747729385.715",
    "258376791.876",
    "-3577528.999",
    "-1684.466",
    "-13708.658",
    "1766.734",
    "-274.759",
    "-61.857",
    "-6.938",
    "0.409",
    "2.541",
    "-0.138",
    "-0.447",
]

# published spot rows for n = 6491
TABLE_6491_SPOTS = {
    5: "-284688067433991799399682746250525545346893128323018907234.8362",
    19: "2400308271.6744",
    25: "60940.5296",
    33: "45.9065",
    40: "0.3005",
}


def _verdict(num, name, checks):
    """checks: list of (label, bool); prints one line and asserts."""
    failed = [label for label, ok in checks if not ok]
    status = "PASS" if not failed else f"FAIL ({', '.join(failed)})"
    print(f"[criterion {num:2d}] {name}: {status}")
    assert not failed, f"criterion {num} ({name}): failed {failed}"


def test_criterion_01_exact_oracle():
    checks = []
    for n in range(9):
        checks.append((f"enumeration n={n}",
                       pp.p2_exact_table(8)[n] == oracles.plane_partitions_brute(n)))
    checks.append(("p2(750) string", str(pp.p2_exact_table(750)[750]) == P2_750))
    # a cold build: this process's shared table already reaches 750 or more
    script = ("import time\nimport planepart as pp\n"
              "start = time.monotonic()\npp.p2_exact_table(1000)\n"
              "print(time.monotonic() - start)\n")
    checks.append(("table to 1000 under 5 s", float(run_in_fresh_process(script)) < 5.0))
    _verdict(1, "exact oracle", checks)


def test_criterion_02_table1_reproduction(exact_table_7000):
    start = time.monotonic()
    report = pp.p2_estimate(750, with_exact=False)
    elapsed = time.monotonic() - start
    exact = exact_table_7000[750]
    checks = []
    with pp.precision_for(750).workdps():
        by_k = {b.k: b.phi_value for b in report.per_k}
        for k, row in enumerate(TABLE_750, start=1):
            diff = abs(by_k[k] - mpmath.mpf(row))
            checks.append((f"phi_{k} within 1.0", diff < 1))
        residual = abs(report.estimate - exact)
        checks.append(("residual < 0.5", residual < mpmath.mpf("0.5")))
    checks.append(("rounded equals exact", report.rounded == exact))
    checks.append(("runtime < 1 min", elapsed < 60))
    _verdict(2, "Table 1 reproduction (n=750)", checks)


def test_criterion_03_table2_reproduction(report_6491, timings):
    report = report_6491
    checks = [("numeric cutoff N = 41", report.N_used + 1 == 41)]
    k1 = report.per_k[0]
    checks.append(("M*(6491,1) = 868", k1.m_star_used == 868))
    with pp.precision_for(6491).workdps():
        min_term = abs(k1.terms[-1].value)
        checks.append(("|phi1^(868)| in [3, 15]", 3 < min_term < 15))
        checks.append(("estimated error in [2, 20]",
                       2 < report.estimated_error < 20))
        checks.append(("actual error magnitude < 10",
                       abs(report.actual_error) < 10))
        by_k = {b.k: b.phi_value for b in report.per_k}
        for k, row in sorted(TABLE_6491_SPOTS.items()):
            diff = abs(by_k[k] - mpmath.mpf(row))
            checks.append((f"phi_{k} within 0.01", diff < mpmath.mpf("0.01")))
    checks.append(("runtime < 10 min", timings["estimate_6491"] < 600))
    _verdict(3, "Table 2 reproduction (n=6491)", checks)


def test_criterion_04_digit_claim_6999(report_6999, timings):
    report = report_6999
    rounded, exact = str(report.rounded), str(report.exact)
    agree = 0
    for a, b in zip(rounded, exact):
        if a != b:
            break
        agree += 1
    checks = [("at least 300 leading digits agree", agree >= 300)]
    with pp.precision_for(6999).workdps():
        err = abs(report.actual_error)
        checks.append(("actual error in [1e8, 1e11]",
                       mpmath.mpf("1e8") <= err <= mpmath.mpf("1e11")))
    checks.append(("runtime < 15 min incl. exact oracle",
                   timings["estimate_6999"] + timings["exact_table_7000"] < 900))
    _verdict(4, "n=6999 digit claim", checks)


def test_criterion_05_round_trip_sweep(exact_table_7000, report_750):
    checks = [("n=750", report_750.rounded == exact_table_7000[750])]
    for n in (100, 250, 500, 1000, 2000, 4000):
        report = pp.p2_estimate(n)
        checks.append((f"n={n}", report.rounded == exact_table_7000[n]))
    _verdict(5, "round-trip exactness sweep", checks)


def test_criterion_06_truncation_calibration(mstar_7000_k1):
    ctx = pp.precision_for(7000)
    with ctx.workdps():
        theory = circle.mstar_theory(7000, 1, ctx)
        cutoff = circle.n_cutoff_theory(7000, 0, ctx=ctx)
    numeric = mstar_7000_k1.m_star_used
    checks = [
        ("mstar_theory(7000,1) in [770, 790]", 770 < theory < 790),
        ("mstar_numeric(7000,1) in [870, 890]", 870 <= numeric <= 890),
        ("n_cutoff_theory(7000,0) floors to 45", int(mp.floor(cutoff)) == 45),
    ]
    _verdict(6, "truncation-point calibration", checks)


def test_criterion_07_constants(ctx50):
    der = pp.derived_constants(ctx50)
    with ctx50.workdps():
        c0 = pp.saddle_data(0, ctx50).c
        lam_c = circle.lambda_c(ctx50)
        d_at = oracles.d_of_lambda(lam_c, ctx50)
        sd18 = pp.saddle_data(mpmath.mpf("0.180"), ctx50)
        sd0 = pp.saddle_data(0, ctx50)

        def sig4(value, printed):
            ref = mpmath.mpf(printed)
            return abs(value - ref) <= mpmath.mpf("1e-4") * abs(ref)

        checks = [
            ("c1 = 0.730207 (4 s.f.)", sig4(der.c1, "0.730207")),
            ("c2 = 2.00945 (4 s.f.)", sig4(der.c2, "2.00945")),
            ("c(0) = 29.4696 (4 s.f.)", sig4(c0, "29.4696")),
            ("lambda_c = 0.180 (4 s.f.)",
             abs(lam_c - mpmath.mpf("0.180")) < mpmath.mpf("5e-4")),
            ("d(lambda_c) = 1 (4 s.f.)", abs(d_at - 1) < mpmath.mpf("1e-4")),
            ("f1(0.180) = -0.031",
             abs(sd18.f1 - mpmath.mpf("-0.031")) <= mpmath.mpf("1e-3")),
            ("f1'(0.180) = -0.329",
             abs(sd18.f1p - mpmath.mpf("-0.329")) <= mpmath.mpf("1e-3")),
            ("f1''(0) = -2 to 10 digits", abs(sd0.f1pp + 2) < mpmath.mpf("1e-10")),
        ]
    _verdict(7, "constants", checks)


def test_criterion_08_dedekind_suite(ctx50):
    checks = []
    ctx60 = pp.PrecisionContext(decimal_digits=60)
    with ctx60.workdps():
        worst = max(abs(mp.fsum(mp.log(2 * mp.sin(mp.pi * j / k))
                                for j in range(1, k)) - mp.log(k))
                    for k in range(2, 201))
        checks.append(("Rademacher-Grosswald identity k<=200 at 1e-40",
                       worst < mpmath.mpf("1e-40")))
    with ctx50.workdps():
        ok_vp = True
        for k in range(2, 8):
            for h in range(1, k):
                if math.gcd(h, k) != 1:
                    continue
                for p in range(2, 9):
                    a = pp.vp_hk(p, h, k, ctx50)
                    b = oracles.vp_hk_cot(p, h, k, ctx50)
                    scale = max(abs(a), abs(b), mpmath.mpf("1e-25"))
                    if abs(a - b) / scale >= mpmath.mpf("1e-25"):
                        ok_vp = False
        checks.append(("double-sum vs cot-form v^(p), p<=8, k<=7", ok_vp))

        rng = random.Random(20240817)
        pairs = set()
        while len(pairs) < 500:
            k = rng.randint(2, 300)
            h = rng.randint(1, k - 1)
            if math.gcd(h, k) == 1:
                pairs.add((h, k))
        ok_bounds = all(flag is not False
                        for h, k in sorted(pairs)
                        for _, flag in pp.bound_suite(h, k, ctx50))
        checks.append(("bound_suite on 500 random pairs k<=300", ok_bounds))

        rel_pairs = set()
        while len(rel_pairs) < 100:
            k = rng.randint(2, 150)
            h = rng.randint(1, k - 1)
            if math.gcd(h, k) == 1:
                rel_pairs.add((h, k))
        ok_rel = True
        for h, k in sorted(rel_pairs):
            hp = pow(h, -1, k)
            lhs = pp.c_hk(hp, k, ctx50)
            rhs = k * mp.log(k) / 12 - k * pp.b_hk(h, k, ctx50) / 2
            if abs(lhs - rhs) >= mpmath.mpf("1e-30"):
                ok_rel = False
        checks.append(("C_{h',k} = (k/12)log k - (k/2) b_{h,k}, 100 pairs", ok_rel))
    _verdict(8, "Dedekind property suite", checks)


def test_criterion_09_bmin_numerics():
    ctx = pp.PrecisionContext(decimal_digits=30)
    checks = []
    with ctx.workdps():
        for k in (211, 499, 751, 997):
            _, val = dedekind.b_min(k, ctx)
            checks.append((f"b_min({k}) > 0.353", val > mpmath.mpf("0.353")))
        for k in (35, 50, 101):
            _, val = dedekind.b_min(k, ctx)
            checks.append((f"b_min({k}) > log2/2", val > mp.log(2) / 2))
    ctx50 = pp.PrecisionContext(decimal_digits=50)
    with ctx50.workdps():
        for k in (100, 500, 1000):
            err = abs(pp.b_hk(1, k, ctx50) - oracles.b1k_estimate(k, ctx50))
            checks.append((f"|b(1,{k}) - estimate| < 10/k^2",
                           err < mpmath.mpf(10) / k**2))
        res = [abs(pp.reciprocity_residual(1, k, ctx50)) for k in (97, 499, 997)]
        checks.append(("reciprocity residual decays on {97,499,997}",
                       res[0] > res[1] > res[2]))
    _verdict(9, "Appendix-D numerics", checks)


def test_criterion_10_almkvist_properties(ctx50):
    checks = []
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
        checks.append(("derivative identity, 2nd-order central differences",
                       3.5 < ratio < 4.5))
    ctx_hi = pp.PrecisionContext(decimal_digits=400)
    with ctx_hi.workdps():
        x = mpmath.mpf(10) ** 4
        gamma = mpmath.mpf("-1") / 12
        r = pp.almkvist_series(x, gamma, ctx_hi).value / oracles.almkvist_saddle(x, gamma, ctx_hi)
        checks.append(("series/saddle ratio in [0.99, 1.01] at x=1e4",
                       mpmath.mpf("0.99") < r < mpmath.mpf("1.01")))
        tol = mpmath.mpf(10) ** (-(ctx_hi.decimal_digits - 10))
        ok_grid = True
        for lam_s in ("0", "0.01", "0.05", "0.18", "0.5", "1", "2"):
            lam = mpmath.mpf(lam_s)
            sd = pp.saddle_data(lam, ctx_hi)
            if abs(sd.g**3 + 3 * lam * sd.g**2 - 1) >= tol:
                ok_grid = False
        checks.append(("saddle cubic residual on lambda grid", ok_grid))
    _verdict(10, "Almkvist properties", checks)
